import math

import numpy as np
import pytest

from varcomp import (
    DomainError,
    FParams,
    MomentUndefinedError,
    ToleranceNotMetError,
    chi_square_cdf,
    f_cdf,
    f_mean,
    f_variance,
    log_beta,
    reg_inc_beta,
    variation_probability,
)
from varcomp.oracle import (
    McEstimate,
    chi_square_draws,
    f_draws,
    mc_variation_probability,
    quad_beta_integral,
    stream,
)


def test_sample_determinism():
    a = f_draws(FParams(1, 5), 1, stream(7, 1, 5))[0]
    b = f_draws(FParams(1, 5), 1, stream(7, 1, 5))[0]
    assert a == b and a > 0.0
    # distinct (seed, d1, d2) keys give distinct streams
    c = f_draws(FParams(1, 5), 1, stream(8, 1, 5))[0]
    assert a != c


def test_mc_moments_match_formulas():
    p = FParams(4, 12)
    draws = f_draws(p, 1_000_000, stream(3, 4, 12))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - f_mean(p)) < 4.0 * se
    p6 = FParams(4, 6)
    draws = f_draws(p6, 1_000_000, stream(3, 4, 6))
    # variance of the sample variance is wide for heavy tails; 10% window
    assert f_variance(p6) == pytest.approx(draws.var(ddof=1), rel=0.1)


def test_chi_square_sampler_matches_cdf():
    # one sampler, gamma(k/2, 2), across the branches of numpy's gamma
    # sampler (shape < 1, = 1 and > 1): each empirical CDF against
    # chi_square_cdf on a grid around the mean
    n = 200_000
    for k in (1, 2, 8, 40):
        draws = chi_square_draws(k, n, stream(11, k, 0))
        for x in np.linspace(0.25 * k, 2.0 * k, 8):
            p = chi_square_cdf(k, float(x))
            se = math.sqrt(max(p * (1.0 - p), 1e-8) / n)
            assert abs(float(np.mean(draws <= x)) - p) < 4.5 * se, (k, x)


def test_mc_variation_probability():
    est = mc_variation_probability(FParams(1, 5), 200_000, seed=42)
    assert isinstance(est, McEstimate)
    assert est.stderr == pytest.approx(
        math.sqrt(est.estimate * (1 - est.estimate) / est.n), rel=1e-12)
    ana = variation_probability(FParams(1, 5))
    assert abs(est.estimate - ana) < 4.0 * est.stderr
    # deterministic for a fixed seed
    again = mc_variation_probability(FParams(1, 5), 200_000, seed=42)
    assert est == again
    with pytest.raises(MomentUndefinedError):
        mc_variation_probability(FParams(2, 4), 100_000)
    with pytest.raises(DomainError):
        mc_variation_probability(FParams(2, 9), 9_999)


def test_mc_agreement_random_grid():
    rng = np.random.default_rng(123)
    for _ in range(8):
        d1 = int(rng.integers(1, 7))
        d2 = int(rng.integers(5, 51))
        est = mc_variation_probability(FParams(d1, d2), 200_000, seed=5)
        ana = variation_probability(FParams(d1, d2))
        assert abs(est.estimate - ana) < 4.0 * est.stderr, (d1, d2)


@pytest.mark.slow
def test_mc_agreement_full_grid_one_million():
    # the exhaustive grid at 10^6 samples per cell (about two minutes);
    # deterministic by seed, the 4 sigma bound leaves no flake budget
    for d1 in range(1, 7):
        for d2 in range(5, 51):
            est = mc_variation_probability(FParams(d1, d2), 1_000_000, seed=9)
            ana = variation_probability(FParams(d1, d2))
            assert abs(est.estimate - ana) < 4.0 * est.stderr, (d1, d2)


def test_kolmogorov_smirnov_fit():
    n = 100_000
    for (d1, d2, seed) in [(1, 5, 21), (3, 11, 22), (6, 40, 23)]:
        draws = np.sort(f_draws(FParams(d1, d2), n, stream(seed, d1, d2)))
        cdf_vals = np.array([f_cdf(FParams(d1, d2), float(x)) for x in draws[:: n // 2000]])
        idx = np.arange(0, n, n // 2000)
        emp_hi = (idx + 1) / n
        emp_lo = idx / n
        ks = max(np.max(np.abs(cdf_vals - emp_hi)), np.max(np.abs(cdf_vals - emp_lo)))
        assert ks < 1.95 / math.sqrt(n), (d1, d2, ks)


def test_quad_simple_integrals():
    assert quad_beta_integral(1.0, 1.0, 0.0, 0.3).value == pytest.approx(0.3, abs=1e-14)
    assert quad_beta_integral(1.0, 2.0, 0.0, 0.5).value == pytest.approx(0.375, abs=1e-13)
    assert quad_beta_integral(2.0, 5.0, 0.3, 0.3).value == 0.0


def test_quad_full_range_normalization():
    rng = np.random.default_rng(99)
    for _ in range(120):
        a = math.exp(rng.uniform(math.log(0.5001), math.log(100.0)))
        b = math.exp(rng.uniform(math.log(0.5001), math.log(100.0)))
        exact = math.exp(log_beta(a, b))
        q = quad_beta_integral(a, b, 0.0, 1.0, 1e-11 * exact)
        assert q.value == pytest.approx(exact, rel=1e-10)
        assert q.abs_error_bound <= 1e-11 * exact * 1.0000001


def test_quad_agrees_with_continued_fraction():
    rng = np.random.default_rng(4)
    for _ in range(80):
        a = math.exp(rng.uniform(math.log(0.5), math.log(60.0)))
        b = math.exp(rng.uniform(math.log(0.5), math.log(60.0)))
        x = float(rng.uniform(0.02, 0.98))
        scale = math.exp(log_beta(a, b))
        q = quad_beta_integral(a, b, 0.0, x, 1e-12 * scale)
        assert q.value / scale == pytest.approx(reg_inc_beta(x, a, b), abs=1e-10)


def test_quad_singular_endpoints():
    # a = 1/2 singularity at t = 0 (numerator df 1) and b < 1 at t = 1
    q = quad_beta_integral(0.5, 2.5, 0.0, 1.0, 1e-13)
    assert q.value == pytest.approx(math.exp(log_beta(0.5, 2.5)), abs=1e-12)
    q = quad_beta_integral(0.7, 0.6, 0.0, 1.0, 1e-12)
    assert q.value == pytest.approx(math.exp(log_beta(0.7, 0.6)), abs=5e-12)


def test_quad_domain_and_failure():
    with pytest.raises(DomainError):
        quad_beta_integral(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        quad_beta_integral(1.0, 1.0, 0.5, 0.2)
    with pytest.raises(DomainError):
        quad_beta_integral(1.0, 1.0, 0.0, 1.5)
    with pytest.raises(DomainError):
        quad_beta_integral(1.0, 1.0, 0.0, 1.0, tol=0.0)
    with pytest.raises(ToleranceNotMetError) as exc_info:
        quad_beta_integral(0.5, 0.5, 0.0, 1.0, 1e-280)
    assert exc_info.value.value is not None  # best value attached
    # a finite numpy integer is a finite real, as reg_inc_beta takes it;
    # NaN, inf and a non-number are not
    assert quad_beta_integral(np.int64(2), 3, 0.1, 0.2) == quad_beta_integral(2.0, 3.0, 0.1, 0.2)
    for bad in (math.nan, math.inf, None, "x"):
        with pytest.raises(DomainError, match="a must be a finite real"):
            quad_beta_integral(bad, 3, 0.1, 0.2)
