import math
import sys

import numpy as np
import pytest
from scipy import integrate, special, stats

from varcomp import (
    DomainError,
    FParams,
    MomentUndefinedError,
    chi_square_band_probability,
    chi_square_cdf,
    f_cdf,
    f_mean,
    f_variance,
    std_normal_cdf,
)
from varcomp.oracle import f_draws, stream


def test_params_validation():
    with pytest.raises(DomainError):
        FParams(0, 5)
    with pytest.raises(DomainError):
        FParams(3, -1)
    with pytest.raises(DomainError):
        FParams(2.5, 5)
    with pytest.raises(DomainError):
        FParams(True, 5)
    for k in (0, -3, 2.5, True):
        with pytest.raises(DomainError):
            chi_square_cdf(k, 1.0)
        with pytest.raises(DomainError):
            chi_square_band_probability(k)
    assert FParams(np.int64(3), np.int64(7)).d1 == 3  # integral numpy scalars ok


def test_params_reject_what_float_cannot_hold():
    # 2**1024 - 2**970 is the first integer float() rounds to infinity
    edge = 2 ** 1024 - 2 ** 970
    assert float(FParams(1, edge - 1).d2) == 1.7976931348623157e308
    for make in (lambda n: FParams(1, n), lambda n: FParams(n, 5),
                 lambda n: chi_square_cdf(n, 1.0), chi_square_band_probability):
        for n in (edge, 2 ** 1024, 10 ** 400):
            with pytest.raises(DomainError, match="must convert to a float"):
                make(n)


def test_f_mean():
    assert f_mean(FParams(4, 6)) == 1.5
    assert f_mean(FParams(1, 4)) == 2.0
    with pytest.raises(MomentUndefinedError):
        f_mean(FParams(7, 2))


def test_f_variance():
    assert f_variance(FParams(4, 6)) == pytest.approx(4.5, rel=1e-15)
    assert f_variance(FParams(1, 5)) == pytest.approx(200.0 / 9.0, rel=1e-15)
    with pytest.raises(MomentUndefinedError):
        f_variance(FParams(3, 4))


def test_cdf_anchors():
    assert f_cdf(FParams(3, 7), 0.0) == 0.0
    assert f_cdf(FParams(3, 7), -2.0) == 0.0
    assert chi_square_cdf(4, 0.0) == 0.0
    assert chi_square_cdf(4, -2.0) == 0.0
    assert std_normal_cdf(0.0) == 0.5
    # I_x(1, b) = 1 - (1-x)^b with x = d1/(d1 x + d2) mapped from x=1
    assert f_cdf(FParams(2, 4), 1.0) == pytest.approx(5.0 / 9.0, abs=1e-14)
    assert f_cdf(FParams(5, 9), math.inf) == 1.0
    assert chi_square_cdf(4, math.inf) == 1.0
    with pytest.raises(DomainError):
        f_cdf(FParams(2, 4), math.nan)
    with pytest.raises(DomainError):
        chi_square_cdf(4, math.nan)
    with pytest.raises(DomainError):
        std_normal_cdf(math.inf)


def test_f_cdf_at_the_float_edge():
    # d1 x overflows to inf, so the beta argument is taken as
    # 1 / (1 + d2 / (d1 x)) rather than inf / inf
    for x in (1e308, sys.float_info.max):
        assert f_cdf(FParams(3, 7), x) == 1.0
        assert f_cdf(FParams(3, 7), x) == float(special.fdtr(3, 7, x))


def test_f_cdf_matches_scipy_grid():
    rng = np.random.default_rng(31)
    for _ in range(150):
        d1 = int(rng.integers(1, 30))
        d2 = int(rng.integers(1, 120))
        x = float(rng.uniform(0.01, 8.0))
        assert f_cdf(FParams(d1, d2), x) == pytest.approx(
            float(special.fdtr(d1, d2, x)), abs=1e-12)


def test_chi_square_cdf_matches_scipy():
    rng = np.random.default_rng(17)
    for _ in range(100):
        k = int(rng.integers(1, 80))
        x = float(rng.uniform(0.0, 3.0 * k))
        assert chi_square_cdf(k, x) == pytest.approx(
            float(special.chdtr(k, x)), abs=1e-12)


def test_f_cdf_at_mean_strictly_interior():
    for d1 in (1, 2, 5, 17, 40):
        for d2 in (5, 9, 33, 101):
            v = f_cdf(FParams(d1, d2), f_mean(FParams(d1, d2)))
            assert 0.0 < v < 1.0


def test_chi_square_cdf_at_mean_envelope():
    # value at the mean decreases from ~0.68 (k=1) toward 1/2, staying in
    # (0.5, 0.7); spot-verified against an independent quadrature
    for k in range(1, 51):
        v = chi_square_cdf(k, float(k))
        assert 0.5 < v < 0.7, k
    for k in (1, 7, 50):
        def dens(t, k=k):
            return stats.chi2.pdf(t, k)
        ref, _ = integrate.quad(dens, 0.0, k, limit=300)
        assert chi_square_cdf(k, float(k)) == pytest.approx(ref, abs=1e-10)


def test_f_cdf_matches_empirical_cdf():
    # three parameter sets, one million draws each, 4 sigma binomial bound
    for (d1, d2, seed) in [(1, 5, 0), (4, 12, 1), (6, 50, 2)]:
        p = FParams(d1, d2)
        draws = f_draws(p, 1_000_000, stream(seed, d1, d2))
        for x in (0.4, 1.0, 2.5):
            emp = float(np.mean(draws <= x))
            ana = f_cdf(FParams(d1, d2), x)
            se = math.sqrt(max(ana * (1 - ana), 1e-12) / draws.size)
            assert abs(emp - ana) < 4.0 * se, (d1, d2, x)
