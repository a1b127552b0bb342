import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

import varcomp.specfun as specfun
from varcomp.cli import main
from varcomp import (
    ConvergenceError,
    DomainError,
    log_beta,
    log_gamma,
    reg_inc_beta,
    reg_lower_gamma,
    std_normal_cdf,
)
from varcomp.varband import chi_square_band_probability


def test_log_gamma_small_integers():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)


def test_log_gamma_matches_stdlib_reference():
    for x in [0.5, 0.75, 1.0, 1.5, 2.0, 3.7, 10.0, 123.4, 5000.0, 1e6]:
        ref = math.lgamma(x)
        tol = 1e-13 * max(1.0, abs(ref))
        assert abs(log_gamma(x) - ref) <= tol, x


def test_log_gamma_recurrence_absolute():
    # ln G(x+1) - ln G(x) = ln x; the absolute 1e-12 form is meaningful in
    # binary64 only while ln G(x) stays below ~4e3 (1 ulp < 1e-12)
    for x in np.geomspace(0.5, 170.0, 400):
        lhs = log_gamma(x + 1.0) - log_gamma(x)
        assert abs(lhs - math.log(x)) <= 1e-12, x


def test_log_gamma_recurrence_relative_full_range():
    for x in np.geomspace(0.5, 1e5, 400):
        lhs = log_gamma(x + 1.0) - log_gamma(x)
        tol = 1e-12 * max(1.0, abs(log_gamma(x + 1.0)))
        assert abs(lhs - math.log(x)) <= tol, x


def test_log_gamma_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            log_gamma(bad)


def test_reg_inc_beta_boundary_and_symmetry_points():
    assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
    assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0
    assert reg_inc_beta(0.5, 3.0, 3.0) == pytest.approx(0.5, abs=1e-14)
    # closed form I_x(1, b) = 1 - (1-x)^b
    assert reg_inc_beta(0.5, 1.0, 2.0) == pytest.approx(0.75, abs=1e-14)


def test_reg_inc_beta_against_scipy_grid():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        a = math.exp(rng.uniform(math.log(0.1), math.log(1000.0)))
        b = math.exp(rng.uniform(math.log(0.1), math.log(1000.0)))
        x = float(rng.uniform(0.0, 1.0))
        assert reg_inc_beta(x, a, b) == pytest.approx(
            float(special.betainc(a, b, x)), abs=1e-13)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(0.001, 0.999),
    a=st.floats(0.1, 200.0),
    b=st.floats(0.1, 200.0),
)
def test_reg_inc_beta_symmetry_property(x, a, b):
    assert abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(0.001, 0.999),
    a=st.floats(0.1, 200.0),
    b=st.floats(0.1, 200.0),
)
def test_reg_inc_beta_recurrence_property(x, a, b):
    # I_x(a, b+1) = I_x(a, b) + x^a (1-x)^b / (b B(a, b))
    step = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)) / b
    lhs = reg_inc_beta(x, a, b + 1.0)
    rhs = reg_inc_beta(x, a, b) + step
    assert abs(lhs - rhs) <= 1e-12


def test_reg_inc_beta_monotone_in_x():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = math.exp(rng.uniform(math.log(0.2), math.log(50.0)))
        b = math.exp(rng.uniform(math.log(0.2), math.log(50.0)))
        xs = np.sort(rng.uniform(0.0, 1.0, size=8))
        vals = [reg_inc_beta(float(x), a, b) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_reg_inc_beta_domain_errors():
    with pytest.raises(DomainError):
        reg_inc_beta(-0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        reg_inc_beta(1.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        reg_inc_beta(0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        reg_inc_beta(0.5, 1.0, -2.0)
    with pytest.raises(DomainError):
        reg_inc_beta(math.nan, 1.0, 1.0)


def test_convergence_cap_is_a_hard_error(monkeypatch):
    # the continued fraction near s = x needs a few hundred iterations at
    # s = 2000; a small cap must raise, never return a bad value
    monkeypatch.setattr(specfun, "_MAX_ITER", 50)
    with pytest.raises(ConvergenceError):
        reg_lower_gamma(2000.0, 2000.0)


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 2.5, 9.5, 10.0, 12.5, 50.0, 100.0])
def test_log_beta_against_mpmath(a):
    # the log-gamma sum loses about b ln(b) eps at large b (8.5e-8 at
    # (1.5, 5e7)); the regrouped form keeps full relative precision
    mpmath = pytest.importorskip("mpmath")
    for b in [10.0, 12.0, 20.0, 100.0, 1e3, 5e4, 5e7, 5e11, 1e15, 5e19]:
        with mpmath.workdps(40):
            exact = float(mpmath.log(mpmath.beta(a, b)))
        for x, y in ((a, b), (b, a)):
            assert abs(log_beta(x, y) - exact) <= 1e-14 * abs(exact), (x, y)


def test_log_beta_small_arguments_keep_the_log_gamma_sum():
    for a, b in [(0.5, 3.0), (2.0, 6.0), (4.5, 9.5)]:
        assert log_beta(a, b) == log_gamma(a) + log_gamma(b) - log_gamma(a + b)
    for a, b in [(0.0, 20.0), (20.0, -1.0), (math.nan, 20.0), (20.0, math.inf)]:
        with pytest.raises(DomainError):
            log_beta(a, b)


def test_reg_lower_gamma_values():
    assert reg_lower_gamma(3.0, 0.0) == 0.0
    assert reg_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)
    # chi-square(1) is a squared standard normal
    assert reg_lower_gamma(0.5, 0.5) == pytest.approx(
        2.0 * std_normal_cdf(1.0) - 1.0, abs=1e-10)


def test_reg_lower_gamma_against_scipy():
    rng = np.random.default_rng(11)
    for _ in range(300):
        s = math.exp(rng.uniform(math.log(0.1), math.log(500.0)))
        x = math.exp(rng.uniform(math.log(1e-3), math.log(2000.0)))
        assert reg_lower_gamma(s, x) == pytest.approx(
            float(special.gammainc(s, x)), abs=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 25, 50])
def test_reg_lower_gamma_matches_chi_square_density_quadrature(k):
    x = k + 0.7  # a point past the mean
    def dens(t):
        return math.exp((0.5 * k - 1.0) * math.log(t) - 0.5 * t
                        - 0.5 * k * math.log(2.0) - math.lgamma(0.5 * k))
    ref, _ = integrate.quad(dens, 0.0, x, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert reg_lower_gamma(0.5 * k, 0.5 * x) == pytest.approx(ref, abs=1e-10)


def test_reg_lower_gamma_domain():
    with pytest.raises(DomainError):
        reg_lower_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        reg_lower_gamma(1.0, -0.5)
    assert reg_lower_gamma(2.0, math.inf) == 1.0


def test_chi_square_band_is_bit_identical_for_k_up_to_2000():
    # the series' tail guard raises or leaves a value as it was: the digest
    # (sha256 of the space-joined float.hex of each band probability) is that
    # of the series before the guard
    text = " ".join(chi_square_band_probability(k).hex() for k in range(1, 2001))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f3642308282c2aa47ba5613c3e4d8142877724ce3a36701ee24acde25d708f1c")


#: sha256 of the report bytes of the default prove of each proved d1 and of
#: the default sweep with every proved check.  The route tests compare the
#: routes with each other; these pin what all of them write.  A change that
#: alters a report on purpose (a claim, a margin, a note, the header's
#: version) updates its digest in the same change.
_REPORT_DIGESTS = {
    ("prove", "--d1", "1"): "35aad12cc30784cb8e4ca5fe134bac39e6a0d93636c9e88a3c7c061fbcd089a4",
    ("prove", "--d1", "2"): "f192354bcdc4e9d598ca96d4fc85121f9ca024b5306d773c8bcf39b7599935b0",
    ("prove", "--d1", "3"): "0200fc9f588602a1c211b7cbb3a177c8e2ce7e3d09bd77842a9f5f5040bbf72f",
    ("prove", "--d1", "4"): "adcfead2f6feaeec402704d426911de1d18ff706190ca1197a70b1bc229740ee",
    ("sweep", "--d1", "1..4", "--check", "bound,monotone,limit,steps,tables"):
        "3e6ba4074ecfd8d64a8b5c788c4fa2e2b65bde8b55327b76dab0ac34614b9a80",
    ("explore", "--d1", "5..12", "--d2", "5..200"):
        "2965440961a14237ecad55b24442948bdd6f0318093dbd55ee2aa1efe9d823b0",
}


@pytest.mark.parametrize("argv", list(_REPORT_DIGESTS),
                         ids=lambda argv: "_".join(arg.strip("-") for arg in argv))
def test_report_bytes_are_pinned(argv, tmp_path, capsys):
    path = tmp_path / "r.csv"
    assert main([*argv, "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _REPORT_DIGESTS[argv]


def test_gamma_series_cut_short_by_the_absolute_tolerance_fails_loud():
    # at s = 5e15 the first term 1/s is below the absolute tolerance, so the
    # stop rule ends the sum at once; near x = s its tail is far above it
    s = 5e15
    for x in (s - 1e9, s - 3.0 * math.sqrt(s), s - 1.0):
        with pytest.raises(ConvergenceError, match="tail bound above its sum"):
            reg_lower_gamma(s, x)
    # where the front factor underflows the value is 0 whatever the sum
    assert reg_lower_gamma(s, 0.8 * s) == 0.0 == float(special.gammainc(s, 0.8 * s))
    assert reg_lower_gamma(s, 1.0) == 0.0


def test_std_normal_cdf_symmetry_and_anchor():
    assert std_normal_cdf(0.0) == 0.5
    assert 2.0 * std_normal_cdf(1.0) - 1.0 == pytest.approx(0.6826894921370859, abs=1e-14)
    for z in (-8.0, -3.2, -1.0, -0.1, 0.7, 2.5, 9.0):
        assert abs(std_normal_cdf(z) + std_normal_cdf(-z) - 1.0) <= 1e-15
    with pytest.raises(DomainError):
        std_normal_cdf(math.inf)
