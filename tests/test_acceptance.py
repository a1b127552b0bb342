"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite targets well under two minutes.
"""

import math

import numpy as np
import pytest

from varcomp import (
    FParams,
    NORMAL_BAND,
    STRICTNESS_FLOOR,
    chi_square_band_probability,
    d_exceeds_c,
    log_beta,
    log_gamma,
    reg_inc_beta,
    reg_lower_gamma,
    std_normal_cdf,
    variation_probability,
)
from varcomp.oracle import mc_variation_probability, quad_beta_integral
from varcomp.proofcheck import (
    AuxFn,
    GOLDEN_TABLES,
    REFERENCE_EXPANSIONS,
    REFERENCE_VALUES,
    aux_eval,
    check_step_inequalities,
    poly_value,
    rational_V_consistency,
    shifted_expansion,
)
from varcomp.varband import band_endpoints

D2_MAX = 400


@pytest.fixture(scope="module")
def f_band_table():
    """Band probabilities for d1 in 1..4, d2 in 5..D2_MAX+2 (shared)."""
    table = {}
    for d1 in range(1, 5):
        for d2 in range(5, D2_MAX + 3):
            table[(d1, d2)] = variation_probability(FParams(d1, d2))
    return table


def _report(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def test_criterion_01_normal_baseline():
    assert NORMAL_BAND == pytest.approx(0.6826895, abs=1e-6)
    _report(1, "normal baseline 2*Phi(1)-1")


def test_criterion_02_golden_tables():
    checked = 0
    for fn, table in GOLDEN_TABLES.items():
        relative = fn is AuxFn.G1
        for y, expected in table.items():
            got = aux_eval(fn, y)
            err = abs(got - expected) / abs(expected) if relative else abs(got - expected)
            assert err <= 1e-5, (fn.name, y)
            checked += 1
    assert checked == 3 + 10 + 10 + 9
    _report(2, f"golden tables ({checked} values within 1e-5)")


def test_criterion_03_exact_integer_certificates():
    assert [poly_value("P4", n) for n in range(11, 17)] == [
        -7219, -7744, -7731, -6976, -5251, -2304]
    assert [poly_value("P3", n) for n in range(15, 25)] == [
        -30258, -33056, -35172, -36360, -36350,
        -34848, -31536, -26072, -18090, -7200]
    for (family, shift), coeffs in REFERENCE_EXPANSIONS.items():
        exp = shifted_expansion(family, shift)
        assert exp == tuple(coeffs), (family, shift)
        assert all(c > 0 for c in exp), (family, shift)
    assert set(REFERENCE_VALUES) == {"P3", "P4"}
    _report(3, "exact certificates (values and expansions bit-exact, all positive)")


def test_criterion_04_bound_over_grid(f_band_table):
    worst = math.inf
    for d1 in range(1, 5):
        for d2 in range(5, D2_MAX + 1):
            margin = f_band_table[(d1, d2)] - NORMAL_BAND
            worst = min(worst, margin)
            assert margin > 1e-6, (d1, d2, margin)
            # strict dominance over the chi-square limit as well
            assert f_band_table[(d1, d2)] > chi_square_band_probability(d1), (d1, d2)
    _report(4, f"band probability exceeds normal baseline (worst margin {worst:.3e})")


def test_criterion_05_monotone_step(f_band_table):
    worst = math.inf
    for d1 in range(1, 5):
        for d2 in range(5, D2_MAX + 1):
            step = f_band_table[(d1, d2)] - f_band_table[(d1, d2 + 2)]
            worst = min(worst, step)
            assert step > 1e-9, (d1, d2, step)
    _report(5, f"monotone step decrease (worst step {worst:.3e})")


def test_criterion_06_slutsky_limit():
    for d1 in range(1, 11):
        chi_val = chi_square_band_probability(d1)
        seq = [variation_probability(FParams(d1, d2)) for d2 in (100, 1_000, 10_000)]
        assert abs(seq[-1] - chi_val) < 1e-3, d1
        assert seq[0] > seq[1] > seq[2] > chi_val, d1
    _report(6, "chi-square limit at d2 = 10^4 and monotone approach")


def test_criterion_07_step_inequality_chains():
    for d1 in (1, 2, 3, 4):
        for d2 in range(5, D2_MAX + 1):
            margins = check_step_inequalities(FParams(d1, d2))
            assert all(m > STRICTNESS_FLOOR for m in margins.values()
                       if m is not None), (d1, d2, margins)
            if d1 == 3 and d2 >= 25:
                assert margins["product_step_lower"] is not None
                assert margins["ratio_bound_lower"] is not None
            if d1 == 4 and d2 >= 17:
                assert margins["poly_power_step_lower"] is not None
    assert not d_exceeds_c(FParams(4, 16)) and d_exceeds_c(FParams(4, 17))
    assert not d_exceeds_c(FParams(3, 24)) and d_exceeds_c(FParams(3, 25))
    _report(7, "step-inequality chains over 5..400 with exact region boundaries")


def test_criterion_08_oracle_agreement():
    pairs = [(1, 5), (1, 17), (1, 48), (1, 100),
             (2, 7), (2, 14), (2, 30), (2, 99),
             (3, 9), (3, 25), (3, 60),
             (4, 11), (4, 17), (4, 44),
             (5, 12), (5, 37), (5, 88),
             (6, 10), (6, 52), (6, 100)]
    assert len(pairs) == 20
    worst_sigma = 0.0
    worst_quad = 0.0
    for (d1, d2) in pairs:
        p = FParams(d1, d2)
        analytic = variation_probability(FParams(d1, d2))
        mc = mc_variation_probability(p, 1_000_000, seed=42)
        sigma = abs(analytic - mc.estimate) / mc.stderr
        worst_sigma = max(worst_sigma, sigma)
        assert sigma < 4.0, (d1, d2, sigma)

        ep = band_endpoints(p)
        a, b = 0.5 * d1, 0.5 * d2
        scale = math.exp(log_beta(a, b))
        hi = quad_beta_integral(a, b, 0.0, ep.b, 1e-10 * scale).value
        lo = quad_beta_integral(a, b, 0.0, ep.d, 1e-10 * scale).value if ep.d else 0.0
        gap = abs(analytic - (hi - lo) / scale)
        worst_quad = max(worst_quad, gap)
        assert gap < 1e-8, (d1, d2, gap)
    _report(8, f"oracle agreement on 20 pairs (worst {worst_sigma:.2f} sigma, "
               f"quad gap {worst_quad:.2e})")


def test_criterion_09_specfun_properties():
    rng = np.random.default_rng(2718)
    for _ in range(1000):
        a = math.exp(rng.uniform(math.log(0.1), math.log(200.0)))
        b = math.exp(rng.uniform(math.log(0.1), math.log(200.0)))
        x = float(rng.uniform(0.001, 0.999))
        assert abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0) <= 1e-12
    for _ in range(1000):
        a = math.exp(rng.uniform(math.log(0.1), math.log(200.0)))
        b = math.exp(rng.uniform(math.log(0.1), math.log(200.0)))
        x = float(rng.uniform(0.001, 0.999))
        step = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)) / b
        assert abs(reg_inc_beta(x, a, b + 1.0)
                   - reg_inc_beta(x, a, b) - step) <= 1e-12
    # absolute 1e-12 on the log-gamma recurrence is binary64-meaningful while
    # ln G(x) is below ~4e3; sample the widest such range
    for _ in range(1000):
        x = math.exp(rng.uniform(math.log(0.5), math.log(170.0)))
        assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) <= 1e-12
    assert abs(reg_lower_gamma(0.5, 0.5)
               - (2.0 * std_normal_cdf(1.0) - 1.0)) <= 1e-10
    _report(9, "special-function identities (3000 random cases + anchor)")


def test_criterion_10_v_consistency():
    from varcomp.proofcheck.auxfn import g1, g2
    for y in range(25, 41):
        out = rational_V_consistency(y, rel_tol=1e-9)
        assert out.statuses == ["pass"], (y, out)
        assert g1(float(y)) < 0.0 and g2(float(y)) < 0.0, y
    _report(10, "two-route v agreement below 1e-9 with negative g1, g2")
