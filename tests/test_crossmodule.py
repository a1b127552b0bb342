"""Weld checks between layers: the aux log forms, the endpoint machinery,
and the series evaluators must be exact rewrites of each other, not merely
simultaneously true."""

import math

import pytest

from varcomp import FParams, band_endpoints
from varcomp.oracle import quad_beta_integral
from varcomp.programs import PROGRAMS, _weld
from varcomp.proofcheck import check_step_inequalities, coefficient_sign_checks
from varcomp.proofcheck.auxfn import h2, h4, k_fun, r4
from varcomp.proofcheck.steps import series_forms_even


def test_log_form_welds_all_cases():
    # every log-form weld of the table, from the start of its span to d2 = 149
    walked = set()
    for program in PROGRAMS.values():
        for check in program:
            if getattr(check.evaluator, "func", None) is _weld and check.coverage.hi == "welds":
                block = check.evaluator(range(check.coverage.lo, 150))
                assert set(block.statuses) == {"pass"}, block
                walked.add(block.check_id)
    assert walked == {"h1_log_form_consistency", "k_matches_scaled_endpoints",
                      "h2_log_form_consistency", "h3_log_form_consistency",
                      "h4_log_form_consistency", "r4_log_form_consistency"}


def test_h_step_sign_equals_power_step_sign():
    for d1, fn in ((2, h2),):
        for d2 in range(5, 150):
            margins = check_step_inequalities(FParams(d1, d2))
            step = fn(float(d2 - 2)) - fn(float(d2))
            assert (step > 0) == (margins["power_step"] > 0), (d1, d2)


def test_h4_r4_step_signs_match_reduced_forms():
    for d2 in range(5, 150):
        margins = check_step_inequalities(FParams(4, d2))
        assert (h4(float(d2)) - h4(float(d2 - 2)) > 0) == (
            margins["poly_power_step"] > 0), d2
        if margins["poly_power_step_lower"] is not None:
            assert (r4(float(d2 - 2)) - r4(float(d2)) > 0) == (
                margins["poly_power_step_lower"] > 0), d2


def test_k_weld_gives_coefficient_margin():
    # the third coefficient claim for d1 = 1 is exactly k(d2) - k(d2+2)
    for d2 in (5, 9, 40, 120):
        margin = coefficient_sign_checks(1, d2)["coef_dominance"]
        assert margin == pytest.approx(k_fun(float(d2)) - k_fun(float(d2 + 2)),
                                       rel=1e-9)


def test_even_series_is_exact_rewrite_of_upper_edge():
    # exp(J(d2)) must equal the closed endpoint expression at (d1, d2), and
    # the J-step direction must match the quadrature upper-edge inequality
    for d1 in (6, 8):
        for d2 in range(7, 90):
            ep = band_endpoints(FParams(d1, d2))
            j_val, _ = series_forms_even(d1, float(d2))
            half = d1 // 2
            total = 0.0
            for n in range(half):
                total += (math.comb(half - 1, n) * (ep.a - 1.0) ** n
                          / (2 * n + d2 + 2.0))
            direct = (0.5 * (d2 + 2.0) * math.log1p(-ep.a) + math.log(total)
                      + sum(math.log(2 * n + d2 + 2.0) for n in range(half)))
            assert j_val == pytest.approx(direct, rel=1e-12), (d1, d2)

            j_prev, _ = series_forms_even(d1, float(d2 - 2))
            a2, b2 = 0.5 * d1, 0.5 * d2
            upper = d2 * quad_beta_integral(a2, b2, ep.a, ep.b, 1e-13).value
            boundary = 2.0 * math.exp(a2 * math.log(ep.a) + b2 * math.log1p(-ep.a))
            assert (j_val > j_prev) == (upper > boundary), (d1, d2)


def test_even_series_lower_matches_lower_edge_where_defined():
    # K-step direction vs the signed lower-edge inequality, where d > c > 0
    from varcomp import d_exceeds_c
    for d1 in (6, 8):
        for d2 in range(7, 90):
            p = FParams(d1, d2)
            ep = band_endpoints(p)
            if not (ep.d > 0.0 and d_exceeds_c(p)):
                continue
            k_here = series_forms_even(d1, float(d2))[1]
            k_prev = series_forms_even(d1, float(d2 - 2))[1]
            a2, b2 = 0.5 * d1, 0.5 * d2
            lower = d2 * quad_beta_integral(a2, b2, ep.c, ep.d, 1e-13).value
            boundary = 2.0 * math.exp(a2 * math.log(ep.c) + b2 * math.log1p(-ep.c))
            assert (k_prev > k_here) == (boundary > lower), (d1, d2)
