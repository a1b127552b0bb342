import math

import pytest

from varcomp import STRICTNESS_FLOOR, DomainError, FParams, check_monotone_step
from varcomp.oracle import quad_beta_integral
from varcomp.programs import explore_rows
from varcomp.proofcheck import (
    check_step_inequalities,
    coefficient_sign_checks,
    falling_factorial_bounds_odd,
    series_forms_even,
)
from varcomp.varband import band_endpoints


def holds(margins) -> bool:
    """Every form that applies beats the default strictness floor."""
    return all(m > STRICTNESS_FLOOR for m in margins.values() if m is not None)


def checked(margins) -> list:
    return [form for form, m in margins.items() if m is not None]


def not_applicable(margins) -> list:
    return [form for form, m in margins.items() if m is None]


def test_case_d1_2_holds():
    for d2 in (5, 7, 30, 199):
        margins = check_step_inequalities(FParams(2, d2))
        assert holds(margins), margins
        assert "power_step" in checked(margins)
        assert "lower_edge" in not_applicable(margins)  # c = 0 for d1 = 2


def test_case_d1_4_region_boundary():
    r17 = check_step_inequalities(FParams(4, 17))
    assert holds(r17)
    assert "poly_power_step_lower" in checked(r17)
    r16 = check_step_inequalities(FParams(4, 16))
    assert holds(r16)
    assert "poly_power_step_lower" in not_applicable(r16)
    # the lower edge itself is evaluated as soon as c > 0
    assert "lower_edge" in checked(r16)


def test_case_d1_3_region_boundary():
    r25 = check_step_inequalities(FParams(3, 25))
    assert holds(r25)
    assert "product_step_lower" in checked(r25)
    assert "ratio_bound_lower" in checked(r25)
    r24 = check_step_inequalities(FParams(3, 24))
    assert holds(r24)
    assert "product_step_lower" in not_applicable(r24)


def test_trivial_lower_edge_when_d_below_c():
    # for d1 = 4, 11 <= d2 <= 16 has d > 0 but d < c: the signed integral is
    # negative, so the lower edge holds with a large margin
    ep = band_endpoints(FParams(4, 12))
    assert 0.0 < ep.d < ep.c
    margins = check_step_inequalities(FParams(4, 12))
    assert margins["lower_edge"] > 0.0


def test_step_integral_equiv_monotone_step():
    # the integral form is an exact rewrite of the probability step:
    # prob margin = integral margin / (d2 B(d1/2, d2/2))
    from varcomp.specfun import log_beta
    for (d1, d2) in [(1, 9), (2, 14), (3, 25), (4, 17), (4, 44)]:
        margins = check_step_inequalities(FParams(d1, d2))
        prob_margin = check_monotone_step(FParams(d1, d2)).margins[0]
        scale = d2 * math.exp(log_beta(0.5 * d1, 0.5 * d2))
        assert margins["step_integral"] / scale == pytest.approx(
            prob_margin, rel=1e-6)


def test_chain_consistency_implication():
    # reduced forms passing must imply the probability step passing
    for d1 in (1, 2, 3, 4):
        for d2 in range(5, 120):
            if holds(check_step_inequalities(FParams(d1, d2))):
                assert check_monotone_step(FParams(d1, d2)).margins[0] > 0.0, (d1, d2)


def test_domain_guards():
    with pytest.raises(DomainError):
        check_step_inequalities(FParams(2, 4))
    with pytest.raises(DomainError):
        coefficient_sign_checks(2, 9)


def test_coefficient_sign_checks_d1_1():
    for d2 in (5, 50):
        margins = coefficient_sign_checks(1, d2)
        assert holds(margins)
        assert checked(margins) == [
            "coef_lower_bound", "coef_combination", "coef_dominance"]
        assert all(m > 0 for m in margins.values())


def test_coefficient_sign_checks_d1_3():
    margins = coefficient_sign_checks(3, 25)
    assert holds(margins) and checked(margins) == ["cd_order"]
    margins = coefficient_sign_checks(3, 12)
    assert checked(margins) == [] and not_applicable(margins) == ["cd_order"]


def test_series_forms_even():
    j, k = series_forms_even(6, 20.0)
    assert math.isfinite(j) and math.isfinite(k)
    j2, k2 = series_forms_even(8, 50.0)
    assert math.isfinite(j2) and math.isfinite(k2)
    with pytest.raises(DomainError):
        series_forms_even(5, 20.0)
    with pytest.raises(DomainError):
        series_forms_even(4, 20.0)
    # a sum term past the float range is a domain error, not an OverflowError
    with pytest.raises(DomainError, match="overflows at d1=304, y=5.0"):
        series_forms_even(304, 5.0)


def test_series_step_matches_exact_step_direction():
    # the series步 difference signs reproduce the proved pattern at even d1
    for d1 in (6, 8):
        for d2 in range(8, 80, 4):
            j_prev, k_prev = series_forms_even(d1, float(d2 - 2))
            j_here, k_here = series_forms_even(d1, float(d2))
            assert j_here > j_prev, (d1, d2)
            assert k_here < k_prev, (d1, d2)


def test_falling_factorial_bounds():
    r = falling_factorial_bounds_odd(5, 9)
    assert checked(r) == ["truncated_series_upper"]
    assert r["truncated_series_upper"] > 0
    # the program that reports them quarantines them as exploratory
    assert [(row.check_id, row.exploratory) for row in explore_rows(5, [9])] == [
        ("truncated_series_upper", True), ("truncated_series_lower", True)]
    r = falling_factorial_bounds_odd(5, 5)
    assert "truncated_series_lower" in not_applicable(r)
    r = falling_factorial_bounds_odd(7, 40)
    assert set(checked(r)) == {"truncated_series_upper", "truncated_series_lower"}
    with pytest.raises(DomainError):
        falling_factorial_bounds_odd(4, 9)
    with pytest.raises(DomainError):
        falling_factorial_bounds_odd(3, 9)
    # n! passes the float range from n = 171: the lower form's truncated sum
    # overflows from d1 = 343, the upper form's from d1 = 345
    assert falling_factorial_bounds_odd(343, 20)["truncated_series_lower"] is None
    assert falling_factorial_bounds_odd(343, 20)["truncated_series_upper"] > 0
    assert set(falling_factorial_bounds_odd(345, 20).values()) == {None}


def test_truncated_upper_bound_is_a_lower_bound_of_the_integral():
    # the floor-truncated binomial series undershoots the full series, so
    # d2 * S_floor <= d2 * I[a,b] / (a^(d1/2-1} (1-a)^(d2/2)); conservatism
    # of the sufficient bound, checked against quadrature
    from varcomp.proofcheck.steps import _truncated_sum
    for (d1, d2) in [(5, 9), (7, 21), (9, 33)]:
        ep = band_endpoints(FParams(d1, d2))
        true_side = d2 * quad_beta_integral(
            0.5 * d1, 0.5 * d2, ep.a, ep.b, 1e-13).value
        series_side = _truncated_sum(d1, d2, ep.a, ep.b, math.floor(0.5 * d1 - 1.0))
        exact_transformed = true_side / math.exp(
            (0.5 * d1 - 1.0) * math.log(ep.a) + 0.5 * d2 * math.log1p(-ep.a))
        assert series_side <= exact_transformed * (1.0 + 1e-9), (d1, d2)
