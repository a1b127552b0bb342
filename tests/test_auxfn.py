import math

import pytest

from varcomp import DomainError
from varcomp.proofcheck import (
    AuxFn,
    GOLDEN_TABLES,
    IDENTITY_IDS,
    algebra_identity_check,
    aux_domain_min,
    aux_eval,
    derivative_sign_check,
    monotone_table_check,
    rational_V_consistency,
    value_sign_check,
)
from varcomp.proofcheck.auxfn import c_of, d_of, g1, g2, g2_expanded, s1, s2, v_direct
from varcomp.varband import band_endpoints
from varcomp.distributions import FParams


def test_golden_point_values():
    assert aux_eval(AuxFn.H2, 3) == pytest.approx(2.87436, abs=1e-5)
    assert aux_eval(AuxFn.H3, 3) == pytest.approx(3.46574, abs=1e-5)
    assert aux_eval(AuxFn.H4, 3) == pytest.approx(-2.15017, abs=1e-5)


def test_every_golden_table_value():
    for fn, table in GOLDEN_TABLES.items():
        relative = fn is AuxFn.G1
        for y, expected in table.items():
            got = aux_eval(fn, y)
            err = abs(got - expected) / abs(expected) if relative else abs(got - expected)
            assert err <= 1e-5, (fn, y, got, expected)


def test_domain_enforcement():
    assert aux_domain_min(AuxFn.R4) == 15.0
    with pytest.raises(DomainError):
        aux_eval(AuxFn.R4, 14.0)
    with pytest.raises(DomainError):
        aux_eval(AuxFn.H1, 2.5)
    with pytest.raises(DomainError):
        aux_eval(AuxFn.V, 20.0)
    with pytest.raises(DomainError):
        aux_eval(AuxFn.H2, math.inf)
    with pytest.raises(DomainError):
        s1(4.0)
    with pytest.raises(DomainError):
        s2(2.0)


def test_monotone_tables():
    out = monotone_table_check(AuxFn.H2, [3, 4, 5], "decreasing")
    assert out.statuses == ["pass"] and "table" in out.notes[0]
    out = monotone_table_check(AuxFn.H4, range(3, 13), "increasing")
    assert out.statuses == ["pass"]
    out = monotone_table_check(AuxFn.H3, range(3, 13), "decreasing")
    assert out.statuses == ["pass"]
    # wrong direction must fail with a negative margin
    out = monotone_table_check(AuxFn.H3, range(3, 13), "increasing")
    assert out.statuses != ["pass"] and out.margins[0] < 0


def test_monotonicity_beyond_tables():
    assert monotone_table_check(AuxFn.H1, range(3, 201), "decreasing").statuses == ["pass"]
    assert monotone_table_check(AuxFn.H2, range(5, 201), "decreasing").statuses == ["pass"]
    assert monotone_table_check(AuxFn.H3, range(12, 201), "decreasing").statuses == ["pass"]
    assert monotone_table_check(AuxFn.H4, range(12, 201), "increasing").statuses == ["pass"]
    assert monotone_table_check(AuxFn.R4, range(15, 201), "decreasing").statuses == ["pass"]
    assert monotone_table_check(AuxFn.KFUN, range(5, 201), "decreasing").statuses == ["pass"]
    assert monotone_table_check(AuxFn.G1, range(25, 34), "decreasing").statuses == ["pass"]


def test_derivative_sign_secondary_checks():
    assert derivative_sign_check(AuxFn.H1, [4, 10, 50], -1).statuses == ["pass"]
    assert derivative_sign_check(AuxFn.H2, [6, 20, 100], -1).statuses == ["pass"]
    assert derivative_sign_check(AuxFn.H3, [13, 40, 150], -1).statuses == ["pass"]
    assert derivative_sign_check(AuxFn.H4, [13, 40, 150], 1).statuses == ["pass"]
    assert derivative_sign_check(AuxFn.R4, [16, 40, 150], -1).statuses == ["pass"]
    assert derivative_sign_check(AuxFn.KFUN, [6, 30], -1).statuses == ["pass"]
    with pytest.raises(DomainError):
        derivative_sign_check(AuxFn.R4, [15], -1)  # stencil exits the domain


def test_derivative_sign_check_uses_the_verdict_rule():
    # h1 decreases, so its derivative at 100 (about -2.02e-4) has the wrong
    # sign for an increase claim: that fails, however small it is
    out = derivative_sign_check(AuxFn.H1, [100], +1)
    assert out.margins[0] == pytest.approx(-2.02e-4, rel=1e-2)
    assert out.statuses != ["pass"]
    assert out.statuses == ["fail"]


def test_bound_function_signs():
    assert value_sign_check(AuxFn.L1, range(3, 201), -1).statuses == ["pass"]
    assert value_sign_check(AuxFn.L2, range(5, 201), -1).statuses == ["pass"]
    assert value_sign_check(AuxFn.L3, range(12, 201), -1).statuses == ["pass"]
    assert value_sign_check(AuxFn.L4, range(12, 201), -1).statuses == ["pass"]
    assert value_sign_check(AuxFn.Q4, range(15, 201), 1).statuses == ["pass"]


def test_bound_functions_bound_the_derivatives():
    # l_x >= h_x' and q4 <= -r4' at sampled points (the defining property)
    h = 1e-6
    for fn, bound, ys in ((AuxFn.H1, AuxFn.L1, (6.0, 15.0, 40.0)),
                          (AuxFn.H2, AuxFn.L2, (6.0, 15.0, 40.0)),
                          (AuxFn.H3, AuxFn.L3, (15.0, 40.0))):
        for y in ys:
            deriv = (aux_eval(fn, y + h) - aux_eval(fn, y - h)) / (2 * h)
            assert deriv <= aux_eval(bound, y) + 1e-9, (fn, y)
    for y in (13.0, 30.0):
        deriv = (aux_eval(AuxFn.H4, y + h) - aux_eval(AuxFn.H4, y - h)) / (2 * h)
        assert -deriv <= aux_eval(AuxFn.L4, y) + 1e-9
    for y in (16.0, 30.0):
        deriv = (aux_eval(AuxFn.R4, y + h) - aux_eval(AuxFn.R4, y - h)) / (2 * h)
        assert -deriv >= aux_eval(AuxFn.Q4, y) - 1e-9


def test_algebra_identities():
    grids = {
        "l1_prefactor_identity": range(3, 61),
        "l2_prefactor_identity": range(5, 61),
        "l3_prefactor_identity": range(12, 61),
        "l4_prefactor_identity": range(12, 61),
        "q4_prefactor_identity": range(15, 61),
        "k_derivative_identity": range(5, 61),
    }
    assert set(grids) == set(IDENTITY_IDS)
    for name, ys in grids.items():
        out = algebra_identity_check(name, ys)
        assert out.statuses == ["pass"], (name, out)
    # a side that overflows to inf is no agreement: the identity fails
    for name, y in (("l1_prefactor_identity", 1e55), ("l4_prefactor_identity", 1e45)):
        out = algebra_identity_check(name, [20.0, y])
        assert out.statuses == ["fail"], (name, out)
    with pytest.raises(DomainError):
        algebra_identity_check("unknown", [10])
    with pytest.raises(DomainError):
        algebra_identity_check("l3_prefactor_identity", [5])


def test_v_consistency_range():
    for y in range(25, 41):
        out = rational_V_consistency(y)
        assert out.statuses == ["pass"], (y, out)
        assert out.margins[0] > 0.0
    with pytest.raises(DomainError):
        rational_V_consistency(24.0)


def test_g1_g2_signs_and_sizes():
    assert g1(25.0) == pytest.approx(-1.46179e9, rel=1e-5)
    assert g1(33.0) == pytest.approx(-9.47617e9, rel=1e-5)
    for y in range(25, 80):
        assert g1(float(y)) < 0.0
        assert g2(float(y)) < 0.0
        assert v_direct(float(y)) > 0.0


def test_g2_two_transcriptions_agree():
    for y in range(25, 61):
        a, b = g2(float(y)), g2_expanded(float(y))
        assert abs(a - b) <= 1e-9 * abs(a), y


def test_c_d_match_integer_endpoints():
    # at integer arguments the real-argument forms must equal the x = 3
    # endpoint images of the band machinery (c at d2 = y, d at d2 = y)
    for y in (25, 30, 44):
        ep = band_endpoints(FParams(3, y))
        assert c_of(float(y)) == pytest.approx(ep.c, rel=1e-12)
        assert d_of(float(y)) == pytest.approx(ep.d, rel=1e-12)


def test_v_matches_ratio_closely():
    out = rational_V_consistency(30.0)
    rel = 1e-9 - out.margins[0]
    assert rel < 1e-11  # two routes agree far inside the tolerance
