from functools import partial

import pytest

from varcomp import DomainError
from varcomp.programs import certificate_rows
from varcomp.proofcheck import (
    FAMILIES,
    REFERENCE_EXPANSIONS,
    REFERENCE_VALUES,
    poly_value,
    shifted_expansion,
)
from varcomp.varband import _d_over_c


def test_reference_point_values_bit_exact():
    for family, table in REFERENCE_VALUES.items():
        for n, expected in table.items():
            assert poly_value(family, n) == expected


def test_reference_expansions_bit_exact_and_positive():
    for (family, shift), coeffs in REFERENCE_EXPANSIONS.items():
        exp = shifted_expansion(family, shift)
        assert exp == tuple(coeffs), (family, shift)
        assert all(c > 0 for c in exp), (family, shift)


def test_expansion_examples():
    assert shifted_expansion("T1", 12) == (188672, 197760, 46192, 4432, 190, 3)
    assert shifted_expansion("P4", 17) == (2141, 5292, 898, 52, 1)
    assert shifted_expansion("U2", 12) == (1008, 1200, 126, 3)
    assert poly_value("P4", 11) == -7219
    assert poly_value("P3", 24) == -7200
    assert poly_value("T1", 12) == 188672


def test_shift_is_exact_composition():
    # p(shift + r) evaluated at r must equal p(shift + r) for huge arguments
    q = shifted_expansion("Q5", 30)
    for r in (0, 1, 7, 10**6, -10**9):
        assert sum(c * r**k for k, c in enumerate(q)) == poly_value("Q5", 30 + r)


def test_sign_flip_locations():
    p4, p3 = partial(poly_value, "P4"), partial(poly_value, "P3")
    assert p4(16) < 0 < p4(17)
    assert p3(24) < 0 < p3(25)
    assert all(p4(n) < 0 for n in range(11, 17))
    assert all(p3(n) < 0 for n in range(15, 25))


def test_factored_forms_match_expanded():
    # the d-over-c polynomials come from clearing a square-root inequality;
    # their factored forms are exact identities over the integers
    p4, p3 = partial(poly_value, "P4"), partial(poly_value, "P3")
    for d2 in range(-50, 51):
        assert p4(d2) == 2 * (d2 - 2) * (d2 + 4) * (d2 - 4) ** 2 - d2**2 * (d2 + 2) ** 2
        assert p3(d2) == 3 * (d2 - 2) * (d2 + 3) * (d2 - 4) ** 2 - 2 * d2**2 * (d2 + 1) ** 2


def test_the_d_over_c_test_of_varband_is_the_certified_polynomial():
    # the integer whose sign decides d > c is P3 at d1 = 3 and 2 P4 at
    # d1 = 4; both sides are integer polynomials of degree 4 in d2, so
    # agreement at five or more integers is the identity itself
    for d2 in range(5, 401):
        assert _d_over_c(3, d2) == poly_value("P3", d2)
        assert _d_over_c(4, d2) == 2 * poly_value("P4", d2)


def test_quintic_is_the_cleared_root_gap():
    # 10^4 (y-4)(2y^2-8y-23)^2 - 37249 (y+1)(y^2-6y+8)^2
    for y in range(-20, 80):
        lhs = 10**4 * (y - 4) * (2 * y**2 - 8 * y - 23) ** 2
        rhs = 37249 * (y + 1) * (y**2 - 6 * y + 8) ** 2
        assert poly_value("Q5", y) == lhs - rhs


def test_exactness_requirements():
    with pytest.raises(DomainError):
        poly_value("P4", 1.5)
    with pytest.raises(DomainError):
        poly_value("nope", 1)
    with pytest.raises(DomainError):
        shifted_expansion("T1", 0.5)
    with pytest.raises(DomainError, match="unknown polynomial family 'nope'"):
        shifted_expansion("nope", 12)
    with pytest.raises(DomainError, match="must be an exact integer"):
        poly_value("Q5", True)


def test_frozen_certificate_data_are_exact_integers():
    def exact(values):
        return all(type(v) is int for v in values)  # excludes bool and float

    assert all(exact(coeffs) for coeffs in FAMILIES.values())
    for family, table in REFERENCE_VALUES.items():
        assert family in FAMILIES
        assert exact(table) and exact(table.values()), family
    for (family, shift), coeffs in REFERENCE_EXPANSIONS.items():
        assert family in FAMILIES
        assert exact((shift, *coeffs)), (family, shift)


def test_certificate_claims_pinned():
    positive = "all coefficients positive"
    expected = [
        ("poly_values_p4", 0, "1.0", "exact match"),
        ("poly_values_p3", 0, "1.0", "exact match"),
        ("expansion_t1_12", 12, "3.0", positive),
        ("expansion_t2_12", 12, "3.0", positive),
        ("expansion_u1_12", 12, "19.0", positive),
        ("expansion_u2_12", 12, "3.0", positive),
        ("expansion_p4_17", 17, "1.0", positive),
        ("expansion_p3_25", 25, "1.0", positive),
        ("expansion_q5_30", 30, "2751.0", positive),
    ]
    got = [(b.check_id, b.d1, list(b.d2s), [repr(m) for m in b.margins],
            list(b.statuses), list(b.notes), b.exploratory)
           for b in certificate_rows()]
    assert got == [(check_id, 0, [d2], [margin], ["pass"], [note], False)
                   for check_id, d2, margin, note in expected]


def test_unbounded_magnitude():
    big = 10**40
    v = poly_value("Q5", big)
    assert v == sum(c * big**k for k, c in enumerate(FAMILIES["Q5"]))
    assert v > 10**200  # no overflow, exact integer arithmetic
