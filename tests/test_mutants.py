"""Hand-written mutants: each one changes one formula, and ``prove`` must
then report a FAIL row.

* A step-form mutant changes one form of ``proofcheck.steps._step_forms``,
  on the scalar route and the column kernels alike, at a chain of 396
  points (scalar) and of 4,996 (column kernels).
* A polynomial mutant changes one coefficient of a certified family in
  ``polynomials.FAMILIES`` together with its frozen expansion, so that its
  certificate still holds; the identity that reads the family must fail.

A mutant that no claim catches is pinned by a strict xfail: the claim that
catches it turns the test into a plain pass, and must flip the mark.
"""

import pytest

import varcomp.proofcheck.polynomials as polynomials
import varcomp.proofcheck.steps as steps
from varcomp.programs import prove_rows

_ROUTES = pytest.mark.parametrize("d2_max", [400, 5000], ids=["scalar", "column"])
_UNCAUGHT = "no weld catches it yet (ROADMAP item 17)"


def _mutate(monkeypatch, form, mutant):
    """Give form the margin mutant(d2, d2p2, a, b, c, d, pow1m) wherever
    ``_step_forms`` evaluates it."""
    original = steps._step_forms

    def mutated(d1, d2, d2p2, a, b, c, d, upper, lower, term_a, term_c, pow1m):
        forms = original(d1, d2, d2p2, a, b, c, d, upper, lower, term_a, term_c, pow1m)
        if form in forms:
            forms[form] = mutant(d2, d2p2, a, b, c, d, pow1m)
        return forms

    monkeypatch.setattr(steps, "_step_forms", mutated)


def _fail_rows(d1, d2_max):
    return sum(block.counts[1] for block in prove_rows(d1, d2_max))


@_ROUTES
def test_m2_poly_power_step_without_its_d2_plus_2_factor_is_caught(d2_max, monkeypatch):
    # (d2 + 2) a + 2 becomes a + 2: a stronger claim, which fails outright
    _mutate(monkeypatch, "poly_power_step",
            lambda d2, d2p2, a, b, c, d, pow1m: ((a + 2.0) * pow1m(a, 0.5 * d2 + 1.0)
                                                 - (d2 * b + 2.0) * pow1m(b, 0.5 * d2)))
    assert _fail_rows(4, d2_max) > 0


@pytest.mark.xfail(strict=True, reason=_UNCAUGHT)
@_ROUTES
@pytest.mark.parametrize("d1", [1, 2, 3])
def test_m1_power_step_with_exponent_n_is_caught(d1, d2_max, monkeypatch):
    # (1 - a)^(n + 1) becomes (1 - a)^n, n = d2 / 2: a weaker claim, which
    # holds trivially since a < b
    _mutate(monkeypatch, "power_step",
            lambda d2, d2p2, a, b, c, d, pow1m: pow1m(a, 0.5 * d2) - pow1m(b, 0.5 * d2))
    assert _fail_rows(d1, d2_max) > 0


@pytest.mark.xfail(strict=True, reason=_UNCAUGHT)
@_ROUTES
def test_m3_product_step_lower_with_d_for_c_is_caught(d2_max, monkeypatch):
    # 2 (1 + c) becomes 2 (1 + d): since d > c, a weaker claim
    _mutate(monkeypatch, "product_step_lower",
            lambda d2, d2p2, a, b, c, d, pow1m: (
                (2.0 * (1.0 + d) + d2 * (c + d)) * pow1m(d, 0.5 * d2)
                - 2.0 * (d2p2 * c + 1.0) * pow1m(c, 0.5 * d2 + 1.0)))
    assert _fail_rows(3, d2_max) > 0


def _mutate_family(monkeypatch, family, degree, coeff, expansion_at_12):
    """Give family the coefficient coeff at degree, and its frozen expansion
    at 12 the one re-derived from the mutant."""
    coeffs = list(polynomials.FAMILIES[family])
    coeffs[degree] = coeff
    monkeypatch.setitem(polynomials.FAMILIES, family, tuple(coeffs))
    monkeypatch.setitem(polynomials.REFERENCE_EXPANSIONS, (family, 12), expansion_at_12)


def _failed_claims(d1):
    return {block.check_id for block in prove_rows(d1, 400) if block.counts[1]}


@pytest.mark.parametrize("family, degree, coeff, expansion_at_12", [
    ("T1", 4, 11, (209408, 204672, 47056, 4480, 191, 3)),
    ("T2", 5, 4, (343552, 261312, 58496, 5660, 248, 4)),
], ids=["t1_y4", "t2_y5"])
def test_a_t_family_mutant_is_caught_by_the_l4_identity(family, degree, coeff,
                                                         expansion_at_12, monkeypatch):
    # the certificate holds for the mutant; the identity reads the family
    _mutate_family(monkeypatch, family, degree, coeff, expansion_at_12)
    assert _failed_claims(4) == {"l4_prefactor_identity"}


@pytest.mark.xfail(strict=True, reason="a sampled bound cannot tell a wrong U family from "
                                       "another valid one; the exact l3 certificate of "
                                       "ROADMAP item 3 can")
@pytest.mark.parametrize("family, degree, coeff, expansion_at_12", [
    ("U1", 2, 20, (1440, 393, 20)),
    ("U2", 3, 4, (2736, 1632, 162, 4)),
], ids=["m4_u1_y2", "u2_y3"])
def test_a_u_family_mutant_is_caught(family, degree, coeff, expansion_at_12, monkeypatch):
    _mutate_family(monkeypatch, family, degree, coeff, expansion_at_12)
    assert _failed_claims(3)
