"""Hand-written mutants of the step forms: each one changes one form of
``proofcheck.steps._step_forms``, on the scalar route and the column
kernels alike, and ``prove`` must then report a FAIL row, at a chain of 396
points (scalar) and of 4,996 (column kernels).

A mutant that no claim catches is pinned by a strict xfail: the weld that
catches it turns the test into a plain pass, and must flip the mark.
"""

import pytest

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
