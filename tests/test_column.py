"""The numpy column kernel against the scalar reference route, bit for bit."""

import numpy as np
import pytest

import varcomp.oracle
import varcomp.programs
import varcomp.specfun
from varcomp import (
    ConvergenceError,
    DomainError,
    FParams,
    ToleranceNotMetError,
    band_endpoints,
    f_dist,
    reg_inc_beta,
    variation_probability,
)
from varcomp.oracle import quad_beta_integral, quad_beta_integral_column
from varcomp.programs import prove_rows
from varcomp.proofcheck.steps import (
    coefficient_sign_checks,
    coefficient_sign_column,
    step_inequalities_at,
    step_inequalities_column,
)
from varcomp.specfun import reg_inc_beta_column
from varcomp.varband import band_endpoints_column, variation_probability_column


def assert_column_matches_scalar(d1, d2_values):
    d2_values = [int(v) for v in d2_values]
    got = band_endpoints_column(d1, d2_values) + (
        variation_probability_column(d1, d2_values),)
    for i, d2 in enumerate(d2_values):
        ep = band_endpoints(FParams(d1, d2))
        want = (ep.a, ep.b, ep.c, ep.d, variation_probability(f_dist(d1, d2)))
        # hex() tells 0.0 from -0.0 and compares every bit
        assert [float(v[i]).hex() for v in got] == [w.hex() for w in want], (d1, d2)


@pytest.mark.parametrize("d1", range(1, 13))
def test_column_bit_identical_dense(d1):
    assert_column_matches_scalar(d1, range(5, 601))


@pytest.mark.parametrize("d1", range(1, 13))
def test_column_bit_identical_sparse_to_one_million(d1):
    assert_column_matches_scalar(d1, np.unique(np.geomspace(601, 10**6, 60).astype(int)))


@pytest.mark.slow
@pytest.mark.parametrize("d1", range(1, 5))
def test_column_bit_identical_large_sweep_grid(d1):
    # every point a d1 1..4 x d2 5..20000 monotone sweep evaluates
    assert_column_matches_scalar(d1, range(5, 20_003))


def test_reg_inc_beta_column_edges_and_flip():
    x = np.array([0.0, 1e-300, 0.1, 0.5, 0.9, 0.999, 1.0])
    b = np.array([3.0, 0.5, 40.0, 2.5, 1.5, 7.0, 9.0])
    got = reg_inc_beta_column(x, 2.5, b)
    want = [reg_inc_beta(float(xi), 2.5, float(bi)) for xi, bi in zip(x, b)]
    assert [v.hex() for v in got.tolist()] == [w.hex() for w in want]


def test_reg_inc_beta_column_rejects_bad_input():
    with pytest.raises(DomainError):
        reg_inc_beta_column(np.array([0.5, 1.5]), 1.0, np.array([2.0, 2.0]))
    with pytest.raises(DomainError):
        reg_inc_beta_column(np.array([0.5]), 1.0, np.array([-2.0]))
    with pytest.raises(DomainError):
        reg_inc_beta_column(np.array([0.5, 0.5]), 1.0, np.array([2.0]))
    with pytest.raises(DomainError):
        band_endpoints_column(1, [5, 4])
    with pytest.raises(DomainError):
        band_endpoints_column(0, [5, 6])
    with pytest.raises(DomainError):
        band_endpoints_column(2 ** 40, [5, 2 ** 30])


def test_column_iteration_cap_raises(monkeypatch):
    # at d1 = 3000 the fraction needs more than 50 iterations only at
    # d2 = 5000; that one lane must fail the whole column, as the scalar
    # route fails at that point
    d2 = list(range(5, 13)) + [5000]
    monkeypatch.setattr(varcomp.specfun, "_MAX_ITER", 50)
    with pytest.raises(ConvergenceError):
        variation_probability_column(3000, d2)
    for v in d2[:-1]:
        variation_probability(f_dist(3000, v))
    with pytest.raises(ConvergenceError):
        variation_probability(f_dist(3000, 5000))
    monkeypatch.undo()
    assert_column_matches_scalar(3000, d2)


# ---------------------------------------------------------------------------
# step forms: step_inequalities_column against step_inequalities_at
# ---------------------------------------------------------------------------

def _hex(v):
    # hex() tells 0.0 from -0.0; None (a form that does not apply) stays None
    return None if v is None else v.hex()


@pytest.fixture
def scalar_quad_calls(monkeypatch):
    """Counts the lanes the column kernel hands to quad_beta_integral."""
    calls = []

    def counted(*args):
        calls.append(args)
        return quad_beta_integral(*args)

    monkeypatch.setattr(varcomp.oracle, "quad_beta_integral", counted)
    return calls


def assert_forms_match(got, d2s, want_at):
    """A form -> column map equals want_at(d2), form -> margin, at every d2."""
    assert all(len(column) == len(d2s) for column in got.values())
    for i, d2 in enumerate(d2s):
        want = want_at(i, d2)
        assert list(got) == list(want), d2
        assert [_hex(got[form][i]) for form in want] == [_hex(v) for v in want.values()], d2


def assert_steps_match_scalar(d1, d2_values, quad_tol=1e-13):
    d2s = [int(v) for v in d2_values]
    a, b, c, d = band_endpoints_column(d1, d2s)
    assert_forms_match(
        step_inequalities_column(d1, d2s, a, b, c, d, quad_tol), d2s,
        lambda i, d2: step_inequalities_at(d1, d2, float(a[i]), float(b[i]),
                                           float(c[i]), float(d[i]), quad_tol))
    if d1 in (1, 3):
        # the coefficient signs, against their scalar route from FParams on
        assert_forms_match(coefficient_sign_column(d1, d2s, a, b, c, d), d2s,
                           lambda i, d2: coefficient_sign_checks(d1, d2))


@pytest.mark.parametrize("d1", range(1, 13))
def test_steps_column_bit_identical_dense(d1, scalar_quad_calls):
    # region 1 (c = 0), region 2 (c > 0 = d, a lower integral from 0, with
    # the corner substitution for odd d1), region 3 and exploratory d1
    assert_steps_match_scalar(d1, range(5, 601))
    # some lanes miss the tolerance at the first halving or start at 0 and
    # take the scalar route, all of them at small d2
    assert 0 < len(scalar_quad_calls) < 100


@pytest.mark.parametrize("d1", range(1, 13))
def test_steps_column_bit_identical_sparse_to_one_million(d1, scalar_quad_calls):
    assert_steps_match_scalar(d1, np.unique(np.geomspace(601, 10**6, 60).astype(int)))
    assert scalar_quad_calls == []  # beyond d2 = 600 every lane converges at once


@pytest.mark.slow
@pytest.mark.parametrize("d1", range(1, 5))
def test_steps_column_bit_identical_large_sweep_grid(d1):
    # every point a d1 1..4 x d2 5..20000 steps sweep evaluates
    assert_steps_match_scalar(d1, range(5, 20_001))


def test_quad_column_matches_scalar_on_mixed_lanes(scalar_quad_calls):
    # interior lanes that converge at the first halving (lane 6) or need
    # more, lanes from 0 (a rough corner for odd 2a, smooth for a = 2, 3),
    # a lane to 1, and empty intervals
    lo = [0.1, 0.0, 0.3, 0.3, 0.0, 0.2, 0.4999, 1e-6]
    hi = [0.2, 0.4, 0.3, 1.0, 0.0, 0.9, 0.5, 0.6]
    b = [20.0, 3.5, 2.0, 0.5, 4.0, 1.5, 250.0, 0.75]
    lane_of = {(bi, x0, x1): i for i, (bi, x0, x1) in enumerate(zip(b, lo, hi))}
    for a in (0.5, 1.5, 2.0, 3.0):
        scalar_quad_calls.clear()
        got = quad_beta_integral_column(a, b, lo, hi, 1e-13)
        want = [quad_beta_integral(a, bi, x0, x1, 1e-13).value
                for bi, x0, x1 in zip(b, lo, hi)]
        assert [v.hex() for v in got.tolist()] == [w.hex() for w in want], a
        # the scalar route gets every lane that is not interior, in lane order
        sent = [lane_of[args[1:4]] for args in scalar_quad_calls]
        assert sent == sorted(set(sent))
        assert {1, 2, 3, 4} <= set(sent) and 6 not in sent
    assert quad_beta_integral_column(2.0, [], [], [], 1e-13).size == 0


def test_quad_column_rejects_what_the_scalar_route_rejects():
    with pytest.raises(DomainError, match="integration limits"):
        quad_beta_integral_column(1.5, [2.0, 2.0], [0.1, 0.6], [0.2, 0.5])
    with pytest.raises(DomainError, match="tol must be positive"):
        quad_beta_integral_column(1.5, [2.0], [0.1], [0.2], 0.0)
    with pytest.raises(DomainError, match="a > 0 and b > 0"):
        quad_beta_integral_column(1.5, [-2.0], [0.1], [0.2])
    with pytest.raises(DomainError, match="equal-length"):
        quad_beta_integral_column(1.5, [2.0], [0.1, 0.2], [0.2, 0.3])


@pytest.mark.parametrize("d1", (1, 3))
def test_coefficient_column_adds_d2_plus_2_in_integers(d1):
    # beyond 2**53 the float d2 + 2.0 is not the scalar route's d2 + 2
    d2s = [2 ** 53 + 1, 2 ** 53 + 3, 2 ** 60 + 7]
    ends = band_endpoints_column(d1, d2s)
    assert_forms_match(coefficient_sign_column(d1, d2s, *ends), d2s,
                       lambda i, d2: coefficient_sign_checks(d1, d2))


@pytest.mark.parametrize("d1", range(1, 5))
def test_steps_column_adds_d2_plus_2_in_integers(d1):
    # the step forms' d2 + 2 too: as the float d2 + 2.0, affine_power_step
    # (d1 = 1), product_step_lower (d1 = 3) and poly_power_step_lower
    # (d1 = 4) differ from the scalar route at 2**53 + 1
    assert_steps_match_scalar(d1, [2 ** 53 + 1, 2 ** 53 + 3])


def test_coefficient_column_rejects_what_the_scalar_route_rejects():
    ends = band_endpoints_column(2, [5, 6])
    for d1 in (2, 4):
        with pytest.raises(DomainError, match="d1 in"):
            coefficient_sign_column(d1, [5, 6], *ends)
        with pytest.raises(DomainError, match="d1 in"):
            coefficient_sign_checks(d1, 5)


def _raised(fn):
    with pytest.raises(ToleranceNotMetError) as info:
        fn()
    exc = info.value
    return str(exc), _hex(exc.value), _hex(exc.error_bound)


def test_tolerance_not_met_parity():
    # at an unattainable tolerance the column raises what the scalar route
    # raises first, message and best value alike.  At 1e-28 the d1 = 3 upper
    # integral at d2 = 5000 converges and the lower one does not, while the
    # upper integral at d2 = 80 fails too: the point order decides.
    for d2s, tol in (([11, 12, 13, 14], 1e-300), ([5000, 80], 1e-28)):
        a, b, c, d = band_endpoints_column(3, d2s)

        def scalar():
            for i, d2 in enumerate(d2s):
                step_inequalities_at(3, d2, a[i], b[i], c[i], d[i], tol)

        column = _raised(lambda: step_inequalities_column(3, d2s, a, b, c, d, tol))
        assert column == _raised(scalar)
    assert f"[{float(c[0])!r}, {float(d[0])!r}]" in column[0]  # lower, d2 = 5000


# ---------------------------------------------------------------------------
# prove: the column route of a long chain against the scalar route
# ---------------------------------------------------------------------------

def _block_fields(blocks):
    return [(b.check_id, b.d1, list(b.d2s), list(b.statuses), list(b.notes),
             [_hex(m) for m in b.margins], b.exploratory) for b in blocks]


def _no_scalar_call(*args):
    raise AssertionError("the column route called a scalar step evaluator")


def assert_prove_routes_agree(monkeypatch, d1, d2_max):
    monkeypatch.setattr(varcomp.programs, "_COLUMN_MIN", 10 ** 12)
    scalar = prove_rows(d1, d2_max)
    monkeypatch.setattr(varcomp.programs, "_COLUMN_MIN", 5)
    monkeypatch.setattr(varcomp.programs, "check_step_inequalities", _no_scalar_call)
    monkeypatch.setattr(varcomp.programs, "coefficient_sign_checks", _no_scalar_call)
    assert _block_fields(prove_rows(d1, d2_max)) == _block_fields(scalar)


@pytest.mark.parametrize("d1", range(1, 5))
def test_prove_column_route_matches_scalar(d1, monkeypatch):
    assert_prove_routes_agree(monkeypatch, d1, 600)


@pytest.mark.slow
@pytest.mark.parametrize("d1", range(1, 5))
def test_prove_column_route_matches_scalar_deep(d1, monkeypatch):
    # the chain length prove_deep runs, at every proved d1
    assert_prove_routes_agree(monkeypatch, d1, 30_000)
