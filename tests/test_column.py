"""The numpy column kernel against the scalar reference route, bit for bit."""

import numpy as np
import pytest

import varcomp.oracle
import varcomp.programs
import varcomp.proofcheck.steps
import varcomp.specfun
import varcomp.varband
from varcomp import (
    ConvergenceError,
    DomainError,
    FParams,
    ToleranceNotMetError,
    band_endpoints,
    reg_inc_beta,
    variation_probability,
)
from varcomp.oracle import quad_beta_integral, quad_beta_integral_column
from varcomp.programs import _COLUMN_MIN, chain_blocks, explore_rows, prove_rows
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
        want = (ep.a, ep.b, ep.c, ep.d, variation_probability(FParams(d1, d2)))
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


#: (a, b, x) where the guard lifts a Lentz denominator of exactly 0 to
#: _FPMIN on both routes: the first one, 1 - (a+b) x / (a+1), at the first
#: three; the first even step's 1 + aa d at the last
_GUARD_POINTS = [(1.0, 3.0, 0.5), (2.0, 2.0, 0.75), (0.5, 1.5, 0.75), (1.0, 2.0, 0.75)]


def _guard_point_fractions():
    """(scalar, column): the hex of _beta_cf at each of _GUARD_POINTS, on
    each route."""
    a, b, x = (np.array(v) for v in zip(*_GUARD_POINTS))
    column = varcomp.specfun._beta_cf_column(a, b, x).tolist()
    scalar = [varcomp.specfun._beta_cf(*p) for p in _GUARD_POINTS]
    return [v.hex() for v in scalar], [v.hex() for v in column]


def test_beta_cf_lentz_guard_parity():
    a, b, x = (np.array(v) for v in zip(*_GUARD_POINTS))
    first = 1.0 - (a + b) * x / (a + 1.0)
    assert (first[:3] == 0.0).all()
    assert 1.0 + (b[3] - 1.0) * x[3] / ((a[3] + 1.0) * (a[3] + 2.0)) / first[3] == 0.0
    scalar, column = _guard_point_fractions()
    assert column == scalar
    assert all(np.isfinite(float.fromhex(v)) for v in scalar)


def test_reg_inc_beta_column_rejects_bad_input():
    with pytest.raises(DomainError):
        reg_inc_beta_column(np.array([0.5, 1.5]), 1.0, np.array([2.0, 2.0]))
    with pytest.raises(DomainError):
        reg_inc_beta_column(np.array([0.5]), 1.0, np.array([-2.0]))
    with pytest.raises(DomainError):
        reg_inc_beta_column(np.array([0.5, 0.5]), 1.0, np.array([2.0]))
    for a, b in ((1.0, 1e308), (1e308, 1.0)):
        # the scalar route's a + b guard, not a math domain error
        with pytest.raises(DomainError, match="a [+] b below"):
            reg_inc_beta_column(np.array([0.5]), a, np.array([b]))
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
        variation_probability(FParams(3000, v))
    with pytest.raises(ConvergenceError):
        variation_probability(FParams(3000, 5000))
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


def assert_steps_match_scalar(d1, d2_values):
    d2s = [int(v) for v in d2_values]
    a, b, c, d = band_endpoints_column(d1, d2s)
    assert_forms_match(
        step_inequalities_column(d1, d2s, a, b, c, d), d2s,
        lambda i, d2: step_inequalities_at(d1, d2, float(a[i]), float(b[i]),
                                           float(c[i]), float(d[i])))
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


def test_quad_column_takes_a_numpy_integer_a_on_its_fast_route(scalar_quad_calls):
    # a finite numpy integer is a finite real on both routes
    args = ([5000.0], [0.001], [0.0011], 1e-13)
    got = quad_beta_integral_column(np.int64(2), *args).tolist()
    assert got == quad_beta_integral_column(2.0, *args).tolist()
    assert scalar_quad_calls == []


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


def test_tolerance_not_met_parity(monkeypatch):
    # at an unattainable tolerance the column raises what the scalar route
    # raises first, message and best value alike.  At 1e-28 the d1 = 3 upper
    # integral at d2 = 5000 converges and the lower one does not, while the
    # upper integral at d2 = 80 fails too: the point order decides.
    for d2s, tol in (([11, 12, 13, 14], 1e-300), ([5000, 80], 1e-28)):
        monkeypatch.setattr(varcomp.proofcheck.steps, "_QUAD_TOL", tol)
        a, b, c, d = band_endpoints_column(3, d2s)

        def scalar():
            for i, d2 in enumerate(d2s):
                step_inequalities_at(3, d2, a[i], b[i], c[i], d[i])

        column = _raised(lambda: step_inequalities_column(3, d2s, a, b, c, d))
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


def test_chain_blocks_run_every_check_on_either_route(monkeypatch):
    # points alone picks the route; no caller asks for all four checks at once
    checks = ("bound", "monotone", "coefficients", "steps")
    scalar = chain_blocks(3, range(5, 80), checks)
    for name in ("variation_probability", "check_step_inequalities",
                 "coefficient_sign_checks"):
        monkeypatch.setattr(varcomp.programs, name, _no_scalar_call)
    column = chain_blocks(3, range(5, 80), checks, points=_COLUMN_MIN)
    assert _block_fields(column) == _block_fields(scalar)
    with pytest.raises(ValueError, match="unknown chain check 'limit'"):
        chain_blocks(3, range(5, 80), ("limit",))


# ---------------------------------------------------------------------------
# one body per formula: a change to a shared body reaches both routes
# ---------------------------------------------------------------------------

def _scaled(v):
    # v times 1 + 2**-30: a tuple element by element, a truth value as it is
    if isinstance(v, tuple):
        return tuple(map(_scaled, v))
    if isinstance(v, (bool, np.bool_)) or getattr(v, "dtype", None) == bool:
        return v
    return v * (1.0 + 2.0 ** -30)


def _scale(body):
    return lambda *args: _scaled(body(*args))


def _negate(body):
    # a branch rule: each lane takes the other branch
    return lambda *args: body(*args) ^ True


def _loosen(body):
    # the Lentz stop test, a million times looser
    return lambda delta, h, maximum: body(1.0 + (delta - 1.0) / 1e6, h, maximum)


#: Every kernel formula with one body for both routes, and how the test
#: perturbs it.  A branch rule or stop test cannot be scaled, so it is
#: negated or loosened instead.
_SHARED_BODIES = [
    (varcomp.specfun, "_stirlerr_series", _scale),
    (varcomp.specfun, "_bd0_near", _negate),
    (varcomp.specfun, "_bd0_start", _scale),
    (varcomp.specfun, "_bd0_term", _scale),
    (varcomp.specfun, "_bd0_log", _scale),
    (varcomp.specfun, "_ln_beta_front", _scale),
    (varcomp.specfun, "_flips", _negate),
    (varcomp.specfun, "_inc_beta_value", _scale),
    (varcomp.specfun, "_beta_cf_start", _scale),
    (varcomp.specfun, "_lentz_done", _loosen),
    (varcomp.varband, "_r_of", _scale),
    (varcomp.varband, "_upper_image", _scale),
    (varcomp.varband, "_lower_image", _scale),
    (varcomp.varband, "_one_minus_r", _scale),
    (varcomp.oracle, "_beta_power", _scale),
    (varcomp.oracle, "_simpson", _scale),
    (varcomp.oracle, "_halving", _scale),
    (varcomp.proofcheck.steps, "_pow1m", _scale),
    (varcomp.proofcheck.steps, "_boundary_term", _scale),
]

_ONE_BODY_D2S = list(range(5, 201))


def _route_values():
    """(scalar, column): the hex of every endpoint image, band probability
    and step margin over d1 = 1..4 and _ONE_BODY_D2S, on each route."""
    scalar, column = [], []
    for d1 in range(1, 5):
        ends = band_endpoints_column(d1, _ONE_BODY_D2S)
        steps = step_inequalities_column(d1, _ONE_BODY_D2S, *ends)
        bands = variation_probability_column(d1, _ONE_BODY_D2S)
        column += [_hex(v) for values in (*ends, bands) for v in values.tolist()]
        column += [_hex(v) for form in steps.values() for v in form]
        points = [FParams(d1, d2) for d2 in _ONE_BODY_D2S]
        at = [step_inequalities_at(d1, p.d2, *band_endpoints(p)) for p in points]
        scalar += [_hex(getattr(band_endpoints(p), e)) for e in "abcd" for p in points]
        scalar += [_hex(variation_probability(p)) for p in points]
        scalar += [_hex(m[form]) for form in steps for m in at]
    return scalar, column


@pytest.fixture(scope="module")
def unpatched_values():
    scalar, column = _route_values()
    assert scalar == column
    return scalar


@pytest.mark.parametrize("module, name, perturb", _SHARED_BODIES,
                         ids=[name for _, name, _ in _SHARED_BODIES])
def test_each_shared_body_reaches_both_routes(module, name, perturb, unpatched_values,
                                              monkeypatch):
    # a body written twice would change one route only, and the routes
    # would part; at least one value moves, and the routes still agree
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    scalar, column = _route_values()
    assert scalar != unpatched_values
    assert column == scalar


def test_the_one_lentz_guard_reaches_both_routes(monkeypatch):
    # no lane of _route_values meets the guard, so its own points test it:
    # a value the guard lifts is lifted to 3 _FPMIN, on either route.  The
    # lift cancels from the fraction but for rounding, so last bits move
    guard = varcomp.specfun._fpmin

    def relifted(v, where):
        lifted = guard(v, where)
        return where(lifted == v, lifted, 3.0 * lifted)

    unpatched = _guard_point_fractions()[0]
    monkeypatch.setattr(varcomp.specfun, "_fpmin", relifted)
    scalar, column = _guard_point_fractions()
    assert scalar != unpatched
    assert column == scalar


#: The forms that apply only where d > c > 0, per d1.
_LOWER_FORMS = {3: ("product_step_lower", "ratio_bound_lower"),
                4: ("poly_power_step_lower",)}


def _lower_form_margins():
    """(scalar, column): each of _LOWER_FORMS' margin lists over
    _ONE_BODY_D2S, on each route."""
    scalar, column = [], []
    for d1, forms in _LOWER_FORMS.items():
        steps = step_inequalities_column(d1, _ONE_BODY_D2S,
                                         *band_endpoints_column(d1, _ONE_BODY_D2S))
        at = [step_inequalities_at(d1, d2, *band_endpoints(FParams(d1, d2)))
              for d2 in _ONE_BODY_D2S]
        for form in forms:
            column.append(steps[form])
            scalar.append([m[form] for m in at])
    return scalar, column


def test_the_one_lower_forms_rule_reaches_every_caller(unpatched_values, monkeypatch):
    # d > c > 0 is decided in one body: made false, it turns off the lower
    # step forms on both routes and explore's odd-d1 lower bound
    def lower_rows():
        return next(block for block in explore_rows(7, range(7, 60))
                    if block.check_id == "truncated_series_lower")

    scalar, _ = _lower_form_margins()
    assert all(any(m is not None for m in margins) for margins in scalar)
    assert set(lower_rows().statuses) != {"not_applicable"}
    monkeypatch.setattr(varcomp.proofcheck.steps, "_lower_forms_apply",
                        lambda d1, d2, d: False)
    scalar, column = _route_values()
    assert scalar != unpatched_values
    assert column == scalar
    scalar, column = _lower_form_margins()
    assert column == scalar
    assert all(m is None for margins in scalar for m in margins)
    assert set(lower_rows().statuses) == {"not_applicable"}
