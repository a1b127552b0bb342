"""Prepackaged verification programs: golden tables, positivity
certificates, per-case step programs, and the exploratory scans for d1 >= 5.

Everything returns report blocks (``reporting.Block``), one per claim and
d1, so the CLI (or a notebook) can batch, sort and emit them; nothing here
prints or exits; the one-row blocks of a claim's single checks are joined
into its block by ``reporting.rows_from_outcome``.

The per-point claims of one d1 over a d2 chain, of a sweep column and of a
``prove`` chain alike, come from ``chain_blocks``; ``chain_parts`` renders
them, and runs nothing else.  One size rule decides how a grid runs: below
``_COLUMN_MIN`` points (d1 chains x d2 values), on the scalar route in
this process; from it on, on the numpy column kernels, cut into runs of d2
across processes.

``PROGRAMS`` is the claim set of ``prove``: per proved d1, every evaluator
run (``Check``), its coverage, and each claim id it emits with the ids it
rests on; ``prove_rows`` and ``prove_parts`` read nothing else.  A weld,
a claim that two routes to one quantity agree, is one entry of its own: its
pairs, tolerance, note and coverage (``_weld_check``).  Each kind of
evaluator has one route (``ROUTES``): "exact", decided in integer
arithmetic, or "sampled", a float margin checked at the coverage's points
only.  A change that adds or removes a claim id regenerates the ``prove``
entries of ``bench/reference.json`` (``bench/check.py --write-reference``)
in the same change, and lists that edit.
"""

from __future__ import annotations

import math
import os
from functools import partial
from operator import attrgetter
from typing import Callable, Collection, Mapping, NamedTuple, Optional, Sequence, Union

from .distributions import FParams
from .errors import DomainError, VarcompError
from .proofcheck.auxfn import (
    GOLDEN_TABLES,
    AuxFn,
    algebra_identity_check,
    derivative_sign_check,
    g2,
    g2_expanded,
    h1,
    h2,
    h3,
    h4,
    k_fun,
    monotone_table_check,
    r4,
    rational_V_consistency,
    value_sign_check,
)
from .proofcheck.polynomials import (
    REFERENCE_EXPANSIONS,
    REFERENCE_VALUES,
    poly_value,
    shifted_expansion,
)
from .proofcheck.steps import (
    check_step_inequalities,
    coefficient_sign_checks,
    coefficient_sign_column,
    falling_factorial_bounds_odd,
    series_steps_even,
    step_inequalities_column,
)
from .oracle import quad_beta_integral
from .reporting import (Block, gap_block, margin_block, render_rows, rows_from_outcome,
                        rows_from_step_report)
from .varband import (PROVED_D1, band_endpoints, band_endpoints_column, _check_int64,
                      bound_block, d_exceeds_c, monotone_block, variation_probability,
                      variation_probability_column)

__all__ = [
    "chain_blocks",
    "chain_parts",
    "table_rows",
    "certificate_rows",
    "prove_rows",
    "prove_parts",
    "explore_rows",
    "PROGRAMS",
    "Check",
    "Span",
    "ROUTES",
    "route",
]

#: Sampling grid used for monotonicity-beyond-table and sign scans.
_DENSE_MAX = 200

#: The one size rule of ``chain_blocks`` and ``chain_parts``: a grid of
#: fewer points (d1 chains x d2 values) runs on the scalar per-point route in
#: this process, a grid of this many or more on the numpy column kernels, cut
#: into one run of d2 per usable CPU; the margins are the same bit for bit.
#: The kernels cost numpy's import (about 0.1 s and 14 MiB), a cut a fork and
#: the pickling of the children's rows.  On a 2-CPU host a cut lost on every
#: scalar-route grid of 3,000 to 4,080 points and won on the kernels at the
#: benchmark's sizes (30,000-point ``prove`` chains, 4 x 19,996 sweeps);
#: between 4,096 and about 6,000 points the routes are within noise (the
#: measurements are in the project ROADMAP, item 5).
_COLUMN_MIN = 4096


def chain_blocks(d1: int, d2s: Sequence[int], checks: Collection[str],
                 points: Optional[int] = None) -> list:
    """Blocks of the per-point claims of one d1 over d2s, a run of
    consecutive integers >= 5, for each of checks in turn: "bound"
    (``varband.bound_block``), "monotone" (``varband.monotone_block``),
    "coefficients" (the coefficient sign forms, d1 = 1 and 3) and "steps".

    The size rule: the numpy column kernels once points (default len(d2s);
    ``chain_parts`` passes its whole grid's, so every run of a cut grid
    takes them) reaches ``_COLUMN_MIN``, the scalar per-point evaluators
    below it; the blocks are the same bit for bit.  Either route first
    needs d1 * (d2s[-1] + 2) < 2**62, the kernels' int64 bound.  Rows of a
    d1 outside ``PROVED_D1`` are exploratory; each band probability is
    computed once.
    """
    _check_int64(d1, d2s[-1] + 2)
    columns = (len(d2s) if points is None else points) >= _COLUMN_MIN
    # one list of d2 ints shared by every block: a range would mint a new
    # int object per row for d2 > 256 each time it is iterated
    d2s = list(d2s)
    expl = d1 not in PROVED_D1
    if "bound" in checks or "monotone" in checks:
        band_d2s = range(d2s[0], d2s[-1] + 3)
        if columns:
            bands = variation_probability_column(d1, band_d2s).tolist()
        else:
            bands = [variation_probability(FParams(d1, d2)) for d2 in band_d2s]
    if columns and ("coefficients" in checks or "steps" in checks):
        ends = band_endpoints_column(d1, d2s)
    blocks: list = []
    for check in checks:
        if check == "bound":
            blocks.append(bound_block(d1, d2s, bands))
        elif check == "monotone":
            blocks.append(monotone_block(d1, d2s, bands, bands[2:]))
        elif check in ("coefficients", "steps"):
            if columns:
                kernel = step_inequalities_column if check == "steps" else coefficient_sign_column
                margins = kernel(d1, d2s, *ends)
            else:  # form -> margin maps, with the same forms at every d2
                maps = [check_step_inequalities(FParams(d1, d2)) if check == "steps"
                        else coefficient_sign_checks(d1, d2) for d2 in d2s]
                margins = {form: [m[form] for m in maps] for form in maps[0]}
            blocks += rows_from_step_report(d1, d2s, margins, expl)
        else:
            raise ValueError(f"unknown chain check {check!r}")
    return blocks


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def chain_parts(d1s: Sequence[int], d2_lo: int, d2_hi: int, checks: Collection[str],
                fmt: Optional[str]) -> list:
    """The ``Rendered`` parts (``reporting.render_rows`` in fmt) of
    ``chain_blocks(d1, range(d2_lo, d2_hi + 1), checks, points)`` for
    every d1 in d1s, points being the whole grid's.

    Every d1 * (d2_hi + 2) must lie below 2**62 (``chain_blocks``), checked
    here for the whole grid.  The size rule: a grid of fewer than
    ``_COLUMN_MIN`` points is one run, on the scalar route, in this
    process; a grid of that many or more runs on the column kernels and,
    given ``os.fork``, is cut, each d1 chain into one run of consecutive d2s
    per usable CPU (at most one per d2), run k of every chain in process k.
    Either way ``_fork_join`` runs them: this process, process 0, forks the
    others, then runs its own while they compute; each child renders its
    runs and pipes their parts back pickled.  The parts come in run
    order, and the report renderers order parts stably by (check_id, d1), so
    every block's rows stay in d2 order; since each d2 lane of a chain is
    computed on its own, the report is the same byte for byte as from one
    process.  The first error, in run order, is raised here once every child
    is reaped; a child that dies is an error of its own.
    """
    for d1 in d1s:
        _check_int64(d1, d2_hi + 2)
    span = d2_hi - d2_lo + 1
    points = len(d1s) * span

    def run(lo: int, hi: int) -> list:
        d2s = range(lo, hi + 1)
        return [part for d1 in d1s
                for part in render_rows(chain_blocks(d1, d2s, checks, points), fmt)]

    procs = 1
    if points >= _COLUMN_MIN:
        # loaded once, before the runs, not once per child; main caps
        # numpy's BLAS threads at one, so none runs at the fork
        import numpy  # noqa: F401
        if hasattr(os, "fork"):
            procs = min(_usable_cpus(), span)
    cuts = [d2_lo + k * span // procs for k in range(procs + 1)]
    return _fork_join(run, [(lo, hi - 1) for lo, hi in zip(cuts, cuts[1:])])


def _fork_join(run: Callable, runs: list) -> list:
    """run(*runs[0]) in this process, and run(*runs[k]) in a forked child k;
    the children's parts follow this process's in run order.  On any error
    every child is killed, and on every exit path every child is reaped."""
    if runs[1:]:  # only a fork needs them
        import pickle
        import signal

    pipes, pids, joined = [], [], False
    try:
        for bounds in runs[1:]:
            try:
                read, write = os.pipe()
                pipes.append(os.fdopen(read, "rb"))
                pid = os.fork()
            except OSError as exc:  # main reads an OSError as stdout's
                raise VarcompError(f"cannot start a worker process: {exc.strerror}") from None
            if pid == 0:
                _child(write, pipes, run, bounds)
            os.close(write)
            pids.append(pid)
        parts = run(*runs[0])
        for pipe in pipes:
            try:
                status, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # no pickle, or a cut one
                raise VarcompError("a worker process died before it returned "
                                   "its rows") from None
            if status != "ok":
                raise value
            parts += value
        joined = True
        return parts
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if not joined:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(write: int, pipes: list, run: Callable, bounds: tuple) -> None:
    """The body of a forked child: pipe ("ok", run(*bounds)) or ("err",
    the exception it raised) to the write end, pickled, and leave through
    ``os._exit``, which flushes none of the parent's buffered output; it
    never returns into the caller's stack."""
    import pickle

    try:
        # the inherited read ends: once the parent closes its own, a write
        # here fails at once instead of waiting for a reader
        for pipe in pipes:
            pipe.close()
        with os.fdopen(write, "wb") as out:
            try:
                result = ("ok", run(*bounds))
            except BaseException as exc:  # the parent raises it again
                try:
                    pickle.loads(pickle.dumps(exc))
                    result = ("err", exc)
                except Exception:  # one pickle cannot carry: its text
                    result = ("err", VarcompError(f"a worker process failed: {exc!r}"))
            pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def table_rows() -> list:
    """Golden-table and table-adjacent checks (independent of any sweep grid).

    Reproduces every tabulated reference value at 1e-5, asserts the sampled
    monotonicity those tables illustrate, and checks the two-route
    consistency of the rational lower-edge bound (the G1 table and the v
    checks of the d1 = 3 program, as ``PROGRAMS[3]`` runs them).
    """
    blocks = [rows_from_outcome([monotone_table_check(f, GOLDEN_TABLES[f], way)], d1)[0]
              for d1, f, way in ((2, AuxFn.H2, "decreasing"), (3, AuxFn.H3, "decreasing"),
                                 (4, AuxFn.H4, "increasing"))]
    return blocks + [block for check in PROGRAMS[3]
                     if check.claims.keys() & {"g1_decreasing", "v_rational_consistency"}
                     for block in _evaluate(check, 3)]


def certificate_rows(families: Optional[Collection[str]] = None) -> list:
    """Exact-arithmetic certificate checks for the polynomial families
    (all of them, or those named in families).

    Point values and shifted expansions must match the frozen references
    bit-exactly, and every expansion must be all-positive (the positivity
    certificate for arguments beyond the shift).
    """
    blocks = []
    for family, table in REFERENCE_VALUES.items():
        if families is not None and family not in families:
            continue
        ok = all(poly_value(family, n) == v for n, v in table.items())
        blocks.append(margin_block(f"poly_values_{family.lower()}", 0, [0],
                                   [1.0 if ok else -1.0],
                                   "exact match" if ok else "reference value mismatch"))
    for (family, shift), coeffs in REFERENCE_EXPANSIONS.items():
        if families is not None and family not in families:
            continue
        exp = shifted_expansion(family, shift)
        exact = exp == coeffs
        positive = all(c > 0 for c in exp)
        note = []
        if not exact:
            note.append("coefficient mismatch")
        if not positive:
            note.append("not all positive")
        blocks.append(margin_block(f"expansion_{family.lower()}_{shift}", 0, [shift],
                                   [float(min(exp)) if positive else -1.0],
                                   "; ".join(note) if note else "all coefficients positive",
                                   holds=exact))
    return blocks


def _boundary_rows(d1: int, first_d2: int) -> list:
    """d_exceeds_c must flip exactly at first_d2 for this d1."""
    before = FParams(d1, first_d2 - 1)
    at = FParams(d1, first_d2)
    ok = (not d_exceeds_c(before)) and d_exceeds_c(at)
    return [margin_block(f"dc_boundary_d1_{d1}", d1, [first_d2], [1.0 if ok else -1.0],
                         f"first d2 with d > c is {first_d2}" if ok else "boundary mismatch")]


def _v_consistency_rows(ys: Sequence[int]) -> list:
    """The two-route v checks of the d1 = 3 lower-edge bound over ys."""
    return rows_from_outcome([rational_V_consistency(y) for y in ys], 3, ys)


def _weld(check_id: str, pairs: Callable[[int], list], tol: float, note: str,
          points: Sequence[int]) -> Union[Block, list]:
    """A weld: two routes to one quantity agree within the relative
    tolerance tol at every point p of its coverage, pairs(p) giving the
    (route 1, route 2) pairs at p.  Their one ``gap_block``, or no block
    where the coverage is empty."""
    if not points:
        return []
    return gap_block(check_id, 0, [pair for p in points for pair in pairs(p)], tol, note)


# The log-form welds tie the aux log forms to the endpoint inequalities.
# The reduced power/log inequalities are exactly the statement that an aux
# function decreases (or increases) along the step d2-2 -> d2:
#
#   d1 = 1, 2, 3:  h_x(d2-2) - h_x(d2) = ln[(1-a)^(d2/2+1) / (1-b)^(d2/2)]
#   d1 = 4:        h4(d2)   = ln[(d2+2) a + 2] + (d2/2 + 1) ln(1-a)
#                  h4(d2-2) = ln[d2 b + 2]     + (d2/2)     ln(1-b)
#                  (and the same for r4 with the lower images c, d)
#   d1 = 1:        d2 b = k(d2) and (d2+2) a = k(d2+2)
#
# A transcription slip on either side shows up as a residual far above
# roundoff, so these margins certify the reduction steps themselves.

def _log_step_pairs(d1: int, h: Callable, d2: int) -> list:
    ep = band_endpoints(FParams(d1, d2))
    return [(h(float(d2 - 2)) - h(float(d2)),
             (0.5 * d2 + 1.0) * math.log1p(-ep.a) - 0.5 * d2 * math.log1p(-ep.b))]


def _affine_log_pairs(h: Callable, images: Callable, d2: int) -> list:
    x, y = images(band_endpoints(FParams(4, d2)))
    return [(h(float(d2)), math.log((d2 + 2) * x + 2.0) + (0.5 * d2 + 1.0) * math.log1p(-x)),
            (h(float(d2 - 2)), math.log(d2 * y + 2.0) + 0.5 * d2 * math.log1p(-y))]


def _k_pairs(d2: int) -> list:
    ep = band_endpoints(FParams(1, d2))
    return [(d2 * ep.b, k_fun(float(d2))), ((d2 + 2) * ep.a, k_fun(float(d2 + 2)))]


def _closed_form_pairs(d2: int) -> list:
    """For numerator df 2 the upper-edge integral is elementary:
    d2 * integral_a^b (1-t)^(d2/2-1) dt = 2 (1-a)^(d2/2) [1 - ((1-b)/(1-a))^(d2/2)];
    the quadrature oracle is weighed against that closed form."""
    ep = band_endpoints(FParams(2, d2))
    quad = d2 * quad_beta_integral(1.0, 0.5 * d2, ep.a, ep.b, 1e-14).value
    closed = 2.0 * math.exp(0.5 * d2 * math.log1p(-ep.a)) * (
        1.0 - math.exp(0.5 * d2 * (math.log1p(-ep.b) - math.log1p(-ep.a))))
    return [(quad, closed)]


def _g2_pairs(y: int) -> list:
    return [(g2(float(y)), g2_expanded(float(y)))]


# ---------------------------------------------------------------------------
# the prove programs as data
# ---------------------------------------------------------------------------

class Span(NamedTuple):
    """The integers lo..hi: a claim's y or d2 points.  hi is an int, or the
    name of an upper end that ``prove``'s d2_max sets (``_TOPS``)."""

    lo: int
    hi: Union[int, str]

    def top(self, d2_max: Optional[int] = None) -> int:
        return _TOPS[self.hi](d2_max) if isinstance(self.hi, str) else self.hi

    def points(self, d2_max: Optional[int] = None) -> range:
        return range(self.lo, self.top(d2_max) + 1)


#: The upper ends that d2_max sets: the chain's, the sampled aux scans'
#: (``_DENSE_MAX``, or as far as the chain up to 400), the log-form welds'
#: and the d1 = 2 closed form weld's.
_TOPS = {
    "d2_max": lambda d2_max: d2_max,
    "dense": lambda d2_max: max(_DENSE_MAX, min(d2_max, 400)),
    "welds": lambda d2_max: min(d2_max, 150),
    "closed_form": lambda d2_max: min(d2_max, 100),
}

#: The coverage of every chain check and of the h_x and k log-form welds.
_CHAIN = Span(5, "d2_max")
_WELDS = Span(5, "welds")


class Check(NamedTuple):
    """One evaluator run of a ``prove`` program, and the claims it decides.

    evaluator(coverage) gives the claims' blocks, or the one-row block of
    an ``auxfn`` check or a weld (``_weld``); a chain check's evaluator is
    instead its ``chain_blocks`` check, "coefficients" or "steps", and a
    program's chain checks run as one chain over the coverage they share.
    coverage is the one value the evaluator receives: a ``Span`` of y or
    d2, a list of y, the certificate families (an expansion covers y >= the
    shift in its id) or the first d2 with d > c.  claims maps each claim id
    the run emits to the ids that claim rests on.
    """

    evaluator: Union[Callable, str]
    coverage: object
    claims: Mapping[str, tuple]


#: How each kind of evaluator decides its claims: "exact" in integer
#: arithmetic (the polynomial certificates and the d > c boundary),
#: "sampled" as float margins at the points of the claim's coverage only.
ROUTES = {
    certificate_rows: "exact",
    _boundary_rows: "exact",
    monotone_table_check: "sampled",
    derivative_sign_check: "sampled",
    value_sign_check: "sampled",
    algebra_identity_check: "sampled",
    _v_consistency_rows: "sampled",
    _weld: "sampled",
    "coefficients": "sampled",
    "steps": "sampled",
}


def route(check: Check) -> str:
    """The route (``ROUTES``) of check's claims."""
    return ROUTES[getattr(check.evaluator, "func", check.evaluator)]


def _weld_check(claim: str, pairs: Callable[[int], list], tol: float, note: str,
                coverage: Span) -> Check:
    """The ``Check`` of one weld, whose only claim rests on nothing."""
    return Check(partial(_weld, claim, pairs, tol, note), coverage, {claim: ()})


# The premises are the links the code states.  steps: step_integral is the
# sum of the two edges, each edge reduces to its power forms, and the
# lower forms of d1 = 3, 4 apply where d > c.  The welds (``_weld_check``,
# one entry each: its claim, pairs, tolerance, note and coverage): each
# power form is an aux-function step, welded to it.  auxfn: h_x falls as
# its derivative bound l_x is negative, through the prefactor identity (h4
# rises with l4, r4 falls with q4, k falls with its derivative identity);
# k's fall orders the d1 = 1 affine coefficients; v > 0 rests on the two
# routes v = g1/g2 and the G1 table.  coefficient_sign_checks: the
# coefficient signs serve the d1 = 1 reduction and the c/d order the
# d1 = 3 one.
# polynomials.FAMILIES: U1, U2, T1 and T2 certify the derivative bounds,
# P3 and P4 the d > c boundary.
PROGRAMS = {
    1: (
        Check(partial(monotone_table_check, AuxFn.H1, direction="decreasing"),
              Span(3, "dense"), {"h1_decreasing": ("l1_negative", "l1_prefactor_identity")}),
        Check(partial(derivative_sign_check, AuxFn.H1, expected_sign=-1),
              [4, 6, 10, 20, 50, 100], {"h1_derivative_sign": ()}),
        Check(partial(monotone_table_check, AuxFn.KFUN, direction="decreasing"),
              Span(5, "dense"), {"k_decreasing": ("k_derivative_identity",)}),
        Check(partial(derivative_sign_check, AuxFn.KFUN, expected_sign=-1),
              [6, 9, 20, 50, 100], {"k_derivative_sign": ()}),
        Check(partial(value_sign_check, AuxFn.L1, expected_sign=-1),
              Span(3, "dense"), {"l1_negative": ()}),
        Check(partial(algebra_identity_check, "l1_prefactor_identity"),
              Span(3, 60), {"l1_prefactor_identity": ()}),
        Check(partial(algebra_identity_check, "k_derivative_identity"),
              Span(5, 60), {"k_derivative_identity": ()}),
        _weld_check("h1_log_form_consistency", partial(_log_step_pairs, 1, h1), 1e-9,
                    "aux step equals the endpoint log ratio", _WELDS),
        _weld_check("k_matches_scaled_endpoints", _k_pairs, 1e-9,
                    "k(d2) = d2 b and k(d2+2) = (d2+2) a", _WELDS),
        Check("coefficients", _CHAIN, {
            "coef_lower_bound": (),
            "coef_combination": (),
            "coef_dominance": ("k_decreasing", "k_matches_scaled_endpoints")}),
        Check("steps", _CHAIN, {
            "step_integral": ("upper_edge", "lower_edge"),
            "upper_edge": ("power_step", "affine_power_step"),
            "lower_edge": (),
            "power_step": ("h1_decreasing", "h1_log_form_consistency"),
            "affine_power_step": ("coef_lower_bound", "coef_combination",
                                  "coef_dominance")}),
    ),
    2: (
        Check(partial(monotone_table_check, AuxFn.H2, direction="decreasing"),
              Span(3, "dense"), {"h2_decreasing": ("l2_negative", "l2_prefactor_identity")}),
        Check(partial(derivative_sign_check, AuxFn.H2, expected_sign=-1),
              [6, 10, 20, 50, 100], {"h2_derivative_sign": ()}),
        Check(partial(value_sign_check, AuxFn.L2, expected_sign=-1),
              Span(5, "dense"), {"l2_negative": ()}),
        Check(partial(algebra_identity_check, "l2_prefactor_identity"),
              Span(5, 60), {"l2_prefactor_identity": ()}),
        _weld_check("upper_edge_closed_form", _closed_form_pairs, 1e-10,
                    "quadrature vs elementary antiderivative", Span(5, "closed_form")),
        _weld_check("h2_log_form_consistency", partial(_log_step_pairs, 2, h2), 1e-9,
                    "aux step equals the endpoint log ratio", _WELDS),
        Check("steps", _CHAIN, {
            "step_integral": ("upper_edge", "lower_edge"),
            "upper_edge": ("power_step",),
            "lower_edge": (),
            "power_step": ("h2_decreasing", "h2_log_form_consistency")}),
    ),
    3: (
        Check(partial(monotone_table_check, AuxFn.H3, direction="decreasing"),
              Span(3, "dense"), {"h3_decreasing": ("l3_negative", "l3_prefactor_identity")}),
        Check(partial(derivative_sign_check, AuxFn.H3, expected_sign=-1),
              [13, 20, 50, 100], {"h3_derivative_sign": ()}),
        Check(partial(value_sign_check, AuxFn.L3, expected_sign=-1),
              Span(12, "dense"), {"l3_negative": ("expansion_u1_12", "expansion_u2_12")}),
        Check(partial(algebra_identity_check, "l3_prefactor_identity"),
              Span(12, 60), {"l3_prefactor_identity": ()}),
        Check(certificate_rows, ("U1", "U2", "P3", "Q5"), dict.fromkeys(
            ("poly_values_p3", "expansion_u1_12", "expansion_u2_12", "expansion_p3_25",
             "expansion_q5_30"), ())),
        Check(partial(_boundary_rows, 3), 25,
              {"dc_boundary_d1_3": ("poly_values_p3", "expansion_p3_25")}),
        Check(partial(monotone_table_check, AuxFn.G1, direction="decreasing"),
              Span(25, 33), {"g1_decreasing": ()}),
        Check(_v_consistency_rows, Span(25, 40), {"v_rational_consistency": ()}),
        _weld_check("g2_expansion_consistency", _g2_pairs, 1e-9,
                    "two transcriptions of the same factor agree", Span(25, 60)),
        _weld_check("h3_log_form_consistency", partial(_log_step_pairs, 3, h3), 1e-9,
                    "aux step equals the endpoint log ratio", _WELDS),
        Check("coefficients", _CHAIN, {"cd_order": ()}),
        Check("steps", _CHAIN, {
            "step_integral": ("upper_edge", "lower_edge"),
            "upper_edge": ("power_step",),
            "lower_edge": ("product_step_lower", "ratio_bound_lower", "dc_boundary_d1_3"),
            "power_step": ("h3_decreasing", "h3_log_form_consistency"),
            "product_step_lower": ("cd_order",),
            "ratio_bound_lower": ("v_rational_consistency", "g1_decreasing")}),
    ),
    4: (
        Check(partial(monotone_table_check, AuxFn.H4, direction="increasing"),
              Span(3, "dense"), {"h4_increasing": ("l4_negative", "l4_prefactor_identity")}),
        Check(partial(derivative_sign_check, AuxFn.H4, expected_sign=1),
              [13, 20, 50, 100], {"h4_derivative_sign": ()}),
        Check(partial(monotone_table_check, AuxFn.R4, direction="decreasing"),
              Span(15, "dense"), {"r4_decreasing": ("q4_positive", "q4_prefactor_identity")}),
        Check(partial(derivative_sign_check, AuxFn.R4, expected_sign=-1),
              [16, 20, 50, 100], {"r4_derivative_sign": ()}),
        Check(partial(value_sign_check, AuxFn.L4, expected_sign=-1),
              Span(12, "dense"), {"l4_negative": ("expansion_t1_12", "expansion_t2_12")}),
        Check(partial(value_sign_check, AuxFn.Q4, expected_sign=1),
              Span(15, "dense"), {"q4_positive": ()}),
        Check(partial(algebra_identity_check, "l4_prefactor_identity"),
              Span(12, 60), {"l4_prefactor_identity": ()}),
        Check(partial(algebra_identity_check, "q4_prefactor_identity"),
              Span(15, 60), {"q4_prefactor_identity": ()}),
        Check(certificate_rows, ("T1", "T2", "P4"), dict.fromkeys(
            ("poly_values_p4", "expansion_t1_12", "expansion_t2_12", "expansion_p4_17"), ())),
        Check(partial(_boundary_rows, 4), 17,
              {"dc_boundary_d1_4": ("poly_values_p4", "expansion_p4_17")}),
        _weld_check("h4_log_form_consistency",
                    partial(_affine_log_pairs, h4, attrgetter("a", "b")), 1e-9,
                    "h4 equals the affine-power log form at the endpoints", _WELDS),
        # r4(d2 - 2) from y = 15, where r4_decreasing starts; c, d > 0 from d2 = 11
        _weld_check("r4_log_form_consistency",
                    partial(_affine_log_pairs, r4, attrgetter("c", "d")), 1e-9,
                    "r4 equals the affine-power log form at the lower images",
                    Span(17, "welds")),
        Check("steps", _CHAIN, {
            "step_integral": ("upper_edge", "lower_edge"),
            "upper_edge": ("poly_power_step",),
            "lower_edge": ("poly_power_step_lower", "dc_boundary_d1_4"),
            "poly_power_step": ("h4_increasing", "h4_log_form_consistency"),
            "poly_power_step_lower": ("r4_decreasing", "r4_log_form_consistency")}),
    ),
}


def _evaluate(check: Check, d1: int, d2_max: Optional[int] = None) -> list:
    """The blocks of a check that is not a chain check, stamped with d1."""
    coverage = check.coverage
    if isinstance(coverage, Span):
        coverage = coverage.points(d2_max)
    blocks = check.evaluator(coverage)
    return rows_from_outcome([blocks], d1) if isinstance(blocks, Block) else blocks


def _chain(d1: int) -> tuple:
    """The ``chain_blocks`` checks of the d1 program and the span they share."""
    chain = [check for check in PROGRAMS[d1] if isinstance(check.evaluator, str)]
    (span,) = {check.coverage for check in chain}
    return tuple(check.evaluator for check in chain), span


def prove_rows(d1: int, d2_max: int = 400) -> list:
    """The full verification program for one proved case d1 in {1, 2, 3, 4}:
    every check of ``PROGRAMS[d1]`` once, its chain checks as one step chain
    over 5 <= d2 <= d2_max (``chain_blocks``)."""
    _check_prove_args(d1, d2_max)
    checks, span = _chain(d1)
    return _program_rows(d1, d2_max) + chain_blocks(d1, span.points(d2_max), checks)


def prove_parts(d1: int, d2_max: int, fmt: Optional[str]) -> list:
    """The ``Rendered`` parts of ``prove_rows(d1, d2_max)`` in fmt: its
    chain's (``chain_parts``), then its other checks', run before the chain."""
    _check_prove_args(d1, d2_max)
    checks, span = _chain(d1)
    program = render_rows(_program_rows(d1, d2_max), fmt)
    return chain_parts([d1], span.lo, span.top(d2_max), checks, fmt) + program


def _check_prove_args(d1: int, d2_max: int) -> None:
    if d1 not in PROVED_D1:
        raise DomainError(
            f"prove covers d1 in {list(PROVED_D1)}; use 'explore' for d1 >= 5")
    if d2_max < 7:
        raise DomainError(f"d2_max must be at least 7, got {d2_max}")
    if d2_max >= 2 ** 62:  # the int64 bound of the column kernels
        raise DomainError(f"d2_max must be below 2**62, got {d2_max}")


def _program_rows(d1: int, d2_max: int) -> list:
    """The blocks of ``prove_rows`` but its step chain."""
    return [block for check in PROGRAMS[d1] if not isinstance(check.evaluator, str)
            for block in _evaluate(check, d1, d2_max)]


def explore_rows(d1: int, d2_values: Sequence[int]) -> list:
    """Exploratory scan of the conjectured region d1 >= 5; never normative.

    One block per form, of its (margin, note) at each d2 that gives it a
    row: the truncated-binomial bounds of ``falling_factorial_bounds_odd``
    for odd d1, the series step differences of ``series_steps_even`` for
    even d1.  An undefined series form or an overflowing truncated sum is a
    not-applicable row whose note says so, not an error.
    """
    if d1 < 5:
        raise DomainError(f"explore is for d1 >= 5, got d1={d1}; "
                          f"use sweep or prove below that")
    forms = falling_factorial_bounds_odd if d1 % 2 else series_steps_even
    columns: dict = {}  # form -> (its d2s, its margins, its notes)
    for d2 in d2_values:
        for form, row in forms(d1, d2).items():
            for column, value in zip(columns.setdefault(form, ([], [], [])), (d2, *row)):
                column.append(value)
    return [margin_block(form, d1, d2s, margins, notes, True)
            for form, (d2s, margins, notes) in columns.items()]
