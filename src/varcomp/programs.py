"""Prepackaged verification programs: golden tables, positivity
certificates, per-case step programs, and the exploratory scans for d1 >= 5.

Everything returns report blocks (``reporting.Block``), one per claim and
d1, so the CLI (or a notebook) can batch, sort and emit them; nothing here
prints or exits; the one-row blocks of a claim's single checks are joined
into its block by ``reporting.rows_from_outcome``.

The per-point claims of one d1 over a d2 chain, of a sweep column and of a
``prove`` chain alike, come from ``chain_blocks`` (the route rule is
there); ``chain_parts`` renders them, cut into runs of d2 across processes
by its cut rule, and is what ``sweep`` and ``prove`` run.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Collection, Iterable, Optional, Sequence

from .distributions import FParams
from .errors import DomainError, VarcompError
from .proofcheck.auxfn import (
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
    series_forms_even,
    step_inequalities_column,
)
from .oracle import quad_beta_integral
from .reporting import (Block, gap_block, margin_block, render_rows, rows_from_outcome,
                        rows_from_step_report)
from .varband import (PROVED_D1, STRICTNESS_FLOOR, band_endpoints, band_endpoints_column,
                      _check_int64, bound_block, d_exceeds_c, monotone_block,
                      variation_probability, variation_probability_column)

__all__ = [
    "chain_blocks",
    "chain_parts",
    "step_blocks",
    "table_rows",
    "certificate_rows",
    "prove_rows",
    "prove_parts",
    "explore_rows",
]

#: Sampling grid used for monotonicity-beyond-table and sign scans.
_DENSE_MAX = 200

#: The route rule of ``chain_blocks``: the numpy column kernels once the
#: whole grid's points (d1 chains x d2 values) reach this, the scalar
#: per-point route below; the margins are the same bit for bit.  The kernels
#: are faster per point but cost numpy's import (about 0.1 s and 14 MiB).
#: Measured on a 2-core host, ``prove --d1 D --format json --out``, medians
#: of 9 alternating runs, scalar vs kernels: D = 3 at 396 points 0.16 vs
#: 0.22 s, 2,500 0.32 vs 0.34 s, 4,000 0.34 vs 0.37 s, 6,000 0.44 s both,
#: 10,000 0.58 vs 0.50 s; D = 1 and 4 at 8,000 0.44 vs 0.45 s and 0.35 vs
#: 0.37 s.  Routing per run of a cut chain instead of per grid cost 4 x
#: 2,000 steps points 0.662 instead of 0.381 s, 4 x 5,000 1.044 instead of
#: 0.568 s and ``prove --d1 3`` at 6,000 points 0.448 instead of 0.393 s;
#: one threshold at 3,000 with ``_POOL_MIN`` cost ``prove`` chains of
#: 3,000-4,000 points 25-64 ms more.
_COLUMN_MIN = 4096

#: Grid points (d1 chains x d2 values) from which ``chain_parts`` cuts a
#: grid; the cut rule is there.  A cut costs a fork (about 4 ms),
#: copy-on-write page faults and the pickling of the children's rows, about
#: 0.05 s of CPU time on 2 CPUs.  Measured on a 2-core host, medians of 7-11
#: alternating runs, one process vs cut: ``sweep --d1 1..4 --d2 5..N --out``
#: with ``--check bound,monotone,steps`` at 4 x 400 points 0.27 vs 0.29 s,
#: 4 x 1,000 0.57 vs 0.43 s, 4 x 19,996 1.86 vs 1.43 s; with ``--check
#: bound,monotone`` at 4 x 750 to 4 x 5,000 0.24-0.42 s both, 4 x 19,996
#: 0.958 vs 0.709 s (CSV) and 0.797 vs 0.619 s (JSON), about 6% more CPU;
#: ``prove --d1 3|4 --format json --out`` at 30,000 points 0.87-1.33 vs
#: 0.80-0.94 s.  One threshold at 4,096 with ``_COLUMN_MIN``, no cut on the
#: scalar route, cost steps sweeps of 4 x 800 and 4 x 1,000 23% and 30% more.
_POOL_MIN = 3_000


def _grid(lo: int, hi: int) -> list:
    return list(range(lo, hi + 1))


def _claim(check_id: str, d1: int, d2: int, margin: float, note: str,
           holds: bool = True) -> Block:
    """Block of one tolerance-style claim (floor 0) checked once."""
    return margin_block(check_id, d1, [d2], [margin], 0.0, note, holds=holds)


def step_blocks(d1: int, d2s: Sequence[int], margins_at: Callable,
                exploratory: bool = False) -> list:
    """Blocks of a scalar step evaluator over d2s; margins_at(d2) is its
    form -> margin map at d2, with the same forms at every d2."""
    columns: dict = {}
    for d2 in d2s:
        for form, margin in margins_at(d2).items():
            columns.setdefault(form, []).append(margin)
    return rows_from_step_report(d1, d2s, columns, exploratory)


def chain_blocks(d1: int, d2s: Sequence[int], checks: Collection[str],
                 points: Optional[int] = None) -> list:
    """Blocks of the per-point claims of one d1 over d2s, a run of
    consecutive integers >= 5, for each of checks in turn: "bound"
    (``varband.bound_block``), "monotone" (``varband.monotone_block``),
    "coefficients" (the coefficient sign forms, d1 = 1 and 3) and "steps".

    The route rule: the numpy column kernels once points (default len(d2s);
    ``chain_parts`` passes its whole grid's) reaches ``_COLUMN_MIN``, the
    scalar per-point evaluators below it; the blocks are the same bit for
    bit.  Either route first needs d1 * (d2s[-1] + 2) < 2**62, the
    kernels' int64 bound.  Rows of a d1 outside ``PROVED_D1`` are
    exploratory; each band probability is computed once.
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
        elif check in ("coefficients", "steps") and columns:
            kernel = step_inequalities_column if check == "steps" else coefficient_sign_column
            blocks += rows_from_step_report(d1, d2s, kernel(d1, d2s, *ends), expl)
        elif check == "coefficients":
            blocks += step_blocks(d1, d2s, lambda d2: coefficient_sign_checks(d1, d2), expl)
        elif check == "steps":
            blocks += step_blocks(d1, d2s,
                                  lambda d2: check_step_inequalities(FParams(d1, d2)), expl)
        else:
            raise ValueError(f"unknown chain check {check!r}")
    return blocks


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def chain_parts(d1s: Sequence[int], d2_lo: int, d2_hi: int, checks: Collection[str],
                fmt: Optional[str], other: Callable[[], list]) -> list:
    """The ``Rendered`` parts (``reporting.render_rows`` in fmt) of
    ``chain_blocks(d1, range(d2_lo, d2_hi + 1), checks, points)`` for
    every d1 in d1s, points being the whole grid's, then of the blocks that
    other() returns: the work that is not part of any chain.

    Every d1 * (d2_hi + 2) must lie below 2**62 (``chain_blocks``), checked
    here for the whole grid.  The cut rule: a grid of at least ``_POOL_MIN``
    points, given two or more usable CPUs and ``os.fork``, is cut, each d1
    chain into one run of consecutive d2s per CPU, run k of every chain in
    process k; any other grid is one run, in this process.  Either way
    ``_fork_join`` runs them: this process, process 0, forks the others,
    runs other() while they compute, then its own runs; each child renders
    its runs and pipes their parts back pickled.  The parts come in run
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
    if points >= _POOL_MIN and hasattr(os, "fork"):
        procs = min(_usable_cpus(), span)
    if points >= _COLUMN_MIN:
        # loaded once, before the runs, not once per child; main caps
        # numpy's BLAS threads at one, so none runs at the fork
        import numpy  # noqa: F401
    cuts = [d2_lo + k * span // procs for k in range(procs + 1)]
    return _fork_join(run, [(lo, hi - 1) for lo, hi in zip(cuts, cuts[1:])],
                      lambda: render_rows(other(), fmt))


def _fork_join(run: Callable, runs: list, other: Callable) -> list:
    """run(*runs[0]) in this process after other(), and run(*runs[k]) in a
    forked child k; the children's parts follow this process's in run
    order, then other()'s.  On any error every child is killed, and on
    every exit path every child is reaped."""
    if runs[1:]:  # only a fork needs them
        import pickle
        import signal

    pipes, pids, joined = [], [], False
    try:
        for bounds in runs[1:]:
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            pid = os.fork()
            if pid == 0:
                _child(write, pipes, run, bounds)
            os.close(write)
            pids.append(pid)
        tail = other()
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
        return parts + tail
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


def _lower_edge_bound_rows() -> list:
    """The G1 table and the two-route v checks of the d1 = 3 lower-edge
    bound, shared by the table rows and the d1 = 3 program."""
    ys = _grid(25, 40)
    return (rows_from_outcome(
        [monotone_table_check(AuxFn.G1, _grid(25, 33), "decreasing")], d1=3)
        + rows_from_outcome([rational_V_consistency(y) for y in ys], 3, ys))


def table_rows() -> list:
    """Golden-table and table-adjacent checks (independent of any sweep grid).

    Reproduces every tabulated reference value at 1e-5, asserts the sampled
    monotonicity those tables illustrate, and checks the two-route
    consistency of the rational lower-edge bound.
    """
    blocks = [rows_from_outcome([monotone_table_check(f, ys, direction)], d1)[0]
              for d1, f, ys, direction in ((2, AuxFn.H2, [3, 4, 5], "decreasing"),
                                           (3, AuxFn.H3, _grid(3, 12), "decreasing"),
                                           (4, AuxFn.H4, _grid(3, 12), "increasing"))]
    return blocks + _lower_edge_bound_rows()


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
        blocks.append(_claim(f"poly_values_{family.lower()}", 0, 0, 1.0 if ok else -1.0,
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
        blocks.append(_claim(f"expansion_{family.lower()}_{shift}", 0, shift,
                             float(min(exp)) if positive else -1.0,
                             "; ".join(note) if note else "all coefficients positive",
                             holds=exact))
    return blocks


def _boundary_rows(d1: int, first_d2: int) -> list:
    """d_exceeds_c must flip exactly at first_d2 for this d1."""
    before = FParams(d1, first_d2 - 1)
    at = FParams(d1, first_d2)
    ok = (not d_exceeds_c(before)) and d_exceeds_c(at)
    return [_claim(f"dc_boundary_d1_{d1}", d1, first_d2, 1.0 if ok else -1.0,
                   f"first d2 with d > c is {first_d2}" if ok else "boundary mismatch")]


def _closed_form_rows(d2_values: Iterable[int]) -> list:
    """For numerator df 2 the upper-edge integral is elementary:
    d2 * integral_a^b (1-t)^(d2/2-1) dt = 2 (1-a)^(d2/2) [1 - ((1-b)/(1-a))^(d2/2)].
    The quadrature oracle must match that closed form to 1e-10, relatively."""
    pairs = []
    for d2 in d2_values:
        ep = band_endpoints(FParams(2, d2))
        quad = d2 * quad_beta_integral(1.0, 0.5 * d2, ep.a, ep.b, 1e-14).value
        closed = 2.0 * math.exp(0.5 * d2 * math.log1p(-ep.a)) * (
            1.0 - math.exp(0.5 * d2 * (math.log1p(-ep.b) - math.log1p(-ep.a))))
        pairs.append((quad, closed))
    return [gap_block("upper_edge_closed_form", 2, pairs, 1e-10,
                      "quadrature vs elementary antiderivative")]


def _g2_consistency_rows(ys: Iterable[int]) -> list:
    """The two transcriptions of g2 must agree to 1e-9, relatively."""
    return [gap_block("g2_expansion_consistency", 3,
                      [(g2(float(y)), g2_expanded(float(y))) for y in ys], 1e-9,
                      "two transcriptions of the same factor agree")]


def _log_form_rows(d1: int, d2_values: Iterable[int]) -> list:
    """Weld checks between the aux log forms and the endpoint inequalities.

    The reduced power/log inequalities are exactly the statement that an aux
    function decreases (or increases) along the step d2-2 -> d2:

      d1 = 1, 2, 3:  h_x(d2-2) - h_x(d2) = ln[(1-a)^(d2/2+1) / (1-b)^(d2/2)]
      d1 = 4:        h4(d2)   = ln[(d2+2) a + 2] + (d2/2 + 1) ln(1-a)
                     h4(d2-2) = ln[d2 b + 2]     + (d2/2)     ln(1-b)
                     (and the same for r4 with the lower images c, d)
      d1 = 1:        d2 b = k(d2) and (d2+2) a = k(d2+2)

    A transcription slip on either side shows up as a residual far above
    roundoff, so these margins certify the reduction steps themselves.
    """
    if d1 not in PROVED_D1:
        raise DomainError(f"log-form welds exist for d1 in 1..4, got {d1}")
    rel_tol = 1e-9
    ends = [(d2, band_endpoints(FParams(d1, d2))) for d2 in d2_values]
    if d1 == 4:
        h_pairs, r_pairs = [], []
        for d2, ep in ends:
            h_pairs += [
                (h4(float(d2)),
                 math.log((d2 + 2) * ep.a + 2.0) + (0.5 * d2 + 1.0) * math.log1p(-ep.a)),
                (h4(float(d2 - 2)),
                 math.log(d2 * ep.b + 2.0) + 0.5 * d2 * math.log1p(-ep.b)),
            ]
            if d2 - 2 >= 15 and ep.d > 0.0 and ep.c > 0.0:
                r_pairs += [
                    (r4(float(d2)),
                     math.log((d2 + 2) * ep.c + 2.0) + (0.5 * d2 + 1.0) * math.log1p(-ep.c)),
                    (r4(float(d2 - 2)),
                     math.log(d2 * ep.d + 2.0) + 0.5 * d2 * math.log1p(-ep.d)),
                ]
        blocks = [gap_block("h4_log_form_consistency", 4, h_pairs, rel_tol,
                            "h4 equals the affine-power log form at the endpoints")]
        if r_pairs:
            blocks.append(gap_block(
                "r4_log_form_consistency", 4, r_pairs, rel_tol,
                "r4 equals the affine-power log form at the lower images"))
        return blocks
    fn = (h1, h2, h3)[d1 - 1]
    blocks = [gap_block(f"h{d1}_log_form_consistency", d1,
                        [(fn(float(d2 - 2)) - fn(float(d2)),
                          (0.5 * d2 + 1.0) * math.log1p(-ep.a)
                          - 0.5 * d2 * math.log1p(-ep.b)) for d2, ep in ends],
                        rel_tol, "aux step equals the endpoint log ratio")]
    if d1 == 1:
        blocks.append(gap_block(
            "k_matches_scaled_endpoints", 1,
            [pair for d2, ep in ends
             for pair in ((d2 * ep.b, k_fun(float(d2))),
                          ((d2 + 2) * ep.a, k_fun(float(d2 + 2))))],
            rel_tol, "k(d2) = d2 b and k(d2+2) = (d2+2) a"))
    return blocks


def prove_rows(d1: int, d2_max: int = 400) -> list:
    """The full verification program for one proved case d1 in {1, 2, 3, 4}.

    Combines the golden tables, sampled monotonicity with finite-difference
    secondary checks, the prefactor algebra identities, exact positivity
    certificates, coefficient sign programs, and the step-inequality chain
    over 5 <= d2 <= d2_max (``chain_blocks``).
    """
    _check_prove_args(d1, d2_max)
    return (_program_rows(d1, d2_max)
            + chain_blocks(d1, range(5, d2_max + 1), _prove_checks(d1)))


def prove_parts(d1: int, d2_max: int, fmt: Optional[str]) -> list:
    """The ``Rendered`` parts of ``prove_rows(d1, d2_max)`` in fmt, its step
    chain through ``chain_parts``."""
    _check_prove_args(d1, d2_max)
    return chain_parts([d1], 5, d2_max, _prove_checks(d1), fmt,
                       lambda: _program_rows(d1, d2_max))


def _prove_checks(d1: int) -> tuple:
    return ("coefficients", "steps") if d1 in (1, 3) else ("steps",)


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
    blocks: list = []
    dense_hi = max(_DENSE_MAX, min(d2_max, 400))

    def add(block):
        blocks.extend(rows_from_outcome([block], d1))

    if d1 == 1:
        add(monotone_table_check(AuxFn.H1, _grid(3, dense_hi), "decreasing"))
        add(derivative_sign_check(AuxFn.H1, [4, 6, 10, 20, 50, 100], -1))
        add(monotone_table_check(AuxFn.KFUN, _grid(5, dense_hi), "decreasing"))
        add(derivative_sign_check(AuxFn.KFUN, [6, 9, 20, 50, 100], -1))
        add(value_sign_check(AuxFn.L1, _grid(3, dense_hi), -1))
        add(algebra_identity_check("l1_prefactor_identity", _grid(3, 60)))
        add(algebra_identity_check("k_derivative_identity", _grid(5, 60)))
    elif d1 == 2:
        add(monotone_table_check(AuxFn.H2, _grid(3, dense_hi), "decreasing"))
        add(derivative_sign_check(AuxFn.H2, [6, 10, 20, 50, 100], -1))
        add(value_sign_check(AuxFn.L2, _grid(5, dense_hi), -1))
        add(algebra_identity_check("l2_prefactor_identity", _grid(5, 60)))
        blocks += _closed_form_rows(range(5, min(d2_max, 100) + 1))
    elif d1 == 3:
        add(monotone_table_check(AuxFn.H3, _grid(3, dense_hi), "decreasing"))
        add(derivative_sign_check(AuxFn.H3, [13, 20, 50, 100], -1))
        add(value_sign_check(AuxFn.L3, _grid(12, dense_hi), -1))
        add(algebra_identity_check("l3_prefactor_identity", _grid(12, 60)))
        blocks += certificate_rows(("U1", "U2", "P3", "Q5"))
        blocks += _boundary_rows(3, 25)
        blocks += _lower_edge_bound_rows()
        blocks += _g2_consistency_rows(_grid(25, 60))
    else:
        add(monotone_table_check(AuxFn.H4, _grid(3, dense_hi), "increasing"))
        add(derivative_sign_check(AuxFn.H4, [13, 20, 50, 100], 1))
        add(monotone_table_check(AuxFn.R4, _grid(15, dense_hi), "decreasing"))
        add(derivative_sign_check(AuxFn.R4, [16, 20, 50, 100], -1))
        add(value_sign_check(AuxFn.L4, _grid(12, dense_hi), -1))
        add(value_sign_check(AuxFn.Q4, _grid(15, dense_hi), 1))
        add(algebra_identity_check("l4_prefactor_identity", _grid(12, 60)))
        add(algebra_identity_check("q4_prefactor_identity", _grid(15, 60)))
        blocks += certificate_rows(("T1", "T2", "P4"))
        blocks += _boundary_rows(4, 17)

    return blocks + _log_form_rows(d1, range(5, min(d2_max, 150) + 1))


def explore_rows(d1: int, d2_values: Sequence[int]) -> list:
    """Exploratory scan of the conjectured region d1 >= 5; never normative.

    Odd d1: truncated-binomial sufficient bounds at each d2.  Even d1: step
    differences of the series-reduced log forms (positive upper-edge
    difference and negative lower-edge difference would match the proved
    pattern).  Domain failures of the series forms are recorded, not raised.
    """
    if d1 < 5:
        raise DomainError(f"explore is for d1 >= 5, got d1={d1}; "
                          f"use sweep or prove below that")
    if d1 % 2 == 1:
        return step_blocks(d1, d2_values,
                           lambda d2: falling_factorial_bounds_odd(d1, d2),
                           exploratory=True)
    defined, upper, lower, undefined, notes = [], [], [], [], []
    for d2 in d2_values:
        try:
            j_prev, k_prev = series_forms_even(d1, float(d2 - 2))
            j_here, k_here = series_forms_even(d1, float(d2))
        except VarcompError as exc:
            undefined.append(d2)
            notes.append(f"not applicable: {exc}")
            continue
        defined.append(d2)
        upper.append(j_here - j_prev)
        lower.append(k_prev - k_here)
    blocks = rows_from_step_report(
        d1, defined, {"series_upper_step": upper, "series_lower_step": lower}, True)
    blocks.append(margin_block("series_step", d1, undefined, [None] * len(undefined),
                               STRICTNESS_FLOOR, notes, True))
    return [block for block in blocks if block]
