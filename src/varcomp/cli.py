"""Command-line front end.

Commands
--------
varprob    print the variation probability of one distribution: the F, chi-square
           or normal band, each from its degrees of freedom
endpoints  varprob for an F distribution with the endpoint details
sweep      run selected checks over a (d1, d2) grid, emit a CSV/JSON report
prove      run the full verification program for one case d1 in {1,2,3,4}
oracle     cross-validate the analytic value against Monte Carlo and quadrature
explore    scan the conjectured region d1 >= 5 (never affects exit status)

Exit codes: 0 all checks passed, 1 at least one non-exploratory check
failed, 2 usage, domain, I/O or out-of-memory error.  Every input error of a
command, its own checks and the library's domain errors alike, is a
``VarcompError`` that ``main`` prints as one ``error:`` line.

A sweep runs serially, one d1 column at a time: the column's endpoint images
and band probabilities come from the numpy column kernel in ``varband``, and
each band probability is computed once and shared by the bound and monotone
blocks.  Its step forms come from ``proofcheck.steps.step_inequalities_column``,
bit-identical to the scalar per-point route.  ``prove`` runs that scalar
route on a chain of fewer than ``programs._COLUMN_MIN`` d2 points (the
default ``--d2-max 400`` among them) and the same kernels on a longer one.
Commands that draw no samples, sweep no grid and prove no long chain never
import numpy.

A grid or chain too large for the process to hold is an input error: one
``error:`` line and exit 2, like a domain error.

Every report is a list of ``reporting.Block``s, one per claim and d1: each
kernel column, and each limit check's one-row block, is one block as it is,
and ``prove`` prints its PASS/INCONCLUSIVE/FAIL line per claim from it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .distributions import FParams
from .errors import VarcompError
from .oracle import mc_variation_probability, quad_beta_integral
from .programs import certificate_rows, explore_rows, prove_rows, table_rows
from .reporting import (
    margin_block,
    rows_from_step_report,
    summarize,
    write_report,
)
from .specfun import log_beta
from .varband import (
    NORMAL_BAND,
    PROVED_D1,
    STRICTNESS_FLOOR,
    band_endpoints,
    band_endpoints_column,
    check_limit,
    chi_square_band_probability,
    variation_band,
    variation_probability,
    variation_probability_column,
)
from .proofcheck.steps import step_inequalities_column

_CHECK_NAMES = ("bound", "monotone", "limit", "steps", "tables", "exploratory")
_VARIANCE_CHECKS = {"bound", "monotone", "steps"}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are one line on stderr, exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> tuple:
    """Inclusive integer range 'lo..hi', or a single value 'n'."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or lo..hi range, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if hi >= 2 ** 62:  # the int64 bound of the column kernels
        raise argparse.ArgumentTypeError(
            f"range bounds must be below 2**62, got {text!r}")
    return lo, hi


def _parse_checks(text: str) -> tuple:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    for name in names:
        if name not in _CHECK_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown check {name!r}; choose from {', '.join(_CHECK_NAMES)}")
    if not names:
        raise argparse.ArgumentTypeError("at least one check is required")
    return names


def _parse_number(text: str, positive: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise argparse.ArgumentTypeError(
            f"must be finite and {'>' if positive else '>='} 0, got {text!r}")
    return value


def _parse_floor(text: str) -> float:
    """A strictness floor or a tolerance: a finite number >= 0."""
    return _parse_number(text, positive=False)


def _parse_quad_tol(text: str) -> float:
    """A quadrature tolerance: a finite number > 0."""
    return _parse_number(text, positive=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="varcomp",
        description="Variation probabilities of F / chi-square / normal "
                    "distributions and the machine-checked inequality verifier.")
    parser.add_argument("--version", action="version", version=f"varcomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_var = sub.add_parser("varprob", help="variation probability of one distribution")
    p_var.add_argument("--dist", choices=("f", "chisq", "normal"), required=True)
    p_var.add_argument("--d1", type=int)
    p_var.add_argument("--d2", type=int)
    p_var.add_argument("--k", type=int)
    p_var.add_argument("--endpoints", action="store_true",
                       help="also print the endpoint images and band limits (F only)")
    p_var.add_argument("--format", choices=("text", "json"), default="text")

    p_end = sub.add_parser("endpoints", help="varprob --dist f --endpoints")
    p_end.add_argument("--d1", type=int, required=True)
    p_end.add_argument("--d2", type=int, required=True)
    p_end.add_argument("--format", choices=("text", "json"), default="text")
    p_end.set_defaults(dist="f", endpoints=True)

    p_sweep = sub.add_parser("sweep", help="run checks over a (d1, d2) grid")
    p_sweep.add_argument("--d1", type=_parse_range, required=True, metavar="LO..HI")
    p_sweep.add_argument("--d2", type=_parse_range, default=(5, 400), metavar="LO..HI",
                         help="denominator df range (default 5..400)")
    p_sweep.add_argument("--check", type=_parse_checks, required=True,
                         metavar="NAME[,NAME...]",
                         help=f"subset of: {', '.join(_CHECK_NAMES)}")
    p_sweep.add_argument("--out", help="report path (default: stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--floor", type=_parse_floor, default=STRICTNESS_FLOOR,
                         help="strictness floor for strict inequalities")
    p_sweep.add_argument("--limit-tol", type=_parse_floor, default=1e-3,
                         help="tolerance of the limit check")
    p_sweep.add_argument("--d2-large", type=int, default=10_000,
                         help="d2 used by the limit check")
    p_sweep.add_argument("--exploratory", action="store_true",
                         help="also evaluate grid points outside the proved region")

    p_prove = sub.add_parser("prove", help="full verification program for one d1")
    p_prove.add_argument("--d1", type=int, required=True)
    p_prove.add_argument("--d2-max", type=int, default=400)
    p_prove.add_argument("--floor", type=_parse_floor, default=STRICTNESS_FLOOR)
    p_prove.add_argument("--out", help="report path (default: summary to stdout)")
    p_prove.add_argument("--format", choices=("csv", "json"), default="csv")

    p_or = sub.add_parser("oracle", help="analytic vs Monte Carlo vs quadrature")
    p_or.add_argument("--d1", type=int, required=True)
    p_or.add_argument("--d2", type=int, required=True)
    p_or.add_argument("--samples", type=int, default=1_000_000)
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--quad-tol", type=_parse_quad_tol, default=1e-10)

    p_ex = sub.add_parser("explore", help="scan the conjectured region d1 >= 5")
    p_ex.add_argument("--d1", type=_parse_range, required=True, metavar="LO..HI")
    p_ex.add_argument("--d2", type=_parse_range, required=True, metavar="LO..HI")
    p_ex.add_argument("--out", help="report path (default: stdout)")
    p_ex.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ex.add_argument("--floor", type=_parse_floor, default=STRICTNESS_FLOOR)
    return parser


# ---------------------------------------------------------------------------
# sweep machinery
# ---------------------------------------------------------------------------

def _sweep_column(d1: int, d2_lo: int, d2_hi: int, checks, floor: float) -> list:
    """Blocks of the per-point checks (bound, monotone, steps) for one d1
    over d2_lo..d2_hi.  Each band probability is computed once, for d2 up to
    d2_hi + 2, and read by both the bound and the monotone blocks."""
    expl = d1 not in PROVED_D1
    note = "exploratory" if expl else ""
    # one list of d2 ints shared by every block: a range would mint a new
    # int object per row for d2 > 256 each time it is iterated
    d2s = list(range(d2_lo, d2_hi + 1))
    if "bound" in checks or "monotone" in checks:
        prob = variation_probability_column(d1, range(d2_lo, d2_hi + 3)).tolist()
    blocks: list = []
    for check in checks:
        if check == "bound":
            margins = [p - NORMAL_BAND for p in prob[:len(d2s)]]
            blocks.append(margin_block("bound_exceeds_normal", d1, d2s, margins,
                                       floor, note, expl))
        elif check == "monotone":
            margins = [here - next_ for here, next_ in zip(prob, prob[2:])]
            blocks.append(margin_block("step_decreasing", d1, d2s, margins,
                                       floor, note, expl))
        elif check == "steps":
            margins = step_inequalities_column(d1, d2s, *band_endpoints_column(d1, d2s))
            blocks += rows_from_step_report(d1, d2s, margins, floor, expl)
    return blocks


def _cmd_sweep(ns) -> int:
    d1_lo, d1_hi = ns.d1
    d2_lo, d2_hi = ns.d2
    checks = ns.check
    if d1_lo < 1:
        raise VarcompError("d1 must be >= 1")
    if any(c in _VARIANCE_CHECKS for c in checks) and d2_lo < 5:
        raise VarcompError("checks needing a finite variance require d2 >= 5")
    d1_values = list(range(d1_lo, d1_hi + 1))
    if not ns.exploratory:
        in_region = [d1 for d1 in d1_values if d1 in PROVED_D1]
        skipped = sorted(set(d1_values) - set(in_region))
        if skipped and any(c in ("bound", "monotone", "steps") for c in checks):
            print(f"note: skipping conjectured d1 values {skipped} "
                  f"(pass --exploratory to include them)", file=sys.stderr)
        grid_d1 = in_region
    else:
        grid_d1 = d1_values

    blocks: list = []
    if _VARIANCE_CHECKS.intersection(checks):
        for d1 in grid_d1:
            blocks += _sweep_column(d1, d2_lo, d2_hi, checks, ns.floor)
    if "limit" in checks:
        for d1 in d1_values:
            blocks.append(check_limit(d1, ns.d2_large, ns.limit_tol))
    if "tables" in checks:
        blocks += table_rows(ns.floor)
        blocks += certificate_rows()
    if "exploratory" in checks:
        for d1 in d1_values:
            if d1 >= 5:
                blocks += explore_rows(d1, range(max(d2_lo, 7), d2_hi + 1), ns.floor)

    header = {
        "version": __version__,
        "spec": {
            "command": "sweep",
            "d1": f"{d1_lo}..{d1_hi}",
            "d2": f"{d2_lo}..{d2_hi}",
            "checks": list(checks),
            "floor": ns.floor,
            "d2_large": ns.d2_large,
            "limit_tol": ns.limit_tol,
            "exploratory": bool(ns.exploratory),
        },
    }
    counts = _write(blocks, header, ns)
    return 1 if counts["fail"] else 0


def _report(blocks: list, header: dict, ns, counts: dict) -> str:
    """write_report in ns.format to ns.out (None: only render); a path that
    cannot be written is an error with exit 2."""
    try:
        return write_report(blocks, header, ns.format, ns.out, counts)
    except OSError as exc:
        raise VarcompError(
            f"cannot write report {ns.out}: {exc.strerror or exc}") from None


def _write(blocks: list, header: dict, ns) -> dict:
    """Emit a sweep or explore report to ns.out or stdout; returns the
    summary counts, computed once."""
    counts = summarize(blocks)
    text = _report(blocks, header, ns, counts)
    if not ns.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {ns.out}: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    return counts


def _cmd_prove(ns) -> int:
    if ns.d1 not in PROVED_D1:
        raise VarcompError(f"prove covers d1 in {sorted(PROVED_D1)}; "
                           f"use 'explore' for d1 >= 5")
    blocks = prove_rows(ns.d1, ns.d2_max, ns.floor)
    counts = summarize(blocks)
    header = {
        "version": __version__,
        "spec": {"command": "prove", "d1": ns.d1, "d2_max": ns.d2_max,
                 "floor": ns.floor},
    }
    if ns.out:
        _report(blocks, header, ns, counts)
        print(f"wrote {ns.out}")
    # each claim of the program is one block; it passes only when none of
    # its rows failed or was inconclusive
    for block in sorted(blocks, key=lambda b: b.check_id):
        claim, statuses = block.check_id, block.statuses
        margins = [m for m in block.margins if m is not None]
        worst = f"worst margin {min(margins):.3e}" if margins else "not applicable"
        if "fail" in statuses:
            print(f"FAIL {claim} ({len(block)} rows, {worst})")
        elif "inconclusive" in statuses:
            first = block.d2s[statuses.index("inconclusive")]
            print(f"INCONCLUSIVE {claim} {statuses.count('inconclusive')}/{len(block)} "
                  f"(first at d2={first}, {worst})")
        else:
            print(f"PASS {claim} ({len(block)} rows, {worst})")
    print("summary: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    return 1 if counts["fail"] else 0


def _cmd_oracle(ns) -> int:
    if ns.d2 < 5:
        raise VarcompError("the band probability requires d2 >= 5")
    if ns.samples < 10_000:
        raise VarcompError("--samples must be at least 10000")
    p = FParams(ns.d1, ns.d2)
    analytic = variation_probability(p)
    mc = mc_variation_probability(p, ns.samples, ns.seed)
    ep = band_endpoints(p)
    a, b = 0.5 * p.d1, 0.5 * p.d2
    scale = math.exp(log_beta(a, b))
    q_hi = quad_beta_integral(a, b, 0.0, ep.b, ns.quad_tol * scale)
    q_lo = quad_beta_integral(a, b, 0.0, ep.d, ns.quad_tol * scale)  # 0 when d = 0
    quad_value = (q_hi.value - q_lo.value) / scale
    quad_err = (q_hi.abs_error_bound + q_lo.abs_error_bound) / scale
    evals = q_hi.evaluations + q_lo.evaluations
    mc_gap = abs(analytic - mc.estimate)
    mc_ok = mc_gap < 4.0 * mc.stderr
    quad_gap = abs(analytic - quad_value)
    quad_ok = quad_gap < 1e-8
    print(f"analytic    {analytic!r}")
    print(f"monte-carlo {mc.estimate!r} stderr {mc.stderr:.3e} "
          f"(n={mc.n}, seed={mc.seed}) gap/stderr {mc_gap / mc.stderr:.2f} "
          f"{'agree' if mc_ok else 'DISAGREE'}")
    print(f"quadrature  {quad_value!r} err-bound {quad_err:.3e} "
          f"(evals={evals}) gap {quad_gap:.3e} "
          f"{'agree' if quad_ok else 'DISAGREE'}")
    return 0 if (mc_ok and quad_ok) else 1


def _varprob_payload(ns) -> dict:
    """The band of --dist from its degrees of freedom; with --endpoints an F
    band adds its endpoint images, its region (3 if d > 0, else 2 if c > 0,
    else 1; see ``varband``) and its x-space limits."""
    if ns.dist == "normal":
        return {"dist": "normal", "prob": NORMAL_BAND}
    if ns.dist == "chisq":
        if ns.k is None:
            raise VarcompError("--k is required for --dist chisq")
        return {"dist": "chisq", "k": ns.k, "prob": chi_square_band_probability(ns.k)}
    if ns.d1 is None or ns.d2 is None:
        raise VarcompError("--d1 and --d2 are required for --dist f")
    if ns.d2 <= 4:
        raise VarcompError(f"variance undefined for d2 <= 4 (d2={ns.d2})")
    p = FParams(ns.d1, ns.d2)
    payload = {"dist": "f", "d1": ns.d1, "d2": ns.d2, "prob": variation_probability(p)}
    if ns.endpoints:
        a, b, c, d = band_endpoints(p)
        lower, upper = variation_band(p)
        payload.update({
            "a": a, "b": b, "c": c, "d": d,
            "region": 3 if d > 0.0 else 2 if c > 0.0 else 1,
            "band_lower": lower, "band_upper": upper,
        })
    return payload


def _cmd_varprob(ns) -> int:
    payload = _varprob_payload(ns)
    if ns.format == "json":
        print(json.dumps(payload, sort_keys=True))
        return 0
    if "a" not in payload:  # no --endpoints, or a band without endpoint images
        print(repr(payload["prob"]))
        return 0
    for key in ("prob", "a", "b", "c", "d", "region", "band_lower", "band_upper"):
        value = payload[key]
        print(f"{key} {value!r}" if isinstance(value, float) else f"{key} {value}")
    return 0


def _cmd_explore(ns) -> int:
    d1_lo, d1_hi = ns.d1
    d2_lo, d2_hi = ns.d2
    if d1_lo < 5:
        raise VarcompError("explore is for d1 >= 5; use sweep/prove below that")
    if d2_lo < 5:
        raise VarcompError("d2 must be >= 5")
    blocks = []
    for d1 in range(d1_lo, d1_hi + 1):
        blocks += explore_rows(d1, range(max(d2_lo, 7), d2_hi + 1), ns.floor)
    header = {
        "version": __version__,
        "spec": {"command": "explore", "d1": f"{d1_lo}..{d1_hi}",
                 "d2": f"{d2_lo}..{d2_hi}", "floor": ns.floor},
    }
    _write(blocks, header, ns)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "varprob": _cmd_varprob,
        "endpoints": _cmd_varprob,
        "sweep": _cmd_sweep,
        "prove": _cmd_prove,
        "oracle": _cmd_oracle,
        "explore": _cmd_explore,
    }
    # varcomp calls no BLAS routine, so numpy's BLAS needs no worker threads
    if "numpy" not in sys.modules:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")
    try:
        return handlers[ns.command](ns)
    except VarcompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a grid or chain the process cannot hold is an input error: exit 1
        # means a failed check, and write_report has removed its temp file
        print("error: out of memory; ask for a smaller d1/d2 range",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
