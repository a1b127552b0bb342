"""Command-line front end.

Commands
--------
varprob    print the variation probability of one distribution: the F, chi-square
           or normal band, each from its degrees of freedom
endpoints  the F band with its endpoint images, region and x-space limits
sweep      run selected checks over a (d1, d2) grid, emit a CSV/JSON report;
           --exploratory adds d1 >= 5 to its chain checks
prove      run the full verification program for one case d1 in {1,2,3,4}
oracle     cross-validate the analytic value against Monte Carlo and quadrature
explore    scan the conjectured region d1 >= 5 (never affects exit status)

Exit codes: 0 all checks passed, 1 at least one non-exploratory check
failed, 2 usage, domain, I/O (a stdout closed by its reader among them) or
out-of-memory error, or a worker process that died.  Every input error
of a command, its own checks and the library's domain errors alike, is a
``VarcompError`` that ``main`` prints as one ``error:`` line.

A sweep's d1 columns and a ``prove`` chain run through
``programs.chain_parts``, which evaluates each chain with
``programs.chain_blocks`` and renders its rows, in this process or cut
into runs of d2 across forked children: the route rule is in
``chain_blocks``, the cut rule in ``chain_parts``, and the report is the
same byte for byte on every route.  ``prove`` without ``--out`` renders
no row: its claim lines and summary come from each block's counts, worst
margin and first inconclusive d2.

Each command imports the modules it runs when it runs, and the package
resolves its public names lazily, so a short command, whose start-up is
most of its time, loads and compiles (no bytecode cache is written on some
hosts) only what it needs:

    --version, --help   ``varcomp``, ``cli`` and ``errors``; a usage error too
    varprob, endpoints  also ``distributions``, ``specfun`` and ``varband``
    oracle              also ``oracle`` and numpy
    prove, sweep,       also ``oracle``, ``programs``, ``proofcheck`` and
    explore             ``reporting``; numpy only on the column route of
                        ``programs.chain_blocks``

No flag moves a verdict: the strictness floor (``varband.STRICTNESS_FLOOR``),
the limit check's tolerance (``varband.LIMIT_TOL``) and the oracle's
relative quadrature tolerance (``_ORACLE_QUAD_TOL``) are constants, and a
report header echoes the first two.

A grid or chain too large for the process to hold is an input error: one
``error:`` line and exit 2, like a domain error.

Every report is a list of ``reporting.Block``s, one per claim and d1: each
kernel column, and each limit check's one-row block, is one block as it is,
and ``prove`` prints its PASS/INCONCLUSIVE/FAIL line per claim from it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .errors import VarcompError

_CHECK_NAMES = ("bound", "monotone", "limit", "steps", "tables")
_CHAIN_CHECKS = ("bound", "monotone", "steps")  # per point, over each d1's d2 chain
_ORACLE_QUAD_TOL = 1e-10  # relative to B(d1/2, d2/2)
_DIST_FLAGS = {"normal": (), "chisq": ("k",), "f": ("d1", "d2")}  # each --dist's flags


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
    for i, name in enumerate(names):
        if name == "exploratory":  # the d1 >= 5 scans are their own command
            raise argparse.ArgumentTypeError(
                "the exploratory scans are the 'explore' command")
        if name not in _CHECK_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown check {name!r}; choose from {', '.join(_CHECK_NAMES)}")
        if name in names[:i]:  # a second block of the same claim and d1
            raise argparse.ArgumentTypeError(f"check {name!r} is given twice")
    if not names:
        raise argparse.ArgumentTypeError("at least one check is required")
    return names


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
    p_var.add_argument("--format", choices=("text", "json"), default="text")

    p_end = sub.add_parser("endpoints", help="the F band with its endpoint images")
    p_end.add_argument("--d1", type=int, required=True)
    p_end.add_argument("--d2", type=int, required=True)
    p_end.add_argument("--format", choices=("text", "json"), default="text")
    p_end.set_defaults(dist="f")

    p_sweep = sub.add_parser("sweep", help="run checks over a (d1, d2) grid")
    p_sweep.add_argument("--d1", type=_parse_range, required=True, metavar="LO..HI")
    p_sweep.add_argument("--d2", type=_parse_range, default=(5, 400), metavar="LO..HI",
                         help="denominator df range (default 5..400)")
    p_sweep.add_argument("--check", type=_parse_checks, required=True,
                         metavar="NAME[,NAME...]",
                         help=f"subset of: {', '.join(_CHECK_NAMES)}")
    p_sweep.add_argument("--out", help="report path (default: stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--d2-large", type=int, default=10_000,
                         help="d2 used by the limit check")
    p_sweep.add_argument("--exploratory", action="store_true",
                         help="also evaluate grid points outside the proved region")

    p_prove = sub.add_parser("prove", help="full verification program for one d1")
    p_prove.add_argument("--d1", type=int, required=True)
    p_prove.add_argument("--d2-max", type=int, default=400)
    p_prove.add_argument("--out", help="report path (default: summary to stdout)")
    p_prove.add_argument("--format", choices=("csv", "json"), default="csv")

    p_or = sub.add_parser("oracle", help="analytic vs Monte Carlo vs quadrature")
    p_or.add_argument("--d1", type=int, required=True)
    p_or.add_argument("--d2", type=int, required=True)
    p_or.add_argument("--samples", type=int, default=1_000_000)
    p_or.add_argument("--seed", type=int, default=0)

    p_ex = sub.add_parser("explore", help="scan the conjectured region d1 >= 5")
    p_ex.add_argument("--d1", type=_parse_range, required=True, metavar="LO..HI")
    p_ex.add_argument("--d2", type=_parse_range, required=True, metavar="LO..HI")
    p_ex.add_argument("--out", help="report path (default: stdout)")
    p_ex.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _cmd_sweep(ns) -> int:
    from .programs import certificate_rows, chain_parts, table_rows
    from .reporting import write_rendered
    from .varband import LIMIT_TOL, PROVED_D1, STRICTNESS_FLOOR, check_limit

    d1_lo, d1_hi = ns.d1
    d2_lo, d2_hi = ns.d2
    checks = ns.check
    chain_checks = [c for c in checks if c in _CHAIN_CHECKS]
    if d1_lo < 1:
        raise VarcompError("d1 must be >= 1")
    if chain_checks and d2_lo < 5:
        raise VarcompError("checks needing a finite variance require d2 >= 5")
    d1_values = list(range(d1_lo, d1_hi + 1))
    grid_d1 = [d1 for d1 in d1_values if ns.exploratory or d1 in PROVED_D1]
    if chain_checks and len(grid_d1) < len(d1_values):
        skipped = [d1 for d1 in d1_values if d1 not in PROVED_D1]
        print(f"note: skipping conjectured d1 values {skipped} "
              f"(pass --exploratory to include them)", file=sys.stderr)

    def other_blocks() -> list:
        blocks: list = []
        if "limit" in checks:
            for d1 in d1_values:
                blocks.append(check_limit(d1, ns.d2_large))
        if "tables" in checks:
            blocks += table_rows()
            blocks += certificate_rows()
        return blocks

    parts = chain_parts(grid_d1 if chain_checks else [], d2_lo, d2_hi, chain_checks,
                        ns.format, other_blocks)

    header = {
        "version": __version__,
        "spec": {
            "command": "sweep",
            "d1": f"{d1_lo}..{d1_hi}",
            "d2": f"{d2_lo}..{d2_hi}",
            "checks": list(checks),
            "floor": STRICTNESS_FLOOR,
            "d2_large": ns.d2_large,
            "limit_tol": LIMIT_TOL,
            "exploratory": bool(ns.exploratory),
        },
    }
    counts = _write(write_rendered, parts, header, ns)
    return 1 if counts["fail"] else 0


def _report(write, items: list, header: dict, ns, counts: dict) -> str:
    """write(items, header, ns.format, ns.out, counts), ``write_report`` of
    blocks or ``write_rendered`` of their parts, to ns.out (None: only
    render); a path that cannot be written is an error with exit 2."""
    try:
        return write(items, header, ns.format, ns.out, counts)
    except OSError as exc:
        raise VarcompError(
            f"cannot write report {ns.out}: {exc.strerror or exc}") from None


def _write(write, items: list, header: dict, ns) -> dict:
    """Emit a sweep or explore report to ns.out or stdout through write (see
    ``_report``); returns the summary counts, computed once."""
    from .reporting import summarize

    counts = summarize(items)
    text = _report(write, items, header, ns, counts)
    if not ns.out:
        _write_stdout(text)
    else:
        print(f"wrote {ns.out}: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    return counts


def _write_stdout(text: str) -> None:
    """Write a report to stdout, encoded, in 1 MiB slices; a short write
    (an unbuffered stdout whose reader has gone) is written on until the
    write raises, so no part of the report is dropped unseen."""
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if raw is None:  # a text-only stream, such as io.StringIO
        out.write(text)
        return
    out.flush()
    for i in range(0, len(text), 1 << 20):
        data = memoryview(text[i:i + (1 << 20)].encode(out.encoding, out.errors))
        while data:
            data = data[raw.write(data):]


def _cmd_prove(ns) -> int:
    from .varband import PROVED_D1, STRICTNESS_FLOOR

    if ns.d1 not in PROVED_D1:
        raise VarcompError(f"prove covers d1 in {sorted(PROVED_D1)}; "
                           f"use 'explore' for d1 >= 5")
    from .programs import prove_parts
    from .reporting import summarize, write_rendered

    # without --out no row is rendered, only counted
    parts = prove_parts(ns.d1, ns.d2_max, ns.format if ns.out else None)
    counts = summarize(parts)
    header = {
        "version": __version__,
        "spec": {"command": "prove", "d1": ns.d1, "d2_max": ns.d2_max,
                 "floor": STRICTNESS_FLOOR},
    }
    if ns.out:
        _report(write_rendered, parts, header, ns, counts)
        print(f"wrote {ns.out}")
    # each claim of the program is one block, given as one part per run of
    # its chain, in d2 order; it passes only when none of its rows failed
    # or was inconclusive
    claims: dict = {}
    for part in parts:
        claims.setdefault(part.check_id, []).append(part)
    for claim in sorted(claims):
        runs = claims[claim]
        status_counts = [sum(n) for n in zip(*(p.counts for p in runs))]
        _, failed, inconclusive, _ = status_counts  # in STATUSES order
        rows = sum(status_counts)
        worsts = [p.worst for p in runs if p.worst is not None]
        worst = f"worst margin {min(worsts):.3e}" if worsts else "not applicable"
        if failed:
            print(f"FAIL {claim} ({rows} rows, {worst})")
        elif inconclusive:
            first = next(p.first_inconclusive for p in runs
                         if p.first_inconclusive is not None)
            print(f"INCONCLUSIVE {claim} {inconclusive}/{rows} "
                  f"(first at d2={first}, {worst})")
        else:
            print(f"PASS {claim} ({rows} rows, {worst})")
    print("summary: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    return 1 if counts["fail"] else 0


def _cmd_oracle(ns) -> int:
    if ns.d2 < 5:
        raise VarcompError("the band probability requires d2 >= 5")
    if ns.samples < 10_000:
        raise VarcompError("--samples must be at least 10000")
    from .distributions import FParams
    from .oracle import mc_variation_probability, quad_beta_integral
    from .specfun import log_beta
    from .varband import band_endpoints, variation_probability

    p = FParams(ns.d1, ns.d2)
    analytic = variation_probability(p)
    mc = mc_variation_probability(p, ns.samples, ns.seed)
    ep = band_endpoints(p)
    a, b = 0.5 * p.d1, 0.5 * p.d2
    scale = math.exp(log_beta(a, b))
    q_hi = quad_beta_integral(a, b, 0.0, ep.b, _ORACLE_QUAD_TOL * scale)
    q_lo = quad_beta_integral(a, b, 0.0, ep.d, _ORACLE_QUAD_TOL * scale)  # 0 when d = 0
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
    """The band of --dist from its degrees of freedom; ``endpoints`` adds the
    F band's endpoint images, its region (3 if d > 0, else 2 if c > 0, else
    1; see ``varband``) and its x-space limits."""
    from .distributions import FParams
    from .varband import (NORMAL_BAND, band_endpoints, chi_square_band_probability,
                          variation_band, variation_probability)

    extra = [f"--{name}" for name in ("d1", "d2", "k")
             if name not in _DIST_FLAGS[ns.dist] and getattr(ns, name, None) is not None]
    if extra:
        raise VarcompError(f"--dist {ns.dist} takes no {', '.join(extra)}")
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
    if ns.command == "endpoints":
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
        import json

        print(json.dumps(payload, sort_keys=True))
        return 0
    if ns.command != "endpoints":
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
    from .programs import explore_rows
    from .reporting import write_report
    from .varband import STRICTNESS_FLOOR

    blocks = []
    for d1 in range(d1_lo, d1_hi + 1):
        blocks += explore_rows(d1, range(max(d2_lo, 7), d2_hi + 1))
    header = {
        "version": __version__,
        "spec": {"command": "explore", "d1": f"{d1_lo}..{d1_hi}",
                 "d2": f"{d2_lo}..{d2_hi}", "floor": STRICTNESS_FLOOR},
    }
    _write(write_report, blocks, header, ns)
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
        code = handlers[ns.command](ns)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (``| head``): an I/O error.  What is
        # still buffered goes to devnull, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 2
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
