"""Command-line front end: it parses, dispatches to the library and
prints what the library returns.

Commands
--------
varprob    print the variation probability of one distribution: the F, chi-square
           or normal band, each from its degrees of freedom
endpoints  the F band with its endpoint images, region and x-space limits
sweep      run selected checks over a (d1, d2) grid, emit a CSV/JSON report;
           the chain checks' rows of a d1 >= 5 are exploratory
prove      run the full verification program for one case d1 in {1,2,3,4}
oracle     cross-validate the analytic value against Monte Carlo and quadrature
explore    scan the conjectured region d1 >= 5 (never affects exit status)

Exit codes: 0 all checks passed, 1 at least one non-exploratory check
failed, 2 usage, domain, I/O (a stdout that is full or closed by its reader
among them) or out-of-memory error (a grid or chain too large to hold), or
a worker process that died or could not start.  Each input rule is checked
once, in the module that owns it, and ``main`` prints its ``VarcompError``
as one ``error:`` line.  A flag that configures nothing (``sweep
--d2-large`` without the limit check, ``prove --format`` without
``--out``) is an error too.

Every report leaves through ``_emit``, atomically to ``--out`` or to
stdout, streamed piece by piece (``reporting.write_rendered``), and
``reporting`` holds every result text: the rows, the counts
(``counts_text``), ``prove``'s claim lines (``claim_lines``) and the error
of an ``--out`` that cannot be written, which its ``Destination``, opened
before any work, raises first.  Sweep columns and ``prove`` chains, and
nothing else, run through ``programs.chain_parts``, whose docstring, with
``chain_blocks``', holds the route and cut rules; ``prove`` without
``--out`` renders no row, only counts.

``main`` returns the exit code and leaves the interpreter as it found it,
for callers that run it in their own process.  ``run``, the one entry point
of a process (the ``varcomp`` script, ``python -m varcomp`` and ``python -m
varcomp.cli``), runs it, then the atexit handlers, flushes stdout and
stderr, and exits through ``os._exit``, without interpreter teardown.

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

No flag moves a verdict: the strictness floor (``reporting.STRICTNESS_FLOOR``),
the limit check's tolerance (``varband.LIMIT_TOL``) and the oracle's
relative quadrature tolerance (``_ORACLE_QUAD_TOL``) are constants, and a
report header echoes the first two.
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
_D2_LARGE = 10_000  # the limit check's d2 without --d2-large
_DIST_FLAGS = {"normal": (), "chisq": ("k",), "f": ("d1", "d2")}  # each --dist's flags


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are one line on stderr, exit 2, and
    whose --help and --version text reaches ``main``'s handling of a closed
    stdout: argparse drops an OSError of that write."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


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
    p_sweep.add_argument("--d2-large", type=int,
                         help=f"d2 used by the limit check (default {_D2_LARGE})")

    p_prove = sub.add_parser("prove", help="full verification program for one d1")
    p_prove.add_argument("--d1", type=int, required=True)
    p_prove.add_argument("--d2-max", type=int, default=400)
    p_prove.add_argument("--out", help="report path (default: summary to stdout)")
    p_prove.add_argument("--format", choices=("csv", "json"),
                         help="report format, with --out (default csv)")

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
    from .reporting import Destination, counts_text, render_rows
    from .varband import LIMIT_TOL, check_limit

    d1_lo, d1_hi = ns.d1
    d2_lo, d2_hi = ns.d2
    checks = ns.check
    chain_checks = [c for c in checks if c in _CHAIN_CHECKS]
    if d1_lo < 1:
        raise VarcompError("d1 must be >= 1")
    if chain_checks and d2_lo < 5:
        raise VarcompError("checks needing a finite variance require d2 >= 5")
    if ns.d2_large is None:
        ns.d2_large = _D2_LARGE
    elif "limit" not in checks:
        raise VarcompError("--d2-large is read only by the limit check")
    d1_values = list(range(d1_lo, d1_hi + 1))

    with Destination(ns.out) as dest:
        blocks: list = []  # the checks outside any chain, run before it
        if "limit" in checks:
            blocks += [check_limit(d1, ns.d2_large) for d1 in d1_values]
        if "tables" in checks:
            blocks += table_rows() + certificate_rows()
        parts = (chain_parts(d1_values, d2_lo, d2_hi, chain_checks, ns.format)
                 if chain_checks else [])
        parts += render_rows(blocks, ns.format)
        spec = {
            "command": "sweep",
            "d1": f"{d1_lo}..{d1_hi}",
            "d2": f"{d2_lo}..{d2_hi}",
            "checks": list(checks),
            "d2_large": ns.d2_large,
            "limit_tol": LIMIT_TOL,
            "exploratory": any(p.exploratory for p in parts),
        }
        counts = _emit(parts, spec, ns, dest)
    if ns.out is not None:
        print(f"wrote {ns.out}: {counts_text(counts)}")
    return 1 if counts["fail"] else 0


def _emit(parts: list, spec: dict, ns, dest) -> dict:
    """Write the report of the rendered parts, in ns.format, to dest, the
    ``reporting.Destination`` of ns.out: atomically to ns.out, or else to
    stdout; return its counts (``summarize``).  Its header echoes the run
    spec and the strictness floor.  A path that cannot be written is the
    Destination's VarcompError; stdout's errors are ``main``'s."""
    from .reporting import STRICTNESS_FLOOR, summarize, write_rendered

    header = {"version": __version__, "spec": {**spec, "floor": STRICTNESS_FLOOR}}
    write_rendered(parts, header, ns.format, dest)
    return summarize(parts)


def _cmd_prove(ns) -> int:
    from .programs import prove_parts
    from .reporting import Destination, claim_lines, counts_text, summarize

    if ns.format is None:
        ns.format = "csv"
    elif ns.out is None:
        raise VarcompError("--format is read only with --out")
    with Destination(ns.out) as dest:
        # without --out no row is rendered, only counted
        parts = prove_parts(ns.d1, ns.d2_max, ns.format if ns.out is not None else None)
        if ns.out is not None:
            _emit(parts, {"command": "prove", "d1": ns.d1, "d2_max": ns.d2_max}, ns, dest)
    if ns.out is not None:
        print(f"wrote {ns.out}")
    counts = summarize(parts)
    for line in claim_lines(parts):
        print(line)
    print(f"summary: {counts_text(counts)}")
    return 1 if counts["fail"] else 0


def _cmd_oracle(ns) -> int:
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
    if d2_lo < 5:
        raise VarcompError("d2 must be >= 5")
    from .programs import explore_rows
    from .reporting import Destination, counts_text, render_rows

    with Destination(ns.out) as dest:
        blocks = [block for d1 in range(d1_lo, d1_hi + 1)
                  for block in explore_rows(d1, range(max(d2_lo, 7), d2_hi + 1))]
        spec = {"command": "explore", "d1": f"{d1_lo}..{d1_hi}", "d2": f"{d2_lo}..{d2_hi}"}
        counts = _emit(render_rows(blocks, ns.format), spec, ns, dest)
    if ns.out is not None:
        print(f"wrote {ns.out}: {counts_text(counts)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    handlers = {
        "varprob": _cmd_varprob,
        "endpoints": _cmd_varprob,
        "sweep": _cmd_sweep,
        "prove": _cmd_prove,
        "oracle": _cmd_oracle,
        "explore": _cmd_explore,
    }
    try:
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:  # --help, --version or a usage error
            code = int(exc.code or 0)
        else:
            # varcomp calls no BLAS routine, so numpy's BLAS needs no worker threads
            if "numpy" not in sys.modules:
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                    os.environ.setdefault(var, "1")
            code = handlers[ns.command](ns)
        sys.stdout.flush()  # a closed or full stdout raises here, not at exit
        return code
    except OSError as exc:  # stdout's: every other one is a VarcompError
        return _stdout_failed(exc)
    except VarcompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a grid or chain the process cannot hold is an input error: exit 1
        # means a failed check, and the report's temp file is already removed
        print("error: out of memory; ask for a smaller d1/d2 range",
              file=sys.stderr)
        return 2


def _stdout_failed(exc: OSError) -> int:
    """Exit code 2, after one line on stderr, for a stdout that cannot be
    written: its reader has gone (``| head``), or its device is full.  What
    is still buffered goes to devnull, so no later flush can raise."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    reason = ("stdout closed before the output was written" if isinstance(exc, BrokenPipeError)
              else f"cannot write to stdout: {exc.strerror or exc}")
    print(f"error: {reason}", file=sys.stderr)
    return 2


def run() -> None:
    """Run ``main`` as a whole process: then the atexit handlers, then the
    flushes of stdout, one that fails through ``_stdout_failed``, and stderr,
    and exit with main's code through ``os._exit``.  Interpreter teardown
    would free every object of the run one by one, 5 to 30 ms a command, and
    change nothing the command wrote."""
    import atexit

    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _stdout_failed(exc)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
