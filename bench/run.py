"""varcomp benchmark harness.

Run from the root of a varcomp checkout:

    python3 bench/run.py --workload cli_short --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's commands as ``python -m varcomp``
subprocesses, one at a time (a closed loop with one client), for at least
``--seconds`` seconds, checks every output, and prints the end-to-end
metrics.  ``--trace 1`` calls ``varcomp.cli.main(argv)`` in this process,
in passes with and without spans around each layer (``tracing.py``), and
prints the per-layer metrics.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the machine and run record, which is also written, with the spans of a
traced run, under ``.bench_out/``.  See ``NOTES.md`` for the workloads and
for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import workloads  # noqa: E402
from tracing import SPAN_CAP, Tracer  # noqa: E402

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def metric_units(section: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists under section."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


#: setup_s samples are taken SETUP_BATCH at a time: at the start, and before
#: any command that starts more than SETUP_EVERY_S seconds after the last
#: batch, so that they see the machine across the whole run.
SETUP_BATCH = 2
SETUP_EVERY_S = 4.0
IMPORTTIME_RUNS = 3
#: A child still running after this many seconds is killed, counted failed,
#: and ends the run.
CHILD_TIMEOUT_S = 120.0
#: Percentiles tried for cmd_tail_ms, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


@dataclass
class Outcome:
    """One finished command."""

    label: str
    code: int
    wall_s: float
    cpu_s: float = 0.0
    maxrss_mib: float = 0.0
    problems: tuple = ()


class Run:
    """State shared by the steps of one benchmark run."""

    def __init__(self, root: str, workload: str, seed: int, scale: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.out_root = os.path.join(root, ".bench_out")
        os.makedirs(self.out_root, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=self.out_root)
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.reference = check.load_reference()
        self.outcomes: list = []
        self.digests: dict = {}
        self.clean: set = set()

    def record(self, outcome: Outcome) -> Outcome:
        self.outcomes.append(outcome)
        for problem in outcome.problems:
            print(f"FAILED {outcome.label}: {problem}", file=sys.stderr)
        return outcome

    def judge(self, cmd, code: int, stdout: str, stderr: str) -> list:
        """Output checks plus the determinism check: a report must be
        byte-identical to the first one the same command wrote.  A report
        whose bytes already passed every check is not scanned again."""
        digest = None
        if cmd.report and os.path.isfile(cmd.report):
            with open(cmd.report, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        problems = check.check_output(cmd, code, stdout, stderr, self.reference,
                                      scan_report=digest not in self.clean)
        if digest is not None:
            if not problems:
                self.clean.add(digest)
            if digest != self.digests.setdefault(cmd.label, digest):
                problems.append("report differs from the first run of the "
                                "same command")
            os.remove(cmd.report)
        return problems

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# subprocess measurement
# ---------------------------------------------------------------------------

def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def run_child(run: Run, argv: list):
    """Run argv to completion; (code, wall_s, rusage, stdout, stderr)."""
    with tempfile.TemporaryFile(dir=run.tmp) as out, \
            tempfile.TemporaryFile(dir=run.tmp) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=run.env,
                                cwd=run.root, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, wall, usage,
                out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"))


def setup_sample(run: Run) -> float:
    """Wall time of one ``python -m varcomp --version``."""
    code, wall, _, stdout, stderr = run_child(
        run, [sys.executable, "-m", "varcomp", "--version"])
    problems = []
    if code != 0 or not stdout.startswith("varcomp "):
        problems.append(f"exit {code}, stdout {stdout!r}, stderr {stderr[-200:]!r}")
    run.record(Outcome("setup", code, wall, problems=tuple(problems)))
    return wall


def tail(values: list, fallback: float) -> tuple:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples above it, by nearest rank, or (100, fallback) when
    there are too few samples for any rung."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 100.0, fallback


def run_untraced(run: Run, seconds: float) -> tuple:
    """Passes until ``seconds`` have gone by, with ``--version`` samples
    spread over the run so that setup_s sees the same machine as the rest."""
    setup_sample(run)  # warm-up: the first start may compile bytecode
    setup = [setup_sample(run) for _ in range(SETUP_BATCH)]
    last_setup = time.perf_counter()
    cmds = workloads.commands(run.workload, run.seed, run.tmp, run.scale)
    min_passes = workloads.MIN_PASSES[run.workload]
    passes = []
    start = time.perf_counter()
    killed = False
    while not killed and (len(passes) < min_passes
                          or time.perf_counter() - start < seconds):
        done = []
        for cmd in cmds:
            if time.perf_counter() - last_setup > SETUP_EVERY_S:
                setup += [setup_sample(run) for _ in range(SETUP_BATCH)]
                last_setup = time.perf_counter()
            code, wall, usage, stdout, stderr = run_child(
                run, [sys.executable, "-m", "varcomp", *cmd.argv])
            problems = run.judge(cmd, code, stdout, stderr)
            done.append(run.record(Outcome(
                cmd.label, code, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, tuple(problems))))
            killed = code == -signal.SIGKILL
            if killed:
                break
        else:
            passes.append(done)
    if not passes:
        raise SystemExit("bench: a command was killed before any pass finished")
    # a pass is costed command by command, each at its median over the
    # passes, so one slow spell inflates one sample instead of a whole pass
    runs = [[p[i] for p in passes] for i in range(len(cmds))]
    cells = sum(c.cells for c in cmds)
    cmd_medians = [statistics.median(o.wall_s for o in r) for r in runs]
    cmd_walls = [o.wall_s for p in passes for o in p]
    pct, tail_s = tail(cmd_walls, max(cmd_medians))
    wall = sum(cmd_medians)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": sum(statistics.median(o.cpu_s for o in r) for r in runs),
        "peak_rss_mib": max(statistics.median(o.maxrss_mib for o in r) for r in runs),
        "cmd_p50_ms": 1e3 * statistics.median(cmd_medians),
        "cmd_tail_ms": 1e3 * tail_s,
        "cells_per_s": cells / wall,
    }
    samples = {"setup": len(setup), "passes": len(passes),
               "commands_per_pass": len(cmds), "cmd": len(cmd_walls),
               "cmd_tail_pct": pct, "cells_per_pass": cells,
               "setup_walls_s": setup,
               "cmd_walls_s": {c.label: [o.wall_s for o in r] for c, r in zip(cmds, runs)}}
    return metrics, metric_units("end_to_end"), samples


# ---------------------------------------------------------------------------
# in-process traced run
# ---------------------------------------------------------------------------

def import_times(run: Run) -> tuple:
    """Median cumulative import time of varcomp.cli, and of the numpy that
    importing it pulls in (0 if it pulls in none), in ms, from
    ``python -X importtime``."""
    cli_us, numpy_us = [], []
    argv = [sys.executable, "-X", "importtime", "-c", "import varcomp.cli"]
    for _ in range(IMPORTTIME_RUNS):
        code, wall, _, _, stderr = run_child(run, argv)
        found = {}
        for line in stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                with contextlib.suppress(ValueError):
                    found[parts[2].strip()] = int(parts[1])
        problems = [] if code == 0 and "varcomp.cli" in found else [
            f"importtime exit {code}; no varcomp.cli line"]
        run.record(Outcome("importtime", code, wall, problems=tuple(problems)))
        cli_us.append(found.get("varcomp.cli", 0))
        numpy_us.append(found.get("numpy", 0))
    return statistics.median(cli_us) / 1e3, statistics.median(numpy_us) / 1e3


def run_inprocess(run: Run, cli, cmd) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(cmd.argv))
        except Exception:
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    problems = run.judge(cmd, code, out.getvalue(), err.getvalue())
    return run.record(Outcome(cmd.label, code, wall, problems=tuple(problems)))


def layer_metrics(tracer: Tracer, cmds: list) -> dict:
    calls, self_ms = tracer.calls, {k: 1e3 * v for k, v in tracer.self_time.items()}
    counters = tracer.counters

    def per(num, den):
        return num / den if den else 0.0

    points = sum(c.points for c in cmds)
    evals = counters["oracle.quad_beta_integral.evals"]
    m = {}
    for layer in ("specfun.reg_inc_beta", "specfun.reg_lower_gamma",
                  "varband.variation_probability", "varband.band_endpoints",
                  "distributions.FParams", "proofcheck.check_step_inequalities",
                  "oracle.quad_beta_integral"):
        m[f"{layer}.calls"] = calls[layer]
    for layer in self_ms:
        m[f"{layer}.self_ms"] = self_ms[layer]
    m["specfun.reg_inc_beta.us_per_call"] = per(
        1e3 * self_ms["specfun.reg_inc_beta"], calls["specfun.reg_inc_beta"])
    m["varband.variation_probability.calls_per_point"] = per(
        calls["varband.variation_probability"], points)
    m["oracle.quad_beta_integral.evals"] = evals
    m["oracle.quad_beta_integral.evals_per_call"] = per(
        evals, calls["oracle.quad_beta_integral"])
    m["oracle.mc_variation_probability.draws_per_s"] = per(
        counters["oracle.mc_variation_probability.draws"],
        tracer.total["oracle.mc_variation_probability"])
    m["reporting.rows"] = counters["reporting.rows"]
    m["reporting.bytes"] = counters["reporting.bytes"]
    return m


def _is_timing(name: str) -> bool:
    return name.endswith(("_ms", ".us_per_call", ".draws_per_s"))


def run_traced(run: Run, seconds: float) -> tuple:
    """A warm-up pass, then traced and untraced passes in turn until
    ``seconds`` have gone by.  The first in-process pass also pays for fresh
    heap pages, so it is left out.  Timings are medians over the traced
    passes; counts must repeat exactly from pass to pass."""
    import_ms, numpy_ms = import_times(run)
    sys.path.insert(0, run.src)
    import varcomp.cli as cli
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != run.src:
        raise SystemExit(f"bench: imported varcomp from {cli.__file__}, not {run.src}")
    # one worker, so no span is lost in a pool, for as long as --jobs exists
    help_text = io.StringIO()
    with contextlib.redirect_stdout(help_text):
        cli.main(["sweep", "--help"])
    jobs = 1 if "--jobs" in help_text.getvalue() else None
    cmds = workloads.commands(run.workload, run.seed, run.tmp, run.scale, jobs=jobs)
    for cmd in cmds:
        run_inprocess(run, cli, cmd)
    tracers, traced_walls, plain_walls = [], [], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        tracer = Tracer(span_cap=0 if tracers else SPAN_CAP)
        with tracer:
            traced_walls.append(sum(run_inprocess(run, cli, c).wall_s for c in cmds))
        tracers.append(tracer)
        plain_walls.append(sum(run_inprocess(run, cli, c).wall_s for c in cmds))
    per_pass = [layer_metrics(t, cmds) for t in tracers]
    metrics = {"cli.import_ms": import_ms, "oracle.import_numpy_ms": numpy_ms}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if _is_timing(name):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                run.record(Outcome("trace", 0, 0.0, problems=(
                    f"count {name} changed between traced passes: {values}",)))
    traced, plain = statistics.median(traced_walls), statistics.median(plain_walls)
    metrics["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    first = tracers[0]
    spans_path = os.path.join(
        run.out_root, f"spans-{run.workload}-seed{run.seed}.jsonl.gz")
    first.write_spans(spans_path, {"workload": run.workload, "seed": run.seed})
    samples = {"importtime": IMPORTTIME_RUNS, "passes_traced": len(tracers),
               "passes_untraced": len(plain_walls) + 1,
               "commands_per_pass": len(cmds),
               "traced_walls_s": traced_walls, "untraced_walls_s": plain_walls,
               "spans_per_pass": first.n_spans, "spans_written": len(first.spans),
               "spans_file": os.path.relpath(spans_path, run.root)}
    return metrics, metric_units("per_layer"), samples


# ---------------------------------------------------------------------------
# record and entry point
# ---------------------------------------------------------------------------

def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_record(run: Run, trace: int, samples: dict) -> dict:
    return {
        "workload": run.workload, "seed": run.seed, "trace": trace,
        "scale": run.scale, "commit": _commit(run.root),
        "nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "platform": platform.platform(),
        "samples": samples,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="'tiny' shrinks every grid (smoke test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "varcomp", "cli.py")):
        print("bench: no varcomp sources under ./src; run from the root of a "
              "varcomp checkout", file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.scale)
    try:
        step = run_traced if args.trace else run_untraced
        metrics, units, samples = step(run, args.seconds)
    finally:
        run.close()
    failed = sum(1 for o in run.outcomes if o.problems)
    samples["attempted"] = len(run.outcomes)
    samples["failed"] = failed
    record = machine_record(run, args.trace, samples)
    result = {
        "correct": failed == 0,
        "attempted": len(run.outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    path = os.path.join(run.out_root, f"result-{args.workload}-seed{args.seed}"
                                      f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
