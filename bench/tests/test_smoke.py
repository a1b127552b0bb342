"""Smoke test of the benchmark: tiny versions of every workload finish, every
metric in BENCHMARK.json appears with its unit, and tampered reports fail.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    section = _spec()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_directory_without_sources(tmp_path):
    proc = _bench("--workload", "cli_short", "--seed", "1", "--seconds", "1",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    """A tiny sweep report written by the program, and its command."""
    outdir = str(tmp_path_factory.mktemp("reports"))
    cmd = workloads.commands("grid_large", 5, outdir, "tiny")[0]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "varcomp", *cmd.argv], env=env,
                   check=True, capture_output=True, timeout=120)
    with open(cmd.report, encoding="utf-8") as fh:
        return cmd, fh.read().splitlines(keepends=True)


def _write(cmd, lines):
    with open(cmd.report, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _problems(cmd, lines):
    _write(cmd, lines)
    return check.check_output(cmd, 0, "", "", check.load_reference())


def _first_row(lines, check_id):
    return next(i for i, ln in enumerate(lines) if ln.startswith(check_id + ","))


def test_untouched_report_passes(sweep_report):
    cmd, lines = sweep_report
    assert _problems(cmd, lines) == []


def test_unknown_column_is_ignored(sweep_report):
    cmd, lines = sweep_report
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    extended = lines[:head] + [ln.rstrip("\n") + ",extra\n" for ln in lines[head:]]
    assert _problems(cmd, extended) == []


@pytest.mark.parametrize("check_id", check.SCIPY_CHECKS)
def test_changed_margin_fails(sweep_report, check_id):
    cmd, lines = sweep_report
    i = _first_row(lines, check_id)
    fields = lines[i].split(",")
    fields[3] = repr(float(fields[3]) + 1e-9)
    tampered = lines[:i] + [",".join(fields)] + lines[i + 1:]
    assert _problems(cmd, tampered)


@pytest.mark.parametrize("check_id", ["upper_edge", "bound_exceeds_normal"])
def test_dropped_row_fails(sweep_report, check_id):
    cmd, lines = sweep_report
    i = _first_row(lines, check_id) + 3
    assert _problems(cmd, lines[:i] + lines[i + 1:])


def test_changed_report_between_runs_fails(sweep_report):
    import run
    cmd, lines = sweep_report
    bench_run = run.Run(ROOT, "grid_large", 5, "tiny")
    try:
        _write(cmd, lines)
        assert bench_run.judge(cmd, 0, "", "") == []
        _write(cmd, lines[:-1] + [lines[-1].replace("\n", " \n")])
        assert bench_run.judge(cmd, 0, "", "") == [
            "report differs from the first run of the same command"]
    finally:
        bench_run.close()
