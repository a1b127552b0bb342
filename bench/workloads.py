"""The three benchmark workloads: the varcomp argv lists one pass runs.

Every list is made from the benchmark seed alone; the program sees nothing
but these arguments.  ``scale="tiny"`` shrinks the grids for the smoke test
while keeping every command kind.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("cli_short", "grid_large", "prove_deep")
SCALES = ("full", "tiny")

PROVED_D1 = (1, 2, 3, 4)
#: Sweep checks evaluated once per (d1, d2) grid point.
POINT_CHECKS = ("bound", "monotone", "steps")


@dataclass(frozen=True)
class Command:
    """One varcomp invocation and what the checker needs to judge it."""

    label: str                  # stable across passes and seeds
    argv: tuple                 # arguments after ``python -m varcomp``
    kind: str                   # varprob | endpoints | oracle | report
    report: str | None = None   # report path the command writes
    params: dict = field(default_factory=dict)
    cells: int = 1              # (d1, d2, check) cells the command asks for
    points: int = 0             # (d1, d2) grid points of a sweep


def _span(lo: int, hi: int) -> int:
    return max(0, hi - lo + 1)


def _sweep(label: str, outdir: str, d1: tuple, d2: tuple, checks: tuple) -> Command:
    path = os.path.join(outdir, f"{label}.csv")
    argv = ("sweep", "--d1", f"{d1[0]}..{d1[1]}", "--d2", f"{d2[0]}..{d2[1]}",
            "--check", ",".join(checks), "--out", path)
    grid_d1 = [d for d in range(d1[0], d1[1] + 1) if d in PROVED_D1]
    points = len(grid_d1) * _span(*d2)
    cells = points * sum(c in POINT_CHECKS for c in checks)
    if "limit" in checks:
        cells += _span(*d1)
    return Command(label, argv, "report", path, cells=cells,
                   points=points if cells else 0)


def _prove(label: str, outdir: str, d1: int, d2_max: int | None, fmt: str) -> Command:
    path = os.path.join(outdir, f"{label}.{fmt}")
    argv = ("prove", "--d1", str(d1))
    if d2_max is not None:
        argv += ("--d2-max", str(d2_max))
    if fmt != "csv":
        argv += ("--format", fmt)
    argv += ("--out", path)
    return Command(label, argv, "report", path, cells=_span(5, d2_max or 400))


def cli_short(seed: int, outdir: str, scale: str = "full") -> list:
    rng = random.Random(f"cli_short:{seed}")
    k = rng.randint(1, 50)
    d1 = rng.randint(1, 12)
    d2 = rng.randint(5, 400)
    s = rng.randrange(2 ** 31)
    tiny = scale == "tiny"
    cmds = [
        Command("varprob_normal", ("varprob", "--dist", "normal"), "varprob",
                params={"dist": "normal"}),
        Command("varprob_chisq", ("varprob", "--dist", "chisq", "--k", str(k)),
                "varprob", params={"dist": "chisq", "k": k}),
        Command("varprob_f", ("varprob", "--dist", "f", "--d1", str(d1), "--d2", str(d2),
                              "--format", "json"),
                "varprob", params={"dist": "f", "d1": d1, "d2": d2}),
        Command("endpoints", ("endpoints", "--d1", str(d1), "--d2", str(d2),
                              "--format", "json"),
                "endpoints", params={"dist": "f", "d1": d1, "d2": d2}),
    ]
    cmds += [_prove(f"prove_d1_{n}", outdir, n, None, "csv") for n in PROVED_D1]
    cmds.append(_sweep("sweep_default", outdir, (1, 4), (5, 30 if tiny else 400),
                       ("bound", "monotone", "limit", "steps", "tables")))
    ex_d1, ex_d2 = ((5, 6), (5, 30)) if tiny else ((5, 12), (5, 200))
    ex_path = os.path.join(outdir, "explore.csv")
    cmds.append(Command(
        "explore", ("explore", "--d1", f"{ex_d1[0]}..{ex_d1[1]}",
                    "--d2", f"{ex_d2[0]}..{ex_d2[1]}", "--out", ex_path),
        "report", ex_path, cells=_span(*ex_d1) * _span(max(ex_d2[0], 7), ex_d2[1])))
    argv = ("oracle", "--d1", str(d1), "--d2", str(d2), "--seed", str(s))
    if tiny:
        argv += ("--samples", "10000")
    cmds.append(Command("oracle", argv, "oracle", params={"d1": d1, "d2": d2}))
    return cmds


def grid_large(seed: int, outdir: str, scale: str = "full") -> list:
    d2_hi = 200 if scale == "tiny" else 20_000
    return [_sweep("grid", outdir, (1, 4), (5, d2_hi), POINT_CHECKS)]


def prove_deep(seed: int, outdir: str, scale: str = "full") -> list:
    d2_max = 200 if scale == "tiny" else 30_000
    return [_prove(f"prove_deep_d1_{n}", outdir, n, d2_max, "json") for n in (3, 4)]


def commands(workload: str, seed: int, outdir: str, scale: str = "full",
             jobs: int | None = None) -> list:
    """The commands of one pass; ``jobs`` pins the worker count of sweeps."""
    cmds = {"cli_short": cli_short, "grid_large": grid_large,
            "prove_deep": prove_deep}[workload](seed, outdir, scale)
    if jobs is None:
        return cmds
    return [Command(c.label, c.argv + ("--jobs", str(jobs)), c.kind, c.report,
                    c.params, c.cells, c.points)
            if c.argv[0] == "sweep" else c for c in cmds]


#: Passes a run makes at least: two for the determinism check, and four on
#: cli_short so its tail percentile keeps ten samples beyond it.
MIN_PASSES = {"cli_short": 4, "grid_large": 2, "prove_deep": 2}
