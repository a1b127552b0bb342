import argparse
import contextlib
import csv
import errno
import io
import json
import os
import pickle
import resource
import stat
import subprocess
import sys

import pytest

import varcomp.cli
import varcomp.programs
import varcomp.varband
from varcomp import (
    ConvergenceError,
    FParams,
    VarcompError,
    __version__,
    check_bound,
    check_monotone_step,
    d_exceeds_c,
)
from varcomp.cli import main
from varcomp.programs import _COLUMN_MIN
from varcomp.proofcheck.steps import check_step_inequalities
from varcomp.reporting import (
    STRICTNESS_FLOOR,
    counts_text,
    margin_block,
    render_csv,
    render_rows,
    rows_from_outcome,
    summarize,
)
from varcomp.varband import LIMIT_TOL, PROVED_D1, chi_square_band_probability


#: The source tree of the varcomp under test.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(varcomp.cli.__file__)))


def child_env(env=None):
    """env (default os.environ) with this varcomp's source tree first on
    PYTHONPATH: the environment of a child interpreter."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_varprob_normal(capsys):
    code, out, _ = run_cli("varprob", "--dist", "normal", capsys=capsys)
    assert code == 0
    assert out.strip().startswith("0.682689")


def test_varprob_f_with_endpoints(capsys):
    code, out, _ = run_cli("endpoints", "--d1", "4", "--d2", "12", capsys=capsys)
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert float(lines["prob"]) == pytest.approx(0.8717418202537248, abs=1e-12)
    assert lines["region"] == "3"
    assert float(lines["a"]) < float(lines["b"])


@pytest.mark.parametrize("argv, message", [
    (["varprob", "--dist", "f", "--d1", "4", "--d2", "12", "--endpoints"],
     "varcomp: error: unrecognized arguments: --endpoints"),
    (["sweep", "--d1", "1..4", "--check", "bound,exploratory"],
     "varcomp sweep: error: argument --check: the exploratory scans are the "
     "'explore' command"),
    (["sweep", "--d1", "1..4", "--check", "bound", "--floor", "0"],
     "varcomp: error: unrecognized arguments: --floor 0"),
    (["sweep", "--d1", "1..4", "--check", "limit", "--limit-tol", "1"],
     "varcomp: error: unrecognized arguments: --limit-tol 1"),
    (["prove", "--d1", "4", "--floor", "0"],
     "varcomp: error: unrecognized arguments: --floor 0"),
    (["explore", "--d1", "5", "--d2", "5..10", "--floor", "0"],
     "varcomp: error: unrecognized arguments: --floor 0"),
    (["oracle", "--d1", "3", "--d2", "10", "--quad-tol", "0.5"],
     "varcomp: error: unrecognized arguments: --quad-tol 0.5"),
    (["sweep", "--d1", "1..6", "--check", "bound", "--exploratory"],
     "varcomp: error: unrecognized arguments: --exploratory"),
], ids=["varprob_endpoints", "sweep_check_exploratory", "sweep_floor", "sweep_limit_tol",
        "prove_floor", "explore_floor", "oracle_quad_tol", "sweep_exploratory"])
def test_retired_spellings_are_usage_errors(argv, message, capsys):
    # each result has one spelling: the endpoint images are the 'endpoints'
    # command, the d1 >= 5 scans the 'explore' command; and no flag moves a
    # verdict, since every threshold is a constant of the library
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [message]


def test_sweep_help_lists_the_five_checks(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help to the terminal
    code, out, _ = run_cli("sweep", "--help", capsys=capsys)
    assert code == 0
    assert "subset of: bound, monotone, limit, steps, tables\n" in out


def test_each_command_takes_exactly_its_options():
    # a new option has to be added here on purpose
    parser = varcomp.cli._build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]

    def options(p):
        return sorted(opt for action in p._actions for opt in action.option_strings
                      if opt.startswith("--"))

    assert options(parser) == ["--help", "--version"]
    assert {name: options(sub) for name, sub in commands.items()} == {
        "varprob": ["--d1", "--d2", "--dist", "--format", "--help", "--k"],
        "endpoints": ["--d1", "--d2", "--format", "--help"],
        "sweep": ["--check", "--d1", "--d2", "--d2-large", "--format", "--help",
                  "--out"],
        "prove": ["--d1", "--d2-max", "--format", "--help", "--out"],
        "oracle": ["--d1", "--d2", "--help", "--samples", "--seed"],
        "explore": ["--d1", "--d2", "--format", "--help", "--out"],
    }


@pytest.mark.parametrize("argv, message", [
    (["--dist", "normal", "--k", "3"], "error: --dist normal takes no --k"),
    (["--dist", "chisq", "--k", "3", "--d1", "4"], "error: --dist chisq takes no --d1"),
    (["--dist", "f", "--d1", "3", "--d2", "9", "--k", "2"],
     "error: --dist f takes no --k"),
], ids=["normal_k", "chisq_d1", "f_k"])
def test_varprob_rejects_the_flags_of_another_dist(argv, message, capsys):
    code, out, err = run_cli("varprob", *argv, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [message]


def test_varprob_domain_error_exit_2(capsys):
    code, _, err = run_cli("varprob", "--dist", "f", "--d1", "1", "--d2", "4",
                           capsys=capsys)
    assert code == 2
    assert "variance undefined" in err


def test_varprob_chisq(capsys):
    code, out, _ = run_cli("varprob", "--dist", "chisq", "--k", "1", capsys=capsys)
    assert code == 0
    assert float(out) == pytest.approx(0.8797616593431031, abs=1e-12)


def test_endpoints_alias(capsys):
    code, out, _ = run_cli("endpoints", "--d1", "11", "--d2", "5",
                           "--format", "json", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == 2
    assert payload["d"] == 0.0
    assert payload["band_lower"] == 0.0


@pytest.mark.parametrize("argv", [
    ("endpoints", "--d1", "4", "--d2", "11"),
    ("endpoints", "--d1", "4", "--d2", "11", "--format", "json"),
])
def test_endpoints_evaluate_the_band_once(argv, monkeypatch, capsys):
    # the payload's prob is the one band evaluation; the band limits are
    # moments only
    calls = []
    real = varcomp.varband.variation_probability

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(varcomp.varband, "variation_probability", counted)
    assert run_cli(*argv, capsys=capsys)[0] == 0
    assert calls == [FParams(4, 11)]


def test_sweep_csv_schema_and_exit(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli("sweep", "--d1", "1..4", "--d2", "5..20",
                         "--check", "bound,monotone", "--out", str(out_path), capsys=capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "check_id,d1,d2,margin,pass,note"
    assert all(l.split(",")[4] == "true" for l in lines[header_idx + 1:])


def test_sweep_matches_scalar_per_cell_path(rendered_blocks, tmp_path, capsys):
    # every row of the column kernel's blocks must be, field for field, the
    # one-row block the scalar reference checks give at its cell, and the
    # report must be, byte for byte, the one those cells make
    blocks = rendered_blocks
    out_path = tmp_path / "kernel.csv"
    args = ["sweep", "--d1", "1..6", "--d2", "5..40", "--check",
            "bound,monotone,steps"]
    assert run_cli(*args, "--out", str(out_path), capsys=capsys)[0] == 0
    cells: dict = {}  # (check_id, d1) -> the scalar one-row blocks over d2 5..40
    for d1 in range(1, 7):
        expl = d1 not in PROVED_D1
        for d2 in range(5, 41):
            p = FParams(d1, d2)
            outs = [check_bound(p), check_monotone_step(p)]
            outs += [margin_block(form, d1, [d2], [margin], "", expl)
                     for form, margin in check_step_inequalities(p).items()]
            for out in outs:
                cells.setdefault((out.check_id, d1), []).append(out)

    def fields(blocks):
        return [(b.check_id, b.d1, d2, repr(margin), status, note, b.exploratory)
                for b in blocks
                for d2, margin, status, note in zip(b.d2s, b.margins, b.statuses, b.notes)]

    assert {(b.check_id, b.d1): fields([b]) for b in blocks} == {
        key: fields(outs) for key, outs in cells.items()}
    header = {"version": __version__, "spec": {
        "command": "sweep", "d1": "1..6", "d2": "5..40",
        "checks": ["bound", "monotone", "steps"], "floor": STRICTNESS_FLOOR,
        "d2_large": 10_000, "limit_tol": LIMIT_TOL, "exploratory": True}}
    scalar_blocks = [block for (_, d1), outs in cells.items()
                     for block in rows_from_outcome(outs, d1, range(5, 41))]
    assert out_path.read_text() == render_csv(render_rows(scalar_blocks, "csv"), header)


@pytest.mark.parametrize("jobs", ["2", "-1"])
def test_sweep_jobs_option_removed(jobs, capsys):
    code, _, err = run_cli("sweep", "--d1", "1..4", "--d2", "5..12",
                           "--check", "bound", "--jobs", jobs, capsys=capsys)
    assert code == 2
    assert "unrecognized arguments: --jobs" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_sweep_seed_option_removed(capsys):
    # a sweep draws no samples; only oracle takes a seed
    code, out, err = run_cli("sweep", "--d1", "1..4", "--d2", "5..12",
                             "--check", "bound", "--seed", "7", capsys=capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --seed 7" in err
    assert len(err.strip().splitlines()) == 1


def test_sweep_json_format(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli("sweep", "--d1", "2..2", "--d2", "5..9",
                         "--check", "bound", "--format", "json",
                         "--out", str(out_path), capsys=capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["summary"]["pass"] == 5
    assert payload["header"]["spec"]["checks"] == ["bound"]


def test_sweep_usage_error_low_d2(capsys):
    code, _, err = run_cli("sweep", "--d1", "1..2", "--d2", "3..4",
                           "--check", "bound", capsys=capsys)
    assert code == 2
    assert "d2 >= 5" in err


def test_sweep_bad_check_name(capsys):
    code = main(["sweep", "--d1", "1..2", "--d2", "5..6", "--check", "nope"])
    capsys.readouterr()
    assert code == 2


def test_sweep_repeated_check_name(capsys):
    # a repeated name would give its claim a second block per d1, and count
    # each of its rows twice
    code, out, err = run_cli("sweep", "--d1", "1", "--d2", "5..7",
                             "--check", "bound,bound,limit", capsys=capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "varcomp sweep: error: argument --check: check 'bound' is given twice"]


def test_sweep_failure_exit_code(monkeypatch, tmp_path, capsys):
    # an absurd limit tolerance manufactures an honest failing check
    monkeypatch.setattr(varcomp.varband, "LIMIT_TOL", 1e-9)
    out_path = tmp_path / "r.csv"
    code, _, _ = run_cli("sweep", "--d1", "1..1", "--d2", "5..5",
                         "--check", "limit", "--out", str(out_path), capsys=capsys)
    assert code == 1
    assert "fail=1" in out_path.read_text()


def test_sweep_exploratory_quarantine(tmp_path, capsys):
    # the --d1 range alone decides which d1 the chain checks cover; the rows
    # of a d1 >= 5 are quarantined, and the header says the report holds some
    out_path = tmp_path / "x.json"
    code, out, err = run_cli("sweep", "--d1", "3..7", "--d2", "5..10", "--check", "bound",
                             "--format", "json", "--out", str(out_path), capsys=capsys)
    assert (code, err) == (0, "")
    assert out == (f"wrote {out_path}: pass=12 fail=0 inconclusive=0 not_applicable=0 "
                   "exploratory=18\n")
    payload = json.loads(out_path.read_text())
    assert payload["header"]["spec"]["exploratory"] is True
    assert {r["d1"] for r in payload["rows"] if r["exploratory"]} == {5, 6, 7}
    # no exploratory row, whatever the range: the header says so
    code, _, _ = run_cli("sweep", "--d1", "1..7", "--check", "tables", "--format", "json",
                         "--out", str(out_path), capsys=capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["header"]["spec"]["exploratory"] is False


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--d1", "1..4", "--check", "bound", "--d2-large", "20000"],
     "error: --d2-large is read only by the limit check"),
    (["prove", "--d1", "2", "--d2-max", "10", "--format", "json"],
     "error: --format is read only with --out"),
], ids=["sweep_d2_large_without_limit", "prove_format_without_out"])
def test_flags_that_configure_nothing_are_errors(argv, message, capsys):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [message]


@pytest.mark.parametrize("checks", ["bound", "bound,limit"])
def test_sweep_header_echoes_the_default_d2_large(checks, tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli("sweep", "--d1", "1", "--d2", "5..6", "--check", checks,
                         "--format", "json", "--out", str(out_path), capsys=capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["header"]["spec"]["d2_large"] == 10_000
    assert [r["d2"] for r in payload["rows"] if r["check_id"] == "limit_matches_chi_square"] \
        == ([10_000] if "limit" in checks else [])


# ---------------------------------------------------------------------------
# known wrong answers at huge d2 (ROADMAP item 1): each test asserts the right
# answer, so it fails until the band is accurate there, and then must pass
# ---------------------------------------------------------------------------

_HUGE_D2_DEFECT = pytest.mark.xfail(
    strict=True, reason="the F band drifts or fails to converge at huge d2 (ROADMAP item 1)")


@_HUGE_D2_DEFECT
@pytest.mark.parametrize("d1, d2", [(2, 10 ** 17), (3, 10 ** 20), (3, 10 ** 160)],
                         ids=["d1_2-d2_1e17", "d1_3-d2_1e20", "d1_3-d2_1e160"])
def test_f_band_at_huge_d2_is_the_chi_square_band(d1, d2, capsys):
    # the F(d1, d2) band tends to the chi-square(d1) band; at these d2 the
    # two agree far below 1e-9
    code, out, err = run_cli("varprob", "--dist", "f", "--d1", str(d1), "--d2", str(d2),
                             capsys=capsys)
    assert (code, err) == (0, "")
    assert float(out) == pytest.approx(chi_square_band_probability(d1), abs=1e-9)


@_HUGE_D2_DEFECT
def test_limit_check_passes_at_d2_large_1e17(tmp_path, capsys):
    code, _, _ = run_cli("sweep", "--d1", "1..4", "--check", "limit",
                         "--d2-large", str(10 ** 17), "--out", str(tmp_path / "r.csv"),
                         capsys=capsys)
    assert code == 0


@_HUGE_D2_DEFECT
def test_oracle_routes_agree_at_d2_1e12(capsys):
    code, out, _ = run_cli("oracle", "--d1", "2", "--d2", str(10 ** 12),
                           "--samples", "10000", capsys=capsys)
    assert "DISAGREE" not in out
    assert code == 0


def test_prove_exit_codes(capsys):
    code, out, _ = run_cli("prove", "--d1", "2", "--d2-max", "30", capsys=capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, _, err = run_cli("prove", "--d1", "5", capsys=capsys)
    assert code == 2
    assert "explore" in err


def test_prove_prints_fail_and_exits_1(monkeypatch, capsys):
    # one planted failing claim among the program's blocks: its claim line
    # reads FAIL with its worst margin, and the run fails
    program = varcomp.programs._program_rows

    def with_a_failure(d1, d2_max):
        return program(d1, d2_max) + [
            margin_block("planted_claim", d1, [5, 6, 7], [0.5, -0.25, 1e-13])]

    monkeypatch.setattr(varcomp.programs, "_program_rows", with_a_failure)
    code, out, err = run_cli("prove", "--d1", "2", "--d2-max", "30", capsys=capsys)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "FAIL planted_claim (3 rows, worst margin -2.500e-01)" in lines
    assert [l for l in lines if l.startswith("FAIL")] == [
        "FAIL planted_claim (3 rows, worst margin -2.500e-01)"]
    assert " fail=1 inconclusive=1 " in lines[-1]


def test_summary_lines_agree(rendered_blocks, tmp_path, capsys):
    # the counts of one run read alike in the report's '# summary:' line,
    # the sweep's 'wrote PATH:' line and prove's 'summary:' line
    path = tmp_path / "r.csv"
    argvs = [["prove", "--d1", "2", "--d2-max", "30"],
             ["sweep", "--d1", "1..2", "--d2", "5..30", "--check", "bound,steps"]]
    for argv in argvs:
        rendered_blocks.clear()
        code, out, _ = run_cli(*argv, "--out", str(path), capsys=capsys)
        assert code == 0
        counts = counts_text(summarize(rendered_blocks))
        assert path.read_text().splitlines()[2] == f"# summary: {counts}"
        assert out.splitlines()[-1] == (f"summary: {counts}" if argv[0] == "prove"
                                        else f"wrote {path}: {counts}")


def test_prove_report_file(tmp_path, capsys):
    out_path = tmp_path / "prove.json"
    code, _, _ = run_cli("prove", "--d1", "1", "--d2-max", "20",
                         "--out", str(out_path), "--format", "json", capsys=capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["summary"]["fail"] == 0
    claims = {r["check_id"] for r in payload["rows"]}
    assert {"h1_decreasing", "k_decreasing", "l1_negative",
            "coef_dominance", "step_integral"} <= claims


def test_prove_summary_reports_inconclusive_claims(tmp_path, capsys):
    # the upper_edge margins fall within the strictness floor from d2 = 13647
    # on; a chain this long is cut across processes on the column route
    args = ["prove", "--d1", "4", "--d2-max", "13700"]
    code, out, _ = run_cli(*args, capsys=capsys)
    assert code == 0
    lines = out.splitlines()
    edge = [l for l in lines if "upper_edge" in l]
    assert edge == ["INCONCLUSIVE upper_edge 54/13696 (first at d2=13647, "
                    "worst margin 9.884e-13)"]
    assert "PASS lower_edge (13696 rows" in out
    summary = ("summary: pass=68425 fail=0 inconclusive=54 not_applicable=16 "
               "exploratory=0")
    assert lines[-1] == summary
    # the report itself is the one the row bucketing always gave
    out_path = tmp_path / "p.csv"
    run_cli(*args, "--out", str(out_path), capsys=capsys)
    assert out_path.read_text().splitlines()[2] == "# " + summary


WRITE_COMMANDS = {
    "sweep": ["sweep", "--d1", "1..2", "--d2", "5..8", "--check", "bound"],
    "prove": ["prove", "--d1", "2", "--d2-max", "20"],
    "explore": ["explore", "--d1", "5", "--d2", "5..10"],
}


@pytest.mark.parametrize("command", sorted(WRITE_COMMANDS))
@pytest.mark.parametrize("target", ["missing_dir", "directory", "empty"])
def test_unwritable_out_exits_2(command, target, tmp_path, monkeypatch, capsys):
    # found before any chain runs: the report's temp file is opened first;
    # an empty --out is a path that cannot be written, not stdout
    def not_run(*args):
        raise AssertionError("the work ran before the report path was tried")

    for name in ("chain_parts", "explore_rows"):
        monkeypatch.setattr(varcomp.programs, name, not_run)
    monkeypatch.chdir(tmp_path)
    out = {"missing_dir": tmp_path / "missing" / "r.csv", "directory": tmp_path,
           "empty": ""}[target]
    code, stdout, err = run_cli(*WRITE_COMMANDS[command], "--out", str(out),
                                capsys=capsys)
    assert code == 2 and stdout == ""
    reason = "Is a directory" if target == "directory" else "No such file or directory"
    assert err == f"error: cannot write report {out}: {reason}\n"
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []  # no report and no .tmp left behind


def test_sweep_without_a_chain_check_starts_no_chain_runner(monkeypatch, tmp_path,
                                                            capsys):
    # the limit and tables checks run in this process, not through the
    # chain runner: the report is the same without it
    argv = ["sweep", "--d1", "1..4", "--check", "limit,tables", "--out"]
    expected = run_cli(*argv, str(tmp_path / "a.csv"), capsys=capsys)
    assert expected[0] == 0

    def not_run(*args):
        raise AssertionError("a sweep with no chain check ran the chain runner")

    monkeypatch.setattr(varcomp.programs, "chain_parts", not_run)
    code, out, err = run_cli(*argv, str(tmp_path / "b.csv"), capsys=capsys)
    assert (code, out.replace("b.csv", "a.csv"), err) == expected
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_oracle_agreement(capsys):
    code, out, _ = run_cli("oracle", "--d1", "4", "--d2", "12",
                           "--samples", "100000", "--seed", "42", capsys=capsys)
    assert code == 0
    assert out.count("agree") == 2
    code, _, err = run_cli("oracle", "--d1", "2", "--d2", "4", capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--d1", "1", "--d2", "5..10000000000000000000", "--check", "bound"],
    ["sweep", "--d1", "1..10000000000000000000", "--check", "tables"],
    ["explore", "--d1", "5", "--d2", "5..10000000000000000000"],
    ["sweep", "--d1", "1", "--d2", str(2 ** 62), "--check", "limit"],
    ["prove", "--d1", "1", "--d2-max", str(2 ** 62)],
    ["prove", "--d1", "3", "--d2-max", "10000000000000000000"],
])
def test_range_bounds_at_or_above_2_62_are_usage_errors(argv, capsys):
    # the column kernels hold d2 as int64; a larger bound is a one-line
    # usage error, never an OverflowError traceback or an endless run
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert "must be below 2**62" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("points", [9, _COLUMN_MIN])
def test_column_int64_bound_holds_on_both_routes(points, monkeypatch, capsys):
    # 4 * (2**61 + 2) >= 2**62: the scalar route of a short grid refuses the
    # grid as the column kernels of a long one do, and so does a grid or a
    # prove chain cut into runs, before any cut: a first run below the
    # bound would otherwise start on a d2 list too large to hold
    lo = 2 ** 61
    argvs = [["sweep", "--d1", "4", "--d2", f"{lo}..{lo + points - 1}", "--check", check]
             for check in ("bound", "bound,steps")]
    argvs.append(["prove", "--d1", "4", "--d2-max", str(2 ** 60 - 2)])
    for column_min in (_SCALAR, _COLUMNS):
        _route(monkeypatch, column_min)
        for argv in argvs:
            code, out, err = run_cli(*argv, capsys=capsys)
            assert (code, out) == (2, ""), argv
            assert err.splitlines() == ["error: band endpoints need d1 * d2 < 2**62 "
                                        "so the int64 region tests cannot overflow"]
    _assert_no_child_left()


_NO_FLOAT = str(10 ** 400)


@pytest.mark.parametrize("argv", [
    ["varprob", "--dist", "f", "--d1", "1", "--d2", _NO_FLOAT],
    ["varprob", "--dist", "chisq", "--k", _NO_FLOAT],
    ["endpoints", "--d1", _NO_FLOAT, "--d2", "10"],
    ["oracle", "--d1", "1", "--d2", _NO_FLOAT, "--samples", "10000"],
    ["sweep", "--d1", "1", "--check", "limit", "--d2-large", _NO_FLOAT],
], ids=["varprob_f", "varprob_chisq", "endpoints", "oracle", "sweep_limit"])
def test_degrees_of_freedom_too_large_for_a_float_are_domain_errors(argv, capsys):
    # exit 1 means a failed check: a df float() cannot hold is one error
    # line and exit 2, never an OverflowError traceback
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert "must convert to a float" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--d1", "1", "--d2", str(10 ** 160), "--samples", "10000"],
     "error: the variance of F(1, 1e+160) overflows a float"),
    (["endpoints", "--d1", str(10 ** 308), "--d2", "10"],
     "error: the band endpoints of F(1e+308, 10) overflow a float"),
], ids=["oracle_variance", "endpoints"])
def test_degree_of_freedom_products_too_large_for_a_float_are_domain_errors(
        argv, message, capsys):
    # each df converts to a float, but a product of them formed for a float
    # division does not: one error line and exit 2, never a traceback
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(message)
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("d2", [6 * 10 ** 307, 8 * 10 ** 307, 9 * 10 ** 307, 17 * 10 ** 307])
@pytest.mark.parametrize("argv", [
    ["varprob", "--dist", "f", "--d1", "1", "--d2"],
    ["endpoints", "--d1", "1", "--d2"],
    ["sweep", "--d1", "1", "--d2", "5..6", "--check", "limit", "--d2-large"],
], ids=["varprob", "endpoints", "sweep_limit"])
def test_float_sized_d2_past_the_beta_front_is_a_domain_error(argv, d2, capsys):
    # from a + b = 2.86e307 the beta front factor's 2 pi (a + b) overflows,
    # and from d2 = 9e307 so does 2 (d1 + d2) in the endpoints: one error
    # line and exit 2, never a math domain error traceback or a band of 1.0
    code, out, err = run_cli(*argv, str(d2), capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_chisq_band_at_huge_k_is_an_error_not_a_value(capsys):
    # from k near 2e15 up the lower-gamma series cannot converge in binary64:
    # the band is a ConvergenceError (or, once 2k overflows, a DomainError),
    # never the 0.8413 the truncated series gave
    ks = [1_999_990_000_000_000, 1_999_999_000_000_000]
    ks += [10 ** e for e in range(16, 309)] + [2 ** 1023 - 2 ** 969, 2 ** 1024 - 2 ** 971]
    for k in ks:
        code, out, err = run_cli("varprob", "--dist", "chisq", "--k", str(k),
                                 capsys=capsys)
        assert (code, out) == (2, ""), k
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, k
    code, out, _ = run_cli("varprob", "--dist", "chisq", "--k", "1000", capsys=capsys)
    assert code == 0 and float(out) == pytest.approx(0.6828509764095, abs=1e-12)


def test_varprob_at_a_huge_but_float_sized_d2(capsys):
    # the value is checked by test_f_band_at_huge_d2_is_the_chi_square_band
    code, out, _ = run_cli("varprob", "--dist", "f", "--d1", "3", "--d2",
                           "100000000000000000000", "--format", "json", capsys=capsys)
    assert code == 0
    assert isinstance(json.loads(out)["prob"], float)


def test_oracle_agrees_at_huge_d2(capsys):
    # log_beta keeps full precision at b = 5e11, so the quadrature route
    # agrees with the analytic one
    code, out, _ = run_cli("oracle", "--d1", "1", "--d2", "1000000000000",
                           "--samples", "10000", capsys=capsys)
    assert code == 0
    assert out.count("agree") == 2 and "DISAGREE" not in out


def test_explore_always_exit_zero(tmp_path, capsys):
    out_path = tmp_path / "explore.csv"
    code, _, _ = run_cli("explore", "--d1", "5..6", "--d2", "5..20",
                         "--out", str(out_path), capsys=capsys)
    assert code == 0
    text = out_path.read_text()
    assert "fail=0" in text and "exploratory" in text
    code, _, err = run_cli("explore", "--d1", "3..4", "--d2", "5..20", capsys=capsys)
    assert code == 2


#: The note of an odd-d1 explore row whose truncated sum overflowed.
_ODD_OVERFLOW = "not applicable: the truncated sum overflows a float"


@pytest.mark.parametrize("d1, d2, rows", [
    ("304..304", "5..9", ['series_step,304,7,,false,"not applicable: series form undefined: '
                          'a sum term overflows at d1=304, y=5.0"']),
    ("343..345", "5..20", ["truncated_series_lower,343,8,,false,not applicable",
                           "truncated_series_lower,343,20,,false," + _ODD_OVERFLOW,
                           "truncated_series_upper,345,20,,false," + _ODD_OVERFLOW]),
], ids=["even-power-overflow", "odd-factorial-overflow"])
def test_explore_reports_an_overflowing_series_as_not_applicable(d1, d2, rows, tmp_path,
                                                                 capsys):
    # d1 = 304: the even series' bracket ** n overflows from d2 = 7; d1 >= 343:
    # the odd truncated sum's n! does, in the lower form where d > c, and
    # from d1 = 345 in the upper form too
    out_path = tmp_path / "explore.csv"
    code, _, err = run_cli("explore", "--d1", d1, "--d2", d2, "--out", str(out_path),
                           capsys=capsys)
    assert (code, err) == (0, "")
    lines = out_path.read_text().splitlines()
    assert any(line.startswith("# summary:") and "fail=0" in line for line in lines)
    assert set(rows) <= set(lines)


@pytest.mark.parametrize("d1, d2", [("343..343", "5..20"), ("345..345", "7..9")])
def test_explore_names_the_overflow_of_each_overflowed_odd_row_only(d1, d2, capsys):
    # a form that applies (the upper always, the lower where d > c) but has
    # no margin overflowed, and only its row carries the overflow note
    code, out, err = run_cli("explore", "--d1", d1, "--d2", d2, capsys=capsys)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(line for line in out.splitlines()
                               if not line.startswith("#")))
    overflowed = [(r["check_id"], r["d2"]) for r in rows if r["note"] == _ODD_OVERFLOW]
    assert overflowed == [
        (r["check_id"], r["d2"]) for r in rows
        if r["margin"] == "" and (r["check_id"] == "truncated_series_upper"
                                  or d_exceeds_c(FParams(int(r["d1"]), int(r["d2"]))))]
    assert overflowed and all(r["note"] in ("", "not applicable", _ODD_OVERFLOW)
                              for r in rows)


def test_cli_import_leaves_numpy_unloaded():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, varcomp.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "varcomp", "--version"],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0
    assert "varcomp" in out.stdout


def _loaded_by(argv, modules=("numpy",)):
    """'code loaded...': main(argv)'s exit code, then whether each module
    is loaded after it, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys\nfrom varcomp.cli import main\n"
         f"code = main({argv!r})\n"
         f"print(code, *(m in sys.modules for m in {modules!r}), file=sys.stderr)"],
        capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    return out.stderr.strip().splitlines()[-1]


# a prove chain over d2 = 5..d2_max has d2_max - 4 points
_SHORT_CHAIN = str(_COLUMN_MIN + 3)
_LONG_CHAIN = str(_COLUMN_MIN + 4)


@pytest.mark.parametrize("argv", [["prove", "--d1", "1"],
                                  ["explore", "--d1", "5..6", "--d2", "5..30"],
                                  ["prove", "--d1", "3", "--d2-max", _SHORT_CHAIN]])
def test_scalar_commands_leave_numpy_unloaded(argv):
    # explore, and prove on a chain of fewer than _COLUMN_MIN d2 points (the
    # default --d2-max 400 included), keep the scalar route: a numpy import
    # would add more to their start-up than their whole computation takes
    assert _loaded_by(argv) == "0 False"


_POOL_MODULES = ("multiprocessing", "concurrent.futures")


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["varprob", "--dist", "f", "--d1", "3", "--d2", "40"],
    ["prove", "--d1", "1"],
    ["sweep", "--d1", "1..4", "--check", "bound,monotone,limit,steps,tables"]])
def test_commands_off_the_pool_route_leave_its_modules_unloaded(argv):
    # the process-pool modules cost about 35 ms to import, and no command
    # needs them
    assert _loaded_by(argv, _POOL_MODULES) == "0 False False"


def test_large_sweep_loads_no_pool_module():
    # a pool-sized sweep, with the step check or without it, is cut into
    # runs by os.fork on two or more CPUs: no route imports the process-pool
    # modules
    d2_hi = _COLUMN_MIN // 2 + 4
    argv = ["sweep", "--d1", "1..2", "--d2", f"5..{d2_hi}", "--check", "steps"]
    assert _loaded_by(argv, _POOL_MODULES) == "0 False False"
    argv[-1] = "bound,monotone"
    assert _loaded_by(argv, _POOL_MODULES) == "0 False False"


_PROGRAM_MODULES = ("varcomp.oracle", "varcomp.programs", "varcomp.proofcheck")


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["varprob", "--dist", "chisq", "--k", "7"],
    ["varprob", "--dist", "f", "--d1", "3", "--d2", "40", "--format", "json"],
    ["endpoints", "--d1", "3", "--d2", "40"]])
def test_band_commands_leave_the_program_modules_unloaded(argv):
    # with no bytecode cache, compiling these modules costs a short command
    # about 30 ms of start-up
    assert _loaded_by(argv, _PROGRAM_MODULES) == "0 False False False"


def test_oracle_leaves_the_prove_programs_unloaded():
    argv = ["oracle", "--d1", "3", "--d2", "40", "--samples", "10000"]
    assert _loaded_by(argv, _PROGRAM_MODULES) == "0 True False False"


def test_long_prove_chain_takes_the_column_kernels():
    assert _loaded_by(["prove", "--d1", "3", "--d2-max", _LONG_CHAIN]) == "0 True"


@pytest.mark.parametrize("d2_max", [_SHORT_CHAIN, _LONG_CHAIN])
def test_prove_report_equal_on_both_routes_at_the_size_edge(d2_max, tmp_path,
                                                            monkeypatch, capsys):
    # either side of _COLUMN_MIN, given two CPUs, the report and the summary
    # are those of the scalar route in this process, byte for byte; a chain
    # of _COLUMN_MIN points runs in this process and exactly one child
    outputs = []
    for column_min in (_SCALAR, _COLUMN_MIN):
        with monkeypatch.context() as patch:
            _route(patch, column_min)
            column_pids = _record_column_pids(patch)
            out_path = tmp_path / f"{column_min}.json"
            code, out, _ = run_cli("prove", "--d1", "3", "--d2-max", d2_max,
                                   "--format", "json", "--out", str(out_path),
                                   capsys=capsys)
            pids = column_pids()
        assert code == 0
        assert os.getpid() in pids
        assert len(pids) == (2 if column_min == _COLUMN_MIN and d2_max == _LONG_CHAIN else 1)
        outputs.append((out.replace(str(out_path), "REPORT"), out_path.read_bytes()))
    assert outputs[0] == outputs[1]
    _assert_no_child_left()


@pytest.mark.parametrize("argv, expected", [
    (["prove", "--d1", "1", "--d2-max", str(_COLUMN_MIN + 3)], "0 0 False"),
    (["sweep", "--d1", "1..4", "--d2", "5..1024", "--check", "bound,monotone,steps"],
     "0 0 False"),
    (["prove", "--d1", "1", "--d2-max", str(_COLUMN_MIN + 4)], "0 1 True")],
    ids=["prove_below", "sweep_below", "prove_at"])
def test_one_size_rule_decides_route_and_cut(argv, expected, tmp_path):
    # given two CPUs, a grid of fewer than _COLUMN_MIN points (4,095 and
    # 4 x 1,020) forks no process and loads no numpy; one of _COLUMN_MIN
    # points forks exactly one child, on the column kernels
    script = ("import os, sys\nimport varcomp.programs as programs\n"
              "from varcomp.cli import main\n"
              "programs._usable_cpus = lambda: 2\n"
              "forks, fork = [], os.fork\n"
              "def counted():\n    forks.append(1)\n    return fork()\n"
              "os.fork = counted\n"
              f"code = main({[*argv, '--out', str(tmp_path / 'r.csv')]!r})\n"
              "print(code, len(forks), 'numpy' in sys.modules, file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stderr.strip().splitlines()[-1] == expected


def _limit_address_space():
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("argv", [
    # each grid is cut into runs on two or more CPUs
    ["sweep", "--d1", "1", "--d2", "5..1000000000000", "--check", "bound"],
    ["sweep", "--d1", "1..4", "--d2", "5..1000000000000", "--check", "steps"],
    ["prove", "--d1", "1", "--d2-max", "1000000000000"]])
def test_grid_the_process_cannot_hold_exits_2(argv, tmp_path):
    # the d2 list alone would take 8 TB; with the address space capped the
    # allocation fails at once, whatever the host's overcommit policy; a
    # child's MemoryError is raised again in the parent
    report = tmp_path / "r.csv"
    out = subprocess.run([sys.executable, "-m", "varcomp", *argv, "--out", str(report)],
                         capture_output=True, text=True, timeout=120,
                         preexec_fn=_limit_address_space, env=child_env())
    assert out.returncode == 2, out.stderr
    assert out.stderr.splitlines() == [
        "error: out of memory; ask for a smaller d1/d2 range"]
    assert list(tmp_path.iterdir()) == []


def test_blas_threads_capped_before_numpy_loads():
    script = ("import os, sys\nfrom varcomp.cli import main\n"
              "main(['varprob', '--dist', 'normal'])\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'],"
              " os.environ['MKL_NUM_THREADS'])")
    env = child_env({k: v for k, v in os.environ.items()
                     if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")})
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "1 1 1"
    # a setting the caller made is kept
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env={**env, "OPENBLAS_NUM_THREADS": "2"})
    assert out.stdout.splitlines()[-1] == "2 1 1"


# ---------------------------------------------------------------------------
# a large sweep or prove chain runs in runs of d2, one per process
# ---------------------------------------------------------------------------

#: _COLUMN_MIN of each route: the scalar one, in this process, and the
#: column kernels, cut into one run per CPU
_SCALAR, _COLUMNS = 10 ** 18, 0


def _route(monkeypatch, column_min, cpus=2):
    """Send every chain grid down one route, cut for cpus processes on the
    column one, whatever the host's CPU count."""
    monkeypatch.setattr(varcomp.programs, "_COLUMN_MIN", column_min)
    monkeypatch.setattr(varcomp.programs, "_usable_cpus", lambda: cpus)


def _assert_no_child_left():
    # every forked child has been reaped: this process has none left
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _record_column_pids(monkeypatch):
    """Record the id of each process that runs a sweep column; call the
    function returned, once, after the sweep to read them."""
    read, write = os.pipe()
    column = varcomp.programs.chain_blocks

    def recorded(d1, *args):
        os.write(write, b"%d\n" % os.getpid())  # one short write: atomic
        return column(d1, *args)

    monkeypatch.setattr(varcomp.programs, "chain_blocks", recorded)

    def column_pids():
        os.close(write)
        with os.fdopen(read, "rb") as fh:
            return {int(pid) for pid in fh.read().split()}

    return column_pids


_MIXED = ["--d1", "1..6", "--d2", "5..60", "--check", "bound,monotone,steps,limit,tables"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("argv", [
    ["--d1", "1..4", "--d2", "5..80", "--check", "bound,monotone,steps"],
    ["--d1", "1..4", "--d2", "5..80", "--check", "bound,monotone"],
    _MIXED], ids=["proved", "no_steps", "mixed"])
def test_sweep_report_equal_on_both_routes(argv, to_file, fmt, monkeypatch,
                                           tmp_path, capsys):
    outputs = []
    for column_min in (_SCALAR, _COLUMNS):
        with monkeypatch.context() as patch:
            _route(patch, column_min)
            column_pids = _record_column_pids(patch)
            out_path = tmp_path / f"{column_min}.{fmt}"
            code, out, err = run_cli("sweep", *argv, "--format", fmt,
                                     *(["--out", str(out_path)] if to_file else []),
                                     capsys=capsys)
            pids = column_pids()
        if column_min == _SCALAR:
            assert pids == {os.getpid()}
        else:  # this process runs the first run of every column, a child the other
            assert len(pids) == 2 and os.getpid() in pids
        report = out_path.read_bytes() if to_file else b""
        outputs.append((code, out.replace(str(out_path), "REPORT"), err, report))
    assert outputs[0] == outputs[1]
    _assert_no_child_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_report_equal_on_the_scalar_and_column_routes(fmt, monkeypatch, tmp_path,
                                                            capsys):
    # a grid of fewer than _COLUMN_MIN points runs point by point, a larger
    # one through the column kernels, in this process on one CPU or cut into
    # runs on two: the same report and stdout byte for byte
    outputs = []
    for column_min, cpus in ((_SCALAR, 2), (_COLUMNS, 1), (_COLUMNS, 2)):
        with monkeypatch.context() as patch:
            _route(patch, column_min, cpus)
            out_path = tmp_path / f"{column_min}-{cpus}.{fmt}"
            code, out, err = run_cli("sweep", *_MIXED, "--format", fmt,
                                     "--out", str(out_path), capsys=capsys)
        outputs.append((code, out.replace(str(out_path), "REPORT"), err,
                        out_path.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    _assert_no_child_left()


# prove reads --format only with --out: one stdout case
@pytest.mark.parametrize(("fmt", "to_file"), [("csv", True), ("json", True), ("csv", False)],
                         ids=["csv-out", "json-out", "csv-stdout"])
@pytest.mark.parametrize("d1", [1, 2, 3, 4])
def test_prove_report_equal_on_every_route(d1, fmt, to_file, monkeypatch, tmp_path,
                                           capsys):
    # a chain of 7,999 points, which 2 and 3 runs do not cut evenly, on the
    # column kernels: the claim lines, summary and report of one process,
    # byte for byte, whether this process takes the first run or not
    outputs = []
    for cpus in (1, 2, 3):
        with monkeypatch.context() as patch:
            _route(patch, _COLUMNS, cpus)
            column_pids = _record_column_pids(patch)
            out_path = tmp_path / f"{cpus}.{fmt}"
            # --format is read only with --out
            code, out, err = run_cli("prove", "--d1", str(d1), "--d2-max", "8003",
                                     *(["--format", fmt, "--out", str(out_path)]
                                       if to_file else []),
                                     capsys=capsys)
            assert len(column_pids()) == cpus
        report = out_path.read_bytes() if to_file else b""
        outputs.append((code, out.replace(str(out_path), "REPORT"), err, report))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0] == 0
    _assert_no_child_left()


def test_default_sweep_starts_no_worker(monkeypatch, capsys):
    # 4 x 396 points, and the default prove's 396, lie below _COLUMN_MIN:
    # a worker would cost more than it saves
    column_pids = _record_column_pids(monkeypatch)
    code, _, _ = run_cli("sweep", "--d1", "1..4",
                         "--check", "bound,monotone,limit,steps,tables", capsys=capsys)
    assert code == 0
    for d1 in PROVED_D1:
        assert run_cli("prove", "--d1", str(d1), capsys=capsys)[0] == 0
    assert column_pids() == {os.getpid()}
    _assert_no_child_left()


def _fail_at_d1_3(failure, in_parent=False):
    """chain_blocks, failing at d1 = 3 in this process only (in_parent) or in
    its forked children only."""
    column = varcomp.programs.chain_blocks
    parent = os.getpid()

    def failing(d1, *args):
        if d1 == 3 and (os.getpid() == parent) == in_parent:
            failure()
        return column(d1, *args)

    return failing


def _raise(error):
    def failure():
        raise error
    return failure


def _raise_unpicklable():
    class Local(Exception):  # a class pickle cannot find by name
        pass

    raise Local("bad")


@pytest.mark.parametrize("failure, message", [
    (_raise(VarcompError("bad column")), "error: bad column"),
    (_raise(ConvergenceError("no convergence at d1 = 3")),
     "error: no convergence at d1 = 3"),
    (lambda: os._exit(3),
     "error: a worker process died before it returned its rows"),
    (_raise_unpicklable, "error: a worker process failed: Local('bad')"),
], ids=["varcomp_error", "convergence_error", "worker_died", "unpicklable_error"])
def test_failure_in_a_sweep_worker_exits_2(failure, message, monkeypatch, tmp_path,
                                           capsys):
    _route(monkeypatch, _COLUMNS)
    # the worker is a fork of this process, so it runs the patched column
    monkeypatch.setattr(varcomp.programs, "chain_blocks", _fail_at_d1_3(failure))
    code, out, err = run_cli("sweep", "--d1", "1..4", "--d2", "5..30",
                             "--check", "bound,steps",
                             "--out", str(tmp_path / "r.csv"), capsys=capsys)
    assert (code, out, err) == (2, "", message + "\n")
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


@pytest.mark.parametrize("command", [
    ["sweep", "--d1", "1..4", "--d2", "5..30", "--check", "bound,steps"],
    ["prove", "--d1", "3", "--d2-max", "30"]], ids=["sweep", "prove"])
@pytest.mark.parametrize("failure, message", [
    (_raise(VarcompError("bad run")), "error: bad run"),
    (_raise(MemoryError()), "error: out of memory; ask for a smaller d1/d2 range"),
    (_raise(KeyboardInterrupt()), None),
], ids=["varcomp_error", "memory_error", "keyboard_interrupt"])
def test_failure_in_the_parents_own_run_reaps_every_child(command, failure, message,
                                                          monkeypatch, tmp_path, capsys):
    # only this process's run fails, while its child computes: the child is
    # stopped and reaped on every exit path, and nothing is written
    _route(monkeypatch, _COLUMNS)
    monkeypatch.setattr(varcomp.programs, "chain_blocks",
                        _fail_at_d1_3(failure, in_parent=True))
    argv = [*command, "--out", str(tmp_path / "r.csv")]
    if message is None:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out, err) == (2, "", message + "\n")
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


def test_a_worker_that_dies_mid_pickle_exits_2(monkeypatch, tmp_path, capsys):
    # each child writes half its pickle into its pipe and dies: a cut
    # pickle reads as a death, and no pipe, temp file or child is left
    _route(monkeypatch, _COLUMNS)

    def half_dump(obj, fh, *args):
        data = pickle.dumps(obj, *args)
        fh.write(data[:len(data) // 2])
        fh.flush()
        os._exit(0)

    pipes = []
    make_pipe = os.pipe

    def recorded_pipe():
        pipes.append(make_pipe())
        return pipes[-1]

    monkeypatch.setattr(pickle, "dump", half_dump)
    monkeypatch.setattr(os, "pipe", recorded_pipe)
    code, out, err = run_cli("sweep", "--d1", "1..4", "--d2", "5..30",
                             "--check", "bound,steps",
                             "--out", str(tmp_path / "r.csv"), capsys=capsys)
    assert (code, out, err) == (
        2, "", "error: a worker process died before it returned its rows\n")
    assert len(pipes) == 1
    for fd in pipes[0]:  # closed, or reused by something that is no pipe
        with contextlib.suppress(OSError):
            assert not stat.S_ISFIFO(os.fstat(fd).st_mode)
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


def test_text_buffered_before_the_workers_start_is_written_once():
    # a child holds a copy of what this process had buffered at the fork,
    # and must leave without flushing it
    script = ("import sys\nimport varcomp.cli as cli, varcomp.programs as programs\n"
              "programs._COLUMN_MIN, programs._usable_cpus = 0, lambda: 2\n"
              "print('before the sweep')\n"
              "sys.exit(cli.main(['sweep', '--d1', '1..4', '--d2', '5..30',"
              " '--check', 'steps,limit']))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, env=child_env())
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "before the sweep"
    assert lines[4] == "check_id,d1,d2,margin,pass,note"
    assert len(lines) == len(set(lines)) > 5 + 4 * 26
    assert out.stderr == ""


def test_report_to_a_text_only_stdout(capsys):
    # a caller that points stdout at an io.StringIO, which has no byte
    # buffer to write to, gets the report a real stdout gets
    argv = ["sweep", "--d1", "1..2", "--d2", "5..20", "--check", "bound,steps"]
    code, expected, _ = run_cli(*argv, capsys=capsys)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == code == 0
    assert text.getvalue() == expected


# ---------------------------------------------------------------------------
# python -m varcomp: main, then the atexit handlers and the flushes, and an
# exit without interpreter teardown
# ---------------------------------------------------------------------------

def _python_m(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "varcomp", *argv], capture_output=True,
                          env=child_env(), timeout=120, **kwargs)


def test_a_report_larger_than_a_pipe_arrives_whole_on_stdout(tmp_path):
    argv = ["sweep", "--d1", "1..4", "--check", "steps"]
    piped = _python_m(*argv)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert len(piped.stdout) > 4 << 16  # four times what a pipe holds
    out = tmp_path / "r.csv"
    written = _python_m(*argv, "--out", str(out))
    assert (written.returncode, written.stdout, written.stderr) == (
        0, f"wrote {out}: ".encode() + piped.stdout.splitlines()[2][11:] + b"\n", b"")
    assert out.read_bytes() == piped.stdout


@pytest.mark.parametrize("argv", [
    ["prove", "--d1", "2"],
    ["sweep", "--d1", "1..x", "--check", "bound"],
    ["prove", "--d1", "7"]], ids=["exit_0", "usage_error", "domain_error"])
def test_python_m_varcomp_exits_as_main_returns(argv, capsys):
    expected = run_cli(*argv, capsys=capsys)
    assert expected[0] == (0 if argv == ["prove", "--d1", "2"] else 2)
    proc = _python_m(*argv, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize("module", ["varcomp", "varcomp.cli"])
def test_python_m_varcomp_runs_the_atexit_handlers(module):
    # a handler registered before varcomp runs, by a wrapper such as a
    # profiler, still runs, and what it prints is flushed
    script = ("import atexit, runpy, sys\n"
              "atexit.register(print, 'the handler ran')\n"
              "sys.argv = ['varcomp', '--version']\n"
              f"runpy.run_module({module!r}, run_name='__main__', alter_sys=True)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"varcomp {__version__}\nthe handler ran\n", "")


def test_every_process_entry_point_is_cli_run():
    # the console script and both ``python -m`` forms leave the same way
    def lines(*path):
        with open(os.path.join(_SRC, *path), encoding="utf-8") as fh:
            return [line.strip() for line in fh.read().splitlines()]

    assert 'varcomp = "varcomp.cli:run"' in lines("..", "pyproject.toml")
    assert lines("varcomp", "__main__.py")[-1] == "run()"
    assert lines("varcomp", "cli.py")[-2:] == ['if __name__ == "__main__":', "run()"]


_NO_SPACE = f"error: cannot write to stdout: {os.strerror(errno.ENOSPC)}"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["sweep", "--d1", "1..4", "--check", "bound"],
    ["prove", "--d1", "1"],
    ["varprob", "--dist", "normal"],
    ["--help"]], ids=["sweep", "prove", "varprob", "help"])
def test_a_full_stdout_exits_2_without_a_traceback(argv):
    # exit 1 means a failed check; a stdout that cannot be written is an
    # I/O error, whether the report streams (sweep) or is printed
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "varcomp", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=child_env(), timeout=120)
    assert (proc.returncode, proc.stderr.decode().splitlines()) == (2, [_NO_SPACE])


class _FullRaw(io.RawIOBase):
    """A raw stream on the file descriptor fd whose writes fail, while full,
    as on a device with no space left."""

    def __init__(self, fd):
        super().__init__()
        self.fd, self.full = fd, True

    def writable(self):
        return True

    def fileno(self):
        return self.fd

    def write(self, data):
        if self.full:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return os.write(self.fd, data)


def test_main_returns_2_for_a_stdout_whose_buffer_cannot_be_written(tmp_path, capsys,
                                                                      monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    raw = _FullRaw(fd)
    stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["prove", "--d1", "1"]) == 2
    finally:
        raw.full = False
        stdout.close()
        os.close(fd)
    assert capsys.readouterr().err.splitlines() == [_NO_SPACE]
    # what was still buffered went to devnull, not to the file
    assert (tmp_path / "stdout").read_bytes() == b""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_closed_by_its_reader_exits_2_without_a_traceback(unbuffered):
    # the default sweep writes about 0.5 MB to stdout, more than the pipe
    # holds, so the report is still being written when the reader has gone.
    # With PYTHONUNBUFFERED set, a write to the raw stdout can be short, and
    # CPython's text layer would drop what it leaves over instead of raising.
    # --help and --version write one short text, so their reader is gone
    # before they start: argparse drops the error of an unbuffered write,
    # and a buffered one raises only at the flush
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["sweep", "--d1", "1..4", "--check", "bound,monotone,steps"],
                 ["--help"], ["--version"]):
        read, write = os.pipe()
        if argv[0] != "sweep":
            os.close(read)
        proc = subprocess.Popen([sys.executable, "-m", "varcomp", *argv],
                                stdout=write, stderr=subprocess.PIPE, env=env)
        os.close(write)
        if argv[0] == "sweep":
            with os.fdopen(read, "rb") as out:
                assert out.readline() == f"# varcomp {__version__}\n".encode()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2, argv
        assert "Traceback" not in err
        assert err.splitlines() == ["error: stdout closed before the output was written"]
