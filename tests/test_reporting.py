import csv
import errno
import inspect
import io
import json
import math
import os
import sys
from typing import NamedTuple, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import varcomp
import varcomp.programs
from varcomp import FParams, check_bound, check_limit, check_monotone_step
from varcomp.cli import main
from varcomp.errors import VarcompError
from varcomp.programs import (_COLUMN_MIN, certificate_rows, chain_blocks, explore_rows,
                              prove_rows, table_rows)
from varcomp.proofcheck import (
    AuxFn,
    algebra_identity_check,
    check_step_inequalities,
    derivative_sign_check,
    monotone_table_check,
    rational_V_consistency,
    value_sign_check,
)
from varcomp.reporting import (
    _BUCKETS,
    CSV_COLUMNS,
    STATUSES,
    STRICTNESS_FLOOR,
    Block,
    Destination,
    Rendered,
    claim_lines,
    counts_text,
    gap_block,
    margin_block,
    relative_gap,
    render_csv,
    render_json,
    render_rows,
    rows_from_outcome,
    rows_from_step_report,
    summarize,
    write_rendered,
    write_report,
)


# ---------------------------------------------------------------------------
# the row route: every row sorted by its own key and counted one at a time,
# which a report of blocks must reproduce
# ---------------------------------------------------------------------------

class Row(NamedTuple):
    """One report line, as the row route walks it."""

    check_id: str
    d1: int
    d2: int
    margin: Optional[float]
    status: str
    note: str = ""
    exploratory: bool = False

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def flatten(blocks) -> list:
    return [Row(b.check_id, b.d1, *cells, b.exploratory) for b in blocks
            for cells in zip(b.d2s, b.margins, b.statuses, b.notes)]


def sort_rows(rows) -> list:
    return sorted(rows, key=lambda r: (r.check_id, r.d1, r.d2))


def bucket(row) -> str:
    return "exploratory" if row.exploratory else row.status


def bucket_counts(rows) -> dict:
    counts = dict.fromkeys(_BUCKETS, 0)
    for row in rows:
        counts[bucket(row)] += 1
    return counts


def blocks_of(rows) -> list:
    """The rows as one block per (check_id, d1), each in d2 order."""
    groups: dict = {}
    for row in sorted(rows, key=lambda r: r.d2):
        groups.setdefault((row.check_id, row.d1), []).append(row)
    return [Block(check_id, d1, [r.d2 for r in group], [r.margin for r in group],
                  [r.status for r in group], [r.note for r in group], group[0].exploratory)
            for (check_id, d1), group in groups.items()]


def assert_one_block_per_claim(blocks):
    keys = [(b.check_id, b.d1) for b in blocks]
    assert len(set(keys)) == len(keys)
    for b in blocks:
        assert list(b.d2s) == sorted(set(b.d2s)), b.check_id  # strictly ascending
        assert len(b) == len(b.margins) == len(b.statuses) == len(b.notes) > 0


def test_bucket_precedence():
    def bucket_of(row):
        (name,) = [k for k, v in summarize(blocks_of([row])).items() if v]
        return name

    assert bucket_of(Row("x", 1, 5, 0.5, "pass")) == "pass"
    assert bucket_of(Row("x", 1, 5, -0.5, "fail")) == "fail"
    assert bucket_of(Row("x", 1, 5, 1e-15, "inconclusive", "inconclusive")) == "inconclusive"
    assert bucket_of(Row("x", 1, 5, None, "not_applicable", "not applicable")) == "not_applicable"
    # the bucket is the status; the note text plays no part
    assert bucket_of(Row("x", 1, 5, 0.5, "pass", "inconclusive, not applicable")) == "pass"
    # exploratory quarantines even a failing margin
    assert bucket_of(Row("x", 9, 5, -0.5, "fail", "", True)) == "exploratory"
    assert summarize(blocks_of([Row("x", 9, 5, -0.5, "fail", "", True)]))["fail"] == 0
    assert summarize(blocks_of([Row("x", 1, 5, -0.5, "fail")]))["fail"] == 1
    assert _BUCKETS == STATUSES + ("exploratory",)


def one_row(margin, note="", exploratory=False, holds=True) -> Row:
    """The row of the one-row block margin_block makes at (d1, d2) = (1, 5)."""
    (row,) = flatten([margin_block("x", 1, [5], [margin], note, exploratory, holds)])
    return row


def test_margin_block_is_the_one_verdict_rule():
    # one threshold for every margin: no caller passes a floor
    assert "floor" not in inspect.signature(margin_block).parameters
    assert STRICTNESS_FLOOR == 1e-12
    row = one_row(2e-12, "n")
    assert (row.status, row.passed, row.note) == ("pass", True, "n")
    row = one_row(-1e-12, "n")
    assert (row.status, row.passed, row.note) == ("inconclusive", False, "n; inconclusive")
    assert one_row(1e-12).note == "inconclusive"
    assert one_row(-2e-12).status == "fail"
    assert one_row(float("nan")).status == "fail"
    # a side condition that does not hold fails the row whatever the margin
    row = one_row(1.0, "table mismatch", holds=False)
    assert (row.status, row.note) == ("fail", "table mismatch")
    assert one_row(0.0, holds=False).status == "fail"
    row = one_row(None, "not applicable", True)
    assert (row.status, row.exploratory, row.passed) == ("not_applicable", True, False)
    # a tolerance-style margin, tol - residual, is judged at the same floor:
    # within roundoff of 0 it proves nothing either way
    assert one_row(5e-324).status == "inconclusive"
    assert one_row(0.0).status == "inconclusive"
    for tol, status in ((5e-13, "inconclusive"), (-5e-13, "inconclusive"),
                        (2e-12, "pass"), (-2e-12, "fail")):
        block = gap_block("g", 1, [(1.0, 1.0)], tol)
        assert (block.margins, block.statuses) == ([tol], [status]), tol


def test_margin_block_column_is_its_one_row_blocks():
    margins = [2e-12, -1e-12, 1e-12, -2e-12, float("nan"), None, 0.0, 5e-324, -0.0]
    d2s = list(range(5, 5 + len(margins)))
    for note in ("", "n"):
        for holds in (True, False):
            for expl in (False, True):
                block = margin_block("x", 2, d2s, margins, note, expl, holds)
                assert flatten([block]) == flatten(
                    [margin_block("x", 2, [d2], [m], note, expl, holds)
                     for d2, m in zip(d2s, margins)])
    # a note per row
    notes = ["a", "", "b", "c", "d", "", "e", "", "f"]
    block = margin_block("x", 2, d2s, margins, notes)
    assert flatten([block]) == flatten([margin_block("x", 2, [d2], [m], n)
                                        for d2, m, n in zip(d2s, margins, notes)])
    # the columns are held as given, not copied
    assert block.d2s is d2s and block.margins is margins


def test_relative_gap_is_the_two_route_residual():
    assert relative_gap([(1.0, 1.0 + 1e-12), (2.0, 2.0), (-4.0, -4.0 * (1 + 1e-9))]) \
        == pytest.approx(1e-9, rel=1e-6)
    assert relative_gap([(3.0, -1.0)]) == pytest.approx(4.0 / 3.0)
    # equal sides, zeros included, have no gap; no pairs, no gap
    assert relative_gap([(0.0, 0.0), (0.0, -0.0), (5.0, 5.0)]) == 0.0
    assert relative_gap([]) == 0.0
    assert relative_gap([(0.0, 1e-300)]) == 1.0
    # a NaN side, or one infinite side, is a NaN gap wherever it falls
    nan, inf = float("nan"), float("inf")
    for bad in ((nan, 1.0), (1.0, nan), (inf, 1.0)):
        assert math.isnan(relative_gap([(1.0, 1.5), bad, (2.0, 2.0)]))
    # the claim's block: margin tol - gap, at d2 0
    block = gap_block("g", 3, [(1.0, 1.0 + 2e-10)], 1e-9, "agree")
    assert (block.check_id, block.d1, list(block.d2s), block.statuses, block.notes) \
        == ("g", 3, [0], ["pass"], ["agree"])
    assert block.margins == [1e-9 - relative_gap([(1.0, 1.0 + 2e-10)])]
    assert gap_block("g", 3, [(1.0, 2.0)], 1e-9).statuses == ["fail"]
    assert gap_block("g", 3, [(1.0, nan)], 1e-9).statuses == ["fail"]
    assert gap_block("g", 3, [(1.0, 1.0)], 1e-9, holds=False).statuses == ["fail"]


def test_two_route_claims_pinned():
    # every claim whose residual is relative_gap, with the margins each
    # program reports for it (d2_max 400 for prove_rows)
    agree = "two evaluation routes agree"
    v_margins = [
        "9.99840834026894e-10", "9.99852706505438e-10", "9.99649594276761e-10",
        "9.996791306899971e-10", "9.998422908953037e-10", "9.998428450249489e-10",
        "9.99969176740099e-10", "9.99726501438199e-10", "9.999976065105495e-10",
        "9.998080793747532e-10", "9.998038907781238e-10", "9.999992136728472e-10",
        "9.997619560348505e-10", "9.998362485739751e-10", "9.996860900514794e-10",
        "9.995500294512185e-10"]
    v_rows = ("v_rational_consistency", 3, list(range(25, 41)), v_margins, agree)
    expected = {
        1: [("l1_prefactor_identity", 1, [0], ["9.99999987945532e-07"], ""),
            ("k_derivative_identity", 1, [0], ["9.9908492328675e-05"], ""),
            ("h1_log_form_consistency", 1, [0], ["9.226743589118752e-10"],
             "aux step equals the endpoint log ratio"),
            ("k_matches_scaled_endpoints", 1, [0], ["9.999996333225406e-10"],
             "k(d2) = d2 b and k(d2+2) = (d2+2) a")],
        2: [("l2_prefactor_identity", 2, [0], ["9.999999765071232e-07"], ""),
            ("upper_edge_closed_form", 2, [0], ["9.999475168988685e-11"],
             "quadrature vs elementary antiderivative"),
            ("h2_log_form_consistency", 2, [0], ["9.398728873164342e-10"],
             "aux step equals the endpoint log ratio")],
        3: [("l3_prefactor_identity", 3, [0], ["9.999999669646372e-07"], ""),
            v_rows,
            ("g2_expansion_consistency", 3, [0], ["9.999995825110288e-10"],
             "two transcriptions of the same factor agree"),
            ("h3_log_form_consistency", 3, [0], ["8.916780375261163e-10"],
             "aux step equals the endpoint log ratio")],
        4: [("l4_prefactor_identity", 4, [0], ["9.999998590866387e-07"], ""),
            ("q4_prefactor_identity", 4, [0], ["9.99999512030536e-07"], ""),
            ("h4_log_form_consistency", 4, [0], ["9.999515143611478e-10"],
             "h4 equals the affine-power log form at the endpoints"),
            ("r4_log_form_consistency", 4, [0], ["9.999091144788493e-10"],
             "r4 equals the affine-power log form at the lower images")],
        "tables": [v_rows],
    }
    ids = {row[0] for rows in expected.values() for row in rows}
    assert len(ids) == 15
    for key, rows in expected.items():
        blocks = table_rows() if key == "tables" else prove_rows(key)
        got = [(b.check_id, b.d1, list(b.d2s), [repr(m) for m in b.margins],
                list(b.statuses), list(b.notes)) for b in blocks if b.check_id in ids]
        assert got == [(check_id, d1, d2s, margins, ["pass"] * len(d2s),
                        [note] * len(d2s))
                       for check_id, d1, d2s, margins, note in rows], key


def test_block_is_a_frozen_slotted_record():
    block = margin_block("x", 1, [5], [0.5])
    assert not hasattr(block, "__dict__")
    with pytest.raises(AttributeError):
        block.statuses = ["fail"]


def test_summary_counts_sum_to_row_count():
    rows = [
        Row("a", 1, 5, 0.5, "pass"),
        Row("a", 1, 7, -0.5, "fail"),
        Row("b", 1, 5, 1e-15, "inconclusive", "inconclusive"),
        Row("b", 2, 5, None, "not_applicable", "not applicable"),
        Row("c", 9, 5, 0.1, "pass", "", True),
    ]
    counts = summarize(blocks_of(rows))
    assert sum(counts.values()) == len(rows)
    assert counts == {"pass": 1, "fail": 1, "inconclusive": 1,
                      "not_applicable": 1, "exploratory": 1}
    assert counts == bucket_counts(rows)


def test_counts_text_lists_every_bucket_in_order():
    counts = dict(zip(reversed(_BUCKETS), range(5)))
    assert counts_text(counts) == ("pass=4 fail=3 inconclusive=2 not_applicable=1 "
                                   "exploratory=0")


def test_claim_lines_join_the_runs_of_each_claim():
    # each claim comes as runs of its chain, in d2 order; counts are in
    # STATUSES order: pass, fail, inconclusive, not_applicable
    def run(check_id, counts, worst=None, first=None):
        return Rendered(check_id, 2, False, counts, worst, first, "")

    parts = [
        run("c_inconclusive", (4, 0, 0, 0), 0.25),
        run("b_fail", (3, 1, 0, 0), -0.5),
        run("c_inconclusive", (1, 0, 2, 0), 1e-13, 17),
        run("a_pass", (5, 0, 0, 0), 0.5),
        run("b_fail", (2, 0, 1, 0), -2.0, 9),
        run("a_pass", (6, 0, 0, 1), 0.125),
        run("d_none", (0, 0, 0, 3)),
        run("d_none", (0, 0, 0, 2)),
    ]
    assert claim_lines(parts) == [
        "PASS a_pass (12 rows, worst margin 1.250e-01)",
        "FAIL b_fail (7 rows, worst margin -2.000e+00)",
        "INCONCLUSIVE c_inconclusive 2/7 (first at d2=17, worst margin 1.000e-13)",
        "PASS d_none (5 rows, not applicable)",
    ]
    assert claim_lines([]) == []


def test_rows_from_outcome_stamps_program_coordinates():
    # an auxiliary check is a function of y alone; the program supplies
    # (d1, d2) and nothing else about the row changes
    out = margin_block("claim", 0, [0], [0.25], "note")
    (block,) = rows_from_outcome([out], 3, [44])
    (row,) = flatten([block])
    assert (row.d1, row.d2, row.margin, row.passed) == (3, 44, 0.25, True)
    assert (row.check_id, row.status, row.note, row.exploratory) == (
        "claim", "pass", "note", False)
    (block,) = rows_from_outcome([margin_block("claim", 0, [0], [-1.0])], 2)
    (row,) = flatten([block])
    assert (row.d1, row.d2, row.status) == (2, 0, "fail")
    # one claim checked at several y is one block
    outs = [margin_block("v", 0, [0], [0.5], "ok"),
            margin_block("v", 0, [0], [0.5], "bad", holds=False)]
    (block,) = rows_from_outcome(outs, 3, [25, 26])
    assert [(r.d1, r.d2, r.status, r.note) for r in flatten([block])] == [
        (3, 25, "pass", "ok"), (3, 26, "fail", "bad")]


def test_rows_from_outcome_joins_the_one_row_blocks_of_checks():
    # an aux check keeps d1 = d2 = 0 until a program stamps its d1 on it
    out = value_sign_check(AuxFn.L3, range(12, 40), -1)
    assert (out.d1, out.d2s) == (0, [0])
    (block,) = rows_from_outcome([out], 3)
    assert flatten([block]) == [row._replace(d1=3) for row in flatten([out])]
    # the v checks of the d1 = 3 program: one block over the program's d2s
    ys = [25, 26, 27]
    outs = [rational_V_consistency(y) for y in ys]
    (block,) = rows_from_outcome(outs, 3, ys)
    assert flatten([block]) == [flatten([out])[0]._replace(d1=3, d2=y)
                                for y, out in zip(ys, outs)]
    # checks at (d1, d2) keep their own d2s when none are given
    outs = [check_monotone_step(FParams(2, d2)) for d2 in (5, 6, 7)]
    (block,) = rows_from_outcome(outs, 2)
    assert flatten([block]) == [row for out in outs for row in flatten([out])]
    assert block.d2s == [5, 6, 7] and block.statuses == ["pass"] * 3


#: Each single check: the function, its arguments and the (d1, d2) of its row.
SINGLE_CHECKS = {
    "check_bound": (check_bound, (FParams(3, 9),), (3, 9)),
    "check_monotone_step": (check_monotone_step, (FParams(4, 17),), (4, 17)),
    "monotone_table_check": (
        monotone_table_check, (AuxFn.H3, range(3, 13), "decreasing"), (0, 0)),
    "derivative_sign_check": (derivative_sign_check, (AuxFn.H1, [4, 10], -1), (0, 0)),
    "value_sign_check": (value_sign_check, (AuxFn.L2, range(5, 30), -1), (0, 0)),
    "check_limit": (check_limit, (2, 10_000), (2, 10_000)),
    "rational_V_consistency": (rational_V_consistency, (30,), (0, 0)),
    "algebra_identity_check": (
        algebra_identity_check, ("l2_prefactor_identity", range(5, 20)), (0, 0)),
}


@pytest.mark.parametrize("name", list(SINGLE_CHECKS))
def test_each_single_check_returns_a_one_row_block(name):
    fn, args, (d1, d2) = SINGLE_CHECKS[name]
    # no caller moves a verdict: the floor is a constant, not an argument
    assert "floor" not in inspect.signature(fn).parameters
    out = fn(*args)
    assert type(out) is Block
    assert (len(out), out.d1, list(out.d2s)) == (1, d1, [d2])
    (margin,), (status,), (note,) = out.margins, out.statuses, out.notes
    # margin_block's rule, the side conditions of these samples holding
    assert status == ("pass" if margin > STRICTNESS_FLOOR
                      else "inconclusive" if abs(margin) <= STRICTNESS_FLOOR else "fail")
    assert note.endswith("inconclusive") == (status == "inconclusive")
    assert status == "pass"


def test_package_exports_the_one_result_record():
    assert varcomp.Block is Block
    assert not hasattr(varcomp, "Row")
    assert not hasattr(varcomp.reporting, "Row")
    assert not hasattr(varcomp.reporting, "margin_row")


def test_rows_from_step_report_floor():
    d2s = [16, 17]
    maps = [check_step_inequalities(FParams(4, d2)) for d2 in d2s]
    columns = {form: [m[form] for m in maps] for form in maps[0]}
    blocks = rows_from_step_report(4, d2s, columns)
    assert [b.check_id for b in blocks] == list(columns)
    assert {b.check_id for b in blocks} >= {"step_integral", "upper_edge"}
    assert all(b.d1 == 4 and b.d2s == d2s for b in blocks)
    assert all(r.passed for r in flatten(blocks) if r.margin is not None)
    # a form that does not apply is a not-applicable row
    (na,) = [r for r in flatten(blocks) if r.margin is None]
    assert (na.check_id, na.d2, na.status, na.note) == (
        "poly_power_step_lower", 16, "not_applicable", "not applicable")


def test_csv_schema_and_determinism():
    rows = [
        Row("b_check", 2, 7, 0.125, "pass", "note, with comma"),
        Row("a_check", 1, 5, None, "not_applicable", "not applicable"),
        Row("a_check", 1, 9, -0.25, "fail", ""),
    ]
    header = {"version": "0.1.0", "spec": {"command": "test", "seed": 0}}
    blocks = blocks_of(rows)
    text = csv_of(blocks, header)
    lines = text.splitlines()
    assert lines[0].startswith("# varcomp")
    assert lines[1].startswith("# spec:")
    assert lines[2].startswith("# summary:")
    assert lines[3] == "check_id,d1,d2,margin,pass,note"
    # sorted by (check_id, d1, d2); quoted comma note survives
    assert lines[4].startswith("a_check,1,5,,false")
    assert lines[5].startswith("a_check,1,9,-0.25,false")
    assert '"note, with comma"' in lines[6]
    assert text == csv_of(blocks[::-1], header)  # byte-identical rerun


def test_json_mirror():
    rows = [Row("c", 1, 5, 0.5, "pass", "", False),
            Row("a", 1, 5, None, "not_applicable", "not applicable", True)]
    payload = json.loads(json_of(blocks_of(rows), {"version": "x", "spec": {}}))
    assert payload["header"]["tool"] == "varcomp"
    assert [r["check_id"] for r in payload["rows"]] == ["a", "c"]
    assert payload["rows"][0]["margin"] is None
    assert payload["rows"][0]["exploratory"] is True
    assert payload["rows"][1]["pass"] is True
    assert payload["summary"]["pass"] == 1
    assert sum(payload["summary"].values()) == 2


def test_blocks_render_in_check_id_d1_d2_order():
    blocks = [margin_block("b", 1, [5], [0.1]),
              margin_block("a", 2, [5], [0.1]),
              margin_block("a", 1, [5, 9], [0.1, 0.1])]
    lines = csv_of(blocks, {}).splitlines()[4:]
    assert [tuple(line.split(",")[:3]) for line in lines] == [
        ("a", "1", "5"), ("a", "1", "9"), ("a", "2", "5"), ("b", "1", "5")]


# ---------------------------------------------------------------------------
# the encoder route the template renderers must reproduce byte for byte,
# fed the flattened rows
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_csv(blocks, header) -> str:
    rows = sort_rows(flatten(blocks))
    summary = bucket_counts(rows)
    buf = io.StringIO()
    buf.write(f"# varcomp {header.get('version', '')}\n")
    spec = header.get("spec", {})
    buf.write("# spec: " + json.dumps(spec, sort_keys=True, separators=(",", ":")) + "\n")
    buf.write("# summary: " + " ".join(f"{k}={summary[k]}" for k in _BUCKETS) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([r.check_id, r.d1, r.d2, _fmt(r.margin),
                         _fmt(r.passed), r.note])
    return buf.getvalue()


def reference_json(blocks, header) -> str:
    rows = sort_rows(flatten(blocks))
    payload = {
        "header": {"tool": "varcomp", **header},
        "rows": [
            {
                "check_id": r.check_id,
                "d1": r.d1,
                "d2": r.d2,
                "margin": r.margin,
                "pass": r.passed,
                "note": r.note,
                "exploratory": r.exploratory,
            }
            for r in rows
        ],
        "summary": bucket_counts(rows),
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


_RENDER = {"csv": render_csv, "json": render_json}


def csv_of(blocks, header) -> str:
    return render_csv(render_rows(blocks, "csv"), header)


def json_of(blocks, header) -> str:
    return render_json(render_rows(blocks, "json"), header)


HEADER = {"version": "0.1.0", "spec": {"command": "test", "floor": 1e-12,
                                       "checks": ["bound", "steps"]}}


def assert_renderers_match_reference(blocks, header=HEADER):
    assert csv_of(blocks, header) == reference_csv(blocks, header)
    assert json_of(blocks, header) == reference_json(blocks, header)
    summary = summarize(blocks)
    assert summary == bucket_counts(flatten(blocks))
    # the parts of several render_rows calls, as a sweep's columns give
    # them, in any order, make the same report and summary
    for fmt, render, reference in (("csv", render_csv, reference_csv),
                                   ("json", render_json, reference_json)):
        parts = [part for block in blocks[::-1] for part in render_rows([block], fmt)]
        assert summarize(parts) == summary
        assert render(parts, header) == reference(blocks, header)


EDGE_ROWS = [
    Row("a", 1, 5, None, "not_applicable", "not applicable"),
    Row("a", 1, 6, 0.5, "pass", ""),
    Row("b", 2, 7, -0.25, "fail", "note, with comma"),
    Row("b", 2, 8, 1e-15, "inconclusive", 'a "quoted" note; inconclusive'),
    Row("b", 2, 9, 5e-324, "pass", "line one\nline two"),
    Row("b", 2, 10, -5e-324, "fail", "carriage\rreturn"),
    Row("c", 3, 11, -0.0, "fail", "non-ASCII: d₂ ≥ 5, été \U0001f600"),
    Row("c", 3, 12, 1.7976931348623157e308, "pass", " leading and trailing "),
    Row("c, d", 9, 13, 2.5e-300, "pass", "", True),
    Row('e"f', 12, 14, None, "not_applicable", "not applicable", True),
    Row("", 4, 15, 1.0, "pass", ""),
    Row("tab\there", 4, 16, 0.1, "pass", "back\\slash"),
]


def many_edge_rows(copies: int) -> list:
    return [r._replace(d2=r.d2 + 100 * i) for i in range(copies) for r in EDGE_ROWS]


def test_renderers_match_reference_on_edge_rows():
    assert_renderers_match_reference(blocks_of(EDGE_ROWS))
    for row in EDGE_ROWS:
        assert_renderers_match_reference(blocks_of([row]))


def test_renderers_match_reference_across_row_chunks():
    # 9,600 rows in eight blocks of up to 3,200 rows
    assert_renderers_match_reference(blocks_of(many_edge_rows(800)))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_report_writes_a_large_report_whole(fmt, tmp_path):
    # the report is written piece by piece, a piece per block, each in 1 MiB
    # slices; the non-ASCII notes lie in many pieces and cross the slices
    blocks = blocks_of(many_edge_rows(4000))
    text = _RENDER[fmt](render_rows(blocks, fmt), HEADER)
    assert len(text) > 1 << 20
    path = tmp_path / f"r.{fmt}"
    write_report(blocks, HEADER, fmt, str(path))
    assert path.read_bytes() == text.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_two_destinations_of_one_path_each_rename_a_whole_report(tmp_path):
    # two runs that write one --out at once: each writes a temp file of its
    # own, so neither write fails, the path holds the report renamed last,
    # whole, and no temp file is left; the longer report goes first, so a
    # shared temp file would leave a mix of both
    path = tmp_path / "r.csv"
    reports = [render_rows(blocks_of(many_edge_rows(n)), "csv") for n in (40, 4)]
    old = os.umask(0o022)
    try:
        first, second = Destination(str(path)), Destination(str(path))
    finally:
        os.umask(old)
    with first, second:
        write_rendered(reports[0], HEADER, "csv", first)
        write_rendered(reports[1], HEADER, "csv", second)
    assert path.read_bytes() == render_csv(reports[1], HEADER).encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    # created as open(path, "wb") creates a file: 0o666 less the umask
    assert path.stat().st_mode & 0o777 == 0o644


def _no_space(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("where", ["open", "rename"])
def test_a_report_path_that_cannot_be_written_is_a_varcomp_error(where, tmp_path,
                                                                   monkeypatch):
    # the one error of a report file, at its temp file's creation or at its
    # rename onto the path; no temp file is left behind
    path = tmp_path / "missing" / "r.csv" if where == "open" else tmp_path / "r.csv"
    if where == "rename":
        monkeypatch.setattr(os, "replace", _no_space)
    reason = "No such file or directory" if where == "open" else os.strerror(errno.ENOSPC)
    with pytest.raises(VarcompError) as info:
        write_report(blocks_of(EDGE_ROWS), HEADER, "csv", str(path))
    assert str(info.value) == f"cannot write report {path}: {reason}"
    assert isinstance(info.value.__cause__, OSError)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("text_only", [False, True], ids=["binary", "text_only"])
def test_write_report_writes_a_large_report_whole_to_stdout(fmt, text_only, monkeypatch):
    # into stdout's byte buffer, encoded as stdout encodes, after the text
    # stdout holds buffered; or as text into a stdout with no byte buffer
    blocks = blocks_of(many_edge_rows(4000))
    text = _RENDER[fmt](render_rows(blocks, fmt), HEADER)
    raw = io.BytesIO()
    out = (io.StringIO() if text_only
           else io.TextIOWrapper(raw, encoding="latin-1", errors="backslashreplace"))
    out.write("before the report\n")
    monkeypatch.setattr(sys, "stdout", out)
    write_report(blocks, HEADER, fmt, None)
    if text_only:
        assert out.getvalue() == "before the report\n" + text
    else:
        assert raw.getvalue() == ("before the report\n" + text).encode(
            "latin-1", "backslashreplace")


def test_renderers_match_reference_on_empty_rows():
    assert_renderers_match_reference([])
    assert '"rows": [],' in json_of([], HEADER)
    # an empty block renders no row
    empty = [margin_block("a", 1, [], [])]
    assert_renderers_match_reference(empty)
    assert_renderers_match_reference(empty + blocks_of(EDGE_ROWS))


def test_header_text_cannot_confuse_the_json_splice():
    # the blocks are spliced structurally, so spec text that looks like the
    # report's own structure is left alone
    header = {"version": '\n}\n  "rows": [', "spec": {
        "rows": ["\n  ]", '"summary": {'], "summary": "\n}", "tool": "x"}}
    assert_renderers_match_reference(blocks_of(EDGE_ROWS), header)
    assert_renderers_match_reference([], header)


def test_numpy_float64_margin_renders_as_a_plain_float():
    rows = [Row("a", 1, 5, np.float64(0.1), "pass"),
            Row("a", 1, 6, np.float64(-3e-17), "fail")]
    assert json_of(blocks_of(rows), HEADER) == reference_json(blocks_of(rows), HEADER)
    # the encoder-free CSV writes float.__repr__, never 'np.float64(...)'
    plain = [Row(r.check_id, r.d1, r.d2, float(r.margin), r.status) for r in rows]
    assert csv_of(blocks_of(rows), HEADER) == reference_csv(blocks_of(plain), HEADER)


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), float("-inf"),
                                    np.float64("nan")])
def test_render_json_rejects_non_finite_margins(margin):
    blocks = blocks_of([Row("a", 1, 5, 0.5, "pass"), Row("b", 1, 5, margin, "fail")])
    with pytest.raises(ValueError) as want:
        reference_json(blocks, HEADER)
    with pytest.raises(ValueError) as got:
        json_of(blocks, HEADER)
    assert str(got.value) == str(want.value)
    # CSV has no such restriction and writes them as repr does
    assert csv_of(blocks, HEADER) == reference_csv(blocks_of(
        [Row("a", 1, 5, 0.5, "pass"), Row("b", 1, 5, float(margin), "fail")]), HEADER)


def test_render_json_names_the_first_non_finite_margin_in_row_order():
    inf, nan = float("inf"), float("nan")
    mixed = margin_block("b", 1, [5, 6, 7, 8, 9],
                         (0.5, None, np.float64("nan"), -inf, None))
    for blocks in ([mixed],
                   [margin_block("c", 1, [5], [nan]), mixed,
                    margin_block("a", 2, [5, 6, 7], [None, None, inf])],
                   [margin_block("a", 1, [5, 6], [None, 0.25]), mixed]):
        with pytest.raises(ValueError) as want:
            reference_json(blocks, HEADER)
        with pytest.raises(ValueError) as got:
            json_of(blocks, HEADER)
        assert str(got.value) == str(want.value)


def d2_columns():
    """Strictly ascending d2s, as a list or as a range."""
    ranges = st.builds(lambda lo, n, step: range(lo, lo + n * step, step),
                       st.integers(-10, 10**9), st.integers(1, 6), st.integers(1, 10**6))
    return st.sets(st.integers(-10, 10**9), min_size=1, max_size=6).map(sorted) | ranges


@st.composite
def block_lists(draw):
    """Blocks with distinct (check_id, d1) and strictly ascending d2s; some
    share one d2s object, as a sweep column's or a prove chain's blocks do,
    and some hold their margins as a tuple."""
    keys = draw(st.lists(st.tuples(st.text(max_size=8), st.integers(-10, 10**6)),
                         unique=True, max_size=6))
    shared = draw(st.none() | d2_columns())
    blocks = []
    for check_id, d1 in keys:
        if shared is not None and draw(st.booleans()):
            d2s = shared
        else:
            d2s = draw(d2_columns())
        column = st.lists(st.tuples(
            st.none() | st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(STATUSES), st.text(max_size=12)),
            min_size=len(d2s), max_size=len(d2s))
        margins, statuses, notes = map(list, zip(*draw(column)))
        if draw(st.booleans()):
            margins = tuple(margins)
        blocks.append(Block(check_id, d1, d2s, margins, statuses, notes,
                            draw(st.booleans())))
    return blocks


@settings(max_examples=200, deadline=None)
@given(block_lists())
def test_renderers_match_reference_on_random_rows(blocks):
    assert_renderers_match_reference(blocks)


def long_prove_chain(d1: int) -> list:
    # the chain through the column kernels, its blocks sharing one d2s list
    with mock.patch.object(varcomp.programs, "_COLUMN_MIN", 5):
        return prove_rows(d1, 300)


@pytest.mark.parametrize("make_blocks", [
    lambda: prove_rows(3, 60),
    lambda: table_rows() + certificate_rows(),
    lambda: explore_rows(5, range(7, 80)) + explore_rows(6, range(7, 80)),
    # undefined series forms below d2 = 7: a note per row
    lambda: explore_rows(24, range(3, 80)),
    # a sweep column's blocks share one d2s list; a grid of _COLUMN_MIN
    # points takes the column kernels
    *[lambda d1=d1: chain_blocks(d1, range(5, 301), ("bound", "monotone", "steps"),
                                 _COLUMN_MIN) for d1 in range(1, 5)],
    *[lambda d1=d1: long_prove_chain(d1) for d1 in range(1, 5)],
], ids=["prove_rows_3", "tables_and_certificates", "explore_5_6", "explore_24",
        *[f"sweep_column_{d1}" for d1 in range(1, 5)],
        *[f"long_prove_chain_{d1}" for d1 in range(1, 5)]])
def test_renderers_match_reference_on_real_reports(make_blocks):
    blocks = make_blocks()
    assert_one_block_per_claim(blocks)
    assert_renderers_match_reference(blocks)


def grid_large_blocks() -> list:
    # sweep --d1 1..4 --d2 5..20000 --check bound,monotone,steps
    return [block for d1 in range(1, 5)
            for block in chain_blocks(
                d1, range(5, 20_001), ("bound", "monotone", "steps"), 4 * 19_996)]


@pytest.mark.slow
@pytest.mark.parametrize("make_blocks, render, reference", [
    (grid_large_blocks, csv_of, reference_csv),
    (lambda: prove_rows(4, 30_000), json_of, reference_json),
], ids=["grid_large_csv", "prove_deep_d1_4_json"])
def test_renderers_match_reference_at_full_scale(make_blocks, render, reference):
    blocks = make_blocks()
    assert render(blocks, HEADER) == reference(blocks, HEADER)


# ---------------------------------------------------------------------------
# every command's report: one block per claim, the row route's bytes
# ---------------------------------------------------------------------------

COMMANDS = {
    **{f"prove_{d1}": ["prove", "--d1", str(d1)] for d1 in (1, 2, 3, 4)},
    "sweep_default": ["sweep", "--d1", "1..4", "--check",
                      "bound,monotone,limit,steps,tables"],
    "sweep_exploratory": ["sweep", "--d1", "1..12", "--d2", "5..120", "--check",
                          "bound,monotone,limit,steps,tables"],
    "explore": ["explore", "--d1", "5..12", "--d2", "5..120"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_reports_hold_one_block_per_claim(name, fmt, rendered_blocks, tmp_path,
                                                  capsys):
    blocks = rendered_blocks
    path = tmp_path / f"r.{fmt}"
    assert main([*COMMANDS[name], "--format", fmt, "--out", str(path)]) == 0
    capsys.readouterr()
    assert_one_block_per_claim(blocks)
    # the report is the one the rows, sorted and counted one by one, give
    text = path.read_text()
    if fmt == "json":
        header = json.loads(text)["header"]
        del header["tool"]
        assert text == reference_json(blocks, header)
    else:
        # past the version and spec lines, which only the header sets
        assert text.split("\n", 2)[2] == reference_csv(blocks, {}).split("\n", 2)[2]
