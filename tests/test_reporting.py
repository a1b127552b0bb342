import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varcomp import FParams
from varcomp.programs import certificate_rows, explore_rows, prove_rows, table_rows
from varcomp.proofcheck import check_step_inequalities
from varcomp.reporting import (
    _BUCKETS,
    CSV_COLUMNS,
    STATUSES,
    Row,
    bucket,
    margin_row,
    render_csv,
    render_json,
    rows_from_outcome,
    rows_from_step_report,
    sort_rows,
    summarize,
    write_report,
)


def test_bucket_precedence():
    assert bucket(Row("x", 1, 5, 0.5, "pass")) == "pass"
    assert bucket(Row("x", 1, 5, -0.5, "fail")) == "fail"
    assert bucket(Row("x", 1, 5, 1e-15, "inconclusive", "inconclusive")) == "inconclusive"
    assert bucket(Row("x", 1, 5, None, "not_applicable", "not applicable")) == "not_applicable"
    # the bucket is the status; the note text plays no part
    assert bucket(Row("x", 1, 5, 0.5, "pass", "inconclusive, not applicable")) == "pass"
    # exploratory quarantines even a failing margin
    assert bucket(Row("x", 9, 5, -0.5, "fail", "", True)) == "exploratory"
    assert summarize([Row("x", 9, 5, -0.5, "fail", "", True)])["fail"] == 0
    assert summarize([Row("x", 1, 5, -0.5, "fail")])["fail"] == 1
    assert _BUCKETS == STATUSES + ("exploratory",)


def test_margin_row_is_the_one_verdict_rule():
    floor = 1e-12
    row = margin_row("x", 1, 5, 2e-12, floor, "n")
    assert (row.status, row.passed, row.note) == ("pass", True, "n")
    row = margin_row("x", 1, 5, -1e-12, floor, "n")
    assert (row.status, row.passed, row.note) == ("inconclusive", False, "n; inconclusive")
    assert margin_row("x", 1, 5, 1e-12, floor).note == "inconclusive"
    assert margin_row("x", 1, 5, -2e-12, floor).status == "fail"
    assert margin_row("x", 1, 5, float("nan"), floor).status == "fail"
    # a side condition that does not hold fails the row whatever the margin
    row = margin_row("x", 1, 5, 1.0, floor, "table mismatch", holds=False)
    assert (row.status, row.note) == ("fail", "table mismatch")
    assert margin_row("x", 1, 5, 0.0, floor, holds=False).status == "fail"
    row = margin_row("x", 1, 5, None, floor, "not applicable", True)
    assert (row.status, row.exploratory, row.passed) == ("not_applicable", True, False)
    # floor 0 for tolerance-style margins: only an exact zero is inconclusive
    assert margin_row("x", 1, 5, 5e-324, 0.0).status == "pass"
    assert margin_row("x", 1, 5, 0.0, 0.0).status == "inconclusive"


def test_row_is_a_frozen_slotted_record():
    row = Row("x", 1, 5, 0.5, "pass")
    assert not hasattr(row, "__dict__")
    with pytest.raises(AttributeError):
        row.status = "fail"


def test_summary_counts_sum_to_row_count():
    rows = [
        Row("a", 1, 5, 0.5, "pass"),
        Row("a", 1, 7, -0.5, "fail"),
        Row("b", 1, 5, 1e-15, "inconclusive", "inconclusive"),
        Row("b", 2, 5, None, "not_applicable", "not applicable"),
        Row("c", 9, 5, 0.1, "pass", "", True),
    ]
    counts = summarize(rows)
    assert sum(counts.values()) == len(rows)
    assert counts == {"pass": 1, "fail": 1, "inconclusive": 1,
                      "not_applicable": 1, "exploratory": 1}


def test_rows_from_outcome_stamps_program_coordinates():
    # an auxiliary check is a function of y alone; the program supplies
    # (d1, d2) and nothing else about the row changes
    out = margin_row("claim", 0, 0, 0.25, 0.0, "note")
    (row,) = rows_from_outcome(out, 3, 44)
    assert (row.d1, row.d2, row.margin, row.passed) == (3, 44, 0.25, True)
    assert (row.check_id, row.status, row.note, row.exploratory) == (
        "claim", "pass", "note", False)
    (row,) = rows_from_outcome(margin_row("claim", 0, 0, -1.0, 0.0), 2)
    assert (row.d1, row.d2, row.status) == (2, 0, "fail")


def test_rows_from_step_report_floor():
    margins = check_step_inequalities(FParams(4, 17))
    rows = rows_from_step_report(4, 17, margins, floor=1e-12)
    assert {r.check_id for r in rows} >= {"step_integral", "upper_edge"}
    assert [r.check_id for r in rows] == list(margins)
    assert all((r.d1, r.d2) == (4, 17) for r in rows)
    assert all(r.passed for r in rows if r.margin is not None)
    # a huge floor turns every positive margin into inconclusive, not fail
    rows = rows_from_step_report(4, 17, margins, floor=10.0)
    assert all(bucket(r) == "inconclusive" for r in rows if r.margin is not None)
    # a form that does not apply is a not-applicable row
    rows = rows_from_step_report(4, 16, check_step_inequalities(FParams(4, 16)),
                                 1e-12, exploratory=False)
    (na,) = [r for r in rows if r.margin is None]
    assert (na.check_id, na.status, na.note) == (
        "poly_power_step_lower", "not_applicable", "not applicable")


def test_csv_schema_and_determinism():
    rows = [
        Row("b_check", 2, 7, 0.125, "pass", "note, with comma"),
        Row("a_check", 1, 5, None, "not_applicable", "not applicable"),
        Row("a_check", 1, 9, -0.25, "fail", ""),
    ]
    header = {"version": "0.1.0", "spec": {"command": "test", "seed": 0}}
    text = render_csv(rows, header)
    lines = text.splitlines()
    assert lines[0].startswith("# varcomp")
    assert lines[1].startswith("# spec:")
    assert lines[2].startswith("# summary:")
    assert lines[3] == "check_id,d1,d2,margin,pass,note"
    # sorted by (check_id, d1, d2); quoted comma note survives
    assert lines[4].startswith("a_check,1,5,,false")
    assert lines[5].startswith("a_check,1,9,-0.25,false")
    assert '"note, with comma"' in lines[6]
    assert text == render_csv(list(rows), header)  # byte-identical rerun


def test_json_mirror():
    rows = [Row("c", 1, 5, 0.5, "pass", "", False),
            Row("a", 1, 5, None, "not_applicable", "not applicable", True)]
    payload = json.loads(render_json(rows, {"version": "x", "spec": {}}))
    assert payload["header"]["tool"] == "varcomp"
    assert [r["check_id"] for r in payload["rows"]] == ["a", "c"]
    assert payload["rows"][0]["margin"] is None
    assert payload["rows"][0]["exploratory"] is True
    assert payload["rows"][1]["pass"] is True
    assert payload["summary"]["pass"] == 1
    assert sum(payload["summary"].values()) == 2


def test_sort_rows_stable_key():
    rows = [Row("b", 1, 5, 0.1, "pass"), Row("a", 2, 5, 0.1, "pass"),
            Row("a", 1, 9, 0.1, "pass"), Row("a", 1, 5, 0.1, "pass")]
    ordered = sort_rows(rows)
    assert [(r.check_id, r.d1, r.d2) for r in ordered] == [
        ("a", 1, 5), ("a", 1, 9), ("a", 2, 5), ("b", 1, 5)]


# ---------------------------------------------------------------------------
# the encoder route the template renderers must reproduce byte for byte
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_csv(rows, header, summary=None) -> str:
    rows = sort_rows(rows)
    if summary is None:
        summary = summarize(rows)
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


def reference_json(rows, header, summary=None) -> str:
    rows = sort_rows(rows)
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
        "summary": summarize(rows) if summary is None else summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


HEADER = {"version": "0.1.0", "spec": {"command": "test", "floor": 1e-12,
                                       "checks": ["bound", "steps"]}}


def assert_renderers_match_reference(rows, header=HEADER):
    assert render_csv(rows, header) == reference_csv(rows, header)
    assert render_json(rows, header) == reference_json(rows, header)
    summary = summarize(rows)
    assert render_csv(rows, header, summary) == reference_csv(rows, header, summary)
    assert render_json(rows, header, summary) == reference_json(rows, header, summary)


EDGE_ROWS = [
    Row("a", 1, 5, None, "not_applicable", "not applicable"),
    Row("a", 1, 6, 0.5, "pass", ""),
    Row("b", 2, 7, -0.25, "fail", "note, with comma"),
    Row("b", 2, 8, 1e-15, "inconclusive", 'a "quoted" note; inconclusive'),
    Row("b", 2, 9, 5e-324, "pass", "line one\nline two"),
    Row("b", 2, 10, -5e-324, "fail", "carriage\rreturn"),
    Row("c", 3, 11, -0.0, "fail", "non-ASCII: d\u2082 \u2265 5, \u00e9t\u00e9 \U0001f600"),
    Row("c", 3, 12, 1.7976931348623157e308, "pass", " leading and trailing "),
    Row("c, d", 9, 13, 2.5e-300, "pass", "", True),
    Row('e"f', 12, 14, None, "not_applicable", "not applicable", True),
    Row("", 4, 15, 1.0, "pass", ""),
    Row("tab\there", 4, 16, 0.1, "pass", "back\\slash"),
]


def test_renderers_match_reference_on_edge_rows():
    assert_renderers_match_reference(EDGE_ROWS)
    for row in EDGE_ROWS:
        assert_renderers_match_reference([row])


def test_renderers_match_reference_across_row_chunks():
    # rows are rendered a few thousand at a time; 9,600 rows span three slices
    assert_renderers_match_reference(EDGE_ROWS * 800)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_report_writes_a_large_report_whole(fmt, tmp_path):
    # the file is written in 1 MiB slices; the non-ASCII notes cross them
    path = tmp_path / f"r.{fmt}"
    text = write_report(EDGE_ROWS * 4000, HEADER, fmt, str(path))
    assert len(text) > 1 << 20
    written_whole = path.read_bytes() == text.encode("utf-8")
    assert written_whole
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_renderers_match_reference_on_empty_rows():
    assert_renderers_match_reference([])
    assert '"rows": [],' in render_json([], HEADER)


def test_header_text_cannot_confuse_the_json_splice():
    # the blocks are spliced structurally, so spec text that looks like the
    # report's own structure is left alone
    header = {"version": '\n}\n  "rows": [', "spec": {
        "rows": ["\n  ]", '"summary": {'], "summary": "\n}", "tool": "x"}}
    assert_renderers_match_reference(EDGE_ROWS, header)
    assert_renderers_match_reference([], header)


def test_numpy_float64_margin_renders_as_a_plain_float():
    rows = [Row("a", 1, 5, np.float64(0.1), "pass"),
            Row("a", 1, 6, np.float64(-3e-17), "fail")]
    assert render_json(rows, HEADER) == reference_json(rows, HEADER)
    # the encoder-free CSV writes float.__repr__, never 'np.float64(...)'
    plain = [Row(r.check_id, r.d1, r.d2, float(r.margin), r.status) for r in rows]
    assert render_csv(rows, HEADER) == reference_csv(plain, HEADER)


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), float("-inf"),
                                    np.float64("nan")])
def test_render_json_rejects_non_finite_margins(margin):
    rows = [Row("a", 1, 5, 0.5, "pass"), Row("b", 1, 5, margin, "fail")]
    with pytest.raises(ValueError) as want:
        reference_json(rows, HEADER)
    with pytest.raises(ValueError) as got:
        render_json(rows, HEADER)
    assert str(got.value) == str(want.value)
    # CSV has no such restriction and writes them as repr does
    assert render_csv(rows, HEADER) == reference_csv(
        [Row("a", 1, 5, 0.5, "pass"), Row("b", 1, 5, float(margin), "fail")], HEADER)


rows_strategy = st.lists(st.builds(
    Row,
    check_id=st.text(max_size=8),
    d1=st.integers(-10, 10**6),
    d2=st.integers(-10, 10**9),
    margin=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    status=st.sampled_from(STATUSES),
    note=st.text(max_size=12),
    exploratory=st.booleans(),
), max_size=25)


@settings(max_examples=200, deadline=None)
@given(rows_strategy)
def test_renderers_match_reference_on_random_rows(rows):
    assert_renderers_match_reference(rows)


@pytest.mark.parametrize("make_rows", [
    lambda: prove_rows(3, 60),
    lambda: table_rows() + certificate_rows(),
    lambda: explore_rows(5, range(7, 80)) + explore_rows(6, range(7, 80)),
], ids=["prove_rows_3", "tables_and_certificates", "explore_5_6"])
def test_renderers_match_reference_on_real_reports(make_rows):
    assert_renderers_match_reference(make_rows())
