"""Report rows, summary buckets, and deterministic CSV/JSON emission.

The CSV schema is fixed: columns check_id,d1,d2,margin,pass,note with the
header row always present; lines starting with '#' before it carry the tool
version, the run spec echo, and the summary.  JSON mirrors the same fields
per row plus an explicit exploratory flag.  Floats are emitted with repr
(shortest round-trip), so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .varband import CheckOutcome, STRICTNESS_FLOOR
from .proofcheck.steps import StepReport

__all__ = [
    "Row",
    "bucket",
    "margin_row",
    "rows_from_outcome",
    "rows_from_step_report",
    "sort_rows",
    "summarize",
    "render_csv",
    "render_json",
    "write_report",
    "has_failures",
]

CSV_COLUMNS = ("check_id", "d1", "d2", "margin", "pass", "note")

_BUCKETS = ("pass", "fail", "inconclusive", "not_applicable", "exploratory")


@dataclass(frozen=True)
class Row:
    """One report line; margin is None for not-applicable forms."""

    check_id: str
    d1: int
    d2: int
    margin: Optional[float]
    passed: bool
    note: str = ""
    exploratory: bool = False


def bucket(row: Row) -> str:
    """Disjoint summary bucket of a row.

    Exploratory rows are quarantined first so open-conjecture territory can
    never mask a regression in proved territory; not-applicable and
    inconclusive rows are counted but do not fail a run.
    """
    if row.exploratory:
        return "exploratory"
    if row.margin is None or "not applicable" in row.note:
        return "not_applicable"
    if "inconclusive" in row.note:
        return "inconclusive"
    return "pass" if row.passed else "fail"


def has_failures(rows: Iterable[Row]) -> bool:
    return any(bucket(r) == "fail" for r in rows)


def margin_row(check_id: str, d1: int, d2: int, margin: float, floor: float,
               note: str = "", exploratory: bool = False) -> Row:
    """Row for a signed margin: pass above the floor, inconclusive within
    it (the note gains "inconclusive"), fail below."""
    if margin > floor:
        return Row(check_id, d1, d2, margin, True, note, exploratory)
    if abs(margin) <= floor:
        note = (note + "; " if note else "") + "inconclusive"
    return Row(check_id, d1, d2, margin, False, note, exploratory)


def rows_from_outcome(outcome: CheckOutcome, d1: int = 0, d2: int = 0,
                      exploratory: bool = False) -> list:
    """Convert a CheckOutcome to a single row.

    d1/d2 are taken from the outcome's inputs when present; an outcome whose
    note marks it exploratory is quarantined regardless of the flag.
    """
    d1 = int(outcome.inputs.get("d1", d1))
    d2 = int(outcome.inputs.get("d2", d2))
    expl = exploratory or "exploratory" in outcome.note
    return [Row(outcome.claim_id, d1, d2, outcome.margin, outcome.passed,
                outcome.note, expl)]


def rows_from_step_report(report: StepReport, floor: float = STRICTNESS_FLOOR,
                          exploratory: bool = False) -> list:
    expl = exploratory or "exploratory" in report.note
    base_note = report.note if report.note != "exploratory" else ""
    rows = [margin_row(form, report.d1, report.d2, margin, floor, base_note, expl)
            for form, margin in zip(report.forms_checked, report.margins)]
    for form in report.not_applicable:
        rows.append(Row(form, report.d1, report.d2, None, False,
                        "not applicable", expl))
    return rows


def sort_rows(rows: Iterable[Row]) -> list:
    return sorted(rows, key=lambda r: (r.check_id, r.d1, r.d2))


def summarize(rows: Sequence[Row]) -> dict:
    counts = {name: 0 for name in _BUCKETS}
    for row in rows:
        counts[bucket(row)] += 1
    return counts


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows: Sequence[Row], header: Mapping[str, object],
               summary: Optional[dict] = None) -> str:
    """CSV report; summary is ``summarize(rows)``, computed here if not given."""
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


def render_json(rows: Sequence[Row], header: Mapping[str, object],
                summary: Optional[dict] = None) -> str:
    """JSON report; summary is ``summarize(rows)``, computed here if not given."""
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


def write_report(rows: Sequence[Row], header: Mapping[str, object],
                 fmt: str, path: Optional[str],
                 summary: Optional[dict] = None) -> str:
    """Render and either write atomically to path or return for stdout;
    summary is passed on to the renderer.

    The temp-file + rename dance guarantees no partial report survives an
    abort mid-write.
    """
    if fmt == "csv":
        text = render_csv(rows, header, summary)
    elif fmt == "json":
        text = render_json(rows, header, summary)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path:
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return text
