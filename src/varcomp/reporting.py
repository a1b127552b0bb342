"""Report rows, the one verdict rule, summary buckets, and deterministic
CSV/JSON emission.

Every result of every check is a ``Row``, and every row is made by
``margin_row``: a row passes iff its side conditions hold and its signed
margin beats the strictness floor, is inconclusive iff they hold and the
margin is within the floor, fails otherwise, and is not applicable when it
has no margin.  The status is a field of the row; ``bucket`` reads it and
nothing else, apart from the exploratory quarantine.

The CSV schema is fixed: columns check_id,d1,d2,margin,pass,note with the
header row always present; lines starting with '#' before it carry the tool
version, the run spec echo, and the summary.  JSON mirrors the same fields
per row plus an explicit exploratory flag.  Floats are emitted with
``float.__repr__`` (shortest round-trip), so identical inputs produce
byte-identical output.

The rows, which are nearly all of a large report, are written by fixed
per-row templates rather than walked by an encoder.  The output is byte for
byte what ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``
and a default-dialect ``csv.writer`` with newline line endings emit for the
same rows; the test suite keeps that encoder route as the reference.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Optional, Sequence

__all__ = [
    "STATUSES",
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
]

CSV_COLUMNS = ("check_id", "d1", "d2", "margin", "pass", "note")

#: Row statuses; with "exploratory" they are the summary buckets.
STATUSES = ("pass", "fail", "inconclusive", "not_applicable")
_BUCKETS = STATUSES + ("exploratory",)


@dataclass(frozen=True, slots=True)
class Row:
    """One report line: a signed margin (None for a form that does not
    apply) and its status, one of ``STATUSES``; make it with ``margin_row``."""

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


def bucket(row: Row) -> str:
    """Disjoint summary bucket of a row.

    Exploratory rows are quarantined first so open-conjecture territory can
    never mask a regression in proved territory; not-applicable and
    inconclusive rows are counted but do not fail a run.
    """
    return "exploratory" if row.exploratory else row.status


def margin_row(check_id: str, d1: int, d2: int, margin: Optional[float],
               floor: float, note: str = "", exploratory: bool = False,
               holds: bool = True) -> Row:
    """Row for a signed margin under the one verdict rule.

    holds says whether the check's side conditions (a reference table, an
    exact certificate, a sign program) are met.  The row passes iff they
    hold and margin > floor, is inconclusive iff they hold and
    |margin| <= floor (the note gains "inconclusive"), and fails otherwise;
    a None margin is a form that does not apply (the note defaults to
    "not applicable").  Tolerance-style checks, whose margin is
    tol - residual, use floor 0.0.
    """
    if margin is None:
        status = "not_applicable"
        note = note or "not applicable"
    elif holds and margin > floor:
        status = "pass"
    elif holds and abs(margin) <= floor:
        status = "inconclusive"
        note = (note + "; " if note else "") + "inconclusive"
    else:
        status = "fail"
    return Row(check_id, d1, d2, margin, status, note, exploratory)


def rows_from_outcome(row: Row, d1: int, d2: int = 0) -> list:
    """The row of an auxiliary check, a function of y alone, stamped with
    the (d1, d2) of the program that runs it."""
    return [replace(row, d1=d1, d2=d2)]


def rows_from_step_report(d1: int, d2: int, margins: Mapping[str, Optional[float]],
                          floor: float, exploratory: bool = False) -> list:
    """Rows of the step forms evaluated at (d1, d2): form -> margin, with
    None for a form that does not apply there."""
    return [margin_row(form, d1, d2, margin, floor, "", exploratory)
            for form, margin in margins.items()]


def sort_rows(rows: Iterable[Row]) -> list:
    return sorted(rows, key=lambda r: (r.check_id, r.d1, r.d2))


def summarize(rows: Sequence[Row]) -> dict:
    counts = {name: 0 for name in _BUCKETS}
    for row in rows:
        counts[bucket(row)] += 1
    return counts


_INF = float("inf")

# One JSON row at depth 2 of the indent=2 payload, keys in sorted order,
# preceded by its ',' separator.
_JSON_ROW = (
    ',\n'
    '    {\n'
    '      "check_id": %s,\n'
    '      "d1": %d,\n'
    '      "d2": %d,\n'
    '      "exploratory": %s,\n'
    '      "margin": %s,\n'
    '      "note": %s,\n'
    '      "pass": %s\n'
    '    }'
)


def _json_margin(margin: Optional[float]) -> str:
    """A margin as json.dumps(allow_nan=False) writes it; float.__repr__
    keeps a numpy.float64 a plain float."""
    if margin is None:
        return "null"
    if margin != margin or margin == _INF or margin == -_INF:
        raise ValueError("Out of range float values are not JSON compliant: "
                         + repr(margin))
    return float.__repr__(margin)


def _chunks(rows: list) -> Iterator[list]:
    """The rows in slices of 4096.

    Each slice is rendered into one string, so a large report holds a few
    hundred intermediate strings rather than one small string per row.
    """
    for i in range(0, len(rows), 4096):
        yield rows[i:i + 4096]


class _CsvFields(dict):
    """Memo of string fields quoted exactly as csv.writer quotes them.

    Each text is quoted as the second field of a two-field row: a lone
    empty field would be written as '""', an empty field among others as
    nothing, which is what every report row needs.
    """

    def __missing__(self, text: str) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(("x", text))
        field = self[text] = buf.getvalue()[2:-1]
        return field


def render_csv(rows: Sequence[Row], header: Mapping[str, object],
               summary: Optional[dict] = None) -> str:
    """CSV report; summary is ``summarize(rows)``, computed here if not given."""
    rows = sort_rows(rows)
    if summary is None:
        summary = summarize(rows)
    spec = json.dumps(header.get("spec", {}), sort_keys=True, separators=(",", ":"))
    head = (f"# varcomp {header.get('version', '')}\n"
            f"# spec: {spec}\n"
            "# summary: " + " ".join(f"{k}={summary[k]}" for k in _BUCKETS) + "\n"
            + ",".join(CSV_COLUMNS) + "\n")
    quoted = _CsvFields()
    repr_ = float.__repr__
    parts = [head]
    for chunk in _chunks(rows):
        parts.append("".join([
            "%s,%d,%d,%s,%s,%s\n" % (
                quoted[r.check_id], r.d1, r.d2,
                "" if r.margin is None else repr_(r.margin),
                "true" if r.status == "pass" else "false", quoted[r.note])
            for r in chunk]))
    return "".join(parts)


def render_json(rows: Sequence[Row], header: Mapping[str, object],
                summary: Optional[dict] = None) -> str:
    """JSON report; summary is ``summarize(rows)``, computed here if not given."""
    rows = sort_rows(rows)
    if summary is None:
        summary = summarize(rows)

    def block(key: str, value) -> str:
        # '{\n  "key": value\n}', the top-level dict holding just this key
        return json.dumps({key: value}, indent=2, sort_keys=True, allow_nan=False)

    # the payload's keys sort as header < rows < summary: drop the closing
    # '\n}' of the header block and the opening '{' of the summary block
    parts = [block("header", {"tool": "varcomp", **header})[:-2] + ',\n  "rows": [']
    enc = encode_basestring_ascii
    for chunk in _chunks(rows):
        parts.append("".join([
            _JSON_ROW % (enc(r.check_id), r.d1, r.d2,
                         "true" if r.exploratory else "false",
                         _json_margin(r.margin), enc(r.note),
                         "true" if r.status == "pass" else "false")
            for r in chunk]))
    if rows:
        parts[1] = parts[1][1:]  # no separator before the first row
        parts.append("\n  ]")
    else:
        parts.append("]")
    parts.append("," + block("summary", summary)[1:] + "\n")
    return "".join(parts)


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
                # in 1 MiB slices, so no encoded copy of the whole report
                # is held next to it
                for i in range(0, len(text), 1 << 20):
                    fh.write(text[i:i + (1 << 20)])
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return text
