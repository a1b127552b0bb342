"""Report blocks, the one verdict rule, summary buckets, and deterministic
CSV/JSON emission.

A report is a list of ``Block``s, exactly one per (check_id, d1): a claim
over ascending d2s, with a signed margin, a status and a note per d2.  So
ordering the blocks by (check_id, d1) orders the rows by (check_id, d1, d2).
Iterating a block yields its rows as ``Row``s, the record of one check.

Every status comes from ``margin_block`` (``margin_row`` is its one-row
case): a row passes iff its side conditions hold and its signed margin
beats the strictness floor, is inconclusive iff they hold and the margin is
within the floor, fails otherwise, and is not applicable when it has no
margin.  ``summarize`` counts the statuses block by block, and every row of
an exploratory block in a bucket of its own.

The CSV schema is fixed: columns check_id,d1,d2,margin,pass,note with the
header row always present; lines starting with '#' before it carry the tool
version, the run spec echo, and the summary.  JSON mirrors the same fields
per row plus an explicit exploratory flag.  Floats are emitted with
``float.__repr__`` (shortest round-trip), so identical inputs produce
byte-identical output.

The rows, which are nearly all of a large report, are written by fixed
templates rather than walked by an encoder; each block binds its check_id
and d1 (and, in JSON, its exploratory flag) once.  The output is byte for
byte what ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``
and a default-dialect ``csv.writer`` with newline line endings emit for the
same rows; the test suite keeps that encoder route as the reference.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "STATUSES",
    "Block",
    "Row",
    "margin_block",
    "margin_row",
    "rows_from_outcome",
    "rows_from_step_report",
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


@dataclass(frozen=True, slots=True)
class Block:
    """One claim at one d1 over ascending d2s: the margin, status and note
    of each d2; make it with ``margin_block``."""

    check_id: str
    d1: int
    d2s: Sequence[int]
    margins: Sequence[Optional[float]]
    statuses: Sequence[str]
    notes: Sequence[str]
    exploratory: bool = False

    def __len__(self) -> int:
        return len(self.d2s)

    def __iter__(self) -> Iterator[Row]:
        for cells in zip(self.d2s, self.margins, self.statuses, self.notes):
            yield Row(self.check_id, self.d1, *cells, self.exploratory)


def margin_block(check_id: str, d1: int, d2s: Sequence[int],
                 margins: Sequence[Optional[float]], floor: float,
                 note: Union[str, Sequence[str]] = "", exploratory: bool = False,
                 holds: bool = True) -> Block:
    """Block of signed margins, one per d2, under the one verdict rule.

    holds says whether the claim's side conditions (a reference table, an
    exact certificate, a sign program) are met.  A row passes iff they hold
    and margin > floor, is inconclusive iff they hold and |margin| <= floor
    (the note gains "inconclusive"), and fails otherwise; a None margin is a
    form that does not apply (the note defaults to "not applicable").  note
    is shared by the column or given per row.  Tolerance-style checks, whose
    margin is tol - residual, use floor 0.0.
    """
    statuses = ["not_applicable" if margin is None
                else "pass" if holds and margin > floor
                else "inconclusive" if holds and abs(margin) <= floor
                else "fail"
                for margin in margins]
    notes = [(n + "; " if n else "") + "inconclusive" if s == "inconclusive"
             else n or "not applicable" if s == "not_applicable" else n
             for s, n in zip(statuses, [note] * len(statuses)
                             if isinstance(note, str) else note)]
    return Block(check_id, d1, d2s, margins, statuses, notes, exploratory)


def margin_row(check_id: str, d1: int, d2: int, margin: Optional[float],
               floor: float, note: str = "", exploratory: bool = False,
               holds: bool = True) -> Row:
    """The one-row case of ``margin_block``, for a check of a single claim."""
    (row,) = margin_block(check_id, d1, (d2,), (margin,), floor, note,
                          exploratory, holds)
    return row


def rows_from_outcome(rows: Sequence[Row], d1: int,
                      d2s: Optional[Sequence[int]] = None) -> list:
    """The block of the rows of one claim, each from a check of its own,
    stamped with the d1 (and d2s, where given) of the program that runs
    them; an auxiliary check is a function of y alone and leaves its own d1
    and d2 at 0."""
    margins, statuses, notes = zip(*[(r.margin, r.status, r.note) for r in rows])
    return [Block(rows[0].check_id, d1, [r.d2 for r in rows] if d2s is None else list(d2s),
                  margins, statuses, notes, rows[0].exploratory)]


def rows_from_step_report(d1: int, d2s: Sequence[int],
                          margins: Mapping[str, Sequence[Optional[float]]],
                          floor: float, exploratory: bool = False) -> list:
    """Blocks of the step forms evaluated over d2s: form -> margin column,
    with None where a form does not apply."""
    return [margin_block(form, d1, d2s, column, floor, "", exploratory)
            for form, column in margins.items()]


def summarize(blocks: Iterable[Block]) -> dict:
    """Rows per disjoint bucket.

    Exploratory rows are quarantined first so open-conjecture territory can
    never mask a regression in proved territory; not-applicable and
    inconclusive rows are counted but do not fail a run.
    """
    counts = dict.fromkeys(_BUCKETS, 0)
    for block in blocks:
        for status in STATUSES:
            counts["exploratory" if block.exploratory else status] += (
                block.statuses.count(status))
    return counts


_ORDER = attrgetter("check_id", "d1")
_INF = float("inf")


def _json_margin(margin: Optional[float]) -> str:
    """A margin as json.dumps(allow_nan=False) writes it; float.__repr__
    keeps a numpy.float64 a plain float."""
    if margin is None:
        return "null"
    if margin != margin or margin == _INF or margin == -_INF:
        raise ValueError("Out of range float values are not JSON compliant: "
                         + repr(margin))
    return float.__repr__(margin)


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


def render_csv(blocks: Sequence[Block], header: Mapping[str, object],
               summary: Optional[dict] = None) -> str:
    """CSV report; summary is ``summarize(blocks)``, computed here if not
    given."""
    blocks = sorted(blocks, key=_ORDER)
    if summary is None:
        summary = summarize(blocks)
    spec = json.dumps(header.get("spec", {}), sort_keys=True, separators=(",", ":"))
    head = (f"# varcomp {header.get('version', '')}\n"
            f"# spec: {spec}\n"
            "# summary: " + " ".join(f"{k}={summary[k]}" for k in _BUCKETS) + "\n"
            + ",".join(CSV_COLUMNS) + "\n")
    quoted = _CsvFields()
    repr_ = float.__repr__
    parts = [head]
    for b in blocks:
        lead = "%s,%d," % (quoted[b.check_id], b.d1)
        parts.append("".join([
            "%s%d,%s,%s,%s\n" % (
                lead, d2, "" if margin is None else repr_(margin),
                "true" if status == "pass" else "false", quoted[note])
            for d2, margin, status, note in zip(b.d2s, b.margins, b.statuses,
                                                b.notes)]))
    return "".join(parts)


def render_json(blocks: Sequence[Block], header: Mapping[str, object],
                summary: Optional[dict] = None) -> str:
    """JSON report; summary is ``summarize(blocks)``, computed here if not
    given."""
    blocks = sorted(blocks, key=_ORDER)
    if summary is None:
        summary = summarize(blocks)

    def top(key: str, value) -> str:
        # '{\n  "key": value\n}', the top-level dict holding just this key
        return json.dumps({key: value}, indent=2, sort_keys=True, allow_nan=False)

    # the payload's keys sort as header < rows < summary: drop the closing
    # '\n}' of the header block and the opening '{' of the summary block
    parts = [top("header", {"tool": "varcomp", **header})[:-2] + ',\n  "rows": [']
    enc = encode_basestring_ascii
    for b in blocks:
        if not b:
            continue
        # one row at depth 2 of the indent=2 payload, keys in sorted order,
        # preceded by its ',' separator
        lead = ',\n    {\n      "check_id": %s,\n      "d1": %d,\n      "d2": ' % (
            enc(b.check_id), b.d1)
        mid = ',\n      "exploratory": %s,\n      "margin": ' % (
            "true" if b.exploratory else "false")
        parts.append("".join([
            '%s%d%s%s,\n      "note": %s,\n      "pass": %s\n    }' % (
                lead, d2, mid, _json_margin(margin), enc(note),
                "true" if status == "pass" else "false")
            for d2, margin, status, note in zip(b.d2s, b.margins, b.statuses,
                                                b.notes)]))
    if len(parts) > 1:
        parts[1] = parts[1][1:]  # no separator before the first row
        parts.append("\n  ]")
    else:
        parts.append("]")
    parts.append("," + top("summary", summary)[1:] + "\n")
    return "".join(parts)


def write_report(blocks: Sequence[Block], header: Mapping[str, object],
                 fmt: str, path: Optional[str],
                 summary: Optional[dict] = None) -> str:
    """Render and either write atomically to path or return for stdout;
    summary is passed on to the renderer.

    The temp-file + rename dance guarantees no partial report survives an
    abort mid-write.
    """
    if fmt == "csv":
        text = render_csv(blocks, header, summary)
    elif fmt == "json":
        text = render_json(blocks, header, summary)
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
