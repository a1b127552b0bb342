"""Report blocks, the one verdict rule, summary buckets, and deterministic
CSV/JSON emission.

A ``Block`` is the one record of a result: a claim at one d1 over
ascending d2s, with a signed margin, a status and a note per d2.  A check of
a single claim returns a one-row block, and a report is a list of blocks,
exactly one per (check_id, d1), so ordering the blocks by (check_id, d1)
orders the rows by (check_id, d1, d2).

Every status comes from ``margin_block``, a block's only constructor: a row
passes iff its side conditions hold and its signed margin beats the
strictness floor, is inconclusive iff they hold and the margin is within
the floor, fails otherwise, and is not applicable when it has no margin.
``summarize`` counts the statuses block by block, and every row of
an exploratory block in a bucket of its own.

The CSV schema is fixed: columns check_id,d1,d2,margin,pass,note with the
header row always present; lines starting with '#' before it carry the tool
version, the run spec echo, and the summary.  JSON mirrors the same fields
per row plus an explicit exploratory flag.  Floats are emitted with
``float.__repr__`` (shortest round-trip), so identical inputs produce
byte-identical output.

A report is rendered in two steps.  ``render_rows`` turns blocks into
``Rendered`` parts, the rows of each block as one text with the block's
(check_id, d1), exploratory flag, status counts, worst margin and first
inconclusive d2; ``render_csv`` and ``render_json`` order those parts
stably by (check_id, d1), sum their counts and join them under the header
and summary.  ``write_report`` runs both steps; ``programs.chain_parts``
runs the first step per run of a d1 chain, in the process that computed
it, so a block may come as several parts, in d2 order.

The rows, which are nearly all of a large report, are written column by
column rather than walked by an encoder or formatted one by one: each block
fixes the text before its d2 (check_id and d1) and between its d2 and
margin (in JSON, the exploratory flag) once, its margins become one list of
texts in one pass, each d2 column shared by several blocks is formatted
once, and each distinct (status, note) pair once; the block's rows are then
one join of those columns.  The output is byte for byte what
``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)`` and a
default-dialect ``csv.writer`` with newline line endings emit for the
same rows; the test suite keeps that encoder route as the reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

__all__ = [
    "STATUSES",
    "Block",
    "Rendered",
    "margin_block",
    "relative_gap",
    "gap_block",
    "rows_from_outcome",
    "rows_from_step_report",
    "summarize",
    "render_rows",
    "render_csv",
    "render_json",
    "write_report",
    "write_rendered",
]

CSV_COLUMNS = ("check_id", "d1", "d2", "margin", "pass", "note")

#: Statuses of a report row; with "exploratory" they are the summary buckets.
STATUSES = ("pass", "fail", "inconclusive", "not_applicable")
_BUCKETS = STATUSES + ("exploratory",)


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

    @property
    def counts(self) -> tuple:
        """Rows per status, in ``STATUSES`` order."""
        return tuple(map(self.statuses.count, STATUSES))


class Rendered(NamedTuple):
    """The rows of one block as report text, from ``render_rows``, with the
    block's key, exploratory flag, rows per status (``Block.counts``), worst
    margin (None if it has none) and first inconclusive d2 (None if none)."""

    check_id: str
    d1: int
    exploratory: bool
    counts: tuple
    worst: Optional[float]
    first_inconclusive: Optional[int]
    text: str


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
    margin is tol - residual, use floor 0.0; a check that two routes agree
    takes ``relative_gap`` as its residual, through ``gap_block``.
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


def relative_gap(pairs: Iterable[tuple[float, float]]) -> float:
    """The residual of a two-route check: the largest relative gap
    |l - r| / max(|l|, |r|) over its (l, r) pairs: 0.0 where l == r, and NaN
    where a side is NaN or only one side is infinite, so that such a pair
    fails the check."""
    gaps = [abs(left - right) / max(abs(left), abs(right))
            for left, right in pairs if left != right]
    if any(math.isnan(gap) for gap in gaps):
        return math.nan
    return max(gaps, default=0.0)


def gap_block(check_id: str, d1: int, pairs: Iterable[tuple[float, float]],
              tol: float, note: str = "", holds: bool = True) -> Block:
    """One-row block (d2 0) of a claim that two routes agree within the
    relative tolerance tol: margin tol - relative_gap(pairs) at floor 0."""
    return margin_block(check_id, d1, [0], [tol - relative_gap(pairs)], 0.0, note,
                        holds=holds)


def rows_from_outcome(blocks: Sequence[Block], d1: int,
                      d2s: Optional[Sequence[int]] = None) -> list:
    """The one-row blocks of one claim, each from a check of its own, joined
    into one block stamped with the d1 (and d2s, where given) of the program
    that runs them; an auxiliary check is a function of y alone and leaves
    its own d1 and d2 at 0."""
    columns = [list(chain.from_iterable(map(attrgetter(name), blocks)))
               for name in ("d2s", "margins", "statuses", "notes")]
    if d2s is not None:
        columns[0] = list(d2s)
    return [Block(blocks[0].check_id, d1, *columns, blocks[0].exploratory)]


def rows_from_step_report(d1: int, d2s: Sequence[int],
                          margins: Mapping[str, Sequence[Optional[float]]],
                          exploratory: bool = False) -> list:
    """Blocks of the step forms evaluated over d2s: form -> margin column,
    with None where a form does not apply, at ``varband.STRICTNESS_FLOOR``."""
    from .varband import STRICTNESS_FLOOR  # not at import: ``varcomp.Block`` loads no band

    return [margin_block(form, d1, d2s, column, STRICTNESS_FLOOR, "", exploratory)
            for form, column in margins.items()]


def summarize(blocks: Iterable[Union[Block, Rendered]]) -> dict:
    """Rows per disjoint bucket, of blocks or of their ``Rendered`` parts.

    Exploratory rows are quarantined first so open-conjecture territory can
    never mask a regression in proved territory; not-applicable and
    inconclusive rows are counted but do not fail a run.
    """
    counts = dict.fromkeys(_BUCKETS, 0)
    for block in blocks:
        for status, n in zip(STATUSES, block.counts):
            counts["exploratory" if block.exploratory else status] += n
    return counts


_ORDER = attrgetter("check_id", "d1")
_NON_FINITE = frozenset(("nan", "inf", "-inf"))  # float.__repr__ of nan, inf, -inf


class _Memo(dict):
    """A dict that computes each missing value once, as fn(key)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _csv_field(text: str) -> str:
    """text quoted exactly as csv.writer quotes it, as the second field of a
    two-field row: a lone empty field would be written as '""', an empty
    field among others as nothing, which is what every report row needs."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(("x", text))
    return buf.getvalue()[2:-1]


def _margin_texts(margins: Sequence[Optional[float]], none: str) -> list:
    """float.__repr__ of each margin, none for a None; float.__repr__
    keeps a numpy.float64 a plain float."""
    repr_ = float.__repr__
    try:
        return list(map(repr_, margins))
    except TypeError:  # a None among them
        return [none if m is None else repr_(m) for m in margins]


def _render_rows(blocks: Sequence[Block], lead, mid, tail, none: str,
                 finite: bool) -> Iterator[str]:
    """The rows of each block as one string, '' for an empty block.

    A row is lead(block), its d2, mid(block), its margin and tail((status,
    note)), so each block is assembled column by column: the d2 texts are
    made once per d2 column object (the blocks of a sweep column or a prove
    chain share one), the tails once per (status, note) pair of the render,
    and the margin texts in one pass.  finite rejects inf and nan margins as
    json.dumps(allow_nan=False) does, naming the first in row order.
    """
    d2_texts: dict = {}  # id(d2s) -> (d2s, its texts); d2s held so no id is reused
    tails = _Memo(tail)
    for b in blocks:
        held = d2_texts.get(id(b.d2s))
        if held is None:
            held = d2_texts[id(b.d2s)] = (b.d2s, list(map("%d".__mod__, b.d2s)))
        margins = _margin_texts(b.margins, none)
        if finite and not _NON_FINITE.isdisjoint(margins):
            i = next(i for i, t in enumerate(margins) if t in _NON_FINITE)
            raise ValueError("Out of range float values are not JSON compliant: "
                             + repr(b.margins[i]))
        yield "".join(chain.from_iterable(zip(
            repeat(lead(b)), held[1], repeat(mid(b)), margins,
            map(tails.__getitem__, zip(b.statuses, b.notes)))))


#: Per format, the arguments of ``_render_rows`` after the blocks.  A JSON
#: row is one object at depth 2 of the indent=2 payload, keys in sorted
#: order, preceded by its ',' separator.
_ROW_FORMATS = {
    "csv": (
        lambda b: "%s,%d," % (_csv_field(b.check_id), b.d1),
        lambda b: ",",
        lambda sn: ",%s,%s\n" % ("true" if sn[0] == "pass" else "false",
                                   _csv_field(sn[1])),
        "", False),
    "json": (
        lambda b: ',\n    {\n      "check_id": %s,\n      "d1": %d,\n      "d2": ' % (
            encode_basestring_ascii(b.check_id), b.d1),
        lambda b: ',\n      "exploratory": %s,\n      "margin": ' % (
            "true" if b.exploratory else "false"),
        lambda sn: ',\n      "note": %s,\n      "pass": %s\n    }' % (
            encode_basestring_ascii(sn[1]), "true" if sn[0] == "pass" else "false"),
        "null", True),
}


def _worst(margins: Sequence[Optional[float]]) -> Optional[float]:
    """min of the margins that are not None; None if there is none."""
    try:
        return min(margins, default=None)
    except TypeError:  # a None among them
        return min((m for m in margins if m is not None), default=None)


def _rendered(b: Block, text: str) -> Rendered:
    counts = b.counts
    first = b.d2s[b.statuses.index("inconclusive")] if counts[2] else None
    return Rendered(b.check_id, b.d1, b.exploratory, counts, _worst(b.margins),
                    first, text)


def render_rows(blocks: Iterable[Block], fmt: Optional[str]) -> list:
    """The ``Rendered`` rows of each block in fmt ("csv" or "json"; None
    renders no text, only the counts, worst margins and first inconclusive
    d2s), in (check_id, d1) order; an empty block renders as ''.  Every JSON
    row starts with its ',' separator, which ``render_json`` drops before
    the first row of the report."""
    blocks = sorted(blocks, key=_ORDER)
    if fmt is None:
        return [_rendered(b, "") for b in blocks]
    try:
        row_format = _ROW_FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown report format {fmt!r}") from None
    texts = _render_rows(blocks, *row_format)
    return [_rendered(b, text) for b, text in zip(blocks, texts)]


def render_csv(parts: Iterable[Rendered], header: Mapping[str, object],
               summary: Optional[dict] = None) -> str:
    """CSV report of the parts ``render_rows(blocks, "csv")`` gave, from
    one or several calls, the parts of one (check_id, d1) in their given
    order; summary is ``summarize(parts)``, computed here if not given."""
    parts = sorted(parts, key=_ORDER)
    if summary is None:
        summary = summarize(parts)
    spec = json.dumps(header.get("spec", {}), sort_keys=True, separators=(",", ":"))
    head = (f"# varcomp {header.get('version', '')}\n"
            f"# spec: {spec}\n"
            "# summary: " + " ".join(f"{k}={summary[k]}" for k in _BUCKETS) + "\n"
            + ",".join(CSV_COLUMNS) + "\n")
    return "".join([head, *(p.text for p in parts)])


def render_json(parts: Iterable[Rendered], header: Mapping[str, object],
                summary: Optional[dict] = None) -> str:
    """JSON report of the parts ``render_rows(blocks, "json")`` gave, from
    one or several calls, the parts of one (check_id, d1) in their given
    order; summary is ``summarize(parts)``, computed here if not given."""
    parts = sorted(parts, key=_ORDER)
    if summary is None:
        summary = summarize(parts)

    def top(key: str, value) -> str:
        # '{\n  "key": value\n}', the top-level dict holding just this key
        return json.dumps({key: value}, indent=2, sort_keys=True, allow_nan=False)

    # the payload's keys sort as header < rows < summary: drop the closing
    # '\n}' of the header block and the opening '{' of the summary block
    out = [top("header", {"tool": "varcomp", **header})[:-2] + ',\n  "rows": [']
    rows = [p.text for p in parts if p.text]
    if rows:
        out.append(rows[0][1:])  # no separator before the first row
        out += rows[1:]
        out.append("\n  ]")
    else:
        out.append("]")
    out.append("," + top("summary", summary)[1:] + "\n")
    return "".join(out)


def write_report(blocks: Iterable[Block], header: Mapping[str, object],
                 fmt: str, path: Optional[str],
                 summary: Optional[dict] = None) -> str:
    """Render the blocks and either write the report atomically to path or
    return it for stdout; ``write_rendered`` of ``render_rows``."""
    return write_rendered(render_rows(blocks, fmt), header, fmt, path, summary)


def write_rendered(parts: Iterable[Rendered], header: Mapping[str, object],
                   fmt: str, path: Optional[str],
                   summary: Optional[dict] = None) -> str:
    """Assemble the report of parts rendered in fmt and either write it
    atomically to path or return it for stdout; summary is passed on to the
    renderer.

    The temp-file + rename dance guarantees no partial report survives an
    abort mid-write.
    """
    if fmt == "csv":
        text = render_csv(parts, header, summary)
    elif fmt == "json":
        text = render_json(parts, header, summary)
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
