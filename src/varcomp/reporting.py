"""Report blocks, the one verdict rule, summary buckets, and deterministic
CSV/JSON emission.

A ``Block`` is the one record of a result: a claim at one d1 over
ascending d2s, with a signed margin, a status and a note per d2.  A check of
a single claim returns a one-row block, and a report is a list of blocks,
exactly one per (check_id, d1), so ordering the blocks by (check_id, d1)
orders the rows by (check_id, d1, d2).

Every status comes from ``margin_block``, a block's only constructor, under
one rule and one threshold, ``STRICTNESS_FLOOR``: a row passes iff its side
conditions hold and its signed margin beats the floor, is inconclusive iff
they hold and the margin is within the floor, fails otherwise, and is not
applicable when it has no margin.
``summarize`` counts the statuses block by block, and every row of
an exploratory block in a bucket of its own; ``counts_text`` is the one
text of those counts, and ``claim_lines`` the one verdict line per claim
that ``prove`` prints.

The CSV schema is fixed: columns check_id,d1,d2,margin,pass,note with the
header row always present; lines starting with '#' before it carry the tool
version, the run spec echo, and the summary.  JSON mirrors the same fields
per row plus an explicit exploratory flag.  Floats are emitted with
``float.__repr__`` (shortest round-trip), so identical inputs produce
byte-identical output.

A report is rendered in two steps.  ``render_rows`` turns blocks into
``Rendered`` parts, the rows of each block as one text with the block's
(check_id, d1), exploratory flag, status counts, worst margin and first
inconclusive d2; ``programs.chain_parts`` runs it per run of a d1 chain,
in the process that computed it, so a block may come as several parts, in
d2 order.  Then one piece generator per format (``_PIECES``) orders the
parts stably by (check_id, d1), sums their counts and yields the report as
pieces: the header block, each part's text and the summary.
``write_rendered`` writes those pieces one at a time, so the report is
never held as one string: encoded, into a ``Destination`` (a temp file of
its own beside a path, created before any work) or stdout's byte buffer,
or as text into a text-only stdout; ``Destination`` owns the report file
and its errors.  ``write_report`` runs both steps.  ``render_csv`` and
``render_json``, the joins of the same pieces, are the str renderers.

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
import errno
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import VarcompError

__all__ = [
    "STRICTNESS_FLOOR",
    "STATUSES",
    "Block",
    "Rendered",
    "margin_block",
    "relative_gap",
    "gap_block",
    "rows_from_outcome",
    "rows_from_step_report",
    "summarize",
    "counts_text",
    "claim_lines",
    "Destination",
    "render_rows",
    "render_csv",
    "render_json",
    "write_report",
    "write_rendered",
    "write_encoded",
]

CSV_COLUMNS = ("check_id", "d1", "d2", "margin", "pass", "note")

#: Absolute floor below which a margin is treated as inconclusive rather
#: than certified: binary64 cannot tell its sign at roundoff scale, so a
#: margin within it proves nothing either way.
STRICTNESS_FLOOR = 1e-12

#: Statuses of a report row; with "exploratory" they are the summary buckets.
STATUSES = ("pass", "fail", "inconclusive", "not_applicable")
_BUCKETS = STATUSES + ("exploratory",)


class Block:
    """One claim at one d1 over ascending d2s: the margin, status and note
    of each d2; make it with ``margin_block``.  Immutable, equal field by
    field, and len() is its row count.  A plain slotted class, not a
    dataclass: ``dataclasses`` imports ``inspect``, a start-up cost."""

    __slots__ = ("check_id", "d1", "d2s", "margins", "statuses", "notes", "exploratory")

    def __init__(self, check_id: str, d1: int, d2s: Sequence[int],
                 margins: Sequence[Optional[float]], statuses: Sequence[str],
                 notes: Sequence[str], exploratory: bool = False) -> None:
        for name, value in zip(Block.__slots__, (check_id, d1, d2s, margins, statuses,
                                                 notes, exploratory)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Block is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Block:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in Block.__slots__)

    def __repr__(self):
        return "Block(%s)" % ", ".join(f"{name}={getattr(self, name)!r}"
                                       for name in Block.__slots__)

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
                 margins: Sequence[Optional[float]],
                 note: Union[str, Sequence[str]] = "", exploratory: bool = False,
                 holds: bool = True) -> Block:
    """Block of signed margins, one per d2, under the one verdict rule.

    holds says whether the claim's side conditions (a reference table, an
    exact certificate, a sign program) are met.  A row passes iff they hold
    and margin > ``STRICTNESS_FLOOR``, is inconclusive iff they hold and
    |margin| <= the floor (the note gains "inconclusive"), and fails
    otherwise; a None margin is a form that does not apply (the note
    defaults to "not applicable").  note is shared by the column or given
    per row.  A tolerance-style margin, tol - residual, is judged at the
    same floor; a check that two routes agree takes ``relative_gap`` as its
    residual, through ``gap_block``.
    """
    statuses = ["not_applicable" if margin is None
                else "pass" if holds and margin > STRICTNESS_FLOOR
                else "inconclusive" if holds and abs(margin) <= STRICTNESS_FLOOR
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
    relative tolerance tol: margin tol - relative_gap(pairs), judged by
    ``margin_block`` like every other margin."""
    return margin_block(check_id, d1, [0], [tol - relative_gap(pairs)], note, holds=holds)


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
    with None where a form does not apply."""
    return [margin_block(form, d1, d2s, column, "", exploratory)
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


def counts_text(counts: Mapping[str, int]) -> str:
    """'pass=N fail=N inconclusive=N not_applicable=N exploratory=N': the
    one text of the counts ``summarize`` gives, in bucket order."""
    return " ".join(f"{k}={counts[k]}" for k in _BUCKETS)


def claim_lines(parts: Iterable[Rendered]) -> list:
    """One verdict line per claim (check_id) of the parts, in check_id
    order; a claim's parts are its runs, in d2 order.

    A claim with a failed row prints FAIL, one with inconclusive rows and no
    failure INCONCLUSIVE with the first inconclusive d2, and any other PASS;
    each line gives the claim's rows and its worst margin.
    """
    claims: dict = {}
    for part in parts:
        claims.setdefault(part.check_id, []).append(part)
    lines = []
    for claim, runs in sorted(claims.items()):
        status = dict(zip(STATUSES, map(sum, zip(*(p.counts for p in runs)))))
        rows = sum(status.values())
        worsts = [p.worst for p in runs if p.worst is not None]
        worst = f"worst margin {min(worsts):.3e}" if worsts else "not applicable"
        if status["fail"]:
            lines.append(f"FAIL {claim} ({rows} rows, {worst})")
        elif status["inconclusive"]:
            first = next(p.first_inconclusive for p in runs
                         if p.first_inconclusive is not None)
            lines.append(f"INCONCLUSIVE {claim} {status['inconclusive']}/{rows} "
                         f"(first at d2={first}, {worst})")
        else:
            lines.append(f"PASS {claim} ({rows} rows, {worst})")
    return lines


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
    row starts with its ',' separator, which the report drops before its
    first row."""
    blocks = sorted(blocks, key=_ORDER)
    if fmt is None:
        return [_rendered(b, "") for b in blocks]
    texts = _render_rows(blocks, *_format(_ROW_FORMATS, fmt))
    return [_rendered(b, text) for b, text in zip(blocks, texts)]


def _format(table: Mapping[str, object], fmt: str):
    """The entry of the report format fmt in table."""
    if fmt not in table:
        raise ValueError(f"unknown report format {fmt!r}")
    return table[fmt]


def _csv_pieces(parts: Iterable[Rendered], header: Mapping[str, object]) -> Iterator[str]:
    """The CSV report of the parts: the '#' lines and the column row, then
    each part's rows."""
    parts = sorted(parts, key=_ORDER)
    spec = json.dumps(header.get("spec", {}), sort_keys=True, separators=(",", ":"))
    yield (f"# varcomp {header.get('version', '')}\n"
           f"# spec: {spec}\n"
           f"# summary: {counts_text(summarize(parts))}\n"
           + ",".join(CSV_COLUMNS) + "\n")
    for part in parts:
        yield part.text


def _json_pieces(parts: Iterable[Rendered], header: Mapping[str, object]) -> Iterator[str]:
    """The JSON report of the parts: the header block up to the rows' '[',
    each part's rows, the first without its ',' separator, then the
    closing ']' and the summary block."""
    parts = sorted(parts, key=_ORDER)

    def top(key: str, value) -> str:
        # '{\n  "key": value\n}', the top-level dict holding just this key
        return json.dumps({key: value}, indent=2, sort_keys=True, allow_nan=False)

    # the payload's keys sort as header < rows < summary: drop the closing
    # '\n}' of the header block and the opening '{' of the summary block
    yield top("header", {"tool": "varcomp", **header})[:-2] + ',\n  "rows": ['
    end = "," + top("summary", summarize(parts))[1:] + "\n"
    rows = (p.text for p in parts if p.text)
    first = next(rows, None)
    if first is None:
        yield "]" + end
        return
    yield first[1:]
    yield from rows
    yield "\n  ]" + end


#: Per format, the generator of a report's pieces from its parts and header.
_PIECES = {"csv": _csv_pieces, "json": _json_pieces}


def render_csv(parts: Iterable[Rendered], header: Mapping[str, object]) -> str:
    """CSV report of the parts ``render_rows(blocks, "csv")`` gave, from
    one or several calls, the parts of one (check_id, d1) in their given
    order, under the summary of their counts."""
    return "".join(_csv_pieces(parts, header))


def render_json(parts: Iterable[Rendered], header: Mapping[str, object]) -> str:
    """JSON report of the parts ``render_rows(blocks, "json")`` gave, from
    one or several calls, the parts of one (check_id, d1) in their given
    order, with the summary of their counts."""
    return "".join(_json_pieces(parts, header))


_SERIAL = count()  # the N of each Destination's temp file


class Destination:
    """Where ``write_rendered`` puts a report: stdout without a path (None);
    with one, a temp file of its own, path + ".PID-N.tmp" (N counts the
    process's destinations), created exclusively here, before any work is
    done, so a path that cannot be written, a directory or '' among them,
    fails first, and two runs that write one path never share a temp file.
    ``write_rendered`` renames the finished temp file onto path; leaving the
    with block removes it if it is still there, so no partial report
    survives an abort.  Each OSError of the file is one VarcompError that
    names path and the reason (``_write_errors``)."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path, self.fh = path, None
        if path is not None:
            self.tmp = f"{path}.{os.getpid()}-{next(_SERIAL)}.tmp"
            with self._write_errors():
                if not path:
                    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
                if os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                self.fh = open(self.tmp, "xb")  # O_EXCL, mode 0o666 less the umask

    @contextmanager
    def _write_errors(self) -> Iterator[None]:
        """The OSErrors of the path's file as one VarcompError."""
        try:
            yield
        except OSError as exc:
            raise VarcompError(f"cannot write report {self.path}: "
                               f"{exc.strerror or exc}") from exc

    def __enter__(self) -> Destination:
        return self

    def __exit__(self, *exc) -> None:
        if self.fh is not None:
            self.fh.close()
            if os.path.exists(self.tmp):
                os.remove(self.tmp)


def write_report(blocks: Iterable[Block], header: Mapping[str, object],
                 fmt: str, path: Optional[str]) -> None:
    """Render the blocks and write their report atomically to path, or to
    stdout without one; ``write_rendered`` of ``render_rows``.  A path that
    cannot be written raises ``Destination``'s VarcompError, not OSError."""
    with Destination(path) as dest:
        write_rendered(render_rows(blocks, fmt), header, fmt, dest)


def write_rendered(parts: Iterable[Rendered], header: Mapping[str, object],
                   fmt: str, dest: Destination) -> None:
    """Write the report of parts rendered in fmt to dest, one piece at a
    time (``_PIECES``): UTF-8 encoded into its temp file (its errors are
    ``Destination``'s), which then replaces its path; or, without a path,
    into stdout's byte buffer, encoded as stdout encodes, after what stdout
    holds buffered, or as text into a text-only stdout such as an io.StringIO."""
    pieces = _format(_PIECES, fmt)(parts, header)
    if dest.fh is not None:
        with dest._write_errors():
            for piece in pieces:
                write_encoded(dest.fh, piece)
            dest.fh.close()
            os.replace(dest.tmp, dest.path)
        return
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if raw is None:
        for piece in pieces:
            out.write(piece)
        return
    out.flush()
    for piece in pieces:
        write_encoded(raw, piece, out.encoding, out.errors)


def write_encoded(raw, text: str, encoding: str = "utf-8", errors: str = "strict") -> None:
    """Write text to the binary stream raw, encoded, in 1 MiB slices, so no
    encoded copy of the whole text is held next to it.  A short write (an
    unbuffered stdout whose reader has gone) is written on until the write
    raises, so no part of the text is dropped unseen."""
    for i in range(0, len(text), 1 << 20):
        data = memoryview(text[i:i + (1 << 20)].encode(encoding, errors))
        while data:
            data = data[raw.write(data):]
