"""Trace-line format plus CSV/JSON serialization of runs.

A trace file holds newline-delimited movement lines, two per simultaneous
move, node 1 first:

    M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00
    M 0.00100 0 (10.00, 00.00), (38.00, 00.00), 28.00

Fields: marker ``M``, move duration in seconds (5 decimals), node id,
initial (x, y), new (x, y), step length. The model is 1-D, so y prints as
the constant ``00.00``. Optional ``STEP-k`` header lines group the pairs.
Every move spans ``MOVE_INTERVAL_S``, so ``format_trace`` writes that time
and ``parse_trace`` checks the time of each pair but keeps none.

Positions and steps are integers, in a trace as in a CSV: ``-?[0-9]+``,
which a trace may follow with a fraction of zeros (``format_trace`` writes
``.00``). Both readers convert them to exact ints.

A move on every path is a row of five ints, ``(step, mn0_init, mn0_new,
mn1_init, mn1_new)`` in ``MoveRecord._fields`` order, which ``CSV_HEADER``
and the JSON move objects follow: ``read_csv`` and ``parse_trace`` return
lists of plain tuples, and the writers take any iterable of rows, records
included. Each reader checks every row's position-update identities inline
and builds a :class:`MoveRecord` only for a row that fails them, to raise
its message.

``parse_trace`` reads ``format_trace``'s own text (without step headers) in
one scan, a pattern that matches it move by move. Any other text (headers,
another node order, other spellings of numbers, CRLF endings, an error) is
read line by line from the first move the scan did not take; that pass
alone decides what is accepted beyond the scan's text and reports every
error.

All emitters are deterministic: equal inputs give byte-identical output
(UTF-8, LF line endings). ``format_trace`` renders each move from one
template of both lines. ``write_json`` writes the bytes of the stdlib's
``json.dumps`` at an indent of 2: a small walker indents the document, the
stdlib's encoder writes its scalars, and a :class:`JsonRecords` list of
moves renders from one template per move. Each writer joins the pieces of
one generator, none of more than ``_CHUNK`` moves; a CSV row, or a move
of a :class:`JsonRecords` given a brink, gets its outcome from
``crossing(row[2], row[4], brink)`` as it is written. ``read_csv`` and
``parse_trace`` convert each number text to an int once per call, so equal
numbers share one int.

The stdlib codecs load on first use: ``read_csv`` imports ``csv``, and the
first JSON document rendered imports ``json``. So ``parse_trace``,
``format_trace`` and ``write_csv`` load neither.
"""

from __future__ import annotations

import io
import re
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, islice, repeat
from types import GeneratorType

from .model import (MOVE_INTERVAL_S, JsonRecords, MoveRecord, Outcome, Row,
                    abbreviate, crossing)

CSV_HEADER = (*MoveRecord._fields, "outcome")
_CHUNK = 1024  # moves in one piece of a writer's text


class TraceParseError(ValueError):
    """Trace text that does not match the movement-line grammar."""

    def __init__(self, reason: str, column: int, line: int | None = None):
        where = f"column {column}" if line is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {reason}")
        self.reason = reason
        self.column = column
        self.line = line


class CsvFormatError(ValueError):
    """CSV text that does not match the run-record schema."""


def _pieces(template: str, rows: Iterable[tuple], sep: str) -> Iterator[str]:
    """``template % row`` for each row, joined by ``sep``, in pieces of
    ``_CHUNK`` rows; each piece after the first opens with ``sep``."""
    rows, lead = iter(rows), ""
    while chunk := list(islice(rows, _CHUNK)):
        yield lead + sep.join([template % row for row in chunk])
        lead = sep


# An integer text: its sign, then its digits after any leading zeros.
_INTEGER = re.compile("(-?)0*([0-9]+)").fullmatch


class _Ints(dict):
    """The int of each integer text, ``-?[0-9]+``, converted once, so equal
    texts share one. Any other text raises KeyError (``int()`` alone would
    take "+", "_", spaces and non-ASCII digits), and one with more
    significant digits than ``int()`` converts raises ValueError."""

    def __missing__(self, text: str) -> int:
        m = _INTEGER(text)
        if m is None:
            raise KeyError(text)
        try:
            value = int(m[2])
        except ValueError:
            raise ValueError(
                "more significant digits than sys.get_int_max_str_digits() "
                f"allows ({sys.get_int_max_str_digits()})") from None
        self[text] = value = -value if m[1] else value
        return value


# One movement line, with the node id to fill in first and then the initial
# x, new x and step, each an int that ``%d`` prints exactly.
_LINE = f"M {MOVE_INTERVAL_S:.5f} %d (%%d.00, 00.00), (%%d.00, 00.00), %%d.00"


_UNSIGNED = r"[0-9]+(?:\.[0-9]+)?"
_NUMBER = re.compile(r"-?[0-9]+(?:\.0+)?")
# A signed number with any fraction, group 1: where a non-zero one starts.
_FRACTIONAL = re.compile(r"-?[0-9]+(\.[0-9]+)?").match

# The movement-line grammar, piece by piece: a str is literal text, a pattern
# one captured field. ``_MOVE`` is their concatenation; ``_reject`` walks the
# same pieces to name the first one a rejected line breaks.
_GRAMMAR = (
    ("marker", "M"),
    ("separator", " "),
    ("move time", re.compile(_UNSIGNED)),
    ("separator", " "),
    ("node id", re.compile("[01](?![^ ])")),
    ("separator", " "),
    ("open paren", "("),
    ("initial x", _NUMBER),
    ("initial y", ", 00.00), "),
    ("open paren", "("),
    ("new x", _NUMBER),
    ("new y", ", 00.00), "),
    ("step length", _NUMBER),
)
_MOVE = re.compile("".join(
    re.escape(p) if isinstance(p, str) else f"({p.pattern})" for _, p in _GRAMMAR
)).fullmatch


def _reject(line: str) -> NoReturn:  # noqa: F821 (never imported: annotation only)
    """Raise the :class:`TraceParseError` for a line that ``_MOVE`` rejects."""
    pos = 0
    for what, piece in _GRAMMAR:
        if isinstance(piece, str):
            if not line.startswith(piece, pos):
                raise TraceParseError(f"expected {what} {piece!r}", pos + 1)
            pos += len(piece)
            continue
        m = piece.match(line, pos)
        if m is None:
            if what == "node id":
                token = line[pos:].split(" ", 1)[0]
                raise TraceParseError(f"node id must be 0 or 1, got {token!r}", pos + 1)
            if what == "move time" and line.startswith("-", pos):
                raise TraceParseError("move time must not be negative", pos + 1)
            raise TraceParseError(f"expected {what}", pos + 1)
        pos = m.end()
        if piece is _NUMBER and (f := _FRACTIONAL(line, m.start())).end() > pos:
            raise TraceParseError(f"non-zero fraction in {what}", f.start(1) + 1)
        if line.startswith(".", pos) and "." not in m[0]:
            raise TraceParseError(f"expected decimals in {what}", pos + 2)
    raise TraceParseError("trailing characters after step length", pos + 1)


def _fields(line: str, ints: _Ints) -> tuple[int, float, int, int, int]:
    """(node id, move time, initial x, new x, step) of one movement line."""
    m = _MOVE(line)
    if m is None:
        _reject(line)
    numbers = []
    for group in (3, 4, 5):  # initial x, new x, step, without their fractions
        try:
            numbers.append(ints[m[group].partition(".")[0]])
        except ValueError as exc:
            raise TraceParseError(str(exc), m.start(group) + 1) from None
    init_x, new_x, step = numbers
    if abs(new_x - init_x) != step:
        raise TraceParseError(f"step {abbreviate(step)} does not match "
                              f"|{abbreviate(new_x)} - {abbreviate(init_x)}|",
                              m.start(5) + 1)
    return int(m[2]), float(m[1]), init_x, new_x, step


def trace_pieces(rows: Iterable[Row], step_headers: bool = False) -> Iterator[str]:
    """The text of :func:`format_trace`, in pieces."""
    # One template per move; without headers, ``%.0s`` takes k and prints nothing.
    head = "STEP-%d\n" if step_headers else "%.0s"
    return _pieces(f"{head}{_LINE % 1}\n{_LINE % 0}\n", (
        (k, mn1_init, mn1_new, step, mn0_init, mn0_new, step)
        for k, (step, mn0_init, mn0_new, mn1_init, mn1_new) in enumerate(rows, 1)
    ), "\n" if step_headers else "")


def format_trace(rows: Iterable[Row], step_headers: bool = False) -> str:
    """Render a whole trace, node 1 before node 0 within each move.

    With ``step_headers`` each pair is preceded by a ``STEP-k`` line and the
    blocks are blank-line separated.
    """
    return "".join(trace_pieces(rows, step_headers))


# One move as ``format_trace`` writes it without step headers: node 1's
# line, then node 0's, whose time and step repeat node 1's text (the
# backreferences). ``re`` compiles it on first use, so a run that reads no
# trace never does.
_INT = r"(-?[0-9]+)\.00"
_PAIR = (
    rf"M ([0-9]+\.[0-9]{{5}}) 1 \({_INT}, 00\.00\), \({_INT}, 00\.00\), "
    r"([0-9]+)\.00\n"
    rf"M \1 0 \({_INT}, 00\.00\), \({_INT}, 00\.00\), \4\.00\n"
)


def _scan(text: str, ints: _Ints) -> tuple[list[Row], int]:
    """The moves of the ``_PAIR`` matches that tile ``text`` from its start,
    and the offset where they stop: the end of the text, a miss, or a move
    whose nodes go the wrong way or whose number ``ints`` cannot convert.
    Each match is anchored where the last one ended, so a miss ends the
    scan."""
    match = re.compile(_PAIR).match
    rows = []
    pos = 0
    while m := match(text, pos):
        _, init1, new1, step, init0, new0 = m.groups()
        try:
            row = step, mn0_init, mn0_new, mn1_init, mn1_new = (
                ints[step], ints[init0], ints[new0], ints[init1], ints[new1])
        except ValueError:  # too many digits
            break
        # ``_PAIR``'s step has no sign, so only a node can go the wrong way.
        if mn0_new != mn0_init + step or mn1_new != mn1_init - step:
            break
        rows.append(row)
        pos = m.end()
    return rows, pos


def parse_trace(text: str) -> list[Row]:
    """Rebuild the rows of the moves in trace text.

    Skips blank lines and STEP-k headers; accepts either node order within a
    pair. Raises :class:`TraceParseError` on grammar violations, unpaired
    lines, or pairs that do not assemble into a consistent move. The lines
    of a pair must agree on the move time, which no row keeps.

    Text as :func:`format_trace` writes it without step headers is read in
    one scan, as far as it goes; the rest of the text, and every error, comes
    from reading it line by line.
    """
    ints = _Ints()
    rows, pos = _scan(text, ints)
    if pos == len(text):
        return rows
    # (line number, node id, move time, initial x, new x, step)
    fragments = []
    # The scanned text is two lines a move, each ended by "\n" alone.
    first = 2 * len(rows) + 1
    for lineno, raw in enumerate(text[pos:].splitlines(), first):
        if not raw.strip() or raw.startswith("STEP-"):
            continue
        try:
            fragments.append((lineno, *_fields(raw, ints)))
        except TraceParseError as exc:
            raise TraceParseError(exc.reason, exc.column, lineno) from None
    if len(fragments) % 2:
        raise TraceParseError("movement line has no partner", 1, fragments[-1][0])
    pairs = iter(fragments)
    for a, b in zip(pairs, pairs):
        lineno = b[0]
        if a[1] == b[1]:
            raise TraceParseError("move pair must cover node 0 and node 1", 1, lineno)
        if a[5] != b[5]:
            raise TraceParseError(
                f"paired lines disagree on step ({a[5]} vs {b[5]})", 1, lineno
            )
        if a[2] != b[2]:
            raise TraceParseError(
                f"paired lines disagree on move time ({a[2]} vs {b[2]})", 1, lineno
            )
        n0, n1 = (a, b) if a[1] == 0 else (b, a)
        row = step, mn0_init, mn0_new, mn1_init, mn1_new = (
            n0[5], n0[3], n0[4], n1[3], n1[4])
        # ``_fields`` has matched each step to its node's |new - initial|.
        if mn0_new != mn0_init + step or mn1_new != mn1_init - step:
            try:
                MoveRecord(*row)  # raises the broken identity's message
            except ValueError as exc:
                raise TraceParseError(str(exc), 1, lineno) from None
        rows.append(row)
    return rows


def csv_pieces(rows: Iterable[Row], brink: int) -> Iterator[str]:
    """The text of :func:`write_csv`, in pieces."""
    names = {o: o.value for o in Outcome}
    return chain([",".join(CSV_HEADER) + "\n"], _pieces("%d,%d,%d,%d,%d,%s\n", (
        (*row, names[crossing(row[2], row[4], brink)]) for row in rows), ""))


def write_csv(rows: Iterable[Row], brink: int) -> str:
    """Render rows as CSV (header always present), each row with the
    outcome of its move against ``brink``.

    Every field is an int or an outcome name, so none needs quoting, and
    each row comes from one template.
    """
    return "".join(csv_pieces(rows, brink))


def read_csv(text: str) -> list[Row]:
    """Parse the rows written by :func:`write_csv` back into rows of five ints.

    The outcome column is optional and ignored (replays recompute it).
    Raises :class:`CsvFormatError` on schema or arithmetic violations and
    on text the csv module cannot split into rows.
    """
    import csv

    reader = csv.reader(io.StringIO(text))
    ints = _Ints()
    rows = []
    try:
        header = next(reader, None)
        if header is None:
            raise CsvFormatError("empty CSV: missing header")
        if tuple(header) not in (CSV_HEADER, CSV_HEADER[:5]):
            raise CsvFormatError(
                f"unexpected header {header!r}; want {','.join(CSV_HEADER)}"
            )
        for rownum, cells in enumerate(reader, 2):
            if not cells:
                continue
            if len(cells) not in (5, 6):
                raise CsvFormatError(
                    f"row {rownum}: expected 5 or 6 fields, got {len(cells)}")
            try:
                row = step, mn0_init, mn0_new, mn1_init, mn1_new = (
                    ints[cells[0]], ints[cells[1]], ints[cells[2]],
                    ints[cells[3]], ints[cells[4]])
                if (step < 0 or mn0_new != mn0_init + step
                        or mn1_new != mn1_init - step):
                    MoveRecord(*row)  # raises the failed check's message
            except KeyError:
                raise CsvFormatError(f"row {rownum}: non-integer field in "
                                     f"{list(map(abbreviate, cells[:5]))}") from None
            except ValueError as exc:  # too many digits, or not a valid move
                raise CsvFormatError(f"row {rownum}: {exc}") from None
            rows.append(row)
    except csv.Error as exc:
        raise CsvFormatError(f"line {reader.line_num}: {exc}") from None
    return rows


def _scalar(value: object) -> str:
    """``value`` as the stdlib's encoder writes a JSON scalar: its escaping,
    float repr and NaN error, with no indent, so the C encoder does the
    work. The first call imports ``json`` and rebinds this name to that
    encoder's ``encode``, so only a rendered document loads ``json``."""
    global _scalar
    import json

    _scalar = json.JSONEncoder(allow_nan=False).encode
    return _scalar(value)


def _key(key: object) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _scalar(key)


# A generator renders as a list, so a document can produce its items lazily.
_NESTED = (dict, list, tuple, GeneratorType, JsonRecords)


def _render(value: object, pad: str, lead: str = "") -> Iterator[str]:
    """``lead``, then ``value`` as the stdlib's ``json.dumps`` writes it at
    an indent of 2, nested at the indent of ``pad`` (a newline and the
    spaces of the line that holds it). A record list goes out in pieces of
    ``_CHUNK`` moves, and the text between two record lists as one piece."""
    inner = pad + "  "
    if isinstance(value, JsonRecords):
        key = inner + "  "
        fields = ",".join(f'{key}"{name}": %d' for name in MoveRecord._fields)
        brink, rows = value.brink, value.rows
        if brink is not None:  # each move's fields, then its outcome
            tails = {o: f',{key}"outcome": {_scalar(o.value)}' for o in Outcome}
            fields += "%s"
            rows = ((*row, tails[crossing(row[2], row[4], brink)]) for row in rows)
        text = lead + "["
        for piece in _pieces(f"{inner}{{{fields}{inner}}}", rows, ","):
            yield text + piece
            text = ""
        yield text + "]" if text else pad + "]"
    elif isinstance(value, _NESTED):
        if isinstance(value, dict):
            opener, closer = "{", "}"
            items = zip([f"{inner}{_key(key)}: " for key in value], value.values())
        else:
            opener, closer = "[", "]"
            items = zip(repeat(inner), value)
        text, sep = lead + opener, ""
        for head, item in items:
            if isinstance(item, _NESTED):
                yield from _render(item, inner, text + sep + head)
                text = ""
            else:
                text += sep + head + _scalar(item)
            sep = ","
        yield text + pad + closer if sep else text + closer
    else:
        yield lead + _scalar(value)


def json_pieces(doc: dict) -> Iterator[str]:
    """The text of :func:`write_json`, in pieces."""
    return chain(_render(doc, "\n"), ("\n",))


def write_json(doc: dict) -> str:
    """Serialize a result document: the bytes of the stdlib's ``json.dumps``
    at an indent of 2 with ``allow_nan`` off, plus a final newline.

    Dicts, lists, tuples, generators (written as lists) and JSON scalars
    nest freely; a :class:`JsonRecords` stands for a list of move objects.
    Dict keys must be ``str``, and non-ASCII text is written as ``\\u``
    escapes. Key order is the insertion
    order of the dicts, so equal documents give byte-identical output. NaN
    and infinity raise ``ValueError``.
    """
    return "".join(json_pieces(doc))
