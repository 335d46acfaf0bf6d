"""Trace-line format plus CSV/JSON serialization of runs.

A trace file holds newline-delimited movement lines, two per simultaneous
move, node 1 first:

    M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00
    M 0.00100 0 (10.00, 00.00), (38.00, 00.00), 28.00

Fields: marker ``M``, move duration in seconds (5 decimals), node id,
initial (x, y), new (x, y), step length. The model is 1-D, so y prints as
the constant ``00.00``. Optional ``STEP-k`` header lines group the pairs.

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
moves renders from one template per move.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NoReturn, Sequence

from .model import MoveRecord, Outcome

CSV_HEADER = ("step", "mn0_init", "mn0_new", "mn1_init", "mn1_new", "outcome")


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


@dataclass(frozen=True)
class TraceLine:
    """One parsed movement line: a single node's half of a move. On a line
    with a number of magnitude 2**53 or more, the numbers are exact ints."""

    node_id: int
    time_s: float
    init_x: float
    new_x: float
    step: float


# One movement line, with the node id to fill in first and then the move time,
# initial x, new x and step. ``%d`` prints an int exactly, not through a
# float, which rounds above 2**53.
_LINE = "M %%.5f %d (%%d.00, 00.00), (%%d.00, 00.00), %%d.00"


def format_trace_line(rec: MoveRecord, node_id: int) -> str:
    """Render one node's half of a move in the fixed trace grammar."""
    if node_id == 0:
        x1, x2 = rec.mn0_init, rec.mn0_new
    elif node_id == 1:
        x1, x2 = rec.mn1_init, rec.mn1_new
    else:
        raise ValueError(f"node_id must be 0 or 1, got {node_id}")
    return (_LINE % node_id) % (rec.time_s, x1, x2, rec.step)


_UNSIGNED = r"[0-9]+(?:\.[0-9]+)?"
_NUMBER = re.compile("-?" + _UNSIGNED)

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


def _reject(line: str) -> NoReturn:
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
        if line.startswith(".", pos) and "." not in m[0]:
            raise TraceParseError(f"expected decimals in {what}", pos + 2)
    raise TraceParseError("trailing characters after step length", pos + 1)


# A float holds every integer below 2**53 in magnitude, and skips some above.
_EXACT = float(2**53)
# Subtracts decimal texts of any length without rounding.
_DECIMAL = decimal.Context(prec=decimal.MAX_PREC)


def _exact(m: re.Match, group: int) -> float | int:
    """Number ``group`` of a line with one of magnitude 2**53 or more, as an
    exact int. A fraction is an error there; an overflow stays inf."""
    value = float(m[group])
    if math.isinf(value):
        return value
    whole, _, fraction = m[group].partition(".")
    if fraction.strip("0"):
        raise TraceParseError("a number on a line with one of magnitude 2**53 "
                              "or more must be integral", m.start(group) + 1)
    # int() refuses over 4300 digits, which leading zeros can reach.
    n = int(whole.lstrip("-").lstrip("0") or "0")
    return -n if value < 0 else n


def _fields(line: str) -> tuple[int, float, float, float, float, bool]:
    """(node id, move time, initial x, new x, step, whole) of one movement
    line. ``whole`` is true when each of the three numbers is a whole number
    in its text, with no fraction or a fraction of zeros, and in range of a
    float; a rounded float would take ``5.00000000000000000001`` for one."""
    m = _MOVE(line)
    if m is None:
        _reject(line)
    time_s, node, init_text, new_text, step_text = m.groups()
    init_x, new_x, step = float(init_text), float(new_text), float(step_text)
    if not (-_EXACT < init_x < _EXACT and -_EXACT < new_x < _EXACT
            and -_EXACT < step < _EXACT):
        init_x, new_x, step = _exact(m, 3), _exact(m, 4), _exact(m, 5)
    # Compare the decimal texts, which the floats may round or overflow.
    diff = _DECIMAL.subtract(decimal.Decimal(new_text), decimal.Decimal(init_text))
    if diff.copy_abs() != decimal.Decimal(step_text):
        raise TraceParseError(
            f"step {step} does not match |{new_x} - {init_x}|", m.start(5) + 1
        )
    # A number past a float's range stays inf, which no int() takes.
    whole = (not any(text.partition(".")[2].strip("0")
                     for text in (init_text, new_text, step_text))
             and math.inf not in (abs(init_x), abs(new_x), abs(step)))
    return int(node), float(time_s), init_x, new_x, step, whole


def parse_trace_line(line: str) -> TraceLine:
    """Parse one movement line; inverse of :func:`format_trace_line`.

    Raises :class:`TraceParseError` with the 1-based column of the first
    offending character. The |new - init| == step consistency of the line is
    checked as well as the grammar, exactly in decimal.
    """
    return TraceLine(*_fields(line)[:5])


def format_trace(records: Iterable[MoveRecord], step_headers: bool = False) -> str:
    """Render a whole trace, node 1 before node 0 within each move.

    With ``step_headers`` each pair is preceded by a ``STEP-k`` line and the
    blocks are blank-line separated.
    """
    # One template per move; without headers, ``%.0s`` takes k and prints nothing.
    head = "STEP-%d\n" if step_headers else "%.0s"
    move = f"{head}{_LINE % 1}\n{_LINE % 0}\n"
    return ("\n" if step_headers else "").join([
        move % (k, rec.time_s, rec.mn1_init, rec.mn1_new, rec.step,
                rec.time_s, rec.mn0_init, rec.mn0_new, rec.step)
        for k, rec in enumerate(records, 1)
    ])


# One move as ``format_trace`` writes it without step headers: node 1's
# line, then node 0's, whose time and step repeat node 1's text (the
# backreferences). A number of at most 15 digits is below 2**53, so it
# reads the same as an int here as through a float on the per-line path.
# ``re`` compiles it on first use, so a run that reads no trace never does.
_INT = r"(-?[0-9]{1,15})\.00"
_PAIR = (
    rf"M ([0-9]+\.[0-9]{{5}}) 1 \({_INT}, 00\.00\), \({_INT}, 00\.00\), "
    r"([0-9]{1,15})\.00\n"
    rf"M \1 0 \({_INT}, 00\.00\), \({_INT}, 00\.00\), \4\.00\n"
)


def _scan(text: str) -> tuple[list[MoveRecord], int]:
    """The moves of the ``_PAIR`` matches that tile ``text`` from its start,
    and the offset where they stop: the end of the text, a miss, or a move
    whose nodes go the wrong way. Each match is anchored where the last one
    ended, so a miss ends the scan."""
    match = re.compile(_PAIR).match
    records = []
    pos = 0
    while m := match(text, pos):
        time_s, init1, new1, step, init0, new0 = m.groups()
        try:
            records.append(MoveRecord(int(step), int(init0), int(new0),
                                      int(init1), int(new1), float(time_s)))
        except ValueError:  # a node moved the wrong way
            break
        pos = m.end()
    return records, pos


def parse_trace(text: str) -> list[MoveRecord]:
    """Rebuild move records from trace text.

    Skips blank lines and STEP-k headers; accepts either node order within a
    pair. Raises :class:`TraceParseError` on grammar violations, unpaired
    lines, or pairs that do not assemble into a consistent move.

    Text as :func:`format_trace` writes it without step headers is read in
    one scan, as far as it goes; the rest of the text, and every error, comes
    from reading it line by line.
    """
    records, pos = _scan(text)
    if pos == len(text):
        return records
    # (line number, node id, move time, initial x, new x, step, whole)
    fragments = []
    # The scanned text is two lines a move, each ended by "\n" alone.
    first = 2 * len(records) + 1
    for lineno, raw in enumerate(text[pos:].splitlines(), first):
        if not raw.strip() or raw.startswith("STEP-"):
            continue
        try:
            fragments.append((lineno, *_fields(raw)))
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
        _, _, time_s, init0, new0, step, whole0 = n0
        _, _, _, init1, new1, _, whole1 = n1
        if not (whole0 and whole1):
            raise TraceParseError(
                "positions and step must be integers to assemble a move", 1, lineno
            )
        try:
            records.append(MoveRecord(
                int(step), int(init0), int(new0), int(init1), int(new1), time_s
            ))
        except ValueError as exc:
            raise TraceParseError(str(exc), 1, lineno) from None
    return records


def write_csv(
    records: Sequence[MoveRecord], outcomes: Sequence[Outcome]
) -> str:
    """Render records and their classifications as CSV (header always present).

    Every field is an int or an outcome name, so none needs quoting, and
    each row comes from one template.
    """
    return ",".join(CSV_HEADER) + "\n" + "".join(
        "%d,%d,%d,%d,%d,%s\n" % (rec.step, rec.mn0_init, rec.mn0_new,
                                 rec.mn1_init, rec.mn1_new, outcome.value)
        for rec, outcome in zip(records, outcomes, strict=True))


def _csv_rows(text: str) -> Iterator[list[str]]:
    """The rows of ``text``; the csv module's own errors become CsvFormatError."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise CsvFormatError(f"line {reader.line_num}: {exc}") from None


def read_csv(text: str) -> list[MoveRecord]:
    """Parse rows written by :func:`write_csv` back into move records.

    The outcome column is optional and ignored (replays recompute it).
    Raises :class:`CsvFormatError` on schema or arithmetic violations and
    on text the csv module cannot split into rows.
    """
    reader = _csv_rows(text)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError("empty CSV: missing header") from None
    if tuple(header) not in (CSV_HEADER, CSV_HEADER[:5]):
        raise CsvFormatError(
            f"unexpected header {header!r}; want {','.join(CSV_HEADER)}"
        )
    records = []
    for rownum, row in enumerate(reader, 2):
        if not row:
            continue
        if len(row) not in (5, 6):
            raise CsvFormatError(f"row {rownum}: expected 5 or 6 fields, got {len(row)}")
        cells = row[:5]
        # int() also takes "+", "_", spaces and non-ASCII digits; a field of
        # the schema is -?[0-9]+, so without its sign it is ASCII digits.
        digits = "".join(cells).replace("-", "")
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(cells)
            values = list(map(int, cells))
        except ValueError:
            raise CsvFormatError(f"row {rownum}: non-integer field in {cells}") from None
        try:
            records.append(MoveRecord(*values))
        except ValueError as exc:
            raise CsvFormatError(f"row {rownum}: {exc}") from None
    return records


# Scalars go through the stdlib's encoder: its escaping, float repr and
# NaN error, with no indent, so the C encoder does the work.
_scalar = json.JSONEncoder(allow_nan=False).encode
_RECORD_KEYS = ("step", "mn0_init", "mn0_new", "mn1_init", "mn1_new")
_QUOTED_OUTCOMES = {outcome: _scalar(outcome.value) for outcome in Outcome}


class JsonRecords:
    """A list of moves in a result document, one object per move.

    Each object holds the record's step and positions, plus its outcome when
    ``outcomes`` is given; :func:`write_json` renders the list from one
    template per record. The two sequences must be the same length.
    """

    # A plain class: a dataclass would add about 0.6 ms to every start-up.
    __slots__ = ("records", "outcomes")

    def __init__(self, records: Sequence[MoveRecord],
                 outcomes: Sequence[Outcome] | None = None):
        self.records = records
        self.outcomes = outcomes

    def render(self, pad: str) -> str:
        """The list as :func:`_render` writes one at the indent of ``pad``."""
        item, key = pad + "  ", pad + "    "
        fields = ",".join(f'{key}"{name}": %d' for name in _RECORD_KEYS)
        if self.outcomes is None:
            move = f"{item}{{{fields}{item}}}"
            rows = [move % (rec.step, rec.mn0_init, rec.mn0_new, rec.mn1_init,
                            rec.mn1_new) for rec in self.records]
        else:
            move = f'{item}{{{fields},{key}"outcome": %s{item}}}'
            rows = [move % (rec.step, rec.mn0_init, rec.mn0_new, rec.mn1_init,
                            rec.mn1_new, _QUOTED_OUTCOMES[outcome])
                    for rec, outcome in zip(self.records, self.outcomes, strict=True)]
        return _bracket("[", rows, pad, "]")


def _bracket(opener: str, items: list[str], pad: str, closer: str) -> str:
    """``items`` comma-joined inside brackets; the brackets join the end
    items, so the items are copied only once."""
    if not items:
        return opener + closer
    items[0] = opener + items[0]
    items[-1] += pad + closer
    return ",".join(items)


def _key(key: object) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _scalar(key)


def _render(value: object, pad: str) -> str:
    """``value`` as the stdlib's ``json.dumps`` writes it at an indent of 2,
    nested at the indent of ``pad`` (a newline and the spaces of the line
    that holds it)."""
    inner = pad + "  "
    if isinstance(value, dict):
        return _bracket("{", [f"{inner}{_key(key)}: {_render(item, inner)}"
                              for key, item in value.items()], pad, "}")
    if isinstance(value, (list, tuple)):
        return _bracket("[", [inner + _render(item, inner) for item in value],
                        pad, "]")
    if isinstance(value, JsonRecords):
        return value.render(pad)
    return _scalar(value)


def write_json(doc: dict) -> str:
    """Serialize a result document: the bytes of the stdlib's ``json.dumps``
    at an indent of 2 with ``allow_nan`` off, plus a final newline.

    Dicts, lists, tuples and JSON scalars nest freely; a :class:`JsonRecords`
    stands for a list of move objects. Dict keys must be ``str``, and
    non-ASCII text is written as ``\\u`` escapes. Key order is the insertion
    order of the dicts, so equal documents give byte-identical output. NaN
    and infinity raise ``ValueError``.
    """
    return _render(doc, "\n") + "\n"
