"""Trace-line format plus CSV/JSON serialization of runs.

A trace file holds newline-delimited movement lines, two per simultaneous
move, node 1 first:

    M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00
    M 0.00100 0 (10.00, 00.00), (38.00, 00.00), 28.00

Fields: marker ``M``, move duration in seconds (5 decimals), node id,
initial (x, y), new (x, y), step length. The model is 1-D, so y prints as
the constant ``00.00``. Optional ``STEP-k`` header lines group the pairs.

All emitters are deterministic: equal inputs give byte-identical output
(UTF-8, LF line endings).
"""

from __future__ import annotations

import csv
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


def format_trace_line(rec: MoveRecord, node_id: int) -> str:
    """Render one node's half of a move in the fixed trace grammar."""
    if node_id == 0:
        x1, x2 = rec.mn0_init, rec.mn0_new
    elif node_id == 1:
        x1, x2 = rec.mn1_init, rec.mn1_new
    else:
        raise ValueError(f"node_id must be 0 or 1, got {node_id}")
    # Integers print exactly, not through a float, which rounds above 2**53.
    return (
        f"M {rec.time_s:.5f} {node_id} "
        f"({x1}.00, 00.00), ({x2}.00, 00.00), {rec.step}.00"
    )


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


def _fields(line: str) -> tuple[int, float, float, float, float]:
    """(node id, move time, initial x, new x, step) of one movement line."""
    m = _MOVE(line)
    if m is None:
        _reject(line)
    time_s, node, init_x, new_x, step = m.groups()
    init_x, new_x, step = float(init_x), float(new_x), float(step)
    if not (-_EXACT < init_x < _EXACT and -_EXACT < new_x < _EXACT
            and -_EXACT < step < _EXACT):
        init_x, new_x, step = _exact(m, 3), _exact(m, 4), _exact(m, 5)
    if abs(new_x - init_x) != step:
        raise TraceParseError(
            f"step {step} does not match |{new_x} - {init_x}|", m.start(5) + 1
        )
    return int(node), float(time_s), init_x, new_x, step


def parse_trace_line(line: str) -> TraceLine:
    """Parse one movement line; inverse of :func:`format_trace_line`.

    Raises :class:`TraceParseError` with the 1-based column of the first
    offending character. The |new - init| == step consistency of the line is
    checked as well as the grammar.
    """
    return TraceLine(*_fields(line))


def format_trace(records: Iterable[MoveRecord], step_headers: bool = False) -> str:
    """Render a whole trace, node 1 before node 0 within each move.

    With ``step_headers`` each pair is preceded by a ``STEP-k`` line and the
    blocks are blank-line separated.
    """
    blocks = []
    for k, rec in enumerate(records, 1):
        lines = [format_trace_line(rec, 1), format_trace_line(rec, 0)]
        if step_headers:
            lines.insert(0, f"STEP-{k}")
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    sep = "\n\n" if step_headers else "\n"
    return sep.join(blocks) + "\n"


def parse_trace(text: str) -> list[MoveRecord]:
    """Rebuild move records from trace text.

    Skips blank lines and STEP-k headers; accepts either node order within a
    pair. Raises :class:`TraceParseError` on grammar violations, unpaired
    lines, or pairs that do not assemble into a consistent move.
    """
    fragments = []  # (line number, node id, move time, initial x, new x, step)
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.startswith("STEP-"):
            continue
        try:
            fragments.append((lineno, *_fields(raw)))
        except TraceParseError as exc:
            raise TraceParseError(exc.reason, exc.column, lineno) from None
    if len(fragments) % 2:
        raise TraceParseError("movement line has no partner", 1, fragments[-1][0])
    records = []
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
        _, _, time_s, init0, new0, step = n0
        _, _, _, init1, new1, _ = n1
        # x % 1 is 0 for an integral float or an int, and nan for inf.
        if step % 1 or init0 % 1 or new0 % 1 or init1 % 1 or new1 % 1:
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
    """Render records and their classifications as CSV (header always present)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec, outcome in zip(records, outcomes, strict=True):
        writer.writerow(
            [rec.step, rec.mn0_init, rec.mn0_new, rec.mn1_init, rec.mn1_new,
             outcome.value]
        )
    return buf.getvalue()


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


def record_dict(rec: MoveRecord, outcome: Outcome | None = None) -> dict:
    """JSON-ready view of one move (stable key order)."""
    out = {
        "step": rec.step,
        "mn0_init": rec.mn0_init,
        "mn0_new": rec.mn0_new,
        "mn1_init": rec.mn1_init,
        "mn1_new": rec.mn1_new,
    }
    if outcome is not None:
        out["outcome"] = outcome.value
    return out


def write_json(doc: dict) -> str:
    """Serialize a result document.

    Key order is the insertion order of the dicts, so equal documents give
    byte-identical output.
    """
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
