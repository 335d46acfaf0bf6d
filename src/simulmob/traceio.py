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
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    """One parsed movement line: a single node's half of a move."""

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
    return (
        f"M {rec.time_s:.5f} {node_id} "
        f"({x1:.2f}, 00.00), ({x2:.2f}, 00.00), {rec.step:.2f}"
    )


class _Cursor:
    """Single-line scanner that reports 1-based column positions on failure."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    @property
    def column(self) -> int:
        return self.pos + 1

    def literal(self, expected: str, what: str) -> None:
        end = self.pos + len(expected)
        if self.text[self.pos:end] != expected:
            raise TraceParseError(f"expected {what} {expected!r}", self.column)
        self.pos = end

    def number(self, what: str) -> float:
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits_before = self._digits()
        if not digits_before:
            raise TraceParseError(f"expected {what}", start + 1)
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            if not self._digits():
                raise TraceParseError(f"expected decimals in {what}", self.column)
        return float(self.text[start:self.pos])

    def _digits(self) -> bool:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return self.pos > start

    def end(self) -> None:
        if self.pos != len(self.text):
            raise TraceParseError("trailing characters after step length", self.column)


def parse_trace_line(line: str) -> TraceLine:
    """Parse one movement line; inverse of :func:`format_trace_line`.

    Raises :class:`TraceParseError` with the 1-based column of the first
    offending character. The |new - init| == step consistency of the line is
    checked as well as the grammar.
    """
    cur = _Cursor(line)
    cur.literal("M", "marker")
    cur.literal(" ", "separator")
    if line[cur.pos:cur.pos + 1] == "-":
        raise TraceParseError("move time must not be negative", cur.column)
    time_s = cur.number("move time")
    cur.literal(" ", "separator")
    node_col = cur.column
    node = line[cur.pos:cur.pos + 1]
    if node not in ("0", "1") or line[cur.pos + 1:cur.pos + 2] not in (" ", ""):
        token = line[cur.pos:].split(" ", 1)[0]
        raise TraceParseError(f"node id must be 0 or 1, got {token!r}", node_col)
    node_id = int(node)
    cur.pos += 1
    cur.literal(" ", "separator")
    cur.literal("(", "open paren")
    init_x = cur.number("initial x")
    cur.literal(", 00.00), ", "initial y")
    cur.literal("(", "open paren")
    new_x = cur.number("new x")
    cur.literal(", 00.00), ", "new y")
    step_col = cur.column
    step = cur.number("step length")
    cur.end()
    if abs(new_x - init_x) != step:
        raise TraceParseError(
            f"step {step} does not match |{new_x} - {init_x}|", step_col
        )
    return TraceLine(node_id, time_s, init_x, new_x, step)


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
    fragments: list[tuple[int, TraceLine]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.startswith("STEP-"):
            continue
        try:
            fragments.append((lineno, parse_trace_line(raw)))
        except TraceParseError as exc:
            raise TraceParseError(exc.reason, exc.column, lineno) from None
    if len(fragments) % 2:
        lineno = fragments[-1][0]
        raise TraceParseError("movement line has no partner", 1, lineno)
    records = []
    for (line_a, frag_a), (line_b, frag_b) in zip(
        fragments[::2], fragments[1::2]
    ):
        if {frag_a.node_id, frag_b.node_id} != {0, 1}:
            raise TraceParseError(
                "move pair must cover node 0 and node 1", 1, line_b
            )
        if frag_a.step != frag_b.step:
            raise TraceParseError(
                f"paired lines disagree on step ({frag_a.step} vs {frag_b.step})",
                1,
                line_b,
            )
        n0 = frag_a if frag_a.node_id == 0 else frag_b
        n1 = frag_a if frag_a.node_id == 1 else frag_b
        values = (n0.step, n0.init_x, n0.new_x, n1.init_x, n1.new_x)
        if any(v != int(v) for v in values):
            raise TraceParseError(
                "positions and step must be integers to assemble a move", 1, line_b
            )
        try:
            records.append(
                MoveRecord(*(int(v) for v in values), time_s=n0.time_s)
            )
        except ValueError as exc:
            raise TraceParseError(str(exc), 1, line_b) from None
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


def read_csv(text: str) -> list[MoveRecord]:
    """Parse rows written by :func:`write_csv` back into move records.

    The outcome column is optional and ignored (replays recompute it).
    Raises :class:`CsvFormatError` on schema or arithmetic violations.
    """
    reader = csv.reader(io.StringIO(text))
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
        try:
            values = [int(cell) for cell in row[:5]]
        except ValueError:
            raise CsvFormatError(f"row {rownum}: non-integer field in {row[:5]}") from None
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
