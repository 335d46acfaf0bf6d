import csv
import io
import json
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from simulmob import traceio
from simulmob.datasets import DATASET_IDS, load_dataset
from simulmob.model import MoveRecord, Outcome
from simulmob.traceio import (
    CSV_HEADER,
    CsvFormatError,
    JsonRecords,
    TraceLine,
    TraceParseError,
    format_trace,
    format_trace_line,
    parse_trace,
    parse_trace_line,
    read_csv,
    write_csv,
    write_json,
)

records = st.builds(
    MoveRecord.from_inits,
    st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 500))
# Positions and steps up to 2**70, well past the 2**53 a float holds exactly.
wide_records = st.builds(
    MoveRecord.from_inits,
    st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70),
    st.integers(0, 2**70))


# Any move time, as the trace prints it with 5 decimals.
timed_records = st.builds(
    lambda rec, time_s: replace(rec, time_s=time_s), wide_records, st.floats())


def reference_trace(recs: list[MoveRecord], step_headers: bool) -> str:
    """A trace built line by line from :func:`format_trace_line`."""
    blocks = []
    for k, rec in enumerate(recs, 1):
        lines = [format_trace_line(rec, 1), format_trace_line(rec, 0)]
        if step_headers:
            lines.insert(0, f"STEP-{k}")
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return ("\n\n" if step_headers else "\n").join(blocks) + "\n"


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

    def number(self, what: str) -> str:
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
        return self.text[start:self.pos]

    def _digits(self) -> bool:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return self.pos > start

    def end(self) -> None:
        if self.pos != len(self.text):
            raise TraceParseError("trailing characters after step length", self.column)


def cursor_parse_trace_line(line: str) -> TraceLine:
    """Reference for ``parse_trace_line``: the character-cursor parser it replaced.

    It reads digits with ``str.isdigit``, so unlike ``parse_trace_line`` it
    takes non-ASCII digits, and ``1²`` makes ``float`` raise a bare
    ``ValueError``. It checks the step as exact fractions of the texts.
    """
    cur = _Cursor(line)
    cur.literal("M", "marker")
    cur.literal(" ", "separator")
    if line[cur.pos:cur.pos + 1] == "-":
        raise TraceParseError("move time must not be negative", cur.column)
    time_s = float(cur.number("move time"))
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
    init_text = cur.number("initial x")
    cur.literal(", 00.00), ", "initial y")
    cur.literal("(", "open paren")
    new_text = cur.number("new x")
    cur.literal(", 00.00), ", "new y")
    step_col = cur.column
    step_text = cur.number("step length")
    cur.end()
    init_x, new_x, step = float(init_text), float(new_text), float(step_text)
    if abs(Fraction(new_text) - Fraction(init_text)) != Fraction(step_text):
        raise TraceParseError(
            f"step {step} does not match |{new_x} - {init_x}|", step_col
        )
    return TraceLine(node_id, time_s, init_x, new_x, step)


def cursor_parse_trace(text: str) -> list[MoveRecord]:
    """Reference for ``parse_trace``: the whole-trace parser before the regex."""
    fragments = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.startswith("STEP-"):
            continue
        try:
            fragments.append((lineno, cursor_parse_trace_line(raw)))
        except TraceParseError as exc:
            raise TraceParseError(exc.reason, exc.column, lineno) from None
    if len(fragments) % 2:
        raise TraceParseError("movement line has no partner", 1, fragments[-1][0])
    out = []
    for (_, a), (line_b, b) in zip(fragments[::2], fragments[1::2]):
        if {a.node_id, b.node_id} != {0, 1}:
            raise TraceParseError("move pair must cover node 0 and node 1", 1, line_b)
        if a.step != b.step:
            raise TraceParseError(
                f"paired lines disagree on step ({a.step} vs {b.step})", 1, line_b)
        if a.time_s != b.time_s:  # both lines of a move carry its one time
            raise TraceParseError(
                f"paired lines disagree on move time ({a.time_s} vs {b.time_s})",
                1, line_b)
        n0, n1 = (a, b) if a.node_id == 0 else (b, a)
        values = (n0.step, n0.init_x, n0.new_x, n1.init_x, n1.new_x)
        if any(v != int(v) for v in values):
            raise TraceParseError(
                "positions and step must be integers to assemble a move", 1, line_b)
        try:
            out.append(MoveRecord(*(int(v) for v in values), time_s=n0.time_s))
        except ValueError as exc:
            raise TraceParseError(str(exc), 1, line_b) from None
    return out


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: its result, or where and why it failed."""
    try:
        return parse(text)
    except TraceParseError as exc:
        return exc.reason, exc.column, exc.line


def _has_non_ascii_digit(text: str) -> bool:
    return any(c.isdigit() and not c.isascii() for c in text)


digit_runs = st.text("0123456789", min_size=1, max_size=4)


@st.composite
def numbers(draw, signed=True):
    sign = draw(st.sampled_from(["", "-"])) if signed else ""
    fraction = draw(st.one_of(st.just(""), digit_runs.map(".".__add__)))
    return sign + draw(digit_runs) + fraction


@st.composite
def grammar_lines(draw):
    """Lines of the trace grammar; the step often matches |new - init|."""
    init, new = draw(numbers()), draw(numbers())
    step = draw(st.one_of(
        st.just(f"{abs(float(new) - float(init)):.2f}"), numbers()))
    return (f"M {draw(numbers(signed=False))} {draw(st.sampled_from('01'))} "
            f"({init}, 00.00), ({new}, 00.00), {step}")


valid_lines = st.one_of(
    st.builds(format_trace_line, records, st.sampled_from([0, 1])),
    grammar_lines())

# Characters the grammar uses or nearly uses, and non-ASCII digits.
near_chars = st.one_of(
    st.sampled_from("M 0123456789.-,()\t\r\nxe+_١²٣"),
    st.characters())


@st.composite
def edited_lines(draw):
    """A valid line with one character inserted, deleted or replaced."""
    line = draw(valid_lines)
    i = draw(st.integers(0, len(line)))
    c = draw(near_chars)
    return draw(st.sampled_from([
        line[:i] + c + line[i:], line[:i] + line[i + 1:], line[:i] + c + line[i + 1:],
    ]))


any_lines = st.one_of(valid_lines, edited_lines())


def bounded_records(bound: int):
    """Records whose positions and step are all below ``bound`` in magnitude,
    often at 15 or 16 digits."""
    ints = st.one_of(
        st.integers(-2000, 2000), st.integers(-bound + 1, bound - 1),
        st.sampled_from([0, 10**15 - 1, 10**15, -(10**15 - 1), -(10**15)]))
    steps = st.one_of(st.integers(0, 500), st.sampled_from([10**15 - 1, 10**15]))
    return st.builds(MoveRecord.from_inits, ints, ints, steps).filter(
        lambda rec: all(abs(x) < bound for x in (
            rec.step, rec.mn0_init, rec.mn0_new, rec.mn1_init, rec.mn1_new)))


# Text edits that keep a line in the grammar: a time whose text differs but
# whose float is equal, a position without decimals, -0.00, the other node.
LINE_EDITS = [("0.00100", "0.001"), ("0.00100", "0.0010"), (".00,", ","),
              ("(0.00,", "(-0.00,"), (", 0.00", ", -0.00"), (" 1 (", " 0 ("),
              (" 0 (", " 1 ("), ("M ", "M 1")]


@st.composite
def edited_format_traces(draw, bound=2**53):
    """A whole ``format_trace`` output with one line edited at a random index,
    so a scan of it breaks late, if at all."""
    recs = draw(st.lists(bounded_records(bound), min_size=1, max_size=6))
    lines = format_trace(recs, draw(st.booleans())).split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["replace", "character", "text", "delete", "repeat"]))
    if edit == "replace":
        lines[i] = draw(st.one_of(any_lines, st.sampled_from(["", "STEP-1"])))
    elif edit == "character":
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(near_chars) + lines[i][j + 1:]
    elif edit == "text":
        old, new = draw(st.sampled_from(LINE_EDITS))
        lines[i] = lines[i].replace(old, new, 1)
    elif edit == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines)


@st.composite
def traces(draw):
    """Movement lines, STEP-k headers and blank lines, in any line endings;
    or a whole ``format_trace`` output with one line edited."""
    if draw(st.booleans()):
        return draw(edited_format_traces())
    pair = st.builds(lambda rec, first: [format_trace_line(rec, first),
                                         format_trace_line(rec, 1 - first)],
                     records, st.sampled_from([0, 1]))
    other = st.one_of(any_lines, st.sampled_from(["", "  ", "STEP-1", "STEP-x"]))
    chunks = draw(st.lists(st.one_of(pair, other.map(lambda line: [line])), max_size=6))
    sep = draw(st.sampled_from(["\n", "\r\n", "\r", "\n\n"]))
    return sep.join(line for chunk in chunks for line in chunk)


class TestFormatTraceLine:
    WALK_START = MoveRecord.from_inits(10, 500, 28)

    def test_node1_line(self):
        assert format_trace_line(self.WALK_START, 1) == \
            "M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00"

    def test_node0_line(self):
        assert format_trace_line(self.WALK_START, 0) == \
            "M 0.00100 0 (10.00, 00.00), (38.00, 00.00), 28.00"

    def test_zero_step_line(self):
        rec = MoveRecord.from_inits(96, 146, 0)
        assert format_trace_line(rec, 0) == \
            "M 0.00100 0 (96.00, 00.00), (96.00, 00.00), 0.00"

    def test_bad_node_id(self):
        with pytest.raises(ValueError):
            format_trace_line(self.WALK_START, 2)


class TestParseTraceLine:
    def test_second_move_node0(self):
        line = "M 0.00100 0 (38.00, 00.00), (81.00, 00.00), 43.00"
        frag = parse_trace_line(line)
        assert (frag.node_id, frag.init_x, frag.new_x, frag.step) == \
            (0, 38.0, 81.0, 43.0)
        assert frag.time_s == 0.001

    @given(records, st.sampled_from([0, 1]))
    def test_round_trip(self, rec, node_id):
        frag = parse_trace_line(format_trace_line(rec, node_id))
        assert frag.node_id == node_id
        init, new = ((rec.mn0_init, rec.mn0_new) if node_id == 0
                     else (rec.mn1_init, rec.mn1_new))
        assert (frag.init_x, frag.new_x, frag.step) == (init, new, rec.step)

    def test_bad_marker_reports_column_1(self):
        with pytest.raises(TraceParseError) as err:
            parse_trace_line("X 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00")
        assert err.value.column == 1

    def test_bad_node_id(self):
        with pytest.raises(TraceParseError):
            parse_trace_line("M 0.00100 2 (500.00, 00.00), (472.00, 00.00), 28.00")

    @pytest.mark.parametrize("node", ["0.9", "1.0", "01", "-0", "10"])
    def test_node_id_is_one_character(self, node):
        with pytest.raises(TraceParseError) as err:
            parse_trace_line(
                f"M 0.00100 {node} (500.00, 00.00), (472.00, 00.00), 28.00")
        assert err.value.column == 11
        assert repr(node) in err.value.reason

    def test_negative_move_time_rejected(self):
        with pytest.raises(TraceParseError) as err:
            parse_trace_line("M -0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00")
        assert err.value.column == 3
        assert "negative" in err.value.reason

    def test_column_survives_in_whole_trace(self):
        text = ("M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00\n"
                "M 0.00100 0.9 (10.00, 00.00), (38.00, 00.00), 28.00\n")
        with pytest.raises(TraceParseError) as err:
            parse_trace(text)
        assert (err.value.line, err.value.column) == (2, 11)

    def test_nonzero_y_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace_line("M 0.00100 1 (500.00, 01.00), (472.00, 00.00), 28.00")

    def test_inconsistent_step_rejected(self):
        with pytest.raises(TraceParseError) as err:
            parse_trace_line("M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 29.00")
        assert "29" in str(err.value)

    def test_step_compared_exactly_in_decimal(self):
        # As floats, 0.3 - 0.1 is 0.19999999999999998, which is not 0.2.
        frag = parse_trace_line("M 0.00100 0 (0.1, 00.00), (0.3, 00.00), 0.2")
        assert (frag.init_x, frag.new_x, frag.step) == (0.1, 0.3, 0.2)

    def test_step_equal_only_as_floats_rejected(self):
        line = "M 0.00100 0 (0.1, 00.00), (0.3, 00.00), 0.19999999999999998"
        with pytest.raises(TraceParseError) as err:
            parse_trace_line(line)
        assert err.value.reason == \
            "step 0.19999999999999998 does not match |0.3 - 0.1|"
        assert err.value.column == line.index("0.1999") + 1

    def test_long_fraction_compared_exactly(self):
        # Past 4300 digits, int() and so Fraction() refuse a text.
        tail = "0" * 5000 + "1"
        line = f"M 0.00100 0 (1.{tail}, 00.00), (3, 00.00), 1.{'9' * 5001}"
        assert parse_trace_line(line).step == 2.0
        with pytest.raises(TraceParseError, match="does not match"):
            parse_trace_line(line[:-1] + "8")

    @pytest.mark.parametrize("init, new, step, accepted", [
        ("0.00", "1" + "0" * 400 + ".00", "2" + "0" * 400 + ".00", False),
        ("1" + "0" * 400 + ".00", "1" + "0" * 400 + ".00", "0.00", True),
        ("1" + "0" * 400 + ".00", "1" + "0" * 399 + "1.00", "0.00", False),
    ], ids=["twice-as-far", "no-move", "one-apart"])
    def test_integers_past_float_range_compared_exactly(
            self, init, new, step, accepted):
        # float() reads each 401-digit number as inf, and inf - 0 is inf.
        line = f"M 0.00100 0 ({init}, 00.00), ({new}, 00.00), {step}"
        verdict = _outcome(parse_trace_line, line)
        assert isinstance(verdict, TraceLine) is accepted
        if not accepted:
            assert "does not match" in verdict[0]
            assert verdict[1] == line.rindex(step) + 1
        # The reference prints its numbers as floats, so compare verdicts.
        reference = _outcome(cursor_parse_trace_line, line)
        assert isinstance(reference, TraceLine) is accepted
        assert accepted or reference[1] == verdict[1]

    def test_trailing_garbage_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace_line("M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00 ")

    def test_truncated_line_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace_line("M 0.00100 1 (500.00, 00.00), (472.00")

    @pytest.mark.parametrize("x, column, reason", [
        ("١٠.00", 14, "expected initial x"),
        ("1².00", 15, "expected initial y ', 00.00), '"),
    ])
    def test_non_ascii_digits_rejected(self, x, column, reason):
        # The cursor parser read "١٠" as 10 and let "1²" raise a bare ValueError.
        line = f"M 0.00100 0 ({x}, 00.00), (38.00, 00.00), 28.00"
        with pytest.raises(TraceParseError) as err:
            parse_trace_line(line)
        assert (err.value.reason, err.value.column) == (reason, column)
        with pytest.raises(TraceParseError) as err:
            parse_trace(f"STEP-1\n{line}\n")
        assert (err.value.line, err.value.column) == (2, column)

    @pytest.mark.parametrize("line", [
        "",
        "M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00",
        "M 0.00100 0 (-5, 00.00), (3.50, 00.00), 8.5",
        "M 1. 0 (1, 00.00), (2, 00.00), 1",
        "M 0.1 0 (1.5.5, 00.00), (2, 00.00), 1",
        "M 0.1 0 (-x, 00.00), (2, 00.00), 1",
        "M 0.1 1",
        "M 0.1 1 ",
        "M 0.1 1x (1, 00.00), (2, 00.00), 1",
        "M 0.1 0 (1, 00.00), (2, 00.00), 1.",
        "M 0.1 0 (1, 00.00), (2, 00.00), 1\n",
    ])
    def test_matches_cursor_parser_on_examples(self, line):
        assert _outcome(parse_trace_line, line) == \
            _outcome(cursor_parse_trace_line, line)

    @given(any_lines)
    def test_matches_cursor_parser(self, line):
        if _has_non_ascii_digit(line):
            with pytest.raises(TraceParseError):
                parse_trace_line(line)
            return
        assert _outcome(parse_trace_line, line) == \
            _outcome(cursor_parse_trace_line, line)


class TestWholeTrace:
    WALK = [MoveRecord.from_inits(10, 500, 28),
            MoveRecord.from_inits(38, 472, 43)]

    def test_node1_printed_first(self):
        lines = format_trace(self.WALK).splitlines()
        assert lines[0].startswith("M 0.00100 1 (500.00")
        assert lines[1].startswith("M 0.00100 0 (10.00")
        assert len(lines) == 4

    def test_step_headers(self):
        text = format_trace(self.WALK, step_headers=True)
        assert text == (
            "STEP-1\n"
            "M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00\n"
            "M 0.00100 0 (10.00, 00.00), (38.00, 00.00), 28.00\n"
            "\n"
            "STEP-2\n"
            "M 0.00100 1 (472.00, 00.00), (429.00, 00.00), 43.00\n"
            "M 0.00100 0 (38.00, 00.00), (81.00, 00.00), 43.00\n"
        )

    def test_empty_trace(self):
        assert format_trace([]) == ""
        assert parse_trace("") == []

    @given(st.lists(timed_records, max_size=8), st.booleans())
    @example([], False)
    @example([], True)
    def test_matches_per_line_reference(self, recs, headers):
        assert format_trace(recs, headers) == reference_trace(recs, headers)

    @given(st.lists(records, max_size=20), st.booleans())
    def test_round_trip(self, recs, headers):
        assert parse_trace(format_trace(recs, step_headers=headers)) == recs

    def test_either_node_order_accepted(self):
        flipped = "\n".join([
            format_trace_line(self.WALK[0], 0),
            format_trace_line(self.WALK[0], 1),
        ])
        assert parse_trace(flipped) == [self.WALK[0]]

    def test_unpaired_line_rejected(self):
        text = format_trace_line(self.WALK[0], 1)
        with pytest.raises(TraceParseError):
            parse_trace(text)

    def test_same_node_twice_rejected(self):
        text = "\n".join([format_trace_line(self.WALK[0], 1)] * 2)
        with pytest.raises(TraceParseError):
            parse_trace(text)

    def test_step_disagreement_rejected(self):
        text = "\n".join([
            format_trace_line(self.WALK[0], 1),
            format_trace_line(self.WALK[1], 0),
        ])
        with pytest.raises(TraceParseError):
            parse_trace(text)

    def test_time_disagreement_rejected(self):
        # Node 1's line used to be dropped after pairing, time and all, so
        # this pair came back as one record with time_s 0.001.
        text = ("M 9.50000 1 (500.00, 00.00), (472.00, 00.00), 28.00\n"
                "M 0.00100 0 (10.00, 00.00), (38.00, 00.00), 28.00\n")
        with pytest.raises(TraceParseError) as err:
            parse_trace(text)
        assert err.value.reason == "paired lines disagree on move time (9.5 vs 0.001)"
        assert (err.value.line, err.value.column) == (2, 1)

    def test_line_number_in_error(self):
        good = format_trace(self.WALK)
        bad = good.replace("M 0.00100 0 (38.00", "Q 0.00100 0 (38.00")
        with pytest.raises(TraceParseError) as err:
            parse_trace(bad)
        assert err.value.line == 4
        assert err.value.column == 1

    def test_crlf_line_endings(self):
        text = format_trace(self.WALK, step_headers=True).replace("\n", "\r\n")
        assert parse_trace(text) == self.WALK

    def test_headers_and_blank_lines_skipped(self):
        text = "\n \t\n" + format_trace(self.WALK, step_headers=True) + "\n  \nSTEP-9\n"
        assert parse_trace(text) == self.WALK

    def test_node_order_may_differ_between_pairs(self):
        text = "\n".join([
            format_trace_line(self.WALK[0], 0), format_trace_line(self.WALK[0], 1),
            format_trace_line(self.WALK[1], 1), format_trace_line(self.WALK[1], 0),
        ])
        assert parse_trace(text) == self.WALK

    @pytest.mark.parametrize("index, text, line, column", [
        # The second pair sits on lines 6-7, after a header and a blank line.
        (6, "Q 0.00100 0 (38.00, 00.00), (81.00, 00.00), 43.00", 7, 1),
        (5, "M 0.00100 1 (472.00, 00.00), (429.00, 00.00), 43.00 ", 6, 52),
        (6, "M 0.00100 1 (472.00, 00.00), (429.00, 00.00), 43.00", 7, 1),
        (6, None, 6, 1),
    ])
    def test_line_numbers_count_headers(self, index, text, line, column):
        lines = format_trace(self.WALK, step_headers=True).splitlines()
        if text is None:
            del lines[index]
        else:
            lines[index] = text
        with pytest.raises(TraceParseError) as err:
            parse_trace("\n".join(lines))
        assert (err.value.line, err.value.column) == (line, column)

    def test_overflowing_numbers_rejected(self):
        # float() turns 400 digits into inf; int(inf) used to escape as
        # OverflowError.
        big = "9" * 400
        text = (f"M 0.00100 1 (0, 00.00), (-{big}, 00.00), {big}\n"
                f"M 0.00100 0 (0, 00.00), ({big}, 00.00), {big}\n")
        with pytest.raises(TraceParseError) as err:
            parse_trace(text)
        assert "integers" in err.value.reason

    @given(st.lists(wide_records, max_size=8), st.booleans())
    def test_round_trip_past_float_precision(self, recs, headers):
        assert parse_trace(format_trace(recs, step_headers=headers)) == recs

    @given(st.integers(-(2**53) + 1, 2**53 - 1))
    def test_positions_print_as_through_a_float_below_2_53(self, x):
        rec = MoveRecord.from_inits(x, x, 0)
        assert format_trace_line(rec, 0) == (
            f"M 0.00100 0 ({x:.2f}, 00.00), ({x:.2f}, 00.00), 0.00")

    def test_positions_above_2_53_exact(self):
        rec = MoveRecord.from_inits(9007199254741001, 9007199254741068, 22)
        text = format_trace([rec])
        assert "(9007199254741001.00, 00.00), (9007199254741023.00, 00.00)" in text
        assert parse_trace(text) == [rec]

    def test_leading_zeros_past_the_int_digit_limit(self):
        zeros = "0" * 5000
        line = (f"M 0.00100 0 (-{zeros}9007199254741001, 00.00), "
                f"(-9007199254740979.00, 00.00), {zeros}22")
        assert parse_trace_line(line) == TraceLine(
            0, 0.001, -9007199254741001, -9007199254740979, 22)

    def test_fraction_next_to_a_wide_number_rejected(self):
        line = ("M 0.00100 0 (9007199254741001.00, 00.00), "
                "(9007199254741023.50, 00.00), 22.50")
        with pytest.raises(TraceParseError) as err:
            parse_trace_line(line)
        assert err.value.column == line.index("9007199254741023.50") + 1
        assert "must be integral" in err.value.reason

    @given(st.lists(bounded_records(10**15), max_size=8),
           st.sampled_from([0.001, 0.0, 0.5, 12.25]))
    def test_format_trace_output_is_scanned(self, recs, time_s):
        # A pattern that never matches would still parse, only slowly.
        recs = [replace(rec, time_s=time_s) for rec in recs]
        text = format_trace(recs)
        with mock.patch.object(traceio, "_fields", side_effect=AssertionError):
            assert parse_trace(text) == recs

    def test_sixteen_digits_read_line_by_line(self):
        rec = MoveRecord.from_inits(10**15, -(10**15 - 1), 7)
        with mock.patch.object(traceio, "_fields", side_effect=AssertionError):
            with pytest.raises(AssertionError):
                parse_trace(format_trace([rec]))
        assert parse_trace(format_trace([rec])) == [rec]

    PAIR = ("M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00\n"
            "M 0.00100 0 (10.00, 00.00), (38.00, 00.00), 28.00\n")

    @given(st.one_of(traces(), edited_format_traces(bound=2**70)))
    # In the scan's grammar, but each node moves the wrong way.
    @example("M 0.00100 1 (5.00, 00.00), (3.00, 00.00), 2.00\n"
             "M 0.00100 0 (1.00, 00.00), (-1.00, 00.00), 2.00\n")
    # The lines of a pair disagree on the step or the time, as text and value.
    @example(PAIR.replace("38.00, 00.00), 28.00", "38.00, 00.00), 29.00"))
    @example(PAIR.replace("M 0.00100 0", "M 0.00200 0"))
    # The same, as text only.
    @example(PAIR.replace("38.00, 00.00), 28.00", "38.00, 00.00), 28.0"))
    @example(PAIR.replace("M 0.00100 0", "M 0.001 0"))
    # A line between pairs, or after the last.
    @example(PAIR + "X\n" + PAIR)
    @example(PAIR + " ")
    # A defect or a wrong-way move after scanned pairs.
    @example(PAIR * 3 + PAIR.replace("28.00\n", "28.0\n", 1) + PAIR)
    @example(PAIR * 2 + PAIR.replace("28.00", "27.00") + PAIR)
    @example(PAIR * 2 + "M 0.00100 1 (5.00, 00.00), (3.00, 00.00), 2.00\n"
             "M 0.00100 0 (1.00, 00.00), (-1.00, 00.00), 2.00\n" + PAIR)
    @example(PAIR * 2 + "\r\n" + PAIR)
    def test_scan_matches_per_line_path(self, text):
        # A scan that takes nothing leaves the whole text to the per-line pass.
        with mock.patch.object(traceio, "_scan", return_value=([], 0)):
            per_line = _outcome(parse_trace, text)
        assert _outcome(parse_trace, text) == per_line

    def test_per_line_pass_starts_where_the_scan_stopped(self):
        text = self.PAIR * 50 + self.PAIR.replace("28.00\n", "28.0\n", 1)
        with mock.patch.object(traceio, "_fields", wraps=traceio._fields) as fields:
            assert len(parse_trace(text)) == 51
        assert fields.call_count == 2

    # Fractions below a float's precision, which rounded floats took for
    # whole numbers.
    def test_fraction_below_float_precision_rejected(self):
        text = ("M 0.00100 1 (5.00000000000000000001, 00.00), "
                "(4.00000000000000000001, 00.00), 1.00000000000000000000\n"
                "M 0.00100 0 (1.00000000000000000001, 00.00), "
                "(2.00000000000000000001, 00.00), 1.00000000000000000000\n")
        with pytest.raises(TraceParseError) as err:
            parse_trace(text)
        assert (err.value.reason, err.value.line) == (
            "positions and step must be integers to assemble a move", 2)
        zeros = text.replace("00000000000000000001,", "00000000000000000000,")
        assert parse_trace(zeros) == [MoveRecord(1, 1, 2, 5, 4)]

    @given(traces())
    def test_matches_cursor_parser(self, text):
        if _has_non_ascii_digit(text):
            return
        assert _outcome(parse_trace, text) == _outcome(cursor_parse_trace, text)

    @given(st.one_of(st.text(), traces()))
    def test_only_trace_errors_escape(self, text):
        try:
            parse_trace(text)
        except TraceParseError:
            pass


class TestDatasets:
    def test_ids(self):
        assert DATASET_IDS == ("table-1", "table-3", "table-5", "table-6")

    def test_table5_shape(self):
        ds = load_dataset("table-5")
        assert len(ds.rows) == 30
        assert ds.rows[0] == MoveRecord(36, 99, 135, 142, 106)
        assert ds.kind == "independent"
        assert ds.max_step == 50
        assert ds.published_counts == (8, 13, 2, 7, 5, 5, 5)

    def test_table3_shape(self):
        ds = load_dataset("table-3")
        assert len(ds.rows) == 31
        assert ds.layout.brink == 375

    def test_table6_shape(self):
        ds = load_dataset("table-6")
        assert ds.kind == "sequential"
        assert len(ds.rows) == 11
        assert ds.rows[-1] == MoveRecord(42, 247, 289, 263, 221)
        # Ninth row normalized so the chain stays arithmetic-consistent.
        assert ds.rows[8] == MoveRecord(48, 177, 225, 333, 285)

    def test_table1_has_no_layout(self):
        ds = load_dataset("table-1")
        assert ds.layout is None
        assert len(ds.rows) == 3

    def test_steps_property(self):
        assert load_dataset("table-6").steps == \
            (28, 43, 37, 9, 20, 2, 28, 0, 48, 22, 42)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            load_dataset("table-9")


class TestCsv:
    def test_header_and_first_row(self):
        ds = load_dataset("table-1")
        outcomes = [Outcome.NO_OVERLAP] * 3
        text = write_csv(ds.rows, outcomes)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1].startswith("5,14,19,55,50,")
        assert len(lines) == 4

    def test_empty_batch_is_header_only(self):
        assert write_csv([], []) == ",".join(CSV_HEADER) + "\n"

    @given(st.lists(st.tuples(wide_records, st.sampled_from(Outcome)),
                    max_size=8))
    def test_matches_csv_writer(self, pairs):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec, outcome in pairs:
            writer.writerow([rec.step, rec.mn0_init, rec.mn0_new, rec.mn1_init,
                             rec.mn1_new, outcome.value])
        recs = [rec for rec, _ in pairs]
        assert write_csv(recs, [o for _, o in pairs]) == buf.getvalue()

    def test_outcome_count_must_match_records(self):
        ds = load_dataset("table-1")
        with pytest.raises(ValueError):
            write_csv(ds.rows, [Outcome.NO_OVERLAP] * 2)

    def test_round_trip(self):
        ds = load_dataset("table-5")
        outcomes = [Outcome.NO_OVERLAP] * 30
        assert read_csv(write_csv(ds.rows, outcomes)) == list(ds.rows)

    def test_outcome_column_optional(self):
        text = "step,mn0_init,mn0_new,mn1_init,mn1_new\n5,14,19,55,50\n"
        assert read_csv(text) == [MoveRecord(5, 14, 19, 55, 50)]

    def test_bad_header_rejected(self):
        with pytest.raises(CsvFormatError):
            read_csv("step,bad\n")

    def test_empty_text_rejected(self):
        with pytest.raises(CsvFormatError):
            read_csv("")

    def test_non_integer_cell_rejected(self):
        text = ",".join(CSV_HEADER) + "\n5,14,19,55,x,no_overlap\n"
        with pytest.raises(CsvFormatError):
            read_csv(text)

    @pytest.mark.parametrize("cell", ["1_0", " 5", "5 ", "+5", "٢٠", "5.0", ""])
    def test_cell_must_be_ascii_integer(self, cell):
        # int() takes all of these but the last two.
        text = f"step,mn0_init,mn0_new,mn1_init,mn1_new\n5,{cell},5,10,5\n"
        with pytest.raises(CsvFormatError, match="row 2: non-integer field"):
            read_csv(text)

    def test_mixed_bad_cells_rejected(self):
        with pytest.raises(CsvFormatError, match="row 2: non-integer field"):
            read_csv("step,mn0_init,mn0_new,mn1_init,mn1_new\n1_0,5,1_5, ٢٠,10\n")

    def test_negative_positions_accepted(self):
        text = "step,mn0_init,mn0_new,mn1_init,mn1_new\n5,-3,2,-10,-15\n"
        assert read_csv(text) == [MoveRecord(5, -3, 2, -10, -15)]

    def test_equation_violation_rejected(self):
        text = ",".join(CSV_HEADER) + "\n5,14,20,55,50,no_overlap\n"
        with pytest.raises(CsvFormatError):
            read_csv(text)

    def test_oversized_field_rejected(self):
        # The csv module's own field limit (131072 characters) raises
        # csv.Error, which is no ValueError: `replay --input` printed a
        # traceback.
        text = ",".join(CSV_HEADER[:5]) + "\n" + "9" * 200_000 + ",1,2,3,4\n"
        with pytest.raises(CsvFormatError, match="line 2: field larger than"):
            read_csv(text)

    @given(st.text(), st.booleans())
    def test_only_csv_errors_escape(self, text, with_header):
        if with_header:
            text = ",".join(CSV_HEADER) + "\n" + text
        try:
            read_csv(text)
        except CsvFormatError:
            pass


def record_dict(rec: MoveRecord, outcome: Outcome | None = None) -> dict:
    """JSON-ready view of one move, the reference for :class:`JsonRecords`."""
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


def reference_json(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**80), 2**80),
    st.floats(allow_nan=False, allow_infinity=False), st.text())
json_trees = st.recursive(json_scalars, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=6), children, max_size=4),
), max_leaves=24)
moves = st.lists(st.tuples(wide_records, st.sampled_from(Outcome)), max_size=6)
# Where a result document puts a record list: as a value at depth 1, in a
# list at depth 2, in a list's object at depth 3.
NESTINGS = {
    "depth-1": lambda block: {"tally": {"trials": 1}, "records": block},
    "depth-2": lambda block: {"runs": [block, [], block]},
    "depth-3": lambda block: {"samples": [{"sample": 0, "records": block},
                                          {"sample": 1, "records": block}],
                              "total": None},
}


class TestJson:
    def test_round_trip(self):
        doc = {"a": [1, 2, 3], "b": {"c": "x"}, "n": None}
        assert json.loads(write_json(doc)) == doc

    def test_deterministic(self):
        doc = {"z": 1, "a": 2}
        assert write_json(doc) == write_json({"z": 1, "a": 2})
        # Insertion order is preserved, not sorted.
        assert write_json(doc).index('"z"') < write_json(doc).index('"a"')

    @given(json_trees)
    @example({})
    @example([])
    @example(())
    @example({"": {}, "a": [[], {}, ()], "b": [{}]})
    @example({"\u00e9\u2028\U0001f600": "\x00\x1f\"\\\u00ff\ud800\U0001f600"})
    @example([-0.0, 0.0, 1e300, -1e-300, 5e-324, 2.5])
    @example([2**64 + 1, -(2**64) - 1, 10**40, True, False, None, 0])
    def test_matches_stdlib_indent(self, doc):
        assert write_json(doc) == reference_json(doc)

    @pytest.mark.parametrize("nesting", sorted(NESTINGS))
    @given(moves, st.booleans())
    @example([], True)
    @example([], False)
    def test_record_block_matches_record_dicts(self, nesting, pairs, with_outcomes):
        recs = [rec for rec, _ in pairs]
        if with_outcomes:
            outcomes = [outcome for _, outcome in pairs]
            block = JsonRecords(recs, outcomes)
            dicts = [record_dict(rec, out) for rec, out in zip(recs, outcomes)]
        else:
            block = JsonRecords(recs)
            dicts = [record_dict(rec) for rec in recs]
        wrap = NESTINGS[nesting]
        assert write_json(wrap(block)) == reference_json(wrap(dicts))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            write_json({"x": float("nan")})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nested_nan_and_inf_rejected(self, value):
        for doc in ({"x": [1, {"y": value}]}, [value], {"x": (value,)}):
            with pytest.raises(ValueError):
                write_json(doc)

    def test_outcome_count_must_match_records(self):
        recs = [MoveRecord.from_inits(1, 9, 2), MoveRecord.from_inits(3, 7, 1)]
        for outcomes in ([Outcome.NO_OVERLAP], [Outcome.NO_OVERLAP] * 3):
            with pytest.raises(ValueError):
                write_json({"records": JsonRecords(recs, outcomes)})

    def test_non_str_key_rejected(self):
        with pytest.raises(TypeError, match="keys must be str"):
            write_json({"a": {1: "x"}})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json({"a": [object()]})
