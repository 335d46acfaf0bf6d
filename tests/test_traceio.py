import csv
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from simulmob import traceio
from simulmob.datasets import DATASET_IDS, load_dataset
from simulmob.model import (MoveRecord, Outcome, ZoneLayout, abbreviate, classify,
                            crossing)
from simulmob.traceio import (
    CSV_HEADER,
    CsvFormatError,
    JsonRecords,
    TraceParseError,
    csv_pieces,
    format_trace,
    json_pieces,
    parse_trace,
    read_csv,
    trace_pieces,
    write_csv,
    write_json,
)


def move_row(mn0_init: int, mn1_init: int, step: int) -> tuple:
    """The row of both nodes' move by ``step``, checked by ``MoveRecord``."""
    return tuple(MoveRecord.from_inits(mn0_init, mn1_init, step))


records = st.builds(
    move_row, st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 500))
# Positions and steps up to 2**70, well past the 2**53 a float holds exactly.
wide_records = st.builds(
    move_row,
    st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70),
    st.integers(0, 2**70))


def reference_line(row: tuple, node_id: int) -> str:
    """Node ``node_id``'s half of ``row`` as one movement line."""
    step, mn0_init, mn0_new, mn1_init, mn1_new = row
    init, new = (mn0_init, mn0_new) if node_id == 0 else (mn1_init, mn1_new)
    return (f"M 0.00100 {node_id} ({init}.00, 00.00), ({new}.00, 00.00), "
            f"{step}.00")


def reference_trace(recs: list[tuple], step_headers: bool) -> str:
    """A trace built line by line from :func:`reference_line`."""
    blocks = []
    for k, rec in enumerate(recs, 1):
        lines = [reference_line(rec, 1), reference_line(rec, 0)]
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

    def integer(self, what: str) -> int:
        """A number whose fraction, if it has one, is zeros, as an int."""
        start = self.pos
        whole, _, fraction = self.number(what).partition(".")
        if fraction.strip("0"):
            raise TraceParseError(f"non-zero fraction in {what}",
                                  start + len(whole) + 1)
        value = int(whole.lstrip("-").lstrip("0") or "0")
        return -value if whole.startswith("-") else value

    def end(self) -> None:
        if self.pos != len(self.text):
            raise TraceParseError("trailing characters after step length", self.column)


def cursor_parse_trace_line(line: str) -> tuple[int, float, int, int, int]:
    """Reference for ``parse_trace``'s reading of one line: the
    character-cursor parser it replaced. Returns the node id, move time,
    initial x, new x and step.

    It reads digits with ``str.isdigit``, so unlike ``parse_trace`` it takes
    non-ASCII digits, and ``1²`` makes ``int`` raise a bare ``ValueError``.
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
    init_x = cur.integer("initial x")
    cur.literal(", 00.00), ", "initial y")
    cur.literal("(", "open paren")
    new_x = cur.integer("new x")
    cur.literal(", 00.00), ", "new y")
    step_col = cur.column
    step = cur.integer("step length")
    cur.end()
    if abs(new_x - init_x) != step:
        raise TraceParseError(f"step {abbreviate(step)} does not match "
                              f"|{abbreviate(new_x)} - {abbreviate(init_x)}|",
                              step_col)
    return node_id, time_s, init_x, new_x, step


def cursor_parse_trace(text: str) -> list[tuple]:
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
        node_a, time_a, _, _, step_a = a
        node_b, time_b, _, _, step_b = b
        if {node_a, node_b} != {0, 1}:
            raise TraceParseError("move pair must cover node 0 and node 1", 1, line_b)
        if step_a != step_b:
            raise TraceParseError(
                f"paired lines disagree on step ({step_a} vs {step_b})", 1, line_b)
        if time_a != time_b:  # both lines of a move carry its one time
            raise TraceParseError(
                f"paired lines disagree on move time ({time_a} vs {time_b})",
                1, line_b)
        n0, n1 = (a, b) if node_a == 0 else (b, a)
        (_, _, init0, new0, step), (_, _, init1, new1, _) = n0, n1
        try:
            out.append(tuple(MoveRecord(step, init0, new0, init1, new1)))
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
zero_fractions = st.text("0", min_size=1, max_size=3).map(".".__add__)
# No fraction, one of zeros, or one of any digits.
fraction_texts = st.one_of(st.just(""), zero_fractions, digit_runs.map(".".__add__))


@st.composite
def numbers(draw, signed=True):
    sign = draw(st.sampled_from(["", "-"])) if signed else ""
    return sign + draw(digit_runs) + draw(fraction_texts)


@st.composite
def grammar_lines(draw):
    """Lines of the trace grammar, or near it for a non-zero fraction; the
    step often matches |new - init|."""
    init, new = draw(numbers()), draw(numbers())
    distance = abs(int(new.partition(".")[0]) - int(init.partition(".")[0]))
    step = draw(st.one_of(st.just(f"{distance}{draw(fraction_texts)}"), numbers()))
    return (f"M {draw(numbers(signed=False))} {draw(st.sampled_from('01'))} "
            f"({init}, 00.00), ({new}, 00.00), {step}")


valid_lines = st.one_of(
    st.builds(reference_line, records, st.sampled_from([0, 1])),
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


small_and_wide_records = st.one_of(records, wide_records)

# Text edits that keep a line in the grammar (a time whose text differs but
# whose float is equal, a position without decimals or with more zeros,
# -0.00, the other node), and one that leaves it: a non-zero fraction.
LINE_EDITS = [("0.00100", "0.001"), ("0.00100", "0.0010"), (".00,", ","),
              (".00,", ".000,"), ("(0.00,", "(-0.00,"), (", 0.00", ", -0.00"),
              (" 1 (", " 0 ("), (" 0 (", " 1 ("), ("M ", "M 1"), (".00,", ".50,")]


@st.composite
def edited_format_traces(draw):
    """A whole ``format_trace`` output with one line edited at a random index,
    so a scan of it breaks late, if at all."""
    recs = draw(st.lists(small_and_wide_records, min_size=1, max_size=6))
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
    pair = st.builds(lambda rec, first: [reference_line(rec, first),
                                         reference_line(rec, 1 - first)],
                     records, st.sampled_from([0, 1]))
    other = st.one_of(any_lines, st.sampled_from(["", "  ", "STEP-1", "STEP-x"]))
    chunks = draw(st.lists(st.one_of(pair, other.map(lambda line: [line])), max_size=6))
    sep = draw(st.sampled_from(["\n", "\r\n", "\r", "\n\n"]))
    return sep.join(line for chunk in chunks for line in chunk)


class TestFormatTraceLine:
    """The two lines ``format_trace`` writes for one move."""

    WALK_START = move_row(10, 500, 28)

    def test_node1_line(self):
        assert format_trace([self.WALK_START]).splitlines()[0] == \
            "M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00"

    def test_node0_line(self):
        assert format_trace([self.WALK_START]).splitlines()[1] == \
            "M 0.00100 0 (10.00, 00.00), (38.00, 00.00), 28.00"

    def test_zero_step_line(self):
        row = move_row(96, 146, 0)
        assert format_trace([row]).splitlines()[1] == \
            "M 0.00100 0 (96.00, 00.00), (96.00, 00.00), 0.00"


def _rejected(line: str) -> TraceParseError:
    """The error ``parse_trace`` raises on ``line``, which it finds on line 1."""
    with pytest.raises(TraceParseError) as err:
        parse_trace(line)
    assert err.value.line == 1
    return err.value


class TestParseTraceLine:
    """``parse_trace`` on one movement line, or on one move's pair of them."""

    # Node 1's half of a move of step 2 from 1 and 10.
    PARTNER = "M 0.00100 1 (10.00, 00.00), (8.00, 00.00), 2.00\n"

    def test_second_move_node0(self):
        line = "M 0.00100 0 (38.00, 00.00), (81.00, 00.00), 43.00"
        partner = "M 0.00100 1 (472.00, 00.00), (429.00, 00.00), 43.00"
        assert parse_trace(f"{line}\n{partner}\n") == \
            [(43, 38, 81, 472, 429)]

    @given(records, st.sampled_from([0, 1]))
    def test_round_trip(self, rec, node_id):
        text = f"{reference_line(rec, node_id)}\n{reference_line(rec, 1 - node_id)}"
        assert parse_trace(text) == [rec]

    def test_bad_marker_reports_column_1(self):
        err = _rejected("X 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00")
        assert (err.reason, err.column) == ("expected marker 'M'", 1)

    def test_bad_node_id(self):
        err = _rejected("M 0.00100 2 (500.00, 00.00), (472.00, 00.00), 28.00")
        assert (err.reason, err.column) == ("node id must be 0 or 1, got '2'", 11)

    @pytest.mark.parametrize("node", ["0.9", "1.0", "01", "-0", "10"])
    def test_node_id_is_one_character(self, node):
        err = _rejected(
            f"M 0.00100 {node} (500.00, 00.00), (472.00, 00.00), 28.00")
        assert err.column == 11
        assert repr(node) in err.reason

    def test_negative_move_time_rejected(self):
        err = _rejected("M -0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00")
        assert err.column == 3
        assert "negative" in err.reason

    def test_column_survives_in_whole_trace(self):
        text = ("M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00\n"
                "M 0.00100 0.9 (10.00, 00.00), (38.00, 00.00), 28.00\n")
        with pytest.raises(TraceParseError) as err:
            parse_trace(text)
        assert (err.value.line, err.value.column) == (2, 11)

    def test_nonzero_y_rejected(self):
        err = _rejected("M 0.00100 1 (500.00, 01.00), (472.00, 00.00), 28.00")
        assert (err.reason, err.column) == ("expected initial y ', 00.00), '", 20)

    def test_inconsistent_step_rejected(self):
        err = _rejected("M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 29.00")
        assert (err.reason, err.column) == (
            "step 29 does not match |472 - 500|", 47)

    def test_step_compared_exactly_in_decimal(self):
        # Positions and step are integers: a line of decimals, whose step
        # matches in decimal, is rejected at its first non-zero fraction.
        line = "M 0.00100 0 (0.1, 00.00), (0.3, 00.00), 0.2"
        assert _outcome(parse_trace, line) == ("non-zero fraction in initial x", 15, 1)
        line = "M 0.00100 0 (1.0, 00.00), (3.000, 00.00), 2"
        assert parse_trace(f"{line}\n{self.PARTNER}") == [(2, 1, 3, 10, 8)]

    def test_step_equal_only_as_floats_rejected(self):
        # As floats, 2**53 + 1 is 2**53, so the step 0 would match.
        line = ("M 0.00100 0 (9007199254740992.00, 00.00), "
                "(9007199254740993.00, 00.00), 0.00")
        err = _rejected(line)
        assert err.reason == \
            "step 0 does not match |9007199254740993 - 9007199254740992|"
        assert err.column == line.rindex("0.00") + 1

    def test_long_fraction_compared_exactly(self):
        # Past 4300 digits, int() refuses a text; a fraction is only checked
        # for zeros, however long.
        zeros = "0" * 5000
        line = f"M 0.00100 0 (1.{zeros}, 00.00), (3, 00.00), 2.{zeros}"
        assert parse_trace(f"{line}\n{self.PARTNER}") == [(2, 1, 3, 10, 8)]
        odd = line.replace(f"2.{zeros}", f"2.{zeros}1")
        assert _outcome(parse_trace, f"{odd}\n{self.PARTNER}") == (
            "non-zero fraction in step length", odd.index("2.") + 2, 1)

    @pytest.mark.parametrize("init, new, step, accepted", [
        ("0.00", "1" + "0" * 400 + ".00", "2" + "0" * 400 + ".00", False),
        ("1" + "0" * 400 + ".00", "1" + "0" * 400 + ".00", "0.00", True),
        ("1" + "0" * 400 + ".00", "1" + "0" * 399 + "1.00", "0.00", False),
    ], ids=["twice-as-far", "no-move", "one-apart"])
    def test_integers_past_float_range_compared_exactly(
            self, init, new, step, accepted):
        # float() reads each 401-digit number as inf, and inf - 0 is inf;
        # their ints differ.
        line = f"M 0.00100 0 ({init}, 00.00), ({new}, 00.00), {step}"
        verdict = _outcome(parse_trace, line)
        assert verdict == _outcome(cursor_parse_trace, line)
        if accepted:  # the line passes, and then lacks its partner
            assert verdict == ("movement line has no partner", 1, 1)
        else:
            assert "does not match" in verdict[0]
            assert verdict[1:] == (line.rindex(step) + 1, 1)

    def test_trailing_garbage_rejected(self):
        err = _rejected("M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00 ")
        assert (err.reason, err.column) == ("trailing characters after step length", 52)

    def test_truncated_line_rejected(self):
        err = _rejected("M 0.00100 1 (500.00, 00.00), (472.00")
        assert (err.reason, err.column) == ("expected new y ', 00.00), '", 37)

    @pytest.mark.parametrize("x, column, reason", [
        ("١٠.00", 14, "expected initial x"),
        ("1².00", 15, "expected initial y ', 00.00), '"),
    ])
    def test_non_ascii_digits_rejected(self, x, column, reason):
        # The cursor parser read "١٠" as 10 and let "1²" raise a bare ValueError.
        line = f"M 0.00100 0 ({x}, 00.00), (38.00, 00.00), 28.00"
        err = _rejected(line)
        assert (err.reason, err.column) == (reason, column)
        with pytest.raises(TraceParseError) as err:
            parse_trace(f"STEP-1\n{line}\n")
        assert (err.value.line, err.value.column) == (2, column)

    @pytest.mark.parametrize("x, x_new, step, column, what", [
        ("3.5", "0", "3", 15, "initial x"),
        ("3", "0.05", "3", 27, "new x"),
        ("3", "0", "3.000000000000000000001", 38, "step length"),
        ("3.0005", "0.5", "3.5", 15, "initial x"),
    ])
    def test_non_zero_fraction_rejected_at_its_column(self, x, x_new, step, column, what):
        line = f"M 0.00100 0 ({x}, 00.00), ({x_new}, 00.00), {step}"
        err = _rejected(line)
        assert (err.reason, err.column) == (f"non-zero fraction in {what}", column)
        assert line[column - 1] == "."

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
        "M 0.1 0 (1.00.0, 00.00), (2, 00.00), 1",
        "M 0.1 0 (1.05, 00.00), (2, 00.00), 1",
        "M 0.1 0 (1, 00.00), (2, 00.00), 1.000",
    ])
    def test_matches_cursor_parser_on_examples(self, line):
        assert _outcome(parse_trace, line) == _outcome(cursor_parse_trace, line)

    @given(any_lines)
    def test_matches_cursor_parser(self, line):
        if _has_non_ascii_digit(line):
            with pytest.raises(TraceParseError):
                parse_trace(line)
            return
        assert _outcome(parse_trace, line) == _outcome(cursor_parse_trace, line)


class TestWholeTrace:
    WALK = [move_row(10, 500, 28), move_row(38, 472, 43)]

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

    @given(st.lists(wide_records, max_size=8), st.booleans())
    @example([], False)
    @example([], True)
    def test_matches_per_line_reference(self, recs, headers):
        assert format_trace(recs, headers) == reference_trace(recs, headers)

    @given(st.lists(records, max_size=20), st.booleans())
    def test_round_trip(self, recs, headers):
        assert parse_trace(format_trace(recs, step_headers=headers)) == recs

    def test_either_node_order_accepted(self):
        flipped = "\n".join([
            reference_line(self.WALK[0], 0),
            reference_line(self.WALK[0], 1),
        ])
        assert parse_trace(flipped) == [self.WALK[0]]

    def test_unpaired_line_rejected(self):
        text = reference_line(self.WALK[0], 1)
        with pytest.raises(TraceParseError):
            parse_trace(text)

    def test_same_node_twice_rejected(self):
        text = "\n".join([reference_line(self.WALK[0], 1)] * 2)
        with pytest.raises(TraceParseError):
            parse_trace(text)

    def test_step_disagreement_rejected(self):
        text = "\n".join([
            reference_line(self.WALK[0], 1),
            reference_line(self.WALK[1], 0),
        ])
        with pytest.raises(TraceParseError):
            parse_trace(text)

    def test_move_time_is_checked_not_kept(self):
        timed = self.PAIR.replace("0.00100", "0.50000")
        for text in (timed, "STEP-1\n" + timed):  # scanned, then line by line
            assert parse_trace(text) == [self.WALK[0]]
        assert format_trace(parse_trace(timed)) == self.PAIR

    def test_time_disagreement_rejected(self):
        # Node 1's line used to be dropped after pairing, time and all, so
        # this pair came back as one record with a time of 0.001.
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
            reference_line(self.WALK[0], 0), reference_line(self.WALK[0], 1),
            reference_line(self.WALK[1], 1), reference_line(self.WALK[1], 0),
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
        # 400 digits, past a float's range, parse exactly; past int()'s digit
        # limit, a number is rejected at its column.
        big = "9" * 400
        text = (f"M 0.00100 1 (0, 00.00), (-{big}, 00.00), {big}\n"
                f"M 0.00100 0 (0, 00.00), ({big}, 00.00), {big}\n")
        assert parse_trace(text) == [(int(big), 0, int(big), 0, -int(big))]
        huge = "9" * (sys.get_int_max_str_digits() + 1)
        text = text.replace(f"({big}, 00.00), {big}", f"({huge}, 00.00), {huge}")
        with pytest.raises(TraceParseError) as err:
            parse_trace(text)
        assert (err.value.line, err.value.column) == (2, 26)
        assert "sys.get_int_max_str_digits()" in err.value.reason

    @given(st.lists(wide_records, max_size=8), st.booleans())
    def test_round_trip_past_float_precision(self, recs, headers):
        assert parse_trace(format_trace(recs, step_headers=headers)) == recs

    @given(st.integers(-(2**53) + 1, 2**53 - 1))
    def test_positions_print_as_through_a_float_below_2_53(self, x):
        row = move_row(x, x, 0)
        assert format_trace([row]).splitlines()[1] == (
            f"M 0.00100 0 ({x:.2f}, 00.00), ({x:.2f}, 00.00), 0.00")

    def test_positions_above_2_53_exact(self):
        row = move_row(9007199254741001, 9007199254741068, 22)
        text = format_trace([row])
        assert "(9007199254741001.00, 00.00), (9007199254741023.00, 00.00)" in text
        assert parse_trace(text) == [row]

    def test_leading_zeros_past_the_int_digit_limit(self):
        zeros = "0" * 5000
        line = (f"M 0.00100 0 (-{zeros}9007199254741001, 00.00), "
                f"(-9007199254740979.00, 00.00), {zeros}22")
        partner = "M 0.00100 1 (100.00, 00.00), (78.00, 00.00), 22.00"
        assert parse_trace(f"{line}\n{partner}\n") == [
            (22, -9007199254741001, -9007199254740979, 100, 78)]

    def test_fraction_next_to_a_wide_number_rejected(self):
        line = ("M 0.00100 0 (9007199254741001.00, 00.00), "
                "(9007199254741023.50, 00.00), 22.50")
        err = _rejected(line)
        assert (err.reason, err.column) == (
            "non-zero fraction in new x", line.index(".50") + 1)

    @given(st.lists(small_and_wide_records, max_size=8),
           st.sampled_from(["0.00100", "0.00000", "0.50000", "12.25000"]))
    def test_format_trace_output_is_scanned(self, recs, time):
        # A pattern that never matches would still parse, only slowly.
        text = format_trace(recs).replace("M 0.00100 ", f"M {time} ")
        with mock.patch.object(traceio, "_fields", side_effect=AssertionError):
            assert parse_trace(text) == recs

    def test_wide_numbers_scanned(self):
        # The scan takes numbers of any width, past 2**53 and a float's range.
        recs = [move_row(10**15, -(10**15 - 1), 7),
                move_row(-(10**400), 10**400, 10**399)]
        with mock.patch.object(traceio, "_fields", side_effect=AssertionError):
            assert parse_trace(format_trace(recs)) == recs

    PAIR = ("M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00\n"
            "M 0.00100 0 (10.00, 00.00), (38.00, 00.00), 28.00\n")

    @given(st.one_of(traces(), edited_format_traces()))
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
        assert (err.value.reason, err.value.line, err.value.column) == (
            "non-zero fraction in initial x", 1, 15)
        zeros = text.replace("00000000000000000001,", "00000000000000000000,")
        assert parse_trace(zeros) == [(1, 1, 2, 5, 4)]

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
        assert ds.rows[0] == (36, 99, 135, 142, 106)
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
        assert ds.rows[-1] == (42, 247, 289, 263, 221)
        # Ninth row normalized so the chain stays arithmetic-consistent.
        assert ds.rows[8] == (48, 177, 225, 333, 285)

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


def reference_outcome(row: tuple, brink: int) -> Outcome:
    """The brink rule, written out: MN_0 crosses at or past the brink, MN_1
    at or below it."""
    crossed = (row[2] >= brink, row[4] <= brink)
    return {(True, True): Outcome.SIMULTANEOUS_OVERLAP,
            (True, False): Outcome.MN0_OVERLAP,
            (False, True): Outcome.MN1_OVERLAP,
            (False, False): Outcome.NO_OVERLAP}[crossed]


def reference_csv(recs: list[tuple], brink: int) -> str:
    """The rows as the stdlib's csv writer writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in recs:
        writer.writerow([*row, reference_outcome(row, brink).value])
    return buf.getvalue()


# Brinks drawn over the range of ``wide_records``' positions, so a list of
# them meets every outcome.
wide_brinks = st.integers(-(2**71), 2**71)


class TestCsv:
    def test_header_and_first_row(self):
        ds = load_dataset("table-1")
        text = write_csv(ds.rows, 30)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == "5,14,19,55,50,no_overlap"
        assert len(lines) == 4

    def test_empty_batch_is_header_only(self):
        assert write_csv([], 0) == ",".join(CSV_HEADER) + "\n"

    @given(st.lists(wide_records, max_size=8), wide_brinks)
    def test_matches_csv_writer(self, recs, brink):
        assert write_csv(recs, brink) == reference_csv(recs, brink)

    def test_round_trip(self):
        ds = load_dataset("table-5")
        assert read_csv(write_csv(ds.rows, ds.layout.brink)) == list(ds.rows)

    def test_outcome_column_optional(self):
        text = "step,mn0_init,mn0_new,mn1_init,mn1_new\n5,14,19,55,50\n"
        assert read_csv(text) == [(5, 14, 19, 55, 50)]

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
        assert read_csv(text) == [(5, -3, 2, -10, -15)]

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


def record_dict(row: tuple, brink: int | None = None) -> dict:
    """JSON-ready view of one move, the reference for :class:`JsonRecords`."""
    out = dict(zip(
        ("step", "mn0_init", "mn0_new", "mn1_init", "mn1_new"), row, strict=True))
    if brink is not None:
        out["outcome"] = reference_outcome(row, brink).value
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
moves = st.lists(wide_records, max_size=6)
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
    @given(moves, st.none() | wide_brinks)
    @example([], 0)
    @example([], None)
    def test_record_block_matches_record_dicts(self, nesting, recs, brink):
        dicts = [record_dict(rec, brink) for rec in recs]
        wrap = NESTINGS[nesting]
        assert write_json(wrap(JsonRecords(recs, brink))) == \
            reference_json(wrap(dicts))

    @given(moves, st.none() | wide_brinks)
    def test_record_iterators_and_generators_render_as_lists(self, recs, brink):
        doc = {"runs": ({"run": j, "records": JsonRecords(iter(recs), brink)}
                        for j in range(2)), "empty": (x for x in ())}
        assert write_json(doc) == reference_json(
            {"runs": [{"run": j, "records": [record_dict(rec, brink)
                                             for rec in recs]}
                      for j in range(2)], "empty": []})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            write_json({"x": float("nan")})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nested_nan_and_inf_rejected(self, value):
        for doc in ({"x": [1, {"y": value}]}, [value], {"x": (value,)}):
            with pytest.raises(ValueError):
                write_json(doc)

    def test_non_str_key_rejected(self):
        with pytest.raises(TypeError, match="keys must be str"):
            write_json({"a": {1: "x"}})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json({"a": [object()]})


# Move counts at and around the edges of the writers' 1,024-move pieces.
CHUNK_EDGES = [0, 1, 1023, 1024, 1025, 2049]


# Against this brink, ``chunk_records(2049)`` meets all four outcomes.
CHUNK_BRINK = 450


def chunk_records(n: int) -> list[tuple]:
    return [move_row(i % 500, 400 + i % 700, i % 51) for i in range(n)]


class TestPieces:
    """Each writer's pieces join to the text of its whole-string writer, and
    no piece holds more than 1,024 moves."""

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    @pytest.mark.parametrize("headers", [False, True])
    def test_trace(self, n, headers):
        recs = chunk_records(n)
        pieces = list(trace_pieces(recs, headers))
        assert "".join(pieces) == reference_trace(recs, headers)
        assert format_trace(recs, headers) == "".join(pieces)
        assert max((p.count("M 0.00100 0 ") for p in pieces), default=0) \
            == min(n, 1024)

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_csv(self, n):
        recs = chunk_records(n)
        pieces = list(csv_pieces(recs, CHUNK_BRINK))
        assert "".join(pieces) == reference_csv(recs, CHUNK_BRINK)
        assert write_csv(recs, CHUNK_BRINK) == "".join(pieces)
        assert pieces[0] == ",".join(CSV_HEADER) + "\n"
        assert max((p.count("\n") for p in pieces[1:]), default=0) \
            == min(n, 1024)

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    @pytest.mark.parametrize("nesting", sorted(NESTINGS))
    @pytest.mark.parametrize("with_outcomes", [False, True])
    def test_json(self, n, nesting, with_outcomes):
        recs = chunk_records(n)
        brink = CHUNK_BRINK if with_outcomes else None
        dicts = [record_dict(rec, brink) for rec in recs]
        doc = NESTINGS[nesting](JsonRecords(recs, brink))
        pieces = list(json_pieces(doc))
        assert "".join(pieces) == reference_json(NESTINGS[nesting](dicts))
        assert write_json(doc) == "".join(pieces)
        assert max(p.count('"step"') for p in pieces) == min(n, 1024)


@st.composite
def spelled_moves(draw):
    """Moves up to 2**70, and a trace and a CSV of them, each number spelled
    with leading zeros (past the 4,300 digits int() takes, too), a 0 as -0,
    and in the trace only with a fraction of zeros."""
    def spell(value: int, fraction: bool) -> str:
        zeros = "0" * draw(st.one_of(st.integers(0, 3), st.integers(4300, 4310)))
        sign = "-" if value < 0 or (value == 0 and draw(st.booleans())) else ""
        tail = draw(st.just("") | zero_fractions) if fraction else ""
        return f"{sign}{zeros}{abs(value)}{tail}"

    recs = draw(st.lists(small_and_wide_records, max_size=4))
    trace, table = [], [",".join(CSV_HEADER[:5])]
    for step, mn0_init, mn0_new, mn1_init, mn1_new in recs:
        lines = [f"M 0.00100 {node} ({spell(init, True)}, 00.00), "
                 f"({spell(new, True)}, 00.00), {spell(step, True)}"
                 for node, init, new in ((1, mn1_init, mn1_new),
                                         (0, mn0_init, mn0_new))]
        trace += draw(st.permutations(lines))
        table.append(",".join(spell(value, False) for value in (
            step, mn0_init, mn0_new, mn1_init, mn1_new)))
    return recs, "\n".join(trace), "\n".join(table)


class TestSharedInts:
    """A reader converts each number text once, so equal numbers in its
    rows are one int object."""

    def test_one_int_per_value(self):
        # Every value is above 256, past CPython's cached small ints.
        recs = [move_row(1000 + i % 7, 5000 + i % 5, 300 + i % 3)
                for i in range(300)]
        for parsed in (parse_trace(format_trace(recs)),
                       read_csv(write_csv(recs, 0))):
            assert parsed == recs
            values = [value for row in parsed for value in row]
            assert min(values) > 256
            assert len({id(value) for value in values}) == len(set(values))

    @given(spelled_moves())
    @example(([(3, 0, 3, 10, 7)] * 2,
              "M 0.00100 1 (0010.00, 00.00), (007.00, 00.00), 3.00\n"
              "M 0.00100 0 (-0.00, 00.00), (03.00, 00.00), 3.00\n"
              "M 0.00100 1 (10.00, 00.00), (7.00, 00.00), 3.00\n"
              "M 0.00100 0 (0.00, 00.00), (3.00, 00.00), 3.00\n",
              ",".join(CSV_HEADER[:5]) + "\n3,-0,03,0010,007\n3,0,3,10,7\n"))
    def test_spellings_of_one_number_parse_equal(self, case):
        recs, trace, table = case
        assert parse_trace(trace) == read_csv(table) == recs

    @pytest.mark.parametrize("reader", ["trace", "csv"])
    def test_long_numbers_read_alike(self, reader):
        """Leading zeros do not count against int()'s digit limit; a number
        with more significant digits than it gets one reason in both readers."""
        def read(x: str) -> list[tuple]:
            if reader == "csv":
                return read_csv(f"{','.join(CSV_HEADER[:5])}\n0,{x},{x},3,3\n")
            return parse_trace(f"M 0.00100 1 (3.00, 00.00), (3.00, 00.00), 0.00\n"
                               f"M 0.00100 0 ({x}.00, 00.00), ({x}.00, 00.00), 0.00\n")

        assert read("0" * 5000 + "5") == [(0, 5, 5, 3, 3)]
        limit = sys.get_int_max_str_digits()
        reason = ("more significant digits than sys.get_int_max_str_digits() "
                  f"allows ({limit})")
        error = CsvFormatError if reader == "csv" else TraceParseError
        with pytest.raises(error) as err:
            read("0" * 10 + "5" * (limit + 1))
        if reader == "csv":
            assert str(err.value) == f"row 2: {reason}"
        else:
            assert (err.value.reason, err.value.line, err.value.column) == (reason, 2, 14)
        assert read("5" * limit) == [(0, int("5" * limit), int("5" * limit), 3, 3)]



SEVENS = "7" * 4300
LONG = "777...777 (4300 characters)"


def csv_row(row: str) -> list[tuple]:
    return read_csv(f"{','.join(CSV_HEADER[:5])}\n{row}\n")


class TestLongNumbersInErrors:
    """An error names a number of more than 32 characters by its ends and
    its length, so a rejected 4,300-digit field gives a one-line message."""

    @pytest.mark.parametrize("read, text, message", [
        (csv_row, f"1,{SEVENS},{SEVENS},3,2",
         f"row 2: MN_0 update broken: {LONG} + 1 != {LONG}"),
        (csv_row, f"1,0,1,{SEVENS},{SEVENS}",
         f"row 2: MN_1 update broken: {LONG} - 1 != {LONG}"),
        (csv_row, f"1,{SEVENS}x,{SEVENS},3,2",
         f"row 2: non-integer field in ['1', '777...77x (4301 characters)', "
         f"'{LONG}', '3', '2']"),
        (csv_row, f"-{SEVENS},0,1,3,2",
         "row 2: step must be non-negative, got -77...777 (4301 characters)"),
        (parse_trace, f"M 0.00100 1 ({SEVENS}.00, 00.00), ({SEVENS}.00, 00.00), 3.00",
         f"line 1, column 8641: step 3 does not match |{LONG} - {LONG}|"),
    ], ids=["mn0-update", "mn1-update", "non-integer", "negative-step",
            "step-mismatch"])
    def test_message_stays_short(self, read, text, message):
        with pytest.raises(ValueError) as err:
            read(text)
        assert str(err.value) == message
        assert len(message.encode()) < 200

    def test_short_numbers_stay_verbatim(self):
        n = "9" * 32
        with pytest.raises(CsvFormatError) as err:
            csv_row(f"1,{n},{n},3,2")
        assert str(err.value) == f"row 2: MN_0 update broken: {n} + 1 != {n}"


class TestRowParity:
    """Each reader returns the rows its writer was given, as tuples of plain
    ints, and names a broken row by the message ``MoveRecord`` gives it."""

    @given(st.lists(small_and_wide_records, max_size=8), wide_brinks,
           st.booleans())
    @example([move_row(-(2**53) - 1, 2**53 + 1, 3), move_row(-5, -2, 0)], 0,
             False)
    def test_round_trip_is_exact(self, rows, brink, headers):
        for back in (read_csv(write_csv(rows, brink)),
                     parse_trace(format_trace(rows, headers))):
            assert back == rows
            assert all(type(row) is tuple and len(row) == 5 for row in back)
            assert all(type(value) is int for row in back for value in row)

    @given(wide_records, st.integers(0, 4),
           st.integers(-(2**60), 2**60).filter(bool), wide_brinks)
    @example(move_row(1, 2, 3), 0, -4, 0)  # a negative step
    def test_broken_csv_row_names_the_record_message(self, row, field, delta,
                                                      brink):
        broken = tuple(v + delta if i == field else v for i, v in enumerate(row))
        with pytest.raises(ValueError) as expected:
            MoveRecord(*broken)
        with pytest.raises(CsvFormatError) as err:
            read_csv(write_csv([row, broken], brink))
        assert str(err.value) == f"row 3: {expected.value}"
        with pytest.raises(CsvFormatError) as err:
            read_csv(write_csv([broken], brink))
        assert str(err.value) == f"row 2: {expected.value}"

    @given(wide_records.filter(lambda row: row[0] > 0), st.sampled_from([0, 1]),
           st.booleans())
    def test_wrong_way_trace_move_names_the_record_message(self, row, node,
                                                           headers):
        step, mn0_init, mn0_new, mn1_init, mn1_new = row
        broken = ((step, mn0_init, mn0_init - step, mn1_init, mn1_new)
                  if node == 0 else
                  (step, mn0_init, mn0_new, mn1_init, mn1_init + step))
        with pytest.raises(ValueError) as expected:
            MoveRecord(*broken)
        with pytest.raises(TraceParseError) as err:
            parse_trace(format_trace([row, broken], headers))
        assert err.value.reason == str(expected.value)
        assert (err.value.line, err.value.column) == (7 if headers else 4, 1)


class TestRecordsAsRows:
    """A record is its row: each writer gives the same bytes for records as
    for plain rows, ``classify`` gives the same outcome, and the readers
    still return plain tuples."""

    @given(st.lists(small_and_wide_records, max_size=8), wide_brinks)
    @example([move_row(-(2**53) - 1, 2**53 + 1, 3), move_row(-5, -2, 0)], 0)
    def test_records_write_and_classify_as_rows(self, rows, brink):
        recs = [MoveRecord(*row) for row in rows]
        for write in (lambda moves: write_csv(moves, brink),
                      format_trace,
                      lambda moves: format_trace(moves, True),
                      lambda moves: write_json({"records": JsonRecords(moves)}),
                      lambda moves: write_json({"records": JsonRecords(moves, brink)})):
            assert write(recs) == write(rows)
        layout = ZoneLayout(brink - 2, brink - 1, brink + 1, brink + 2, brink)
        for row, rec in zip(rows, recs, strict=True):
            assert (classify(row, layout) is classify(rec, layout)
                    is crossing(row[2], row[4], brink))
        for back in (read_csv(write_csv(recs, brink)),
                     parse_trace(format_trace(recs))):
            assert back == recs
            assert all(type(row) is tuple for row in back)
