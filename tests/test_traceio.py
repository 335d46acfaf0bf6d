import json

import pytest
from hypothesis import given, strategies as st

from simulmob.datasets import DATASET_IDS, load_dataset
from simulmob.model import MoveRecord, Outcome
from simulmob.traceio import (
    CSV_HEADER,
    CsvFormatError,
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

    def test_trailing_garbage_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace_line("M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00 ")

    def test_truncated_line_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace_line("M 0.00100 1 (500.00, 00.00), (472.00")


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

    def test_line_number_in_error(self):
        good = format_trace(self.WALK)
        bad = good.replace("M 0.00100 0 (38.00", "Q 0.00100 0 (38.00")
        with pytest.raises(TraceParseError) as err:
            parse_trace(bad)
        assert err.value.line == 4
        assert err.value.column == 1


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

    def test_equation_violation_rejected(self):
        text = ",".join(CSV_HEADER) + "\n5,14,20,55,50,no_overlap\n"
        with pytest.raises(CsvFormatError):
            read_csv(text)


class TestJson:
    def test_round_trip(self):
        doc = {"a": [1, 2, 3], "b": {"c": "x"}, "n": None}
        assert json.loads(write_json(doc)) == doc

    def test_deterministic(self):
        doc = {"z": 1, "a": 2}
        assert write_json(doc) == write_json({"z": 1, "a": 2})
        # Insertion order is preserved, not sorted.
        assert write_json(doc).index('"z"') < write_json(doc).index('"a"')

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            write_json({"x": float("nan")})
