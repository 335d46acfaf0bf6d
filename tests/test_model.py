import copy
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from simulmob.model import (
    LayoutError,
    MoveRecord,
    Outcome,
    ZoneLayout,
    abbreviate,
    classify,
    crossing,
)
from simulmob.traceio import CSV_HEADER


def layouts(max_coord: int = 500):
    """Valid layouts: zone0_lo <= zone0_hi < brink < zone1_lo <= zone1_hi."""
    return st.tuples(
        st.integers(0, max_coord),
        st.integers(0, 400),
        st.integers(1, 100),
        st.integers(1, 100),
        st.integers(0, 400),
    ).map(lambda t: ZoneLayout(
        t[0],
        t[0] + t[1],
        t[0] + t[1] + t[2] + t[3],
        t[0] + t[1] + t[2] + t[3] + t[4],
        t[0] + t[1] + t[2],
    ))


class TestAdvance:
    """``MoveRecord.from_inits`` moves both nodes one shared step."""

    @staticmethod
    def _moved(mn0, mn1, step):
        rec = MoveRecord.from_inits(mn0, mn1, step)
        assert (rec.step, rec.mn0_init, rec.mn1_init) == (step, mn0, mn1)
        return rec.mn0_new, rec.mn1_new

    def test_reference_row(self):
        assert self._moved(14, 55, 5) == (19, 50)

    def test_zero_step_is_identity(self):
        assert self._moved(96, 146, 0) == (96, 146)

    def test_walk_start(self):
        assert self._moved(10, 500, 28) == (38, 472)

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000),
           st.integers(0, 1000))
    def test_update_equations(self, mn0, mn1, step):
        new0, new1 = self._moved(mn0, mn1, step)
        assert new0 == mn0 + step
        assert new1 == mn1 - step
        # The gap closes by exactly twice the shared step.
        assert (mn1 - mn0) - (new1 - new0) == 2 * step


class TestCrossingPredicates:
    """``crossing``'s brink rule for one node at a time; the other node
    stays far from the brink."""

    def test_mn0_touch_counts(self):
        assert crossing(100, 150, 100) is Outcome.MN0_OVERLAP
        assert crossing(99, 150, 100) is Outcome.NO_OVERLAP

    def test_mn0_exceed_counts(self):
        assert crossing(384, 750, 375) is Outcome.MN0_OVERLAP

    def test_mn1_touch_counts(self):
        assert crossing(50, 100, 100) is Outcome.MN1_OVERLAP
        assert crossing(50, 101, 100) is Outcome.NO_OVERLAP

    def test_mn1_descend_counts(self):
        assert crossing(0, 344, 375) is Outcome.MN1_OVERLAP


class TestOutcome:
    """An outcome hashes by identity, so a copy must be the same member."""

    @pytest.mark.parametrize("outcome", list(Outcome))
    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_the_member(self, outcome, duplicate):
        again = duplicate(outcome)
        assert again is outcome
        assert hash(again) == hash(outcome)

    def test_members_hash_apart(self):
        assert len({hash(o) for o in Outcome}) == len(Outcome)
        assert {o: o.value for o in Outcome}[Outcome.MN0_OVERLAP] == "mn0_overlap"


class TestMoveRecord:
    def test_from_inits(self):
        rec = MoveRecord.from_inits(10, 500, 28)
        assert (rec.mn0_new, rec.mn1_new) == (38, 472)

    def test_rejects_broken_mn0_equation(self):
        with pytest.raises(ValueError):
            MoveRecord(5, 14, 20, 55, 50)

    def test_rejects_broken_mn1_equation(self):
        with pytest.raises(ValueError):
            MoveRecord(5, 14, 19, 55, 49)

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            MoveRecord(-1, 14, 13, 55, 56)

    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("bad", [1.5, True])
    def test_rejects_non_int_fields(self, field, bad):
        # A float or bool would write a trace line the grammar rejects.
        args = [1, 0, 1, 5, 4]
        args[field] = bad
        with pytest.raises(ValueError, match="^step and positions must be ints"):
            MoveRecord(*args)

    @pytest.mark.parametrize("args, message", [
        ((1.5, 0, 1, 5, 4), "step and positions must be ints, got MoveRecord("
                            "step=1.5, mn0_init=0, mn0_new=1, mn1_init=5, mn1_new=4)"),
        ((-1, 14, 13, 55, 56), "step must be non-negative, got -1"),
        ((5, 14, 20, 55, 50), "MN_0 update broken: 14 + 5 != 20"),
        ((5, 14, 19, 55, 49), "MN_1 update broken: 55 - 5 != 49"),
    ])
    def test_error_messages(self, args, message):
        with pytest.raises(ValueError) as err:
            MoveRecord(*args)
        assert str(err.value) == message

    def test_replace_validates(self):
        rec = MoveRecord.from_inits(10, 500, 28)
        moved = rec._replace(mn1_init=501, mn1_new=473)
        assert type(moved) is MoveRecord and moved == MoveRecord.from_inits(10, 501, 28)
        with pytest.raises(ValueError, match="^MN_0 update broken: 10 [+] 29 != 38$"):
            rec._replace(step=29)
        with pytest.raises(ValueError, match="^MN_0 update broken: 14 [+] 5 != 20$"):
            MoveRecord._make((5, 14, 20, 55, 50))

    @pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13")
    def test_copy_replace_validates(self):
        rec = MoveRecord.from_inits(10, 500, 28)
        assert copy.replace(rec, mn1_init=501, mn1_new=473) == \
            MoveRecord.from_inits(10, 501, 28)
        with pytest.raises(ValueError, match="^MN_0 update broken: 10 [+] 29 != 38$"):
            copy.replace(rec, step=29)

    def test_frozen(self):
        rec = MoveRecord.from_inits(10, 500, 28)
        with pytest.raises(AttributeError):
            rec.step = 0
        with pytest.raises(AttributeError):
            del rec.mn0_new
        # The fields live in the tuple, not in a dict per record.
        assert not hasattr(rec, "__dict__")

    def test_fields_and_repr(self):
        rec = MoveRecord(step=28, mn0_init=10, mn0_new=38, mn1_init=500, mn1_new=472)
        assert MoveRecord._fields == CSV_HEADER[:5] == (
            "step", "mn0_init", "mn0_new", "mn1_init", "mn1_new")
        assert repr(rec) == ("MoveRecord(step=28, mn0_init=10, mn0_new=38, "
                             "mn1_init=500, mn1_new=472)")
        assert tuple(rec) == (28, 10, 38, 500, 472)

    def test_eq_and_hash_by_fields(self):
        rec = MoveRecord.from_inits(10, 500, 28)
        same = MoveRecord(28, 10, 38, 500, 472)
        assert rec == same and hash(rec) == hash(same)
        assert rec != MoveRecord.from_inits(10, 501, 28)
        # A record is its row: a reader's plain tuple matches it.
        row = (28, 10, 38, 500, 472)
        assert isinstance(rec, tuple)
        assert rec == row and hash(rec) == hash(row)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda rec: pickle.loads(pickle.dumps(rec))])
    def test_copies_equal(self, clone):
        rec = MoveRecord(3, -2, 1, 2**70, 2**70 - 3)
        twin = clone(rec)
        assert type(twin) is MoveRecord
        assert twin == rec and hash(twin) == hash(rec) and repr(twin) == repr(rec)
        # A copy is built again, so it is checked again: a broken move made
        # past the checks does not survive one.
        broken = tuple.__new__(MoveRecord, (5, 14, 20, 55, 50))
        with pytest.raises(ValueError, match="^MN_0 update broken: 14 [+] 5 != 20$"):
            clone(broken)


class TestAbbreviate:
    def test_prints_up_to_32_characters_in_full(self):
        assert abbreviate(10**31) == "1" + "0" * 31
        assert abbreviate(-(10**30)) == "-1" + "0" * 30

    def test_shortens_from_33_characters(self):
        assert abbreviate(10**32 + 7) == "100...007 (33 characters)"
        assert abbreviate(-(10**31)) == "-10...000 (33 characters)"


class TestClassify:
    LAYOUT = ZoneLayout(50, 99, 101, 150, 100)

    def test_simultaneous(self):
        rec = MoveRecord.from_inits(75, 102, 33)
        assert classify(rec, self.LAYOUT) is Outcome.SIMULTANEOUS_OVERLAP

    def test_zero_step_no_overlap(self):
        rec = MoveRecord.from_inits(96, 146, 0)
        assert classify(rec, self.LAYOUT) is Outcome.NO_OVERLAP

    def test_touch_is_mn0_overlap(self):
        rec = MoveRecord.from_inits(90, 137, 10)
        assert classify(rec, self.LAYOUT) is Outcome.MN0_OVERLAP

    def test_mn1_overlap(self):
        rec = MoveRecord.from_inits(60, 130, 35)
        assert classify(rec, self.LAYOUT) is Outcome.MN1_OVERLAP

    @given(layouts(), st.integers(0, 2000), st.integers(0, 2000),
           st.integers(0, 500))
    def test_partition(self, layout, mn0, mn1, step):
        """Exactly one outcome, consistent with each node's brink test."""
        rec = MoveRecord.from_inits(mn0, mn1, step)
        outcome = classify(rec, layout)
        c0 = rec.mn0_new >= layout.brink
        c1 = rec.mn1_new <= layout.brink
        expected = {
            (True, True): Outcome.SIMULTANEOUS_OVERLAP,
            (True, False): Outcome.MN0_OVERLAP,
            (False, True): Outcome.MN1_OVERLAP,
            (False, False): Outcome.NO_OVERLAP,
        }[(c0, c1)]
        assert outcome is expected

    @given(layouts(), st.integers(0, 2000), st.integers(0, 2000),
           st.integers(0, 300), st.integers(0, 300))
    def test_crossing_monotone_in_step(self, layout, mn0, mn1, step, extra):
        small = MoveRecord.from_inits(mn0, mn1, step)
        large = MoveRecord.from_inits(mn0, mn1, step + extra)
        if small.mn0_new >= layout.brink:
            assert large.mn0_new >= layout.brink
        if small.mn1_new <= layout.brink:
            assert large.mn1_new <= layout.brink
        if classify(small, layout) is Outcome.SIMULTANEOUS_OVERLAP:
            assert classify(large, layout) is Outcome.SIMULTANEOUS_OVERLAP

    @given(layouts(), st.integers(0, 2000), st.integers(0, 2000),
           st.integers(0, 500))
    def test_mirror_symmetry(self, layout, mn0, mn1, step):
        """Reflecting everything about the brink swaps the two nodes."""
        b = layout.brink
        mirrored_layout = ZoneLayout(
            2 * b - layout.zone1_hi,
            2 * b - layout.zone1_lo,
            2 * b - layout.zone0_hi,
            2 * b - layout.zone0_lo,
            b,
        )  # builds, so the mirror is ordered too
        rec = MoveRecord.from_inits(mn0, mn1, step)
        mirrored = MoveRecord.from_inits(2 * b - mn1, 2 * b - mn0, step)
        swap = {
            Outcome.MN0_OVERLAP: Outcome.MN1_OVERLAP,
            Outcome.MN1_OVERLAP: Outcome.MN0_OVERLAP,
            Outcome.NO_OVERLAP: Outcome.NO_OVERLAP,
            Outcome.SIMULTANEOUS_OVERLAP: Outcome.SIMULTANEOUS_OVERLAP,
        }
        assert classify(mirrored, mirrored_layout) is swap[classify(rec, layout)]


class TestLayout:
    def test_widths_and_spans(self):
        layout = ZoneLayout(50, 99, 101, 150, 100)
        assert layout.zone0_width == 50
        assert layout.zone1_width == 50
        assert layout.zone0_span == 49

    def test_valid_layout_passes(self):
        assert ZoneLayout(0, 374, 376, 750, 375).brink == 375

    @pytest.mark.parametrize("bad", [
        (10, 9, 20, 30, 15),    # zone0 inverted
        (0, 15, 20, 30, 15),    # brink touches zone0
        (0, 10, 15, 30, 15),    # brink touches zone1
        (0, 10, 30, 20, 15),    # zone1 inverted
        (0, 20, 25, 30, 15),    # brink below zone0_hi
    ])
    def test_invalid_layouts_rejected(self, bad):
        with pytest.raises(LayoutError, match=r"got zone0 \d+:\d+ \| brink"):
            ZoneLayout(*bad)

    @given(layouts())
    def test_generated_layouts_are_valid(self, layout):
        assert layout.zone0_width == layout.zone0_span + 1
        assert layout.zone1_width == layout.zone1_hi - layout.zone1_lo + 1
