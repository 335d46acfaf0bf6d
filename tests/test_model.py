import pytest
from hypothesis import given, strategies as st

from simulmob.model import (
    LayoutError,
    MoveRecord,
    Outcome,
    ZoneLayout,
    classify,
    mn0_crossed,
    mn1_crossed,
)


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
    def test_mn0_touch_counts(self):
        layout = ZoneLayout(50, 99, 101, 150, 100)
        assert mn0_crossed(100, layout)
        assert not mn0_crossed(99, layout)

    def test_mn0_exceed_counts(self):
        layout = ZoneLayout(0, 374, 376, 750, 375)
        assert mn0_crossed(384, layout)

    def test_mn1_touch_counts(self):
        layout = ZoneLayout(50, 99, 101, 150, 100)
        assert mn1_crossed(100, layout)
        assert not mn1_crossed(101, layout)

    def test_mn1_descend_counts(self):
        layout = ZoneLayout(0, 374, 376, 750, 375)
        assert mn1_crossed(344, layout)


class TestMoveRecord:
    def test_from_inits(self):
        rec = MoveRecord.from_inits(10, 500, 28)
        assert (rec.mn0_new, rec.mn1_new) == (38, 472)
        assert rec.time_s == 0.001

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
        """Exactly one outcome, consistent with the two predicates."""
        rec = MoveRecord.from_inits(mn0, mn1, step)
        outcome = classify(rec, layout)
        c0 = mn0_crossed(rec.mn0_new, layout)
        c1 = mn1_crossed(rec.mn1_new, layout)
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
        if mn0_crossed(small.mn0_new, layout):
            assert mn0_crossed(large.mn0_new, layout)
        if mn1_crossed(small.mn1_new, layout):
            assert mn1_crossed(large.mn1_new, layout)
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
        assert layout.zone1_span == 49

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
        assert layout.zone1_width == layout.zone1_span + 1
