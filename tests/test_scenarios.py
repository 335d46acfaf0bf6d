import copy
import json
import pickle
import sys
import tracemalloc
from itertools import chain
from statistics import fmean

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simulmob import scenarios
from simulmob.datasets import load_dataset
from simulmob.model import (LayoutError, MoveRecord, Outcome, ZoneLayout, classify,
                            crossing)
from simulmob.sampling import Pcg32, Sampler, SamplerConfig, _lanes, pcg32_seed
from simulmob.stats import (SequentialRun, replay_independent,
                            replay_sequential, tally)
from simulmob.traceio import (JsonRecords, format_trace, json_pieces,
                              trace_pieces, write_json)
from simulmob.scenarios import (
    IndependentTrialConfig,
    SequentialConfig,
    Walks,
    config_from_dict,
    config_to_dict,
    preset,
    run_independent_scenario,
    run_independent_trial,
    run_sequential_scenario,
)


class ScriptedSampler:
    """Stands in for Sampler with predetermined draws."""

    def __init__(self, inits=(), steps=()):
        self._inits = iter(inits)
        self._steps = iter(steps)

    def draw_init_positions(self):
        return next(self._inits)

    def draw_step(self):
        return next(self._steps)


class TestPresets:
    def test_preset_1(self):
        config = preset(1)
        layout = config.sampler.layout
        assert (layout.zone0_lo, layout.zone0_hi) == (0, 374)
        assert (layout.zone1_lo, layout.zone1_hi) == (376, 750)
        assert layout.brink == 375
        assert config.sampler.max_step == 50
        assert (config.runs_per_sample, config.samples) == (30, 30)

    def test_preset_2(self):
        config = preset(2)
        layout = config.sampler.layout
        assert (layout.zone0_lo, layout.zone0_hi) == (50, 99)
        assert (layout.zone1_lo, layout.zone1_hi) == (101, 150)
        assert layout.brink == 100

    def test_preset_3(self):
        config = preset(3)
        assert isinstance(config, SequentialConfig)
        layout = config.sampler.layout
        assert (layout.zone0_lo, layout.zone0_hi) == (0, 249)
        assert (layout.zone1_lo, layout.zone1_hi) == (251, 500)
        assert layout.brink == 250
        assert (config.mn0_start, config.mn1_start) == (10, 500)
        assert (config.runs, config.max_steps_cap) == (30, 10_000)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset(9)

    def test_seed_threads_through(self):
        assert preset(1, seed=77).sampler.seed == 77


class TestIndependentTrials:
    LAYOUT_2 = ZoneLayout(50, 99, 101, 150, 100)
    LAYOUT_1 = ZoneLayout(0, 374, 376, 750, 375)

    def test_injected_simultaneous(self):
        sampler = ScriptedSampler(inits=[(75, 102)], steps=[33])
        rec, outcome = run_independent_trial(sampler, self.LAYOUT_2)
        assert outcome is Outcome.SIMULTANEOUS_OVERLAP
        assert (rec.mn0_new, rec.mn1_new) == (108, 69)

    def test_injected_no_overlap(self):
        sampler = ScriptedSampler(inits=[(84, 534)], steps=[6])
        rec, outcome = run_independent_trial(sampler, self.LAYOUT_1)
        assert outcome is Outcome.NO_OVERLAP
        assert (rec.mn0_new, rec.mn1_new) == (90, 528)

    def test_scenario_determinism(self):
        config = preset(2, seed=5)
        a = run_independent_scenario(config)
        b = run_independent_scenario(config)
        assert [r.tally for r in a] == [r.tally for r in b]
        assert [r.records for r in a] == [r.records for r in b]
        assert set(a) == set(b)  # a sample stays hashable

    def test_partition_holds_per_sample(self):
        for result in run_independent_scenario(preset(2, seed=9)):
            t = result.tally
            assert (t.mn0_only + t.mn1_only + t.simultaneous
                    + t.no_overlap) == 30
            assert len(result.records) == 30

    def test_sample_count_and_indices(self):
        config = preset(1, seed=3)._replace(samples=4, runs_per_sample=5)
        results = run_independent_scenario(config)
        assert [r.sample for r in results] == [0, 1, 2, 3]
        assert all(len(r.records) == 5 for r in results)

    def test_bad_layout_propagates(self):
        with pytest.raises(LayoutError):
            IndependentTrialConfig(
                SamplerConfig(0, 50, ZoneLayout(0, 100, 90, 200, 95)), 5, 2)

    def test_invalid_counts_rejected(self):
        sampler = SamplerConfig(0, 50, self.LAYOUT_2)
        with pytest.raises(ValueError):
            IndependentTrialConfig(sampler, runs_per_sample=0)
        with pytest.raises(ValueError):
            IndependentTrialConfig(sampler, samples=0)


class TestSequentialRuns:
    LAYOUT_3 = ZoneLayout(0, 249, 251, 500, 250)

    def _config(self, **kwargs):
        defaults = dict(mn0_start=10, mn1_start=500, runs=1,
                        max_steps_cap=10_000)
        defaults.update(kwargs)
        return SequentialConfig(SamplerConfig(0, 50, self.LAYOUT_3),
                                **defaults)

    def test_scripted_walk_matches_reference_rows(self):
        ds = load_dataset("table-6")
        steps = (28, 43, 37, 9, 20, 2, 28, 0, 48, 22, 42)
        run = replay_sequential(ds.rows, ds.layout)
        # built the way run_sequential_scenario builds a walk
        assert run == SequentialRun((10, 500), steps,
                                    Outcome.SIMULTANEOUS_OVERLAP, False)
        assert not run.timed_out
        assert run.final_positions == (289, 221)
        assert tuple(run.moves()) == ds.rows

    def test_zero_steps_time_out(self):
        config = self._config(max_steps_cap=100)._replace(
            sampler=SamplerConfig(0, 0, self.LAYOUT_3))
        _, (run,) = run_sequential_scenario(config)
        assert run.timed_out
        assert run.steps == (0,) * 100
        assert run.terminal is Outcome.NO_OVERLAP
        assert run.final_positions == (10, 500)

    def test_adjacent_starts_cross_in_one_step(self):
        config = self._config(mn0_start=249, mn1_start=251, runs=20)._replace(
            sampler=SamplerConfig(0, 1, self.LAYOUT_3))
        _, runs = run_sequential_scenario(config)
        for run in runs:
            assert run.steps[-1] == 1
            assert set(run.steps[:-1]) <= {0}
            assert run.terminal is Outcome.SIMULTANEOUS_OVERLAP
            assert not run.timed_out

    def test_chaining_and_approach(self):
        _, runs = run_sequential_scenario(preset(3, seed=4)._replace(runs=10))
        for run in runs:
            records = tuple(MoveRecord(*row) for row in run.moves())
            for prev, rec in zip(records, records[1:]):
                assert (rec.mn0_init, rec.mn1_init) == (
                    prev.mn0_new, prev.mn1_new)
            total_step = sum(rec.step for rec in records)
            assert records[-1].mn0_new == 10 + total_step
            assert records[-1].mn1_new == 500 - total_step
            gaps = [records[0].mn1_init - records[0].mn0_init]
            gaps += [rec.mn1_new - rec.mn0_new for rec in records]
            assert all(b <= a for a, b in zip(gaps, gaps[1:]))
            # Every record but the last stays on its own side.
            for rec in records[:-1]:
                assert rec.mn0_new < 250 < rec.mn1_new

    def test_scenario_partition_and_determinism(self):
        total, runs = run_sequential_scenario(preset(3, seed=8))
        assert total.trials == 30
        assert (total.mn0_only + total.mn1_only + total.simultaneous
                + total.no_overlap) == 30
        again, _ = run_sequential_scenario(preset(3, seed=8))
        assert again == total

    def test_larger_batch_statistics(self):
        config = preset(3, seed=123)._replace(runs=200)
        total, runs = run_sequential_scenario(config)
        mean_steps = sum(r.steps_taken for r in runs) / len(runs)
        assert 9.5 <= mean_steps <= 11.5
        assert 0.5 <= total.simultaneous / total.trials <= 0.8
        assert not any(r.timed_out for r in runs)

    def test_start_positions_validated(self):
        with pytest.raises(ValueError):
            self._config(mn0_start=250)
        with pytest.raises(ValueError):
            self._config(mn1_start=501)
        with pytest.raises(ValueError):
            self._config(runs=0)
        with pytest.raises(ValueError):
            self._config(max_steps_cap=0)


class TestReplay:
    def test_table5_tally(self):
        ds = load_dataset("table-5")
        total = replay_independent(ds.rows, ds.layout)
        assert total.mn0_only == 8
        assert total.mn1_only == 2
        assert total.simultaneous == 5
        assert total.no_overlap == 15
        assert total.mn0_handover == 13
        assert total.mn1_handover == 7
        assert total.trials == 30

    def test_table3_tally(self):
        ds = load_dataset("table-3")
        total = replay_independent(ds.rows, ds.layout)
        assert total.mn0_handover == 1
        assert total.mn1_handover == 2
        assert total.no_overlap == 28

    def test_table6_walk(self):
        ds = load_dataset("table-6")
        run = replay_sequential(ds.rows, ds.layout)
        assert run.steps_taken == 11
        assert run.terminal is Outcome.SIMULTANEOUS_OVERLAP
        assert run.final_positions == (289, 221)

    def test_walk_that_never_crosses_is_not_timed_out(self):
        ds = load_dataset("table-6")
        run = replay_sequential(ds.rows[:5], ds.layout)
        assert run.terminal is Outcome.NO_OVERLAP
        assert not run.timed_out
        assert run.steps_taken == 5
        assert tuple(run.moves()) == ds.rows[:5]
        assert run.final_positions == (ds.rows[4][2], ds.rows[4][4])

    def test_broken_chain_rejected(self):
        rows = [move_row(10, 500, 5), move_row(16, 495, 5)]
        with pytest.raises(ValueError):
            replay_sequential(rows, ZoneLayout(0, 249, 251, 500, 250))

    def test_rows_after_crossing_rejected(self):
        rows = [move_row(240, 260, 10), move_row(250, 250, 10)]
        with pytest.raises(ValueError):
            replay_sequential(rows, ZoneLayout(0, 249, 251, 500, 250))

    def test_empty_sequential_replay_rejected(self):
        with pytest.raises(ValueError):
            replay_sequential([], ZoneLayout(0, 249, 251, 500, 250))


@st.composite
def small_walk_configs(draw):
    """Sequential configs on zones of 1 to 30 positions, steps up to 40 (0
    makes every walk time out) and caps from 1 (one-move walks) to 30."""
    w0, w1 = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    lo0 = draw(st.integers(0, 50))
    brink = lo0 + w0 - 1 + draw(st.integers(1, 3))
    lo1 = brink + draw(st.integers(1, 3))
    layout = ZoneLayout(lo0, lo0 + w0 - 1, lo1, lo1 + w1 - 1, brink)
    return SequentialConfig(
        SamplerConfig(draw(st.integers(0, 2**64 - 1)),
                      draw(st.sampled_from([0, 1]) | st.integers(0, 40)), layout),
        draw(st.integers(layout.zone0_lo, layout.zone0_hi)),
        draw(st.integers(layout.zone1_lo, layout.zone1_hi)),
        runs=draw(st.integers(1, 4)), max_steps_cap=draw(st.integers(1, 30)))


def move_row(mn0_init, mn1_init, step):
    """The record of both nodes' move by ``step``."""
    return MoveRecord.from_inits(mn0_init, mn1_init, step)


def classified(run, layout):
    return tuple(classify(row, layout) for row in run.moves())


class TestWalkOutcomes:
    """Every move of a walk but its last is a no-overlap move, and the last
    one's class is the walk's terminal outcome, for capped and replayed
    walks too: so the outcome a writer derives from each record is the one
    the walk counted."""

    @settings(max_examples=150, deadline=None)
    @given(small_walk_configs())
    @example(preset(3, seed=4)._replace(runs=3))  # walks that cross
    @example(SequentialConfig(  # walks that time out
        SamplerConfig(7, 0, ZoneLayout(0, 9, 11, 20, 10)), 5, 15, 2, 8))
    @example(SequentialConfig(  # one-move walks
        SamplerConfig(7, 5, ZoneLayout(0, 9, 11, 20, 10)), 0, 20, 3, 1))
    def test_simulated_and_replayed_walks(self, config):
        layout = config.sampler.layout
        _, runs = run_sequential_scenario(config)
        for run in runs:
            outcomes = classified(run, layout)
            assert outcomes == ((Outcome.NO_OVERLAP,) * (run.steps_taken - 1)
                                + (run.terminal,))
            replayed = replay_sequential(tuple(run.moves()), layout)
            assert replayed.terminal is run.terminal
            assert classified(replayed, layout) == outcomes

    @pytest.mark.parametrize("rows", [11, 5, 1])
    def test_table6_walk(self, rows):
        ds = load_dataset("table-6")
        run = replay_sequential(ds.rows[:rows], ds.layout)
        assert classified(run, ds.layout) == (
            (Outcome.NO_OVERLAP,) * (rows - 1) + (run.terminal,))


def reference_independent(config):
    """Record-building loop: (tally, rows, outcomes) per sample."""
    layout = config.sampler.layout
    samples = []
    for k in range(config.samples):
        sampler = Sampler(config.sampler, stream=k)
        records, outcomes = [], []
        for _ in range(config.runs_per_sample):
            mn0, mn1 = sampler.draw_init_positions()
            rec = MoveRecord.from_inits(mn0, mn1, sampler.draw_step())
            records.append(rec)
            outcomes.append(classify(rec, layout))
        samples.append((tally(outcomes), tuple(records), tuple(outcomes)))
    return samples


def reference_walks(config):
    """Per-draw walks: each one's steps and terminal outcome, walk j
    stepping PCG32 on stream j one output at a time, with
    pcg32_boundedrand_r rejection."""
    sampler = config.sampler
    brink, cap = sampler.layout.brink, config.max_steps_cap
    bound = sampler.max_step + 1
    threshold = 2**32 % bound
    for j in range(config.runs):
        state, inc = pcg32_seed(sampler.seed, j)
        mn0, mn1 = config.mn0_start, config.mn1_start
        steps = []
        for _ in range(cap):
            step = 0
            if bound > 1:
                while True:
                    old = state
                    state = (state * 6364136223846793005 + inc) % 2**64
                    x = (((old >> 18) ^ old) >> 27) % 2**32
                    r = ((x * 0x100000001) >> (old >> 59)) % 2**32
                    if r >= threshold:
                        break
                step = r % bound
            steps.append(step)
            mn0 += step
            mn1 -= step
            if mn0 >= brink or mn1 <= brink:
                break
        yield steps, crossing(mn0, mn1, brink)


def reference_sequential(config):
    """Record-building walks: (tally, [(rows, terminal, timed_out)])."""
    layout = config.sampler.layout
    runs = []
    for j in range(config.runs):
        sampler = Sampler(config.sampler, stream=j)
        mn0, mn1 = config.mn0_start, config.mn1_start
        records = []
        outcome = Outcome.NO_OVERLAP
        while len(records) < config.max_steps_cap:
            rec = MoveRecord.from_inits(mn0, mn1, sampler.draw_step())
            records.append(rec)
            outcome = classify(rec, layout)
            if outcome is not Outcome.NO_OVERLAP:
                break
            mn0, mn1 = rec.mn0_new, rec.mn1_new
        runs.append((tuple(records), outcome, outcome is Outcome.NO_OVERLAP))
    return tally(terminal for _, terminal, _ in runs), runs


WIDE = ZoneLayout(1000, 1399, 1401, 1800, 1400)  # positions above 256


def _shifted(config, c):
    """The same config with the layout and the starts moved by ``c``."""
    old = config.sampler.layout
    layout = ZoneLayout(old.zone0_lo + c, old.zone0_hi + c, old.zone1_lo + c,
                        old.zone1_hi + c, old.brink + c)
    sampler = config.sampler._replace(layout=layout)
    if isinstance(config, SequentialConfig):
        return config._replace(sampler=sampler, mn0_start=config.mn0_start + c,
                       mn1_start=config.mn1_start + c)
    return config._replace(sampler=sampler)


INDEPENDENT_CASES = [
    *(preset(s, seed=seed)._replace(runs_per_sample=40, samples=3)
      for s in (1, 2) for seed in (0, 1, 2**64 - 1)),
    IndependentTrialConfig(SamplerConfig(11, 300, WIDE), 50, 3),
    IndependentTrialConfig(SamplerConfig(3, 0, WIDE), 20, 2),
]
SEQUENTIAL_CASES = [
    *(preset(3, seed=seed)._replace(runs=25) for seed in (0, 1, 2**64 - 1)),
    SequentialConfig(SamplerConfig(11, 90, WIDE), 1010, 1790, runs=10),
    SequentialConfig(SamplerConfig(4, 0, WIDE), 1200, 1600, runs=3,
                     max_steps_cap=40),
    preset(3, seed=6)._replace(runs=25, max_steps_cap=7),
]


class TestAgainstReferenceLoop:
    """The streaming runners against the record-building loop they replaced."""

    @pytest.mark.parametrize("config", INDEPENDENT_CASES)
    def test_independent(self, config):
        results = run_independent_scenario(config)
        expected = reference_independent(config)
        assert [r.sample for r in results] == list(range(config.samples))
        for result, (total, records, outcomes) in zip(results, expected,
                                                      strict=True):
            assert result.tally == total
            assert result.records == records
            assert tuple(classify(row, config.sampler.layout)
                         for row in result.moves()) == outcomes

    @pytest.mark.parametrize("config", SEQUENTIAL_CASES)
    def test_sequential(self, config):
        total, runs = run_sequential_scenario(config)
        expected_total, expected = reference_sequential(config)
        assert total == expected_total
        for run, (records, terminal, timed_out) in zip(runs, expected,
                                                       strict=True):
            assert tuple(run.moves()) == records
            assert run.terminal is terminal
            assert run.steps_taken == len(records)
            assert run.timed_out is timed_out
            assert run.final_positions == (records[-1][2], records[-1][4])

    def test_cases_cover_caps(self):
        capped = [run for config in SEQUENTIAL_CASES
                  for run in run_sequential_scenario(config)[1]
                  if run.timed_out]
        assert capped
        assert {run.steps_taken for run in capped} == {7, 40}

    @pytest.mark.parametrize("c", [-1000, 1, 2**40])
    @pytest.mark.parametrize("config", [INDEPENDENT_CASES[3],
                                        INDEPENDENT_CASES[6],
                                        SEQUENTIAL_CASES[0],
                                        SEQUENTIAL_CASES[3]])
    def test_translation_leaves_tallies(self, config, c):
        if isinstance(config, SequentialConfig):
            before, runs = run_sequential_scenario(config)
            after, moved = run_sequential_scenario(_shifted(config, c))
            assert after == before
            assert [r.steps for r in moved] == [r.steps for r in runs]
        else:
            before = run_independent_scenario(config)
            after = run_independent_scenario(_shifted(config, c))
            assert [r.tally for r in after] == [r.tally for r in before]


def seed_with_first_draw(value, stream):
    """A seed whose stream ``stream`` first draws the 32-bit ``value``.

    The state that outputs ``value`` with rotation 0 is solved bit by bit
    from the top, then the seeding step is inverted for it.
    """
    state = 0
    for i in reversed(range(32)):  # output bit i = state bit 27+i ^ bit 45+i
        bit = ((value >> i) ^ (state >> (45 + i))) & 1
        state |= bit << (27 + i)
    mult, inc = 6364136223846793005, (stream << 1) | 1
    return ((state - inc) * pow(mult, -1, 2**64) - inc) % 2**64


@st.composite
def kernel_layouts(draw):
    """Ordered layouts with zones of one position up to 2**32, anywhere from
    0 to above 2**40, that validate accepts."""
    widths = st.sampled_from([1, 2, 50, 2**31 + 1, 2**32]) | st.integers(1, 400)
    w0, w1 = draw(widths), draw(widths)
    lo0 = draw(st.sampled_from([0, 1000, 2**40 + 7]) | st.integers(0, 2**41))
    brink = lo0 + w0 - 1 + draw(st.integers(1, 3))
    lo1 = brink + draw(st.integers(1, 3))
    return ZoneLayout(lo0, lo0 + w0 - 1, lo1, lo1 + w1 - 1, brink)


kernel_seeds = st.sampled_from([0, 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)
kernel_max_steps = (st.sampled_from([0, 1, 50, 2**31, 2**32 - 1])
                    | st.integers(0, 400))


class TestKernelAgainstSampler:
    """The PCG32 draws of both runners against the Sampler path."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_seeds, kernel_max_steps, kernel_layouts(),
           st.integers(1, 12), st.integers(1, 4))
    def test_independent(self, seed, max_step, layout, runs, samples):
        config = IndependentTrialConfig(SamplerConfig(seed, max_step, layout),
                                        runs, samples)
        results = run_independent_scenario(config)
        expected = reference_independent(config)
        for result, (total, records, _) in zip(results, expected, strict=True):
            assert result.records == records
            assert result.tally == total

    @settings(max_examples=150, deadline=None)
    @given(kernel_seeds, kernel_max_steps, kernel_layouts(), st.data())
    def test_sequential(self, seed, max_step, layout, data):
        config = SequentialConfig(
            SamplerConfig(seed, max_step, layout),
            data.draw(st.integers(layout.zone0_lo, layout.zone0_hi)),
            data.draw(st.integers(layout.zone1_lo, layout.zone1_hi)),
            runs=data.draw(st.integers(1, 4)),
            max_steps_cap=data.draw(st.integers(1, 40)))
        total, runs = run_sequential_scenario(config)
        expected_total, expected = reference_sequential(config)
        assert total == expected_total
        for run, (records, terminal, timed_out) in zip(runs, expected,
                                                       strict=True):
            assert run.steps == tuple(row[0] for row in records)
            assert run.terminal is terminal
            assert run.timed_out is timed_out

    # Each case makes one column's range 2**31 + 1 wide and the other ones
    # a single value, so that column takes the stream's first draw. That
    # range rejects draws below 2**32 % (2**31 + 1) = 2**31 - 1.
    @pytest.mark.parametrize("layout, max_step, column", [
        (ZoneLayout(0, 2**31, 2**31 + 2, 2**31 + 9, 2**31 + 1), 3, 0),
        (ZoneLayout(0, 0, 2, 2**31 + 2, 1), 3, 1),
        (ZoneLayout(0, 0, 2, 2, 1), 2**31, 2),
    ])
    def test_draw_equal_to_the_threshold_is_kept(self, layout, max_step,
                                                 column):
        seed = seed_with_first_draw(2**31 - 1, stream=0)
        assert Pcg32(seed).randint(0, 2**31) == 2**31 - 1
        config = IndependentTrialConfig(SamplerConfig(seed, max_step, layout),
                                        2, 1)
        [result] = run_independent_scenario(config)
        lo = (layout.zone0_lo, layout.zone1_lo, 0)[column]
        step, mn0_init, _, mn1_init, _ = result.records[0]
        assert (mn0_init, mn1_init, step)[column] == \
            lo + 2**31 - 1
        assert result.records == reference_independent(config)[0][1]
        walk = SequentialConfig(SamplerConfig(seed, 2**31, WIDE), 1000, 1800,
                                runs=1)
        assert run_sequential_scenario(walk)[1][0].steps[0] == 2**31 - 1

    def test_runners_draw_without_the_sampler(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Sampler path used")

        independent = preset(2, seed=3)._replace(runs_per_sample=20, samples=3)
        sequential = preset(3, seed=3)._replace(runs=5)
        before = (run_independent_scenario(independent),
                  run_sequential_scenario(sequential))
        monkeypatch.setattr(Pcg32, "_next_u32", refuse)
        monkeypatch.setattr(Sampler, "draw_step", refuse)
        monkeypatch.setattr(Sampler, "draw_init_positions", refuse)
        assert (run_independent_scenario(independent),
                run_sequential_scenario(sequential)) == before
        with pytest.raises(AssertionError):
            Sampler(independent.sampler).draw_step()


# Ranges 2**31 - 2**21 wide reject an output below 2**22, one in 1,024,
# so about half of a sample's 256-trial chunks are drawn again through
# Pcg32.randint, and the next chunk starts where that draw ended.
MIXED = ZoneLayout(0, 2**31 - 2**21 - 1, 2**31 - 2**21 + 1, 2**32 - 2**22,
                   2**31 - 2**21)
CHUNK_CASES = {
    "preset-1": preset(1, seed=5).sampler,
    "preset-2": preset(2, seed=5).sampler,
    "max-step-0": SamplerConfig(5, 0, WIDE),
    "one-position-zone": SamplerConfig(5, 50, ZoneLayout(1000, 1399, 1401,
                                                         1401, 1400)),
    # Rejects outputs below 2**31 - 1: no chunk ever takes the fast path.
    "zones-2**31+1": SamplerConfig(5, 50, ZoneLayout(0, 2**31, 2**31 + 2,
                                                     2**32 + 2, 2**31 + 1)),
    "mixed-paths": SamplerConfig(5, 2**31 - 2**21 - 1, MIXED),
    # One-position zones: a chunk draws one output per trial, the step.
    "symmetric": SamplerConfig(5, 50, ZoneLayout(75, 75, 125, 125, 100)),
    # One-position zones and one step: pcg32_block draws no output.
    "nothing-drawn": SamplerConfig(5, 0, ZoneLayout(75, 75, 125, 125, 100)),
}


class TestChunkBoundaries:
    """The block-drawn columns against the Sampler path for runs around one
    and four chunks, where one chunk's draws end and the next one's begin."""

    @pytest.mark.parametrize("runs", [255, 256, 257, 1025])
    @pytest.mark.parametrize("case", CHUNK_CASES)
    def test_against_reference(self, case, runs):
        sampler = CHUNK_CASES[case]
        config = IndependentTrialConfig(sampler, runs, 2)
        results = run_independent_scenario(config)
        for k, (result, (total, records, _)) in enumerate(
                zip(results, reference_independent(config), strict=True)):
            chunks = list(scenarios._sample_draws(sampler, k, runs))
            assert [[len(column) for column in chunk] for chunk in chunks] == [
                [min(256, runs - done)] * 3 for done in range(0, runs, 256)]
            assert [trial for chunk in chunks for trial in zip(*chunk)] == [
                (row[1], row[3], row[0]) for row in records]
            assert result.tally == total
            assert result.step_sum == sum(row[0] for row in records)

    # Preset 2's zone 0 rejects an output below 2**32 % 50 = 46, the
    # highest threshold of its three ranges: a chunk that starts with 45
    # leaves the fast path, one that starts with 46 keeps it.
    @pytest.mark.parametrize("first", [45, 46])
    def test_first_output_at_the_threshold(self, first):
        sampler = preset(2).sampler._replace(
            seed=seed_with_first_draw(first, stream=0))
        config = IndependentTrialConfig(sampler, 300, 1)
        [result] = run_independent_scenario(config)
        [(total, records, _)] = reference_independent(config)
        assert result.records == records
        assert result.tally == total
        assert (records[0][1] == 96) is (first == 46)


# Zones 2**32 wide: a walk of steps up to 2**31 needs about five moves to
# cross, and that range rejects outputs below 2**31 - 1, nearly half.
BIG = ZoneLayout(0, 2**32 - 1, 2**32 + 1, 2**33, 2**32)
WALK_CHUNK_CASES = {
    "preset-3": preset(3, seed=5),
    "seed-2**64-1": preset(3, seed=2**64 - 1),
    "rejecting-cap-3": SequentialConfig(SamplerConfig(5, 2**31, BIG), 0, 2**33,
                                        max_steps_cap=3),
    "rejecting-cap-40": SequentialConfig(SamplerConfig(5, 2**31, BIG), 0,
                                         2**33, max_steps_cap=40),
    "max-step-0": SequentialConfig(SamplerConfig(5, 0, WIDE), 1200, 1600,
                                   max_steps_cap=5),
    "max-step-3": SequentialConfig(SamplerConfig(5, 3, WIDE), 1200, 1600,
                                   max_steps_cap=7),
    "one-from-the-brink": SequentialConfig(SamplerConfig(5, 50, WIDE), 1399,
                                           1800),
}


class TestWalkChunkBoundaries:
    """The lane-stepped walks against the per-draw reference for runs
    around one and two chunks of 256 walks, where a chunk's lanes end."""

    @pytest.mark.parametrize("runs", [1, 255, 256, 257, 513])
    @pytest.mark.parametrize("case", WALK_CHUNK_CASES)
    def test_against_reference(self, case, runs):
        config = WALK_CHUNK_CASES[case]._replace(runs=runs)
        expected = list(reference_walks(config))
        assert list(scenarios._walks(config, 0, runs)) == expected
        total, walks = run_sequential_scenario(config)
        assert [(list(run.steps), run.terminal) for run in walks] == expected
        assert total == tally(terminal for _, terminal in expected)
        assert walks.moves == sum(len(steps) for steps, _ in expected)
        assert walks.step_sum == sum(sum(steps) for steps, _ in expected)
        # A walk ends without crossing only at its cap, so the tally's
        # no_overlap is the timed-out count.
        ended = [len(steps) for steps, terminal in expected
                 if terminal is Outcome.NO_OVERLAP]
        assert set(ended) <= {config.max_steps_cap}
        assert total.no_overlap == len(ended)

    def test_cases_reach_both_ends(self):
        ends = {case: {(len(steps), terminal is Outcome.NO_OVERLAP)
                       for steps, terminal in reference_walks(
                           WALK_CHUNK_CASES[case]._replace(runs=513))}
                for case in WALK_CHUNK_CASES}
        assert ends["max-step-0"] == {(5, True)}
        assert ends["max-step-3"] == {(7, True)}
        assert (3, True) in ends["rejecting-cap-3"]
        assert any(not timed_out for _, timed_out in ends["rejecting-cap-3"])
        assert not any(timed_out for _, timed_out in ends["rejecting-cap-40"])

    def test_walks_index_at_chunk_edges(self):
        config = preset(3, seed=5)._replace(runs=513)
        _, walks = run_sequential_scenario(config)
        runs = list(walks)
        expected = list(reference_walks(config))
        for j in (255, 256, -1):
            assert walks[j] == runs[j]
            assert (list(walks[j].steps), walks[j].terminal) == expected[j]

    # Both shapes in one process use five lane counts: 768 and 132 (a
    # sample of 300 trials), 256 and 44 (300 walks), and 1 (one walk).
    def test_lane_constants_stay_cached_for_both_shapes(self):
        independent = preset(2, seed=1)._replace(runs_per_sample=300,
                                                 samples=2)
        sequential = preset(3, seed=1)._replace(runs=300)

        def both():
            run_independent_scenario(independent)
            run_sequential_scenario(sequential)[1][7]

        both()
        misses = _lanes.cache_info().misses
        both()
        assert _lanes.cache_info().misses == misses


class TestSampleMemory:
    """One sample of 1M trials fits in 50 MB of RSS, on any layout.

    Never run at full size: the runner holds one chunk of the draw column
    at a time, so a sample's heap peak does not grow with its trials. It
    stays under 256 KiB at 10,000 and at 30,000 trials, on preset 2's
    cached small ints and on preset 1's positions above 256. A one-trial
    ``simulate`` peaks at about 17.5 MB of RSS (CPython 3.11), which bounds
    the interpreter and imports.
    """

    def test_million_trials_fit(self):
        for scenario in (1, 2):
            for runs in (10_000, 30_000):
                config = preset(scenario, seed=1)._replace(
                    runs_per_sample=runs, samples=1)
                tracemalloc.start()
                try:
                    run_independent_scenario(config)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 256 * 2**10, (scenario, runs, peak)


class TestWalkMemory:
    """1M preset-3 walks fit in 50 MB of RSS.

    Computed from the heap peak of 10,000 walks, never run at full size. The
    runner keeps counts, not walks; it held a ``SequentialRun`` and a steps
    tuple per walk, about 235 bytes each, before.
    """

    def test_million_walks_fit(self):
        runs = 10_000
        config = preset(3, seed=1)._replace(runs=runs)
        tracemalloc.start()
        try:
            run_sequential_scenario(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 18 * 2**20 + peak / runs * 1_000_000 < 50 * 2**20


class TestRedrawnViews:
    """A sample's or a walk's moves are redrawn from its stream on access."""

    @settings(max_examples=100, deadline=None)
    @given(kernel_seeds, kernel_max_steps, kernel_layouts(),
           st.integers(1, 12), st.integers(1, 3))
    def test_sample_sums(self, seed, max_step, layout, runs, samples):
        config = IndependentTrialConfig(SamplerConfig(seed, max_step, layout),
                                        runs, samples)
        for result in run_independent_scenario(config):
            steps = [row[0] for row in result.records]
            assert result.step_sum == sum(steps)
            assert float(result.step_sum) / result.tally.trials == fmean(steps)

    @settings(max_examples=100, deadline=None)
    @given(small_walk_configs())
    def test_walk_sums(self, config):
        total, walks = run_sequential_scenario(config)
        runs = list(walks)
        steps = [step for run in runs for step in run.steps]
        assert walks.moves == len(steps)
        assert walks.step_sum == sum(steps)
        assert float(walks.step_sum) / walks.moves == fmean(steps)
        assert float(walks.moves) / len(walks) == fmean(
            run.steps_taken for run in runs)
        assert total.no_overlap == sum(run.timed_out for run in runs)
        assert total == tally(run.terminal for run in runs)

    # ``cli`` takes a mean as float(total) / n for fmean: each value is exact
    # as a float, and fsum and float() both round the exact sum once.
    @given(st.lists(st.integers(0, 2**53), min_size=1, max_size=40))
    @example([2**53 - 1, 1])
    @example([2**53, 1])
    @example([2**53, 2**53, 3])
    @example([2**52 + 1] * 3)
    def test_mean_of_a_sum_is_fmean(self, values):
        assert float(sum(values)) / len(values) == fmean(values)

    # A sample keeps no move: its records, and the outcomes derived from its
    # moves, each cost one redraw per read.
    @pytest.mark.parametrize("first", ["records", "outcomes"])
    def test_records_and_outcomes_redraw_once(self, monkeypatch, first):
        [result] = run_independent_scenario(
            preset(1, seed=4)._replace(runs_per_sample=2500, samples=1))
        layout = result.sampler.layout
        redraws = []
        draw = scenarios._sample_draws
        monkeypatch.setattr(scenarios, "_sample_draws",
                            lambda *args: redraws.append(args) or draw(*args))
        views = {
            "records": lambda: result.records,
            "outcomes": lambda: [classify(row, layout)
                                 for row in result.moves()],
        }
        assert len(views[first]()) == 2500
        assert len(redraws) == 1
        records, outcomes = views["records"](), views["outcomes"]()
        assert len(redraws) == 3
        assert outcomes == [classify(row, layout) for row in records]
        assert tally(outcomes) == result.tally

    def test_walks_index_like_a_list(self):
        config = preset(3, seed=2)._replace(runs=6)
        total, walks = run_sequential_scenario(config)
        runs = list(walks)
        assert len(walks) == 6
        assert [walks[j] for j in range(6)] == runs
        assert walks[-1] == runs[-1] and walks[-6] == runs[0]
        for j in (6, -7):
            with pytest.raises(IndexError):
                walks[j]
        # A slice is a list of walks, each redrawn from its own stream.
        for cut in (slice(1, 3), slice(-4, -1), slice(-2, None),
                    slice(None, None, 2), slice(5, 0, -2),
                    slice(None, None, -1), slice(3, 3), slice(4, 2),
                    slice(7, 9)):
            assert walks[cut] == runs[cut]
        assert run_sequential_scenario(config) == (total, walks)
        assert hash(walks) == hash(run_sequential_scenario(config)[1])

    def test_walks_are_an_immutable_value(self):
        config = preset(3, seed=2)._replace(runs=6)
        _, walks = run_sequential_scenario(config)
        same = Walks(config, walks.moves, walks.step_sum)
        assert walks == same and hash(walks) == hash(same)
        assert hash(walks) == hash((config, walks.moves, walks.step_sum))
        assert walks != Walks(config, walks.moves, walks.step_sum + 1)
        assert walks != Walks(config._replace(runs=5), walks.moves, walks.step_sum)
        # Not a tuple: a Walks equals only a Walks.
        assert walks != (config, walks.moves, walks.step_sum)
        assert repr(walks) == (f"Walks(config={config!r}, moves={walks.moves}, "
                               f"step_sum={walks.step_sum})")
        assert walks[1:3] == [walks[1], walks[2]]
        with pytest.raises(AttributeError):
            walks.moves = 0
        with pytest.raises(AttributeError):
            del walks.step_sum
        with pytest.raises(AttributeError):
            walks.extra = 0
        # The refused writes left the counts as they were.
        assert (walks.moves, walks.step_sum) == (same.moves, same.step_sum)
        for twin in (copy.copy(walks), copy.deepcopy(walks),
                     pickle.loads(pickle.dumps(walks))):
            assert type(twin) is Walks and twin == walks


def replay_document() -> tuple[list[tuple], dict]:
    """A 20,000-move replay's rows and its JSON document."""
    layout = ZoneLayout(5000, 5049, 5051, 5100, 5050)
    records = [move_row(5000 + i * 7 % 50, 5051 + i * 13 % 50, i * 31 % 51)
               for i in range(20_000)]
    doc = {"dataset": None, "input": "rows.csv",
           "tally": tally(classify(row, layout)
                          for row in records).as_dict(),
           "records": JsonRecords(records, layout.brink)}
    return records, doc


class TestJsonMemory:
    """Rendering a 20,000-move replay document takes at most 4 bytes of heap
    per byte of output. The pieces and the document are the only large
    strings, about 2 bytes a byte; the stdlib's indenting encoder took about
    7.8 on the same document. Streamed, its pieces take well under 1 MiB."""

    def test_write_json_peak_is_bounded_by_output(self):
        _, doc = replay_document()
        tracemalloc.start()
        try:
            text = write_json(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text)

    def test_streamed_json_and_trace_peak_is_bounded(self):
        records, doc = replay_document()
        size = 0
        tracemalloc.start()
        try:
            for piece in chain(json_pieces(doc), trace_pieces(records)):
                size += len(piece)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The whole strings are about 7 MB.
        assert size == len(write_json(doc)) + len(format_trace(records))
        assert peak < 2**20


class TestConfigDicts:
    def test_independent_round_trip(self):
        config = preset(1, seed=9)
        assert config_from_dict(config_to_dict(config)) == config

    def test_sequential_round_trip(self):
        config = preset(3, seed=9)
        assert config_from_dict(config_to_dict(config)) == config

    def test_defaults_fill_in(self):
        doc = config_to_dict(preset(1))
        del doc["runs_per_sample"]
        config = config_from_dict(doc)
        assert config.runs_per_sample == 30

    def test_mixed_shapes_rejected(self):
        doc = config_to_dict(preset(3))
        doc["samples"] = 4
        with pytest.raises(ValueError):
            config_from_dict(doc)

    def test_unknown_keys_rejected(self):
        doc = config_to_dict(preset(1))
        doc["bogus"] = 1
        with pytest.raises(ValueError):
            config_from_dict(doc)

    def test_missing_layout_rejected(self):
        doc = config_to_dict(preset(1))
        del doc["sampler"]["layout"]
        with pytest.raises(ValueError):
            config_from_dict(doc)

    def test_non_integer_field_rejected(self):
        doc = config_to_dict(preset(1))
        doc["samples"] = "thirty"
        with pytest.raises(ValueError):
            config_from_dict(doc)
        doc["samples"] = True
        with pytest.raises(ValueError, match="config key 'samples' must be an "
                                             "integer, got True"):
            config_from_dict(doc)

    def test_sequential_defaults_fill_in(self):
        doc = config_to_dict(preset(3))
        del doc["runs"], doc["max_steps_cap"]
        config = config_from_dict(doc)
        assert (config.runs, config.max_steps_cap) == (30, 10_000)

    def test_missing_sampler_names_the_key(self):
        doc = config_to_dict(preset(2))
        del doc["sampler"]
        with pytest.raises(ValueError, match="config is missing key 'sampler'"):
            config_from_dict(doc)

    def test_broken_layout_rejected_when_built(self):
        doc = {"sampler": {"seed": 0, "max_step": 5, "layout": {
            "zone0_lo": 300, "zone0_hi": 5, "zone1_lo": 101, "zone1_hi": 150,
            "brink": 100}}, "runs_per_sample": 1}
        with pytest.raises(LayoutError, match="got zone0 300:5 "):
            config_from_dict(doc)

    def test_non_object_layout_named(self):
        doc = config_to_dict(preset(2))
        doc["sampler"]["layout"] = 5
        with pytest.raises(ValueError, match="layout must be an object, got 5"):
            config_from_dict(doc)

    # The presets, and a walk on a custom layout at the largest seed.
    @pytest.mark.parametrize("config", [
        preset(1), preset(2), preset(3),
        SequentialConfig(SamplerConfig(2**64 - 1, 3, ZoneLayout(-7, -2, 4, 9, 1)),
                         mn0_start=-5, mn1_start=4, runs=2),
    ], ids=["1", "2", "3", "custom"])
    def test_keys_follow_field_order(self, config):
        # A namedtuple would go into json.dumps as a list: each part of the
        # document is a plain dict, keyed in its class's field order.
        doc = config_to_dict(config)
        for obj, part in ((config, doc), (config.sampler, doc["sampler"]),
                          (config.sampler.layout, doc["sampler"]["layout"])):
            assert type(part) is dict
            assert list(part) == list(obj._fields)
        assert config_from_dict(json.loads(json.dumps(doc))) == config


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def near_configs(draw):
    """A valid config document of either shape with one value replaced,
    one key dropped or one key added, at any depth."""
    doc = config_to_dict(preset(draw(st.sampled_from([2, 3]))))
    parent = draw(st.sampled_from(
        [doc, doc["sampler"], doc["sampler"]["layout"]]))
    key = draw(st.sampled_from(sorted(parent)) | st.text(max_size=8))
    if key in parent and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return doc


@st.composite
def valid_configs(draw):
    """A config of either shape with every field drawn: a layout validate
    accepts, starts inside their zones and counts of any size."""
    layout = draw(kernel_layouts())
    sampler = SamplerConfig(draw(kernel_seeds), draw(kernel_max_steps), layout)
    counts = st.integers(min_value=1)
    if draw(st.booleans()):
        return IndependentTrialConfig(sampler, draw(counts), draw(counts))
    return SequentialConfig(
        sampler, draw(st.integers(layout.zone0_lo, layout.zone0_hi)),
        draw(st.integers(layout.zone1_lo, layout.zone1_hi)),
        draw(counts), draw(counts))


# One valid value of each class that checks its fields, a field to set to
# a value the class refuses, and the message it refuses it with.
CHECKED = [
    (ZoneLayout(0, 374, 376, 750, 375), "brink", 376, LayoutError,
     "layout must satisfy zone0_lo <= zone0_hi < brink < zone1_lo <= "
     "zone1_hi, got zone0 0:374 | brink 376 | zone1 376:750"),
    (preset(2).sampler, "max_step", -1, ValueError,
     "max_step must be non-negative, got -1"),
    (preset(1), "samples", 0, ValueError, "samples must be >= 1, got 0"),
    (preset(3), "mn0_start", 250, ValueError,
     "mn0_start 250 outside zone0 0:249"),
]


@pytest.mark.parametrize("value, field, bad, error, message", CHECKED,
                         ids=[type(case[0]).__name__ for case in CHECKED])
class TestCheckedValues:
    """A checked class checks on every build: ``_replace``, ``_make``,
    copies and pickles included, with construction's error and message."""

    def test_replace_checks_as_construction(self, value, field, bad, error,
                                            message):
        values = value._asdict() | {field: bad}
        for build in (lambda: type(value)(**values),
                      lambda: value._replace(**{field: bad}),
                      lambda: type(value)._make(values.values())):
            with pytest.raises(error) as refused:
                build()
            assert type(refused.value) is error
            assert str(refused.value) == message

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))])
    def test_copies_equal_and_check(self, value, field, bad, error, message,
                                    clone):
        twin = clone(value)
        assert type(twin) is type(value) and twin == value
        assert hash(twin) == hash(value) and repr(twin) == repr(value)
        # A value made past the checks does not survive a copy.
        i = value._fields.index(field)
        broken = tuple.__new__(type(value), (*value[:i], bad, *value[i + 1:]))
        with pytest.raises(error) as refused:
            clone(broken)
        assert str(refused.value) == message

    @pytest.mark.skipif(sys.version_info < (3, 13),
                        reason="copy.replace is new in 3.13")
    def test_copy_replace_checks(self, value, field, bad, error, message):
        assert copy.replace(value) == value
        with pytest.raises(error) as replaced:
            copy.replace(value, **{field: bad})
        assert str(replaced.value) == message

    def test_frozen(self, value, field, bad, error, message):
        with pytest.raises(AttributeError):
            setattr(value, field, bad)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 0
        assert not hasattr(value, "__dict__")


class TestBuiltConfigsRun:
    """A layout or sampler config that builds can be run; no runner re-checks."""

    # Five ints of one magnitude, so that small ones often order themselves
    # and large ones reach the 2**32 limit on a zone's width; half of them
    # are put in zone order (lo0 <= hi0 <= brink <= lo1 <= hi1, ties kept).
    five_ints = st.sampled_from([8, 100, 2**33, 2**70]).flatmap(
        lambda r: st.lists(st.integers(-r, r), min_size=5, max_size=5))
    zone_ordered = five_ints.map(sorted).map(
        lambda v: [v[0], v[1], v[3], v[4], v[2]])

    @settings(max_examples=300, deadline=None)
    @given(five_ints | zone_ordered, st.integers(0, 2**64 - 1),
           st.integers(-1, 2**32))
    def test_layout_or_layout_error(self, ints, seed, max_step):
        lo0, hi0, lo1, hi1, brink = ints
        try:
            layout = ZoneLayout(*ints)
        except LayoutError:
            assert not lo0 <= hi0 < brink < lo1 <= hi1
            return
        try:
            sampler = SamplerConfig(seed, max_step, layout)
        except ValueError:
            return
        [result] = run_independent_scenario(
            IndependentTrialConfig(sampler, 3, 1))
        assert result.tally.trials == 3
        assert all(lo0 <= row[1] <= hi0 for row in result.records)
        assert all(lo1 <= row[3] <= hi1 for row in result.records)
        total, runs = run_sequential_scenario(SequentialConfig(
            sampler, layout.zone0_hi, layout.zone1_lo, runs=2, max_steps_cap=4))
        assert total.trials == len(runs) == 2


class TestConfigFuzz:
    """Any JSON document gives a config or a ValueError, nothing else."""

    @settings(max_examples=200)
    @given(valid_configs())
    def test_round_trip_through_json(self, config):
        doc = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(doc) == config

    @settings(max_examples=300)
    @given(st.one_of(json_values, near_configs()))
    def test_only_value_errors_escape(self, doc):
        try:
            config = config_from_dict(doc)
        except ValueError:
            return
        assert config_from_dict(config_to_dict(config)) == config
