import json
import tracemalloc
from dataclasses import fields, replace
from statistics import fmean

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simulmob import scenarios
from simulmob.datasets import load_dataset
from simulmob.model import LayoutError, MoveRecord, Outcome, ZoneLayout, classify
from simulmob.sampling import Pcg32, Sampler, SamplerConfig
from simulmob.stats import tally
from simulmob.traceio import JsonRecords, write_json
from simulmob.scenarios import (
    IndependentTrialConfig,
    SequentialConfig,
    SequentialRun,
    config_from_dict,
    config_to_dict,
    preset,
    replay_independent,
    replay_sequential,
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
        config = replace(preset(1, seed=3), samples=4, runs_per_sample=5)
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
        assert run.records == ds.rows

    def test_zero_steps_time_out(self):
        config = replace(self._config(max_steps_cap=100),
                         sampler=SamplerConfig(0, 0, self.LAYOUT_3))
        _, (run,) = run_sequential_scenario(config)
        assert run.timed_out
        assert run.steps == (0,) * 100
        assert run.terminal is Outcome.NO_OVERLAP
        assert run.final_positions == (10, 500)

    def test_adjacent_starts_cross_in_one_step(self):
        config = replace(self._config(mn0_start=249, mn1_start=251, runs=20),
                         sampler=SamplerConfig(0, 1, self.LAYOUT_3))
        _, runs = run_sequential_scenario(config)
        for run in runs:
            assert run.steps[-1] == 1
            assert set(run.steps[:-1]) <= {0}
            assert run.terminal is Outcome.SIMULTANEOUS_OVERLAP
            assert not run.timed_out

    def test_chaining_and_approach(self):
        _, runs = run_sequential_scenario(replace(preset(3, seed=4), runs=10))
        for run in runs:
            records = run.records
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
        config = replace(preset(3, seed=123), runs=200)
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
        total, outcomes = replay_independent(ds.rows, ds.layout)
        assert total.mn0_only == 8
        assert total.mn1_only == 2
        assert total.simultaneous == 5
        assert total.no_overlap == 15
        assert total.mn0_handover == 13
        assert total.mn1_handover == 7
        assert len(outcomes) == 30

    def test_table3_tally(self):
        ds = load_dataset("table-3")
        total, _ = replay_independent(ds.rows, ds.layout)
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
        assert run.records == ds.rows[:5]
        assert run.final_positions == (ds.rows[4].mn0_new, ds.rows[4].mn1_new)

    def test_broken_chain_rejected(self):
        rows = [MoveRecord.from_inits(10, 500, 5),
                MoveRecord.from_inits(16, 495, 5)]
        with pytest.raises(ValueError):
            replay_sequential(rows, ZoneLayout(0, 249, 251, 500, 250))

    def test_rows_after_crossing_rejected(self):
        rows = [MoveRecord.from_inits(240, 260, 10),
                MoveRecord.from_inits(250, 250, 10)]
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


def classified(run, layout):
    return tuple(classify(rec, layout) for rec in run.records)


class TestWalkOutcomes:
    """A walk's outcomes, built without records, are its records' classes."""

    @settings(max_examples=150, deadline=None)
    @given(small_walk_configs())
    @example(replace(preset(3, seed=4), runs=3))  # walks that cross
    @example(SequentialConfig(  # walks that time out
        SamplerConfig(7, 0, ZoneLayout(0, 9, 11, 20, 10)), 5, 15, 2, 8))
    @example(SequentialConfig(  # one-move walks
        SamplerConfig(7, 5, ZoneLayout(0, 9, 11, 20, 10)), 0, 20, 3, 1))
    def test_simulated_and_replayed_walks(self, config):
        layout = config.sampler.layout
        _, runs = run_sequential_scenario(config)
        for run in runs:
            assert run.outcomes == classified(run, layout)
            assert len(run.outcomes) == run.steps_taken
            assert run.outcomes[-1] is run.terminal
            assert replay_sequential(run.records, layout).outcomes == run.outcomes

    @pytest.mark.parametrize("rows", [11, 5, 1])
    def test_table6_walk(self, rows):
        ds = load_dataset("table-6")
        run = replay_sequential(ds.rows[:rows], ds.layout)
        assert run.outcomes == classified(run, ds.layout)


def reference_independent(config):
    """Record-building loop: (tally, records, outcomes) per sample."""
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


def reference_sequential(config):
    """Record-building walks: (tally, [(records, terminal, timed_out)])."""
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
    sampler = replace(config.sampler, layout=layout)
    if isinstance(config, SequentialConfig):
        return replace(config, sampler=sampler, mn0_start=config.mn0_start + c,
                       mn1_start=config.mn1_start + c)
    return replace(config, sampler=sampler)


INDEPENDENT_CASES = [
    *(replace(preset(s, seed=seed), runs_per_sample=40, samples=3)
      for s in (1, 2) for seed in (0, 1, 2**64 - 1)),
    IndependentTrialConfig(SamplerConfig(11, 300, WIDE), 50, 3),
    IndependentTrialConfig(SamplerConfig(3, 0, WIDE), 20, 2),
]
SEQUENTIAL_CASES = [
    *(replace(preset(3, seed=seed), runs=25) for seed in (0, 1, 2**64 - 1)),
    SequentialConfig(SamplerConfig(11, 90, WIDE), 1010, 1790, runs=10),
    SequentialConfig(SamplerConfig(4, 0, WIDE), 1200, 1600, runs=3,
                     max_steps_cap=40),
    replace(preset(3, seed=6), runs=25, max_steps_cap=7),
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
            assert result.outcomes == outcomes
            assert result.steps == tuple(rec.step for rec in records)

    @pytest.mark.parametrize("config", SEQUENTIAL_CASES)
    def test_sequential(self, config):
        total, runs = run_sequential_scenario(config)
        expected_total, expected = reference_sequential(config)
        assert total == expected_total
        for run, (records, terminal, timed_out) in zip(runs, expected,
                                                       strict=True):
            assert run.records == records
            assert run.terminal is terminal
            assert run.steps_taken == len(records)
            assert run.timed_out is timed_out
            assert run.final_positions == (records[-1].mn0_new,
                                           records[-1].mn1_new)

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
    """The inline PCG32 draws of both runners against the Sampler path."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_seeds, kernel_max_steps, kernel_layouts(),
           st.integers(1, 12), st.integers(1, 4))
    def test_independent(self, seed, max_step, layout, runs, samples):
        config = IndependentTrialConfig(SamplerConfig(seed, max_step, layout),
                                        runs, samples)
        results = run_independent_scenario(config)
        expected = reference_independent(config)
        for result, (total, records, _) in zip(results, expected, strict=True):
            assert list(result.draws) == [
                value for rec in records
                for value in (rec.mn0_init, rec.mn1_init, rec.step)]
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
            assert run.steps == tuple(rec.step for rec in records)
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
        assert result.draws[column] == lo + 2**31 - 1
        assert result.records == reference_independent(config)[0][1]
        walk = SequentialConfig(SamplerConfig(seed, 2**31, WIDE), 1000, 1800,
                                runs=1)
        assert run_sequential_scenario(walk)[1][0].steps[0] == 2**31 - 1

    def test_runners_draw_without_the_sampler(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Sampler path used")

        independent = replace(preset(2, seed=3), runs_per_sample=20, samples=3)
        sequential = replace(preset(3, seed=3), runs=5)
        before = (run_independent_scenario(independent),
                  run_sequential_scenario(sequential))
        monkeypatch.setattr(Pcg32, "_next_u32", refuse)
        monkeypatch.setattr(Sampler, "draw_step", refuse)
        monkeypatch.setattr(Sampler, "draw_init_positions", refuse)
        assert (run_independent_scenario(independent),
                run_sequential_scenario(sequential)) == before
        with pytest.raises(AssertionError):
            Sampler(independent.sampler).draw_step()


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
                config = replace(preset(scenario, seed=1),
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
        config = replace(preset(3, seed=1), runs=runs)
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
            steps = result.steps
            assert result.step_sum == sum(steps)
            assert float(result.step_sum) / result.tally.trials == fmean(steps)
            assert result.draws[2::3] == list(steps)

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
        assert walks.timed_out == sum(run.timed_out for run in runs)
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

    @pytest.mark.parametrize("first", ["records", "outcomes"])
    def test_records_and_outcomes_redraw_once(self, monkeypatch, first):
        [result] = run_independent_scenario(
            replace(preset(1, seed=4), runs_per_sample=2500, samples=1))
        redraws = []
        draw = scenarios._sample_draws
        monkeypatch.setattr(scenarios, "_sample_draws",
                            lambda *args: redraws.append(args) or draw(*args))
        getattr(result, first)
        assert len(result.records) == len(result.outcomes) == 2500
        assert len(redraws) == 1
        assert result.outcomes == tuple(
            classify(rec, result.sampler.layout) for rec in result.records)

    def test_walks_index_like_a_list(self):
        config = replace(preset(3, seed=2), runs=6)
        total, walks = run_sequential_scenario(config)
        runs = list(walks)
        assert len(walks) == 6
        assert [walks[j] for j in range(6)] == runs
        assert walks[-1] == runs[-1] and walks[-6] == runs[0]
        for j in (6, -7):
            with pytest.raises(IndexError):
                walks[j]
        assert run_sequential_scenario(config) == (total, walks)
        assert hash(walks) == hash(run_sequential_scenario(config)[1])


class TestJsonMemory:
    """Rendering a 20,000-move replay document takes at most 4 bytes of heap
    per byte of output. The rows, their joined list and the document are the
    only large strings, about 2.4 bytes a byte; the stdlib's indenting
    encoder took about 7.8 on the same document."""

    def test_write_json_peak_is_bounded_by_output(self):
        layout = ZoneLayout(5000, 5049, 5051, 5100, 5050)
        records = [MoveRecord.from_inits(5000 + i * 7 % 50, 5051 + i * 13 % 50,
                                         i * 31 % 51) for i in range(20_000)]
        doc = {"dataset": None, "input": "rows.csv",
               "tally": tally(classify(rec, layout) for rec in records).as_dict(),
               "records": JsonRecords(records,
                                      [classify(rec, layout) for rec in records])}
        tracemalloc.start()
        try:
            text = write_json(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text)


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

    @pytest.mark.parametrize("scenario", [2, 3])
    def test_keys_follow_field_order(self, scenario):
        config = preset(scenario)
        doc = config_to_dict(config)
        for obj, part in ((config, doc), (config.sampler, doc["sampler"]),
                          (config.sampler.layout, doc["sampler"]["layout"])):
            assert list(part) == [f.name for f in fields(obj)]


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
        assert all(lo0 <= p <= hi0 for p in result.draws[0::3])
        assert all(lo1 <= p <= hi1 for p in result.draws[1::3])
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
