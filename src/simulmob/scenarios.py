"""Experiment shapes and preset parameterizations.

Two shapes exist:

* independent trials: every trial draws fresh initial positions and one
  shared step, applies a single simultaneous move, and classifies it;
  a scenario is ``samples`` batches of ``runs_per_sample`` trials.
* sequential runs: both nodes start from fixed positions and keep moving
  with freshly drawn shared steps until the first crossing by either node
  (or a step cap).

Each sample (or run) owns a private substream, so samples may run in any
order, or in parallel, without changing results, and any one of them can
be redrawn alone from its seed and stream.

Each shape has one draw generator, which inlines PCG32's XSH-RR step and
``pcg32_boundedrand_r`` rejection (O'Neill 2014) in its one draw loop:
``_sample_draws`` yields a sample's draw column in chunks, looping over a
trial's three ranges, and ``_walks`` yields each walk's steps and terminal
outcome. A range of one value consumes no draw. They draw exactly what a
:class:`Sampler` on the same stream draws; the tests hold the Sampler-driven
reference loops. The rotation is one shift of the doubled word.

The runners keep counts only: a tally and a step sum per sample, and for
the walks a tally, the moves taken, the step sum and the timed-out count.
A :class:`SampleResult`'s draws, records and outcomes, and each walk of a
:class:`Walks`, are redrawn from their stream through the same generator.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import cached_property
from itertools import chain, cycle, islice
from typing import get_type_hints

from .model import (
    MoveRecord,
    Outcome,
    Position,
    StepLength,
    ZoneLayout,
    classify,
    crossing,
)
from .sampling import (_DRAW_RANGE, _MASK32, _MASK64, _PCG_MULTIPLIER, Sampler,
                       SamplerConfig, pcg32_seed)
from .stats import Tally, tally


@dataclass(frozen=True)
class IndependentTrialConfig:
    """Fresh-inits shape: samples x runs_per_sample one-move trials."""

    sampler: SamplerConfig
    runs_per_sample: int = 30
    samples: int = 30

    def __post_init__(self):
        if self.runs_per_sample < 1:
            raise ValueError(f"runs_per_sample must be >= 1, got {self.runs_per_sample}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


@dataclass(frozen=True)
class SequentialConfig:
    """Chained-moves shape: runs walks from fixed starts to first crossing."""

    sampler: SamplerConfig
    mn0_start: int
    mn1_start: int
    runs: int = 30
    max_steps_cap: int = 10_000

    def __post_init__(self):
        layout = self.sampler.layout
        if not layout.zone0_lo <= self.mn0_start <= layout.zone0_hi:
            raise ValueError(
                f"mn0_start {self.mn0_start} outside zone0 "
                f"{layout.zone0_lo}:{layout.zone0_hi}"
            )
        if not layout.zone1_lo <= self.mn1_start <= layout.zone1_hi:
            raise ValueError(
                f"mn1_start {self.mn1_start} outside zone1 "
                f"{layout.zone1_lo}:{layout.zone1_hi}"
            )
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.max_steps_cap < 1:
            raise ValueError(f"max_steps_cap must be >= 1, got {self.max_steps_cap}")


@dataclass(frozen=True)
class SequentialRun:
    """One chained walk: the shared step of every move taken from ``start``,
    ended by crossing or cap.

    ``records`` is rebuilt from the start positions and the steps on first
    access; table and estimate output never need it. ``outcomes`` needs no
    record: a walk stops at its first crossing, so every move but the last
    is a no-overlap move. That holds for a replayed walk too, because the
    replay rejects rows past the first crossing.
    """

    start: tuple[Position, Position]
    steps: tuple[StepLength, ...]
    terminal: Outcome
    timed_out: bool

    @property
    def steps_taken(self) -> int:
        return len(self.steps)

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return (Outcome.NO_OVERLAP,) * (len(self.steps) - 1) + (self.terminal,)

    @property
    def final_positions(self) -> tuple[Position, Position]:
        moved = sum(self.steps)
        return (self.start[0] + moved, self.start[1] - moved)

    @cached_property
    def records(self) -> tuple[MoveRecord, ...]:
        records = []
        mn0, mn1 = self.start
        for step in self.steps:
            rec = MoveRecord.from_inits(mn0, mn1, step)
            records.append(rec)
            mn0, mn1 = rec.mn0_new, rec.mn1_new
        return tuple(records)


@dataclass(frozen=True)
class SampleResult:
    """One sample of an independent-trial scenario: its tally and step sum.

    A sample keeps no draw. ``draws`` (the three ints every trial drew, in
    draw order mn0_init, mn1_init, step, trial after trial) and ``steps``
    redraw stream ``sample`` of ``sampler`` for ``tally.trials`` trials on
    each access. ``records`` is built from one redraw and cached, and
    ``outcomes`` comes from those records. Table and estimate output need
    none of them.
    """

    sample: int
    tally: Tally
    step_sum: int
    sampler: SamplerConfig

    def _columns(self) -> Iterator[list[int]]:
        return _sample_draws(self.sampler, self.sample, self.tally.trials)

    @property
    def draws(self) -> list[int]:
        return list(chain.from_iterable(self._columns()))

    @property
    def steps(self) -> tuple[StepLength, ...]:
        return tuple(chain.from_iterable(
            draws[2::3] for draws in self._columns()))

    @cached_property
    def records(self) -> tuple[MoveRecord, ...]:
        draws = self.draws
        return tuple(
            map(MoveRecord.from_inits, draws[0::3], draws[1::3], draws[2::3]))

    @cached_property
    def outcomes(self) -> tuple[Outcome, ...]:
        brink = self.sampler.layout.brink
        return tuple(crossing(rec.mn0_new, rec.mn1_new, brink)
                     for rec in self.records)


@dataclass(frozen=True)
class Walks(Sequence[SequentialRun]):
    """The walks of a sequential scenario, kept as counts.

    ``len(walks)`` is the run count, and ``walks[j]`` is the
    :class:`SequentialRun` redrawn from stream j on each access; iterating
    redraws them in order. ``moves`` is the number of moves the walks took,
    ``step_sum`` the sum of their steps and ``timed_out`` the number that
    reached the step cap.
    """

    config: SequentialConfig
    moves: int
    step_sum: int
    timed_out: int

    def __len__(self) -> int:
        return self.config.runs

    def __getitem__(self, j: int) -> SequentialRun:
        j = range(self.config.runs)[j]  # a list's negative indices and IndexError
        return next(self._runs(j, j + 1))

    def __iter__(self) -> Iterator[SequentialRun]:
        return self._runs(0, self.config.runs)

    def _runs(self, first: int, stop: int) -> Iterator[SequentialRun]:
        start = (self.config.mn0_start, self.config.mn1_start)
        for steps, terminal in _walks(self.config, first, stop):
            yield SequentialRun(start, tuple(steps), terminal,
                                terminal is Outcome.NO_OVERLAP)


def run_independent_trial(
    sampler: Sampler, layout: ZoneLayout
) -> tuple[MoveRecord, Outcome]:
    """One trial: fresh inits, one shared step, one simultaneous move.

    No runner calls it; it stays only for ``perfbench``'s ``trial_ns``
    probe, until that probe times the runner's inlined trial instead.
    """
    mn0_init, mn1_init = sampler.draw_init_positions()
    step = sampler.draw_step()
    rec = MoveRecord.from_inits(mn0_init, mn1_init, step)
    return rec, classify(rec, layout)


# Trials in one chunk of a sample's draw column, or walks in one chunk of
# terminal outcomes: a runner holds one chunk at a time, so its memory does
# not grow with the run.
_CHUNK = 1024


def _sample_draws(
    sampler: SamplerConfig, k: int, runs: int
) -> Iterator[list[int]]:
    """Sample k's draw column, ``runs`` trials from stream k, in chunks of
    at most ``_CHUNK`` trials.

    Each trial draws as :func:`run_independent_trial` does, but builds no
    record: the loop draws from a trial's three ranges in turn (mn0_init,
    mn1_init, step), three ints a trial.
    """
    layout = sampler.layout
    # (lowest value, width, rejection threshold) of each draw, in draw order
    ranges = [(lo, width, _DRAW_RANGE % width) for lo, width in (
        (layout.zone0_lo, layout.zone0_width),
        (layout.zone1_lo, layout.zone1_width),
        (0, sampler.max_step + 1))]
    mult, mask64, mask32 = _PCG_MULTIPLIER, _MASK64, _MASK32
    state, inc = pcg32_seed(sampler.seed, k)
    for done in range(0, runs, _CHUNK):
        draws: list[int] = []
        append = draws.append
        for value, bound, threshold in islice(
                cycle(ranges), 3 * min(_CHUNK, runs - done)):
            if bound > 1:
                while True:
                    old, state = state, (state * mult + inc) & mask64
                    x = (((old >> 18) ^ old) >> 27) & mask32
                    r = ((x * 0x100000001) >> (old >> 59)) & mask32
                    if r >= threshold:
                        break
                value += r % bound
            append(value)
        yield draws


def run_independent_scenario(config: IndependentTrialConfig) -> list[SampleResult]:
    """Run all samples; sample k draws from substream k.

    One pass counts the outcomes of each chunk of the sample's draw column
    and adds up its steps; the chunk is then dropped.
    """
    sampler = config.sampler
    brink = sampler.layout.brink
    results = []
    for k in range(config.samples):
        mn0_only = mn1_only = simultaneous = step_sum = 0
        for draws in _sample_draws(sampler, k, config.runs_per_sample):
            column = iter(draws)
            for mn0, mn1, step in zip(column, column, column):
                if mn0 + step >= brink:
                    if mn1 - step <= brink:
                        simultaneous += 1
                    else:
                        mn0_only += 1
                elif mn1 - step <= brink:
                    mn1_only += 1
            step_sum += sum(draws[2::3])
        no_overlap = config.runs_per_sample - mn0_only - mn1_only - simultaneous
        total = Tally(mn0_only, mn1_only, simultaneous, no_overlap)
        results.append(SampleResult(k, total, step_sum, sampler))
    return results


def _walks(
    config: SequentialConfig, first: int, stop: int
) -> Iterator[tuple[list[int], Outcome]]:
    """Walks ``first`` to ``stop - 1``: the steps each one took and its
    terminal outcome; walk j draws from substream j.

    Each walk draws its shared steps from fixed starts until the first
    crossing or ``max_steps_cap`` moves.
    """
    sampler = config.sampler
    brink, cap = sampler.layout.brink, config.max_steps_cap
    bound = sampler.max_step + 1
    threshold = _DRAW_RANGE % bound
    mult, mask64, mask32 = _PCG_MULTIPLIER, _MASK64, _MASK32
    for j in range(first, stop):
        state, inc = pcg32_seed(sampler.seed, j)
        mn0, mn1 = config.mn0_start, config.mn1_start
        steps: list[int] = []
        for _ in range(cap):
            step = 0
            if bound > 1:
                while True:
                    old, state = state, (state * mult + inc) & mask64
                    x = (((old >> 18) ^ old) >> 27) & mask32
                    r = ((x * 0x100000001) >> (old >> 59)) & mask32
                    if r >= threshold:
                        break
                step = r % bound
            steps.append(step)
            mn0 += step
            mn1 -= step
            if mn0 >= brink or mn1 <= brink:
                break
        yield steps, crossing(mn0, mn1, brink)


def run_sequential_scenario(config: SequentialConfig) -> tuple[Tally, Walks]:
    """Run all walks; tally their terminal outcomes and count their moves.

    Timing out is a result (timed_out=True, terminal no_overlap), not an
    error, and counts as no_overlap in the tally. No walk is kept: the
    returned :class:`Walks` redraws one on access.
    """
    total = Tally()
    moves = step_sum = 0
    terminals: list[Outcome] = []
    for steps, terminal in _walks(config, 0, config.runs):
        moves += len(steps)
        step_sum += sum(steps)
        terminals.append(terminal)
        if len(terminals) == _CHUNK:
            total += tally(terminals)
            terminals.clear()
    total += tally(terminals)
    # A walk ends without crossing only at the step cap.
    return total, Walks(config, moves, step_sum, total.no_overlap)


def replay_independent(
    records: Sequence[MoveRecord], layout: ZoneLayout
) -> tuple[Tally, list[Outcome]]:
    """Classify pre-recorded independent trials under a layout."""
    outcomes = [classify(rec, layout) for rec in records]
    return tally(outcomes), outcomes


def replay_sequential(
    records: Sequence[MoveRecord], layout: ZoneLayout
) -> SequentialRun:
    """Re-run a recorded chained walk, validating the chain as it goes.

    A walk whose rows never cross ends with terminal no_overlap, not timed
    out. The run's ``records`` are rebuilt from its start and steps, like
    a simulated walk's. Raises ValueError when consecutive rows do not
    chain or when rows continue past the first crossing.
    """
    if not records:
        raise ValueError("sequential replay needs at least one record")
    outcome = Outcome.NO_OVERLAP
    for i, rec in enumerate(records):
        if outcome is not Outcome.NO_OVERLAP:
            raise ValueError(f"rows continue past the first crossing at row {i}")
        if i:
            prev = records[i - 1]
            if (rec.mn0_init, rec.mn1_init) != (prev.mn0_new, prev.mn1_new):
                raise ValueError(
                    f"row {i + 1} inits ({rec.mn0_init}, {rec.mn1_init}) do not "
                    f"chain from row {i} finals ({prev.mn0_new}, {prev.mn1_new})"
                )
        outcome = classify(rec, layout)
    first = records[0]
    return SequentialRun((first.mn0_init, first.mn1_init),
                         tuple(rec.step for rec in records), outcome, False)


def preset(scenario_id: int, seed: int = 0) -> IndependentTrialConfig | SequentialConfig:
    """Compiled-in parameterizations of the three reference scenarios."""
    if scenario_id == 1:
        layout = ZoneLayout(0, 374, 376, 750, 375)
        return IndependentTrialConfig(SamplerConfig(seed, 50, layout))
    if scenario_id == 2:
        layout = ZoneLayout(50, 99, 101, 150, 100)
        return IndependentTrialConfig(SamplerConfig(seed, 50, layout))
    if scenario_id == 3:
        layout = ZoneLayout(0, 249, 251, 500, 250)
        return SequentialConfig(SamplerConfig(seed, 50, layout),
                                mn0_start=10, mn1_start=500)
    raise ValueError(f"unknown scenario id {scenario_id}; known ids are 1, 2, 3")


def _from_dict(cls: type, doc: object, what: str):
    """Build dataclass ``cls`` from a JSON object, field by field.

    A dataclass-typed field is built from its nested object the same way
    and named by its field name; every other field is an int, and a JSON
    ``true`` is not one. A missing field takes the dataclass default.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {doc!r}")
    known = fields(cls)
    unknown = set(doc) - {f.name for f in known}
    if unknown:
        raise ValueError(f"{what} has unknown keys {sorted(unknown)}")
    hints = get_type_hints(cls)
    values = {}
    for f in known:
        if f.name not in doc:
            if f.default is MISSING:
                raise ValueError(f"{what} is missing key {f.name!r}")
            continue
        value = doc[f.name]
        if is_dataclass(hints[f.name]):
            value = _from_dict(hints[f.name], value, f.name)
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"{what} key {f.name!r} must be an integer, got {value!r}")
        values[f.name] = value
    return cls(**values)


def config_from_dict(doc: dict) -> IndependentTrialConfig | SequentialConfig:
    """Build a scenario config from a JSON-style dict (field names mirror
    the config dataclasses; the shape is inferred from which fields appear).
    """
    if not isinstance(doc, dict):
        raise ValueError(f"config document must be an object, got {doc!r}")
    keys = set(doc)
    sequential_markers = keys & {"mn0_start", "mn1_start"}
    independent_markers = keys & {"runs_per_sample", "samples"}
    if sequential_markers and independent_markers:
        raise ValueError(
            "config mixes independent-trial and sequential fields: "
            f"{sorted(independent_markers | sequential_markers)}"
        )
    shape = SequentialConfig if sequential_markers else IndependentTrialConfig
    return _from_dict(shape, doc, "config")


def config_to_dict(config: IndependentTrialConfig | SequentialConfig) -> dict:
    """Inverse of config_from_dict (dataclass field order)."""
    return asdict(config)
