"""Experiment shapes and preset parameterizations.

Two shapes exist:

* independent trials: every trial draws fresh initial positions and one
  shared step, applies a single simultaneous move, and classifies it;
  a scenario is ``samples`` batches of ``runs_per_sample`` trials.
* sequential runs: both nodes start from fixed positions and keep moving
  with freshly drawn shared steps until the first crossing by either node
  (or a step cap).

Each sample (or run) owns a private substream, so samples may run in any
order, or in parallel, without changing results.

Each scenario runner inlines PCG32's XSH-RR step and ``pcg32_boundedrand_r``
rejection (O'Neill 2014) once, in its one draw loop; the independent runner
loops over a trial's three ranges, then counts the outcomes in one pass. A
range of one value consumes no draw. They draw exactly what a
:class:`Sampler` on the same stream draws; the tests hold the Sampler-driven
reference loops. The rotation is one shift of the doubled word.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cached_property
from itertools import cycle, islice
from typing import Sequence, get_type_hints

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
    access; table and estimate output never need it.
    """

    start: tuple[Position, Position]
    steps: tuple[StepLength, ...]
    terminal: Outcome
    timed_out: bool

    @property
    def steps_taken(self) -> int:
        return len(self.steps)

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
    """One sample of an independent-trial scenario.

    ``draws`` holds the three ints every trial drew, in draw order
    (mn0_init, mn1_init, step), trial after trial: the list the runner
    filled, not a copy, so it takes no part in the hash. ``records`` and
    ``outcomes`` are rebuilt from it on first access; table and estimate
    output never need them.
    """

    sample: int
    tally: Tally
    draws: Sequence[int] = field(hash=False)
    brink: Position

    @property
    def steps(self) -> tuple[StepLength, ...]:
        return tuple(self.draws[2::3])

    @cached_property
    def records(self) -> tuple[MoveRecord, ...]:
        draws = self.draws
        return tuple(
            map(MoveRecord.from_inits, draws[0::3], draws[1::3], draws[2::3])
        )

    @cached_property
    def outcomes(self) -> tuple[Outcome, ...]:
        draws, brink = self.draws, self.brink
        return tuple(
            crossing(mn0 + step, mn1 - step, brink)
            for mn0, mn1, step in zip(draws[0::3], draws[1::3], draws[2::3])
        )


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


def run_independent_scenario(config: IndependentTrialConfig) -> list[SampleResult]:
    """Run all samples; sample k draws from substream k.

    Each trial draws as :func:`run_independent_trial` does, but builds no
    record: one loop draws the sample's column from a trial's three ranges
    in turn (mn0_init, mn1_init, step), then one pass counts the outcomes.
    """
    sampler = config.sampler
    layout = sampler.layout
    brink = layout.brink
    # (lowest value, width, rejection threshold) of each draw, in draw order
    ranges = [(lo, width, _DRAW_RANGE % width) for lo, width in (
        (layout.zone0_lo, layout.zone0_width),
        (layout.zone1_lo, layout.zone1_width),
        (0, sampler.max_step + 1))]
    mult, mask64, mask32 = _PCG_MULTIPLIER, _MASK64, _MASK32
    results = []
    for k in range(config.samples):
        state, inc = pcg32_seed(sampler.seed, k)
        draws: list[int] = []
        append = draws.append
        for value, bound, threshold in islice(cycle(ranges), 3 * config.runs_per_sample):
            if bound > 1:
                while True:
                    old, state = state, (state * mult + inc) & mask64
                    x = (((old >> 18) ^ old) >> 27) & mask32
                    r = ((x * 0x100000001) >> (old >> 59)) & mask32
                    if r >= threshold:
                        break
                value += r % bound
            append(value)
        mn0_only = mn1_only = simultaneous = 0
        column = iter(draws)
        for mn0, mn1, step in zip(column, column, column):
            if mn0 + step >= brink:
                if mn1 - step <= brink:
                    simultaneous += 1
                else:
                    mn0_only += 1
            elif mn1 - step <= brink:
                mn1_only += 1
        no_overlap = config.runs_per_sample - mn0_only - mn1_only - simultaneous
        total = Tally(mn0_only, mn1_only, simultaneous, no_overlap)
        results.append(SampleResult(k, total, draws, brink))
    return results


def run_sequential_scenario(
    config: SequentialConfig,
) -> tuple[Tally, list[SequentialRun]]:
    """Run all walks; run j draws from substream j. Tally terminal outcomes.

    Each walk draws its shared steps from fixed starts until the first
    crossing or ``max_steps_cap`` moves. Timing out is a result
    (timed_out=True, terminal no_overlap), not an error, and counts as
    no_overlap in the tally.
    """
    sampler = config.sampler
    brink, cap = sampler.layout.brink, config.max_steps_cap
    start = (config.mn0_start, config.mn1_start)
    bound = sampler.max_step + 1
    threshold = _DRAW_RANGE % bound
    mult, mask64, mask32 = _PCG_MULTIPLIER, _MASK64, _MASK32
    no_overlap = Outcome.NO_OVERLAP
    runs = []
    for j in range(config.runs):
        state, inc = pcg32_seed(sampler.seed, j)
        mn0, mn1 = start
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
        terminal = crossing(mn0, mn1, brink)
        runs.append(SequentialRun(start, tuple(steps), terminal,
                                  terminal is no_overlap))
    return tally(run.terminal for run in runs), runs


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
