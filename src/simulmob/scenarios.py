"""Experiment shapes and preset parameterizations.

Two shapes exist:

* independent trials: every trial draws fresh initial positions and one
  shared step, applies a single simultaneous move, and classifies it;
  a scenario is ``samples`` batches of ``runs_per_sample`` trials.
* sequential runs: both nodes start from fixed positions and keep moving
  with freshly drawn shared steps until the first crossing by either node
  (or a step cap).

Each shape draws through one kernel of :mod:`.sampling`, which states the
draw contract: ``_sample_draws`` yields a sample's draws in chunks of
three columns (mn0 inits, mn1 inits, steps), and ``_walks`` yields each
walk's steps and terminal outcome. Sample or walk k draws from stream k
alone, so any one of them can be redrawn from its seed and stream.

The runners keep counts only: a tally and a step sum per sample, and for
the walks a tally, the moves taken and the step sum.
A :class:`SampleResult`'s moves, and each walk of a :class:`Walks`, are
redrawn from their stream through the same generator on each read. Each
move comes out as a row, ``(step, mn0_init, mn0_new, mn1_init, mn1_new)``:
a sample's rows are zipped from its draw columns, and a walk is a
:class:`~simulmob.stats.SequentialRun`, whose rows are rebuilt from its
start and the running sums of its steps. The replays of recorded rows are
in :mod:`.stats`, which imports no sampler, so replaying a dataset or a
file loads neither this module nor :mod:`.sampling`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from operator import add, sub

from .model import MoveRecord, Outcome, Row, ZoneLayout, _Checked, classify
from .sampling import Sampler, SamplerConfig, _sample_draws, _walks
from .stats import SequentialRun, Tally, tally


class IndependentTrialConfig(_Checked, namedtuple(
        "IndependentTrialConfig", "sampler runs_per_sample samples",
        defaults=(30, 30))):
    """Fresh-inits shape: samples x runs_per_sample one-move trials."""

    __slots__ = ()

    def _check(self) -> None:
        if self.runs_per_sample < 1:
            raise ValueError(f"runs_per_sample must be >= 1, got {self.runs_per_sample}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


class SequentialConfig(_Checked, namedtuple(
        "SequentialConfig", "sampler mn0_start mn1_start runs max_steps_cap",
        defaults=(30, 10_000))):
    """Chained-moves shape: runs walks from fixed starts to first crossing."""

    __slots__ = ()

    def _check(self) -> None:
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


class SampleResult(namedtuple("SampleResult", "sample tally step_sum sampler")):
    """One sample of an independent-trial scenario: its tally and step sum.

    A sample keeps no draw. :meth:`moves` redraws stream ``sample`` of
    ``sampler`` for ``tally.trials`` trials, one chunk of draws at a time,
    and yields their rows; ``records`` is the tuple of those rows, and each
    read redraws. Table and estimate output need neither.
    """

    __slots__ = ()

    def moves(self) -> Iterator[Row]:
        for a, b, s in _sample_draws(self.sampler, self.sample, self.tally.trials):
            yield from zip(s, a, map(add, a, s), b, map(sub, b, s))

    @property
    def records(self) -> tuple[Row, ...]:
        return tuple(self.moves())


class Walks(Sequence[SequentialRun]):
    """The walks of a sequential scenario, kept as counts.

    ``len(walks)`` is the run count, and ``walks[j]`` is the
    :class:`SequentialRun` redrawn from stream j on each access;
    ``walks[a:b]`` is the list of those walks, each redrawn from its own
    stream, and iterating redraws them in order. ``moves`` is the number
    of moves the walks took and ``step_sum`` the sum of their steps. The
    number that reached the step cap is the ``no_overlap`` of the tally
    returned beside them: a walk ends without crossing only at the cap.
    Walks are immutable, and equal and hash by those three fields.
    """

    __slots__ = ("config", "moves", "step_sum")

    def __init__(self, config: SequentialConfig, moves: int, step_sum: int):
        for name, value in zip(self.__slots__, (config, moves, step_sum)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple[SequentialConfig, int, int]:
        return self.config, self.moves, self.step_sum

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        return self.__class__, self._key()

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(config={self.config!r}, "
                f"moves={self.moves!r}, step_sum={self.step_sum!r})")

    def __len__(self) -> int:
        return self.config.runs

    def __getitem__(
        self, j: int | slice
    ) -> SequentialRun | list[SequentialRun]:
        picked = range(self.config.runs)[j]  # as a list indexes and slices
        if isinstance(picked, range):
            return [self[i] for i in picked]
        return next(self._runs(picked, picked + 1))

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
    probe, until that probe times the runner's own trial instead.
    """
    mn0_init, mn1_init = sampler.draw_init_positions()
    step = sampler.draw_step()
    rec = MoveRecord.from_inits(mn0_init, mn1_init, step)
    return rec, classify(rec, layout)


def run_independent_scenario(config: IndependentTrialConfig) -> list[SampleResult]:
    """Run all samples; sample k draws from substream k.

    One pass counts the outcomes of each chunk of the sample's draws and
    adds up its step column; the chunk is then dropped.
    """
    sampler = config.sampler
    brink, runs = sampler.layout.brink, config.runs_per_sample
    results = []
    for k in range(config.samples):
        mn0_only = mn1_only = simultaneous = step_sum = 0
        for mn0s, mn1s, steps in _sample_draws(sampler, k, runs):
            for mn0, mn1, step in zip(mn0s, mn1s, steps):
                if mn0 + step >= brink:
                    if mn1 - step <= brink:
                        simultaneous += 1
                    else:
                        mn0_only += 1
                elif mn1 - step <= brink:
                    mn1_only += 1
            step_sum += sum(steps)
        no_overlap = runs - mn0_only - mn1_only - simultaneous
        total = Tally(mn0_only, mn1_only, simultaneous, no_overlap)
        results.append(SampleResult(k, total, step_sum, sampler))
    return results


def run_sequential_scenario(config: SequentialConfig) -> tuple[Tally, Walks]:
    """Run all walks; tally their terminal outcomes and count their moves.

    Timing out is a result (timed_out=True, terminal no_overlap), not an
    error, and the tally's no_overlap counts the walks that timed out. No
    walk is kept: the returned :class:`Walks` redraws one on access.
    """
    moves = step_sum = 0

    def terminals() -> Iterator[Outcome]:
        nonlocal moves, step_sum
        for steps, terminal in _walks(config, 0, config.runs):
            moves += len(steps)
            step_sum += sum(steps)
            yield terminal

    total = tally(terminals())
    return total, Walks(config, moves, step_sum)


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


# The config fields that hold a nested config, by the class that holds each;
# every other field is an int. With each class's ``_fields`` and
# ``_field_defaults``, this is the config JSON's schema.
_NESTED = {"sampler": SamplerConfig, "layout": ZoneLayout}


def _from_dict(cls: type, doc: object, what: str):
    """Build config class ``cls`` from a JSON object, field by field.

    A field named in ``_NESTED`` is built from its nested object the same
    way and named by its field name; every other field is an int, and a
    JSON ``true`` is not one. A missing field takes the class's default.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {doc!r}")
    unknown = set(doc) - set(cls._fields)
    if unknown:
        raise ValueError(f"{what} has unknown keys {sorted(unknown)}")
    values = {}
    for name in cls._fields:
        if name not in doc:
            if name not in cls._field_defaults:
                raise ValueError(f"{what} is missing key {name!r}")
            continue
        value = doc[name]
        if name in _NESTED:
            value = _from_dict(_NESTED[name], value, name)
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"{what} key {name!r} must be an integer, got {value!r}")
        values[name] = value
    return cls(**values)


def config_from_dict(doc: dict) -> IndependentTrialConfig | SequentialConfig:
    """Build a scenario config from a JSON-style dict (field names mirror
    the config classes' fields; the shape is inferred from which fields
    appear).
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
    """Inverse of config_from_dict: plain dicts, the nested configs' too,
    with keys in ``_fields`` order."""
    return {name: config_to_dict(value) if name in _NESTED else value
            for name, value in zip(config._fields, config)}
