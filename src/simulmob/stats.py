"""Outcome tallies, replays of recorded moves, crossing estimators, and
the exact crossing probability.

Pure functions throughout. A replay classifies rows that were recorded,
not drawn: ``replay_independent`` tallies independent trials, and
``replay_sequential`` re-runs a chained walk into a :class:`SequentialRun`,
the type a simulated walk has too. This module imports only :mod:`.model`,
so a replay of a dataset or a CSV file loads no sampler and no scenario
code.

The exact probability is a closed-form arithmetic series over the
init-to-brink distances, so its cost does not depend on zone width or step
bound. The tests check it against a walk of the full (init, step) grid and
against Monte Carlo frequencies.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, islice
from math import fsum
from operator import sub

from .model import Outcome, Position, Row, ZoneLayout, crossing

# Canonical column set of the printed result tables, in printing order.
METRIC_LABELS = (
    "MN_0 overlaps",
    "MN_0 handover",
    "MN_1 overlaps",
    "MN_1 handover",
    "Simultaneous overlap",
    "No overlap",
    "Simultaneous Handover",
)
# The ``Tally.as_dict`` key that each METRIC_LABELS column prints.
METRIC_KEYS = ("mn0_only", "mn0_handover", "mn1_only", "mn1_handover",
               "simultaneous", "no_overlap", "simultaneous")


class Tally(namedtuple("Tally", "mn0_only mn1_only simultaneous no_overlap",
                       defaults=(0, 0, 0, 0))):
    """Aggregated outcome counts for a batch of moves.

    Only the four disjoint outcome counts are stored; the derived totals are
    properties, so the identities

        mn0_handover == mn0_only + simultaneous
        mn1_handover == mn1_only + simultaneous
        trials == mn0_only + mn1_only + simultaneous + no_overlap

    hold for every Tally by construction. ``+`` adds two tallies.
    """

    __slots__ = ()

    @property
    def trials(self) -> int:
        return self.mn0_only + self.mn1_only + self.simultaneous + self.no_overlap

    @property
    def mn0_handover(self) -> int:
        """Moves on which MN_0 crossed, alone or simultaneously."""
        return self.mn0_only + self.simultaneous

    @property
    def mn1_handover(self) -> int:
        """Moves on which MN_1 crossed, alone or simultaneously."""
        return self.mn1_only + self.simultaneous

    @property
    def overlap_events(self) -> int:
        """Moves on which at least one node crossed (a simultaneous move counts once)."""
        return self.trials - self.no_overlap

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(
            self.mn0_only + other.mn0_only,
            self.mn1_only + other.mn1_only,
            self.simultaneous + other.simultaneous,
            self.no_overlap + other.no_overlap,
        )

    def as_dict(self) -> dict:
        return {
            "mn0_only": self.mn0_only,
            "mn1_only": self.mn1_only,
            "simultaneous": self.simultaneous,
            "no_overlap": self.no_overlap,
            "trials": self.trials,
            "mn0_handover": self.mn0_handover,
            "mn1_handover": self.mn1_handover,
        }


def tally(outcomes: Iterable[Outcome]) -> Tally:
    """Count each outcome variant of a batch."""
    counts = Counter(outcomes)
    return Tally(
        mn0_only=counts[Outcome.MN0_OVERLAP],
        mn1_only=counts[Outcome.MN1_OVERLAP],
        simultaneous=counts[Outcome.SIMULTANEOUS_OVERLAP],
        no_overlap=counts[Outcome.NO_OVERLAP],
    )


class SequentialRun(namedtuple("SequentialRun",
                               "start steps terminal timed_out")):
    """One chained walk: the shared step of every move taken from ``start``,
    ended by crossing or cap. ``terminal`` is the last move's
    :class:`Outcome`; ``timed_out`` is true when the cap ended the walk.

    :meth:`moves` rebuilds the rows from the start positions and the
    steps; only record output (CSV, JSON, trace) and a plot read them.
    Every move but the last is a no-overlap move, since a walk stops at its
    first crossing; a replayed walk too, because the replay rejects rows
    past the first crossing.
    """

    __slots__ = ()

    @property
    def steps_taken(self) -> int:
        return len(self.steps)

    @property
    def final_positions(self) -> tuple[Position, Position]:
        moved = sum(self.steps)
        return (self.start[0] + moved, self.start[1] - moved)

    def moves(self) -> Iterator[Row]:
        # Each node's position before the first move and after every move.
        steps = self.steps
        mn0 = list(accumulate(steps, initial=self.start[0]))
        mn1 = list(accumulate(steps, sub, initial=self.start[1]))
        return zip(steps, mn0, islice(mn0, 1, None), mn1, islice(mn1, 1, None))


def replay_independent(rows: Iterable[Row], layout: ZoneLayout) -> Tally:
    """Tally the rows of pre-recorded independent trials, classified under a
    layout."""
    brink = layout.brink
    return tally(crossing(row[2], row[4], brink) for row in rows)


def replay_sequential(rows: Sequence[Row], layout: ZoneLayout) -> SequentialRun:
    """Re-run the rows of a recorded chained walk, validating the chain as it
    goes.

    A walk whose rows never cross ends with terminal no_overlap, not timed
    out. The run's moves are rebuilt from its start and steps, like a
    simulated walk's. Raises ValueError when consecutive rows do not
    chain or when rows continue past the first crossing.
    """
    if not rows:
        raise ValueError("sequential replay needs at least one record")
    brink = layout.brink
    outcome = Outcome.NO_OVERLAP
    # The first row's inits stand in for the finals of a row before it.
    start = mn0, mn1 = rows[0][1], rows[0][3]
    for i, (_, mn0_init, mn0_new, mn1_init, mn1_new) in enumerate(rows):
        if outcome is not Outcome.NO_OVERLAP:
            raise ValueError(f"rows continue past the first crossing at row {i}")
        if (mn0_init, mn1_init) != (mn0, mn1):
            raise ValueError(
                f"row {i + 1} inits ({mn0_init}, {mn1_init}) do not "
                f"chain from row {i} finals ({mn0}, {mn1})"
            )
        mn0, mn1 = mn0_new, mn1_new
        outcome = crossing(mn0, mn1, brink)
    return SequentialRun(start, tuple(row[0] for row in rows), outcome, False)


def average_step_length(steps: Sequence[float]) -> float:
    """Mean (``fsum / len``) of a batch of step lengths. Errors on an empty batch."""
    if not steps:
        raise ValueError("average step length of an empty batch is undefined")
    return fsum(steps) / len(steps)


def expected_steps_to_cross(zone_span: float, avg_step: float) -> float:
    """Coarse estimate of the moves a node needs to cross its zone: span / mean step."""
    if avg_step <= 0:
        raise ValueError(f"avg_step must be positive, got {avg_step}")
    return zone_span / avg_step


def expected_crossings(trials: int, zone_span: float, avg_step: float) -> float:
    """Crossings the coarse estimator predicts for a batch.

    trials / (span / mean step), i.e. trials * avg_step / zone_span.
    """
    if zone_span <= 0:
        raise ValueError(f"zone_span must be positive, got {zone_span}")
    if avg_step <= 0:
        raise ValueError(f"avg_step must be positive, got {avg_step}")
    return trials * avg_step / zone_span


def exact_crossing_probability(
    layout: ZoneLayout, max_step: int, node: int
) -> Fraction:  # noqa: F821 (imported on call)
    """Exact per-trial crossing probability, as a reduced fraction.

    A trial draws the node's init uniformly from its zone and the step
    uniformly from [0, max_step]; it crosses when the move touches or
    passes the brink. An init at distance d from the brink (d >= 1, as a
    built :class:`~simulmob.model.ZoneLayout` is ordered) crosses on
    ``max_step + 1 - d`` of the steps when d <= max_step and on none
    otherwise, so the favorable count is an arithmetic series over the
    zone's distances.
    O(1) in zone width and step bound.
    """
    from fractions import Fraction

    if max_step < 0:
        raise ValueError(f"max_step must be non-negative, got {max_step}")
    if node == 0:
        near = layout.brink - layout.zone0_hi
        far = layout.brink - layout.zone0_lo
    elif node == 1:
        near = layout.zone1_lo - layout.brink
        far = layout.zone1_hi - layout.brink
    else:
        raise ValueError(f"node must be 0 or 1, got {node}")
    top = min(far, max_step)
    n = max(0, top - near + 1)
    favorable = n * (max_step + 1) - (near + top) * n // 2
    return Fraction(favorable, (far - near + 1) * (max_step + 1))
