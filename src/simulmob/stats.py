"""Outcome tallies, crossing estimators, and the exact crossing probability.

Pure functions throughout. The exact probability is a closed-form
arithmetic series over the init-to-brink distances, so its cost does not
depend on zone width or step bound. The tests check it against a walk of
the full (init, step) grid and against Monte Carlo frequencies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from statistics import fmean
from typing import Iterable, Sequence

from .model import Outcome, ZoneLayout

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


@dataclass(frozen=True)
class Tally:
    """Aggregated outcome counts for a batch of moves.

    Only the four disjoint outcome counts are stored; the derived totals are
    properties, so the identities

        mn0_handover == mn0_only + simultaneous
        mn1_handover == mn1_only + simultaneous
        trials == mn0_only + mn1_only + simultaneous + no_overlap

    hold for every Tally by construction.
    """

    mn0_only: int = 0
    mn1_only: int = 0
    simultaneous: int = 0
    no_overlap: int = 0

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

    def columns(self) -> tuple[int, ...]:
        """Counts in METRIC_LABELS order."""
        return (
            self.mn0_only,
            self.mn0_handover,
            self.mn1_only,
            self.mn1_handover,
            self.simultaneous,
            self.no_overlap,
            self.simultaneous,
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


def average_step_length(steps: Sequence[float]) -> float:
    """Arithmetic mean of a batch of step lengths. Errors on an empty batch."""
    if not steps:
        raise ValueError("average step length of an empty batch is undefined")
    return fmean(steps)


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
) -> Fraction:
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
