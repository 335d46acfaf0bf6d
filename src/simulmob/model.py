"""Geometric core of the two-node simultaneous-mobility model.

Two mobile nodes travel toward each other along the x axis: MN_0 moves in
the positive direction inside zone 0, MN_1 in the negative direction inside
zone 1, and both cover the same step length in any given move. The brink
plane between the zones is the minimal overlapping coverage point; a node
that touches or passes it has crossed into the other zone, which triggers a
logical handover. ``classify`` names which nodes crossed on a move.

Everything here is a pure function over immutable values and is safe to use
from any number of threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

# 1-D model: a position is an integer x coordinate, a step a non-negative
# integer distance covered in one move interval.
Position = int
StepLength = int

# Each move spans one 1 ms interval, reported in seconds.
MOVE_INTERVAL_S = 0.001


class LayoutError(ValueError):
    """Zone geometry that violates ``zone0 < brink < zone1`` ordering."""


@dataclass(frozen=True)
class ZoneLayout:
    """Inclusive integer ranges of the two zones and the brink plane between them.

    Construction raises :class:`LayoutError` unless ``zone0_lo <= zone0_hi
    < brink < zone1_lo <= zone1_hi`` (e.g. 0..374, brink 375, 376..750), so
    every layout in hand is ordered and nothing downstream re-checks it.
    """

    zone0_lo: Position
    zone0_hi: Position
    zone1_lo: Position
    zone1_hi: Position
    brink: Position

    def __post_init__(self) -> None:
        if not (self.zone0_lo <= self.zone0_hi < self.brink
                < self.zone1_lo <= self.zone1_hi):
            raise LayoutError(
                "layout must satisfy zone0_lo <= zone0_hi < brink < zone1_lo "
                f"<= zone1_hi, got {self.describe()}"
            )

    @property
    def zone0_width(self) -> int:
        """Number of integer positions in zone 0 (inclusive range)."""
        return self.zone0_hi - self.zone0_lo + 1

    @property
    def zone1_width(self) -> int:
        """Number of integer positions in zone 1 (inclusive range)."""
        return self.zone1_hi - self.zone1_lo + 1

    @property
    def zone0_span(self) -> int:
        """Distance between zone-0 endpoints (hi - lo).

        This is the divisor the published crossing estimator uses (374, 49,
        249 for the three presets), one less than :attr:`zone0_width`.
        """
        return self.zone0_hi - self.zone0_lo

    @property
    def zone1_span(self) -> int:
        """Distance between zone-1 endpoints (hi - lo)."""
        return self.zone1_hi - self.zone1_lo

    def describe(self) -> str:
        return (
            f"zone0 {self.zone0_lo}:{self.zone0_hi} | brink {self.brink}"
            f" | zone1 {self.zone1_lo}:{self.zone1_hi}"
        )


class Outcome(enum.Enum):
    """Classification of one simultaneous move against a layout.

    Exactly one variant applies to any move: which of the two nodes (if any)
    touched or passed the brink plane.
    """

    NO_OVERLAP = "no_overlap"
    MN0_OVERLAP = "mn0_overlap"
    MN1_OVERLAP = "mn1_overlap"
    SIMULTANEOUS_OVERLAP = "simultaneous_overlap"


@dataclass(frozen=True)
class MoveRecord:
    """One simultaneous move of both nodes.

    The position-update identities are enforced at construction and can
    therefore be assumed everywhere downstream:

        mn0_new == mn0_init + step
        mn1_new == mn1_init - step

    so the inter-node gap shrinks by exactly ``2 * step`` per move. The step
    and positions are plain ints; a float or bool would not parse back.
    """

    step: StepLength
    mn0_init: Position
    mn0_new: Position
    mn1_init: Position
    mn1_new: Position
    time_s: float = MOVE_INTERVAL_S

    def __post_init__(self) -> None:
        if not (type(self.step) is type(self.mn0_init) is type(self.mn0_new)
                is type(self.mn1_init) is type(self.mn1_new) is int):
            raise ValueError(f"step and positions must be ints, got {self}")
        if self.step < 0:
            raise ValueError(f"step must be non-negative, got {self.step}")
        if self.mn0_new != self.mn0_init + self.step:
            raise ValueError(
                f"MN_0 update broken: {self.mn0_init} + {self.step} != {self.mn0_new}"
            )
        if self.mn1_new != self.mn1_init - self.step:
            raise ValueError(
                f"MN_1 update broken: {self.mn1_init} - {self.step} != {self.mn1_new}"
            )

    @classmethod
    def from_inits(
        cls, mn0_init: Position, mn1_init: Position, step: StepLength
    ) -> "MoveRecord":
        """Build a record by moving both nodes one shared step toward each other.

        MN_0 gains ``step``, MN_1 loses it. Results past either zone's far
        boundary (or negative) are permitted and left to the caller to
        classify.
        """
        return cls(step, mn0_init, mn0_init + step, mn1_init, mn1_init - step)


def mn0_crossed(p: Position, layout: ZoneLayout) -> bool:
    """True when MN_0 at position ``p`` touches or passes the brink (p >= brink)."""
    return p >= layout.brink


def mn1_crossed(p: Position, layout: ZoneLayout) -> bool:
    """True when MN_1 at position ``p`` touches or passes the brink (p <= brink).

    Mirror of :func:`mn0_crossed`: MN_1 travels in the negative direction.
    """
    return p <= layout.brink


_NO_OVERLAP = Outcome.NO_OVERLAP
_MN0_OVERLAP = Outcome.MN0_OVERLAP
_MN1_OVERLAP = Outcome.MN1_OVERLAP
_SIMULTANEOUS_OVERLAP = Outcome.SIMULTANEOUS_OVERLAP


def crossing(mn0: Position, mn1: Position, brink: Position) -> Outcome:
    """Outcome of a move that leaves MN_0 at ``mn0`` and MN_1 at ``mn1``.

    The rule of :func:`mn0_crossed` and :func:`mn1_crossed` for both nodes
    at once, on a bare brink: :func:`classify` and ``SampleResult.outcomes``
    call it per move, so it reads the outcomes from module constants rather
    than through the (slower) enum class attributes.
    """
    if mn0 >= brink:
        return _SIMULTANEOUS_OVERLAP if mn1 <= brink else _MN0_OVERLAP
    return _MN1_OVERLAP if mn1 <= brink else _NO_OVERLAP


def classify(rec: MoveRecord, layout: ZoneLayout) -> Outcome:
    """Name which nodes crossed the brink plane on this move.

    Crossing is inclusive (touching the brink counts) for both nodes; the
    four outcomes partition all (record, layout) pairs.
    """
    return crossing(rec.mn0_new, rec.mn1_new, layout.brink)
