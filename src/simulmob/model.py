"""Geometric core of the two-node simultaneous-mobility model.

Two mobile nodes travel toward each other along the x axis: MN_0 moves in
the positive direction inside zone 0, MN_1 in the negative direction inside
zone 1, and both cover the same step length in any given move. The brink
plane between the zones is the minimal overlapping coverage point; a node
that touches or passes it has crossed into the other zone, which triggers a
logical handover. A move is a row of five ints in ``MoveRecord._fields``
order; a ``MoveRecord`` is that row, checked and with its fields named.
``classify`` names which nodes crossed on a move.

Everything here is a pure function over immutable values and is safe to use
from any number of threads.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterable

# 1-D model: a position is an integer x coordinate, a step a non-negative
# integer distance covered in one move interval.
Position = int
StepLength = int

# Each move spans one 1 ms interval, reported in seconds.
MOVE_INTERVAL_S = 0.001

# Plots and the span estimators take values below this magnitude as floats;
# the headroom keeps a span, its padding and span / average step finite.
MAGNITUDE_LIMIT = 1e300


def abbreviate(number: object) -> str:
    """``number`` as text; past 32 characters, its ends and its length.

    Keeps an error message about a huge number one short line:
    ``777...777 (4300 characters)``.
    """
    text = str(number)
    if len(text) <= 32:
        return text
    return f"{text[:3]}...{text[-3:]} ({len(text)} characters)"


class LayoutError(ValueError):
    """Zone geometry that violates ``zone0 < brink < zone1`` ordering."""


class _Checked:
    """Base, before the namedtuple, of a value class that checks its fields:
    ``__new__`` builds the tuple and runs the class's ``_check``. namedtuple's
    ``_make`` skips ``__new__``; this one calls it, so ``_replace``, copies,
    pickles and (3.13+) ``copy.replace`` check too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> _Checked:
        return cls(*iterable)


class ZoneLayout(_Checked, namedtuple(
        "ZoneLayout", "zone0_lo zone0_hi zone1_lo zone1_hi brink")):
    """Inclusive integer ranges of the two zones and the brink plane between them.

    Construction raises :class:`LayoutError` unless ``zone0_lo <= zone0_hi
    < brink < zone1_lo <= zone1_hi`` (e.g. 0..374, brink 375, 376..750), so
    every layout in hand is ordered and nothing downstream re-checks it.
    """

    __slots__ = ()

    def _check(self) -> None:
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

    # The members are singletons and enum equality is identity, so the
    # identity hash agrees with ``==``; Enum's own hashes the name in Python,
    # a call per move in a tally's Counter and a writer's outcome lookup.
    __hash__ = object.__hash__


class MoveRecord(_Checked, namedtuple(
        "MoveRecord", "step mn0_init mn0_new mn1_init mn1_new")):
    """One simultaneous move of both nodes: the checked form of a row.

    A record is the tuple ``(step, mn0_init, mn0_new, mn1_init, mn1_new)``
    with its fields named, so it equals and hashes as that row, and every
    function that takes a row takes a record. The position-update identities
    are enforced whenever one is built (``_replace``, copies and pickles
    included) and can therefore be assumed everywhere downstream:

        mn0_new == mn0_init + step
        mn1_new == mn1_init - step

    so the inter-node gap shrinks by exactly ``2 * step`` per move. The step
    and positions are plain ints; a float or bool would not parse back.
    Every move spans :data:`MOVE_INTERVAL_S`, so a record holds no time.
    """

    __slots__ = ()

    # The checks run inline, not through ``_check``, to keep a build cheap.
    def __new__(cls, step: StepLength, mn0_init: Position, mn0_new: Position,
                mn1_init: Position, mn1_new: Position) -> "MoveRecord":
        self = tuple.__new__(cls, (step, mn0_init, mn0_new, mn1_init, mn1_new))
        if not (type(step) is type(mn0_init) is type(mn0_new)
                is type(mn1_init) is type(mn1_new) is int):
            raise ValueError(f"step and positions must be ints, got {self}")
        if step < 0:
            raise ValueError(f"step must be non-negative, got {abbreviate(step)}")
        if mn0_new != mn0_init + step:
            raise ValueError(f"MN_0 update broken: {abbreviate(mn0_init)} + "
                             f"{abbreviate(step)} != {abbreviate(mn0_new)}")
        if mn1_new != mn1_init - step:
            raise ValueError(f"MN_1 update broken: {abbreviate(mn1_init)} - "
                             f"{abbreviate(step)} != {abbreviate(mn1_new)}")
        return self

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


# A move as the codecs, scenarios and replays pass it: a plain tuple in
# ``MoveRecord._fields`` order, or a record. ``MoveRecord(*row)`` checks one.
Row = tuple[int, int, int, int, int]


_NO_OVERLAP = Outcome.NO_OVERLAP
_MN0_OVERLAP = Outcome.MN0_OVERLAP
_MN1_OVERLAP = Outcome.MN1_OVERLAP
_SIMULTANEOUS_OVERLAP = Outcome.SIMULTANEOUS_OVERLAP


def crossing(mn0: Position, mn1: Position, brink: Position) -> Outcome:
    """Outcome of a move that leaves MN_0 at ``mn0`` and MN_1 at ``mn1``.

    The brink rule: MN_0 has crossed when it touches or passes the brink
    (``mn0 >= brink``), and MN_1, which travels in the negative direction,
    when ``mn1 <= brink``. :func:`classify` and the CSV and JSON record
    writers call it per move, so it reads the outcomes from module constants
    rather than through the (slower) enum class attributes.
    """
    if mn0 >= brink:
        return _SIMULTANEOUS_OVERLAP if mn1 <= brink else _MN0_OVERLAP
    return _MN1_OVERLAP if mn1 <= brink else _NO_OVERLAP


def classify(move: Row, layout: ZoneLayout) -> Outcome:
    """Name which nodes crossed the brink plane on this move, a row or a record.

    Crossing is inclusive (touching the brink counts) for both nodes; the
    four outcomes partition all (move, layout) pairs.
    """
    return crossing(move[2], move[4], layout.brink)
