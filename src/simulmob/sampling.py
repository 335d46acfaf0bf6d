"""Deterministic random sources: step lengths and initial node positions.

Reproducibility contract: every draw sequence is a pure function of
``(seed, stream)``. Batch runners hand sample ``k`` stream ``k``, so samples
reproduce the serial result no matter what order (or how many threads) they
execute in. A sampler instance itself is single-owner: share configs, never
streams.

The generator is a fixed PCG32, implemented here so that sequences survive
interpreter and library upgrades. The golden tests pin its seeded output
(``tests/golden/simulate-*``, ``perfbench/golden.json``), so any change to a
draw or to the draw order shows as changed bytes.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from functools import lru_cache
from operator import rshift

from .model import Position, StepLength, _Checked

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_PCG_MULTIPLIER = 6364136223846793005
# Values one 32-bit draw can select among; the widest range randint accepts.
_DRAW_RANGE = 1 << 32


def pcg32_seed(seed: int, stream: int) -> tuple[int, int]:
    """State and increment of PCG32 seeded as ``pcg32_srandom_r`` seeds it.

    The reference steps a zero state once, adds the seed, and steps again.
    """
    inc = ((stream << 1) | 1) & _MASK64
    return ((inc + seed) * _PCG_MULTIPLIER + inc) & _MASK64, inc


# Room for the five sizes a process that runs both shapes uses: a
# sample's full chunk (768 outputs) and its last, a chunk of 256 walks and
# the last one, and the one lane that redraws a single walk.
@lru_cache(maxsize=8)
def _lanes(n: int) -> tuple:
    """pcg32_block's and xsh_rr's constants for ``n`` lanes, built on first
    use."""
    powers, sums = bytearray(), bytearray()
    power, total = 1, 0  # a**i and a**0 + ... + a**(i-1), mod 2**64
    for _ in range(n):
        powers += power.to_bytes(16, "little")
        sums += total.to_bytes(16, "little")
        power, total = power * _PCG_MULTIPLIER & _MASK64, (total + power) & _MASK64
    ones = int.from_bytes((b"\1" + bytes(15)) * n, "little")
    return (int.from_bytes(powers, "little"), int.from_bytes(sums, "little"),
            ones * _MASK64, ones * _MASK32, ones * (31 << 64), power, total,
            struct.Struct("<" + "Q8x" * n))


def xsh_rr(old: int, n: int) -> tuple[tuple[int, ...], bytes]:
    """The XSH-RR output of the ``n`` states in ``old``'s 128-bit lanes, as
    each lane's doubled xorshifted word and its rotation: output i is
    ``words[i] >> rots[i] & _MASK32``. The shift and the mask are left to
    the caller, which may need only some of the lanes."""
    _, _, _, mask32, rots, _, _, words = _lanes(n)
    raw = ((((old >> 18) ^ old) >> 27 & mask32) * 0x100000001
           | (old << 5) & rots).to_bytes(16 * n, "little")
    return words.unpack(raw), raw[8::16]


def pcg32_block(state: int, inc: int, n: int) -> tuple[list[int], int]:
    """The next ``n`` XSH-RR outputs of the stream at ``(state, inc)``, and
    the state after them. Lane i (bits 128i up) of one int is the state i
    steps on (Brown 1994)."""
    powers, sums, mask64, _, _, power, total, _ = _lanes(n)
    words, rots = xsh_rr(((state * powers & mask64) + inc * sums) & mask64, n)
    return ([w & _MASK32 for w in map(rshift, words, rots)],
            (state * power + inc * total) & _MASK64)


class Pcg32:
    """PCG32 (XSH-RR, 64-bit state / 32-bit output) with a selectable stream.

    Port of the pcg_basic reference implementation; ``stream`` picks the
    sequence increment, so different streams from the same seed are
    independent sequences.
    """

    def __init__(self, seed: int, stream: int = 0):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if stream < 0:
            raise ValueError(f"stream must be non-negative, got {stream}")
        self._state, self._inc = pcg32_seed(seed, stream)

    def _next_u32(self) -> int:
        old = self._state
        self._state = (old * _PCG_MULTIPLIER + self._inc) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & _MASK32
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & _MASK32

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer on the inclusive range [lo, hi], bias-free.

        Rejection sampling below the largest multiple of the range size, as
        in pcg32_boundedrand_r. One 32-bit draw covers at most 2**32
        values, so a wider range is an error (no draw could ever pass the
        rejection threshold).
        """
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        bound = hi - lo + 1
        if bound == 1:
            return lo
        if bound > 1 << 32:
            raise ValueError(
                f"range [{lo}, {hi}] holds {bound} values; one 32-bit draw "
                f"covers at most 2**32")
        threshold = (1 << 32) % bound
        while True:
            r = self._next_u32()
            if r >= threshold:
                return lo + (r % bound)


class SamplerConfig(_Checked, namedtuple(
        "SamplerConfig", "seed max_step layout")):
    """Seed, step bound, and zone geometry that fully determine a sampler.

    Construction raises :class:`ValueError` for a seed outside [0, 2**64),
    a negative step bound, or a step range or zone wider than the 2**32
    values :meth:`Pcg32.randint` can draw, so no sampler re-checks it.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.max_step < 0:
            raise ValueError(f"max_step must be non-negative, got {self.max_step}")
        if self.max_step >= _DRAW_RANGE:
            raise ValueError(f"max_step must be below 2**32 = {_DRAW_RANGE}, "
                             f"got {self.max_step}")
        for node, width in enumerate((self.layout.zone0_width,
                                      self.layout.zone1_width)):
            if width > _DRAW_RANGE:
                raise ValueError(
                    f"zone {node} holds {width} positions; at most "
                    f"2**32 = {_DRAW_RANGE} can be drawn")


def validate(config: SamplerConfig) -> tuple[str, ...]:
    """The warnings of a sampler configuration; its errors raise when built.

    A step bound large enough to clear a whole zone in one move is only
    flagged: the small-range reference experiment runs with exactly that
    configuration, so it must stay legal.
    """
    narrowest = min(config.layout.zone0_width, config.layout.zone1_width)
    if config.max_step < narrowest:
        return ()
    positions = "position" if narrowest == 1 else "positions"
    return (
        f"step range >= zone width: max_step {config.max_step} can cross a "
        f"whole zone in one move (narrowest zone holds {narrowest} {positions})",
    )


class Sampler:
    """Draws step lengths and initial positions from one private stream.

    Draw order matters for reproducibility: an independent trial draws the
    init positions first (MN_0, then MN_1), then the step.
    """

    def __init__(self, config: SamplerConfig, stream: int = 0):
        self.config = config
        self._rng = Pcg32(config.seed, stream)

    def draw_step(self) -> StepLength:
        """Uniform step length on the inclusive range [0, max_step]."""
        return self._rng.randint(0, self.config.max_step)

    def draw_init_positions(self) -> tuple[Position, Position]:
        """Fresh start positions, each uniform over its own zone (MN_0 first)."""
        layout = self.config.layout
        p0 = self._rng.randint(layout.zone0_lo, layout.zone0_hi)
        p1 = self._rng.randint(layout.zone1_lo, layout.zone1_hi)
        return p0, p1
