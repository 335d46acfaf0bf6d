"""Deterministic random sources: step lengths and initial node positions.

Reproducibility contract: every draw sequence is a pure function of
``(seed, stream)``. Sample ``k`` of an independent scenario, and walk ``k``
of a sequential one, draws from stream ``k``, so samples and walks
reproduce the serial result in any order (or on any number of threads). A
sampler instance itself is single-owner: share configs, never streams.

The generator is a fixed PCG32 (O'Neill 2014), implemented here so that
sequences survive interpreter and library upgrades. A trial draws its mn0
init, then its mn1 init, then its step; a walk draws only steps. Every
draw is ``pcg32_boundedrand_r``'s: an output below ``2**32 % width`` is
rejected and the next one taken, and a range of one value draws nothing.
:class:`Sampler` is the reference, one output at a time; the runners'
kernels draw exactly what it draws, in bulk: ``_sample_draws`` from one
``pcg32_block`` per chunk of a sample's trials, or through
:meth:`Pcg32.randint` for a chunk with a rejected output, and ``_walks``
from one lane per walk for a chunk of walks. The golden tests pin the
seeded output (``tests/golden/simulate-*``, ``perfbench/golden.json``), so
any change to a draw or to the draw order shows as changed bytes.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache
from operator import rshift

from .model import Position, StepLength, _Checked, crossing

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


# Trials in one chunk of a sample's draws, or walks stepped together
# in one int's lanes: a runner holds one chunk at a time, so its memory
# does not grow with the run.
_CHUNK = 256


# Room for the five lane counts a run of both shapes uses: drawn * _CHUNK
# outputs for a sample's full chunk (drawn <= 3 ranges wider than one value
# per trial) and fewer for its last, _CHUNK walks and fewer for the last
# chunk of walks, and one lane to redraw one walk.
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


def _sample_draws(
    sampler: SamplerConfig, k: int, runs: int
) -> Iterator[list[list[int]]]:
    """Sample k's draws, ``runs`` trials from stream k, in chunks of at
    most ``_CHUNK`` trials.

    Each trial draws as a :class:`Sampler` on stream k does, but builds
    no record or row. A chunk is three columns, one int per trial in each:
    the mn0 inits, the mn1 inits and the steps. A one-value range's column
    is its value and takes no output. A chunk of m trials draws one
    ``pcg32_block`` of ``drawn * m`` outputs, ``drawn`` being the trial's
    ranges wider than one value; if every output passes every rejection
    threshold, each such column is ``r % width + lo`` of every ``drawn``-th
    output. Otherwise the chunk is drawn again by the stream's
    :class:`Pcg32`, one ``randint`` per draw in draw order, and the state
    it ends on starts the next chunk.
    """
    layout = sampler.layout
    # (lowest value, width, place among the trial's drawn outputs) of each
    # draw, in draw order
    ranges, drawn = [], 0
    for lo, width in ((layout.zone0_lo, layout.zone0_width),
                      (layout.zone1_lo, layout.zone1_width),
                      (0, sampler.max_step + 1)):
        ranges.append((lo, width, drawn))
        drawn += width > 1
    # No output below floor: every draw takes one output, none rejected.
    floor = max(_DRAW_RANGE % width for _, width, _ in ranges)
    rng = Pcg32(sampler.seed, k)
    for done in range(0, runs, _CHUNK):
        m = min(_CHUNK, runs - done)
        outputs, state = pcg32_block(rng._state, rng._inc, drawn * m)
        if min(outputs, default=floor) >= floor:
            rng._state = state
            yield [[r % width + lo for r in outputs[i::drawn]] if width > 1
                   else [lo] * m for lo, width, i in ranges]
        else:
            draws = [rng.randint(lo, lo + width - 1)
                     for _ in range(m) for lo, width, _ in ranges]
            yield [draws[i::3] for i in range(3)]


def _walks(
    config: SequentialConfig, first: int, stop: int, steps: bool = False
) -> Iterator[tuple[int, int, Outcome, list[int] | None]]:
    """Walks ``first`` to ``stop - 1``: each one's move count, step sum,
    terminal outcome and, if ``steps``, the list of its steps (else None);
    walk j draws from substream j.

    Each walk draws its shared steps from fixed starts until the first
    crossing or ``max_steps_cap`` moves. The walks of a chunk of at most
    ``_CHUNK`` step together: the chunk's i-th walk keeps its PCG32 state
    in lane i (bits 128i up) of one int, and every stream shares the
    multiplier, so each round one product steps them all (Brown 1994) and
    each walk still moving takes its own lane's output. A rejected output
    costs its walk a round but no move, so each lane stays in step with
    its stream. A walk has crossed once it has moved ``reach``.

    Without ``steps`` a walk keeps only its move count and step sum, all
    that a walk table reads, so counting does not grow with
    ``max_steps_cap``. With ``steps``, for record output and a redrawn
    walk, each walk keeps its steps until the chunk's last walk ends: up
    to ``_CHUNK * max_steps_cap`` steps.
    """
    sampler = config.sampler
    brink, cap = sampler.layout.brink, config.max_steps_cap
    mn0, mn1 = config.mn0_start, config.mn1_start
    reach = min(brink - mn0, mn1 - brink)
    bound = sampler.max_step + 1
    threshold = _DRAW_RANGE % bound
    for c in range(first, stop, _CHUNK):
        n = min(_CHUNK, stop - c)
        if bound == 1:  # a one-value range draws nothing; no walk moves
            yield from ((cap, 0, crossing(mn0, mn1, brink),
                         [0] * cap if steps else None) for _ in range(n))
            continue
        _, _, mask64, _, _, _, _, words = _lanes(n)
        seeds = [pcg32_seed(sampler.seed, j) for j in range(c, c + n)]
        state, inc = (int.from_bytes(words.pack(*lanes), "little")
                      for lanes in zip(*seeds))
        kept = [[] for _ in range(n)] if steps else [None] * n
        taken, moved = [0] * n, [0] * n
        live: Sequence[int] = range(n)
        while live:
            old, state = state, (state * _PCG_MULTIPLIER + inc) & mask64
            doubled, rots = xsh_rr(old, n)
            going: list[int] = []
            keep = going.append
            for i in live:
                r = doubled[i] >> rots[i] & _MASK32
                if r >= threshold:
                    step = r % bound
                    if steps:
                        kept[i].append(step)
                    m = moved[i] = moved[i] + step
                    t = taken[i] = taken[i] + 1
                    if m < reach and t < cap:
                        keep(i)
                else:
                    keep(i)
            live = going
        for t, m, walk in zip(taken, moved, kept):
            yield t, m, crossing(mn0 + m, mn1 - m, brink), walk
