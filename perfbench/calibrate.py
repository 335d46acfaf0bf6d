"""Host-speed calibration for the end-to-end times.

A shared VM can run the same pure-Python code 1.5 times slower for seconds
to minutes, with CPU time slowing as much as wall time, so neither a
fastest-of-N nor ``ru_utime`` removes it. The benchmark therefore times this
fixed kernel in its own process, on the CPU its children are pinned to,
right before and right after each measured invocation group, and scales the
group's wall time by ``REFERENCE_S`` over the mean of the two readings. The
result reads as seconds on a host where the kernel takes ``REFERENCE_S``.

The kernel mixes what simulmob's own hot loops do: 64-bit LCG arithmetic,
small-object attribute access, function calls, dict counting, string
formatting and parsing. It never imports simulmob, so a change to the
program cannot move it. Do not edit it: every recorded time depends on it.
"""

from __future__ import annotations

import time

# About the kernel's time on a 2.1 GHz Xeon vCPU under CPython 3.11.
REFERENCE_S = 0.060

_MASK64 = (1 << 64) - 1


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _mix(x: int, y: int) -> int:
    return (x * 2654435761 + y) & 0xFFFFFFFF


def _kernel() -> int:
    total = 0
    for i in range(400_000):
        total += i * i % 7
    state = 12345
    lines = []
    counts: dict[int, int] = {}
    for i in range(40_000):
        state = (state * 6364136223846793005 + 1442695040888963407) & _MASK64
        p = _Point(state >> 59, i)
        k = _mix(p.a, p.b) % 997
        counts[k] = counts.get(k, 0) + 1
        if i % 4 == 0:
            lines.append(f"{p.a},{k},{i}")
    rows = [tuple(map(int, line.split(","))) for line in "\n".join(lines).splitlines()]
    return total + len(rows) + len(counts)


def calibrate() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
