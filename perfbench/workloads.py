"""Benchmark workloads: inputs made from a seed, the invocations, the checks.

Every workload turns the benchmark seed into simulmob flags and input files
with its own generator (SplitMix64 below), so the program only ever sees the
generated argv and files. The checks never call simulmob: they re-derive the
expected facts (tally identities, parsed rows, crossing counts) from the
inputs, and compare every output byte against the sha256 digests pinned on
the seed commit in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
_MASK64 = (1 << 64) - 1

# sim_table: independent preset 2 at SIM_RUNS x SIM_SAMPLES trials, then
# sequential preset 3 at SEQ_RUNS walks (about 10 moves each).
SIM_RUNS = 5000
SIM_SAMPLES = 30
SEQ_RUNS = 15_000
# codec_roundtrip: rows in the CSV that is replayed and whose trace is parsed.
CODEC_ROWS = 20_000
CODEC_ZONE_WIDTH = 50
CODEC_MAX_STEP = 50
# oracle_wide: zone width and step bound, so each call walks
# ORACLE_WIDTH * (ORACLE_MAX_STEP + 1) cells per node. A single trial draws
# step 0 with probability 1/51 and estimate then rightly refuses (average
# step zero), so the estimate runs ORACLE_TRIALS trials.
ORACLE_WIDTH = 50_000
ORACLE_MAX_STEP = 99
ORACLE_TRIALS = 5


class SplitMix64:
    """Input generator of the benchmark, independent of simulmob's PCG32."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Integer in [0, n); the modulo bias is irrelevant for test inputs."""
        return self.next() % n


@dataclass(frozen=True)
class Invocation:
    """One program run: ``python -m simulmob ARGS`` or ``reparse.py``.

    ``files`` are paths, relative to the work directory, that the run
    writes and whose bytes are pinned.
    """

    label: str
    kind: str  # "cli" or "parse"
    args: tuple[str, ...]
    files: tuple[str, ...] = ()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_rows(rows) -> bytes:
    """One ``step,mn0_init,mn0_new,mn1_init,mn1_new`` line per move.

    ``rows`` holds 5-tuples or objects with those attributes; ``reparse.py``
    and the checker both hash this form, so a re-parsed trace equals
    the CSV exactly when the digests match.
    """
    if rows and not isinstance(rows[0], tuple):
        rows = [(r.step, r.mn0_init, r.mn0_new, r.mn1_init, r.mn1_new)
                for r in rows]
    return "".join(f"{a},{b},{c},{d},{e}\n" for a, b, c, d, e in rows).encode()


def _layout_flags(z0, z1, brink) -> tuple[str, ...]:
    return ("--zone0", f"{z0[0]}:{z0[1]}", "--zone1", f"{z1[0]}:{z1[1]}",
            "--brink", str(brink))


class Workload:
    """Base: a seed, a work directory, a setup invocation and an iteration."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = SplitMix64(seed)

    def prepare(self) -> None:
        """Write input files into the work directory."""

    def setup_invocation(self) -> Invocation:
        raise NotImplementedError

    def iteration(self) -> list[Invocation]:
        raise NotImplementedError

    def moves(self) -> float:
        """Moves one iteration simulates, classifies or codes."""
        raise NotImplementedError

    def check(self, inv: Invocation, stdout: bytes) -> list[str]:
        """Semantic errors in one invocation's output (empty when correct)."""
        raise NotImplementedError


# -- sim_table ---------------------------------------------------------------

_INT_ROW = re.compile(r"^\s*(\d+)((?:\s+\d+){7})\s*$")


def _tally_errors(where: str, cols: list[int], trials: int) -> list[str]:
    mn0_only, mn0_ho, mn1_only, mn1_ho, sim, none, sim_ho = cols
    errors = []
    if mn0_only + mn1_only + sim + none != trials:
        errors.append(f"{where}: outcomes sum to "
                      f"{mn0_only + mn1_only + sim + none}, not {trials}")
    if (mn0_ho, mn1_ho, sim_ho) != (mn0_only + sim, mn1_only + sim, sim):
        errors.append(f"{where}: handover columns disagree with {cols}")
    return errors


class SimTable(Workload):
    """Preset 2 independent trials, then preset 3 sequential walks; tables."""

    name = "sim_table"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.sim_seed = str(self.rng.below(1 << 32))
        self.seq_moves = None

    def setup_invocation(self) -> Invocation:
        return Invocation("setup", "cli", (
            "simulate", "--scenario", "2", "--seed", self.sim_seed,
            "--runs", "1", "--samples", "1"))

    def iteration(self) -> list[Invocation]:
        return [
            Invocation("independent", "cli", (
                "simulate", "--scenario", "2", "--seed", self.sim_seed,
                "--runs", str(SIM_RUNS), "--samples", str(SIM_SAMPLES))),
            Invocation("sequential", "cli", (
                "simulate", "--scenario", "3", "--seed", self.sim_seed,
                "--runs", str(SEQ_RUNS))),
        ]

    def moves(self) -> float:
        # seq_moves stays unset when no sequential output passed its check;
        # that run is already counted as failed, and only the independent
        # trials are counted here.
        return SIM_RUNS * SIM_SAMPLES + (self.seq_moves or 0.0)

    def check(self, inv: Invocation, stdout: bytes) -> list[str]:
        lines = stdout.decode().splitlines()
        if inv.label == "sequential":
            return self._check_sequential(lines)
        runs, samples = (1, 1) if inv.label == "setup" else (SIM_RUNS, SIM_SAMPLES)
        rows = [_INT_ROW.match(line) for line in lines[1:-1]]
        if len(lines) != samples + 2 or not all(rows):
            return [f"{inv.label}: expected a header, {samples} sample rows "
                    f"and a mean row, got {len(lines)} lines"]
        errors = []
        table = []
        for k, m in enumerate(rows, 1):
            cols = [int(v) for v in m.group(2).split()]
            table.append(cols)
            if int(m.group(1)) != k:
                errors.append(f"{inv.label}: row {k} is labelled {m.group(1)}")
            errors += _tally_errors(f"{inv.label} sample {k}", cols, runs)
        want = ["mean", *(f"{sum(col) / samples:.2f}" for col in zip(*table))]
        if lines[-1].split() != want:
            errors.append(f"{inv.label}: mean row {lines[-1].split()} != {want}")
        return errors

    def _check_sequential(self, lines: list[str]) -> list[str]:
        m = _INT_ROW.match(lines[1]) if len(lines) == 4 else None
        mean = re.fullmatch(r"mean steps to first crossing: (\d+\.\d\d)",
                            lines[2]) if m else None
        if not (m and mean and lines[3].endswith(f" of {SEQ_RUNS}")):
            return [f"sequential: unexpected table {lines!r:.200}"]
        errors = []
        if int(m.group(1)) != SEQ_RUNS:
            errors.append(f"sequential: {m.group(1)} runs, not {SEQ_RUNS}")
        errors += _tally_errors("sequential", [int(v) for v in m.group(2).split()],
                                SEQ_RUNS)
        self.seq_moves = float(mean.group(1)) * SEQ_RUNS
        return errors


# -- codec_roundtrip -----------------------------------------------------------


class CodecRoundtrip(Workload):
    """Replay a seeded CSV to JSON plus a trace, then re-parse the trace."""

    name = "codec_roundtrip"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        lo = self.rng.below(10_000)
        self.zone0 = (lo, lo + CODEC_ZONE_WIDTH - 1)
        self.brink = lo + CODEC_ZONE_WIDTH
        self.zone1 = (self.brink + 1, self.brink + CODEC_ZONE_WIDTH)
        self.rows = [self._row() for _ in range(CODEC_ROWS)]

    def _row(self) -> tuple[int, int, int, int, int]:
        mn0 = self.zone0[0] + self.rng.below(CODEC_ZONE_WIDTH)
        mn1 = self.zone1[0] + self.rng.below(CODEC_ZONE_WIDTH)
        step = self.rng.below(CODEC_MAX_STEP + 1)
        return (step, mn0, mn0 + step, mn1, mn1 - step)

    def outcome(self, row) -> str:
        """Crossing rule from the model: touching the brink counts."""
        c0, c1 = row[2] >= self.brink, row[4] <= self.brink
        return ("simultaneous_overlap" if c0 and c1 else "mn0_overlap" if c0
                else "mn1_overlap" if c1 else "no_overlap")

    def _csv(self, rows) -> str:
        body = "".join(f"{a},{b},{c},{d},{e},{self.outcome((a, b, c, d, e))}\n"
                       for a, b, c, d, e in rows)
        return "step,mn0_init,mn0_new,mn1_init,mn1_new,outcome\n" + body

    def prepare(self) -> None:
        (self.work / "rows.csv").write_text(self._csv(self.rows))
        (self.work / "one.csv").write_text(self._csv(self.rows[:1]))

    def _replay(self, label: str, csv: str, trace: str) -> Invocation:
        return Invocation(label, "cli", (
            "replay", "--input", csv, *_layout_flags(self.zone0, self.zone1, self.brink),
            "--format", "json", "--trace", trace), (trace,))

    def setup_invocation(self) -> Invocation:
        return self._replay("setup", "one.csv", "one.tr")

    def iteration(self) -> list[Invocation]:
        return [self._replay("replay", "rows.csv", "out.tr"),
                Invocation("parse", "parse", ("out.tr",))]

    def moves(self) -> float:
        return CODEC_ROWS

    def check(self, inv: Invocation, stdout: bytes) -> list[str]:
        if inv.kind == "parse":
            want = f"{CODEC_ROWS} {sha256(canonical_rows(self.rows))}"
            got = stdout.decode().strip()
            return [] if got == want else [f"parse: re-parsed trace {got!r} "
                                           f"does not match the CSV rows {want!r}"]
        rows = self.rows[:1] if inv.label == "setup" else self.rows
        doc = json.loads(stdout)
        got = [(r["step"], r["mn0_init"], r["mn0_new"], r["mn1_init"],
                r["mn1_new"], r["outcome"]) for r in doc["records"]]
        want = [(*row, self.outcome(row)) for row in rows]
        errors = []
        if got != want:
            errors.append(f"{inv.label}: JSON records differ from the CSV rows")
        if doc["tally"]["trials"] != len(rows):
            errors.append(f"{inv.label}: tally counts {doc['tally']['trials']} "
                          f"trials, not {len(rows)}")
        return errors


# -- oracle_wide ---------------------------------------------------------------


def crossing_count(inits: tuple[int, int], brink: int, max_step: int,
                   node: int) -> int:
    """Closed-form count of (init, step) pairs whose move reaches the brink.

    A pair crosses when the step covers the distance d to the brink; for a
    distance d in [1, max_step] that leaves max_step + 1 - d steps.
    """
    lo, hi = inits
    d_near, d_far = (brink - hi, brink - lo) if node == 0 else (lo - brink, hi - brink)
    top = min(d_far, max_step)
    if top < d_near:
        return 0
    n = top - d_near + 1
    return n * (max_step + 1) - (d_near + top) * n // 2


class OracleWide(Workload):
    """Few-trial estimate on wide zones: the exact enumeration dominates."""

    name = "oracle_wide"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.sim_seed = str(self.rng.below(1 << 32))
        lo = self.rng.below(1_000_000)
        self.zone0 = (lo, lo + ORACLE_WIDTH - 1)
        self.brink = self.zone0[1] + 1 + self.rng.below(ORACLE_MAX_STEP // 2)
        zone1_lo = self.brink + 1 + self.rng.below(ORACLE_MAX_STEP // 2)
        self.zone1 = (zone1_lo, zone1_lo + ORACLE_WIDTH - 1)

    def _estimate(self, label: str, *flags: str) -> Invocation:
        return Invocation(label, "cli", (
            "estimate", "--scenario", "2", "--seed", self.sim_seed,
            "--runs", str(ORACLE_TRIALS), "--samples", "1", *flags))

    def setup_invocation(self) -> Invocation:
        return self._estimate("setup")

    def iteration(self) -> list[Invocation]:
        return [self._estimate(
            "estimate", *_layout_flags(self.zone0, self.zone1, self.brink),
            "--max-step", str(ORACLE_MAX_STEP))]

    def moves(self) -> float:
        return ORACLE_TRIALS

    def check(self, inv: Invocation, stdout: bytes) -> list[str]:
        if inv.label == "setup":  # preset 2: zones 50:99 and 101:150, brink 100
            zones, brink, max_step = ((50, 99), (101, 150)), 100, 50
        else:
            zones, brink, max_step = (self.zone0, self.zone1), self.brink, ORACLE_MAX_STEP
        text = stdout.decode()
        errors = []
        for node, zone in enumerate(zones):
            total = (zone[1] - zone[0] + 1) * (max_step + 1)
            p = Fraction(crossing_count(zone, brink, max_step, node), total)
            line = f"  node {node}: {p} = {float(p):.6f}\n"
            if line not in text:
                errors.append(f"{inv.label}: missing {line.strip()!r}")
        return errors


WORKLOADS = {cls.name: cls for cls in (SimTable, CodecRoundtrip, OracleWide)}


# -- correctness gate ------------------------------------------------------------


def load_pins() -> dict:
    """Digests pinned on the seed commit: workload -> seed -> key -> sha256."""
    try:
        return json.loads(GOLDEN.read_text())["sha256"]
    except FileNotFoundError:
        return {}


@dataclass
class Checker:
    """Pinned digests, byte identity across iterations, semantic checks.

    Semantic checks run once per distinct output: equal bytes give equal
    verdicts, so repeated iterations only cost a digest.
    """

    workload: Workload
    pins: dict | None
    seen: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    def digests(self, inv: Invocation, stdout: bytes) -> dict[str, str]:
        out = {f"{inv.label}.stdout": sha256(stdout)}
        for name in inv.files:
            out[f"{inv.label}:{name}"] = sha256((self.workload.work / name).read_bytes())
        return out

    def check(self, inv: Invocation, stdout: bytes) -> list[str]:
        errors = []
        for key, digest in self.digests(inv, stdout).items():
            first = self.seen.setdefault(key, digest)
            if digest != first:
                errors.append(f"{key}: output changed between iterations")
            if self.pins is not None and self.pins.get(key) != digest:
                errors.append(f"{key}: sha256 {digest[:16]} differs from the pin")
        key = (inv.label, sha256(stdout))
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self.workload.check(inv, stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdicts[key] = [f"{inv.label}: unreadable output ({exc!r})"]
        return errors + self.verdicts[key]
