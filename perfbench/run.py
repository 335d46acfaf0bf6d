"""simulmob benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload sim_table --seed 1 --seconds 30 --trace 0

Run from a checkout that holds ``src/simulmob``; the benchmark drives that
source tree only from outside. With ``--trace 0`` a single closed-loop client
starts one ``python -m simulmob`` child at a time (plus ``reparse.py``
on ``codec_roundtrip``) and reports the end-to-end metrics. With
``--trace 1`` it runs the workload in process under ``traced.py`` and
reports per-layer metrics. ``--workload all`` runs every workload in both
modes. Every output is checked (pinned sha256, byte identity across
iterations, semantic checks); a failed check counts as a failed invocation.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The lines above it
print every metric by name with its unit, and a fingerprint; the same,
with the raw samples, is written to ``.perfbench/results/``. Nothing
compared carries a timestamp.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, calibrate
from workloads import WORKLOADS, Checker, Workload, load_pins

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

CHILD_TIMEOUT_S = 60
TRACED_TIMEOUT_S = 120  # on top of the traced window
SETUP_REPEATS = 5
MIN_ITERATIONS = 3

# Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "cli.main": "cli.self_s",
    "cli.parse": "cli.parse_s",
    "scenarios.independent": "scenarios.independent_s",
    "scenarios.sequential": "scenarios.sequential_s",
    "scenarios.replay": "scenarios.replay_s",
    "stats.tally": "stats.tally_s",
    "stats.exact": "stats.exact_s",
    "traceio.read_csv": "traceio.read_csv_s",
    "traceio.write_json": "traceio.write_json_s",
    "traceio.format_trace": "traceio.format_trace_s",
    "traceio.parse_trace": "traceio.parse_trace_s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no source tree, wrong import)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SIMULMOB_SEED", None)
    return env


class Launcher:
    """The ``launcher.py`` process, which starts and reaps every child.

    A child's ``ru_maxrss`` starts at the peak RSS of the process it was
    spawned from, so children spawned from here would report at least this
    process's peak; see ``launcher.py``.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, stdout: Path, stderr: Path,
            timeout: float) -> tuple[float, float, int]:
        self.proc.stdin.write(json.dumps([argv, str(cwd), str(stdout), str(stderr),
                                          timeout]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError(f"launcher exited with code {self.proc.wait()}")
        wall, rss, code = json.loads(reply)
        return wall, rss, code

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


_launcher: Launcher | None = None


def spawn(argv: list[str], cwd: Path, stdout: Path, stderr: Path,
          timeout: float) -> tuple[float, float, int]:
    """Run one child to completion: (wall s, peak RSS MB, exit code)."""
    global _launcher
    if _launcher is None:
        _launcher = Launcher()
        atexit.register(_launcher.close)
    return _launcher.run(argv, cwd, stdout, stderr, timeout)


def invoke(workload: Workload, inv) -> tuple[float, float, bytes | None]:
    """One invocation of the program: (wall s, peak RSS MB, stdout or None)."""
    if inv.kind == "cli":
        argv = [sys.executable, "-m", "simulmob", *inv.args]
    else:
        argv = [sys.executable, str(HERE / "reparse.py"), *inv.args]
    out = workload.work / f"{inv.label}.stdout"
    err = workload.work / f"{inv.label}.stderr"
    wall, rss, code = spawn(argv, workload.work, out, err, CHILD_TIMEOUT_S)
    return wall, rss, out.read_bytes() if code == 0 else None


class Attempts:
    """Invocations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def record(self, where: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{where}: {e}" for e in errors]


def checked(workload: Workload, checker: Checker, attempts: Attempts, where: str, inv):
    wall, rss, stdout = invoke(workload, inv)
    if stdout is None:
        tail = (workload.work / f"{inv.label}.stderr").read_text(errors="replace")[-300:]
        attempts.record(where, [f"{inv.label} exited non-zero: {tail.strip()}"])
    else:
        attempts.record(where, checker.check(inv, stdout))
    return wall, rss


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def end_to_end(workload: Workload, checker: Checker, attempts: Attempts,
               seconds: float) -> tuple[dict, dict]:
    """Closed loop of untraced child invocations; returns (metrics, samples).

    The calibration kernel runs between every two timed groups (one
    iteration, or one smallest-size invocation behind ``setup_s``), and each
    group's wall time is scaled by ``REFERENCE_S`` over the mean of the
    readings on either side of it. The setup invocation runs SETUP_REPEATS
    times before the window and once after every iteration, so its median
    covers the same stretch of machine time as ``wall_s``.
    """
    setup_inv = workload.setup_invocation()
    invocations = workload.iteration()
    for inv in (setup_inv, *invocations):  # warm-up: file cache, bytecode cache
        checked(workload, checker, attempts, "warmup", inv)
    readings = [calibrate()]

    def timed(where: str, group) -> tuple[float, float, float]:
        """(scaled wall s, raw wall s, largest peak RSS MB) of one group."""
        runs = [checked(workload, checker, attempts, where, inv) for inv in group]
        readings.append(calibrate())
        raw = sum(w for w, _ in runs)
        return raw * 2 * REFERENCE_S / (readings[-2] + readings[-1]), raw, max(r for _, r in runs)

    setup = [timed("setup", [setup_inv])[0] for _ in range(SETUP_REPEATS)]
    walls, raw_walls, rss = [], [], []
    window = time.perf_counter()
    while len(walls) < MIN_ITERATIONS or time.perf_counter() - window < seconds:
        wall, raw, peak = timed(f"iteration {len(walls)}", invocations)
        walls.append(wall)
        raw_walls.append(raw)
        rss.append(peak)
        setup.append(timed("setup", [setup_inv])[0])
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "moves_per_s": workload.moves() / wall,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    return metrics, {"wall_s": walls, "raw_wall_s": raw_walls, "peak_rss_mb": rss,
                     "setup_s": setup, "calibration_s": readings,
                     "wall_tail": tail_percentile(walls),
                     "raw_wall_median": statistics.median(raw_walls),
                     "moves": workload.moves()}


def self_times(spans: list[list]) -> dict:
    """Per-run sums of span self time (s) by metric, plus span counts."""
    child_ns: dict[int, int] = {}
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    runs: dict[str, dict] = {}
    for run, span_id, _, name, start, end, counts in spans:
        acc = runs.setdefault(run, {"layers": {}})
        self_ns = end - start - child_ns.get(span_id, 0)
        metric = SPAN_METRICS[name]
        acc[metric] = acc.get(metric, 0.0) + self_ns / 1e9
        layer = name.split(".")[0]
        acc["layers"][layer] = acc["layers"].get(layer, 0.0) + self_ns / 1e9
        for key, value in counts.items():
            acc[key] = acc.get(key, 0) + value
    return runs


def per_layer(workload: Workload, attempts: Attempts, seconds: float) -> tuple[dict, dict]:
    """Traced in-process run; returns (metrics, samples)."""
    out = workload.work / "trace.json"
    argv = [sys.executable, str(HERE / "traced.py"), workload.name, str(workload.seed),
            str(seconds), str(workload.work), str(out)]
    _, _, code = spawn(argv, workload.work, workload.work / "traced.stdout",
                       workload.work / "traced.stderr", seconds + TRACED_TIMEOUT_S)
    if code != 0:
        tail = (workload.work / "traced.stderr").read_text(errors="replace")[-600:]
        raise SetupError(f"traced run exited {code}: {tail}")
    report = json.loads(out.read_text())
    attempts.attempted += report["attempted"]
    attempts.failed += report["failed"]
    attempts.errors += report["errors"]

    runs = self_times(report["spans"])
    traced = [it for it in report["iterations"] if it["traced"]]

    def fastest(key: str) -> float:
        return min(runs.get(it["run"], {}).get(key, 0) for it in traced)

    def wall(flag: bool) -> float:
        return min(it["wall_ns"] for it in report["iterations"] if it["traced"] == flag)

    heap = [s[6]["heap_peak_bytes"] for s in report["heap_spans"]
            if "heap_peak_bytes" in s[6]]
    probes = report["probes"]
    metrics = {
        "sampling.randint_ns": probes["randint_ns"],
        "sampling.randint_wide_ns": probes["randint_wide_ns"],
        "sampling.draws": fastest("trials") * 3 + fastest("moves"),
        "model.record_ns": probes["record_ns"],
        "model.classify_ns": probes["classify_ns"],
        "scenarios.independent_s": fastest("scenarios.independent_s"),
        "scenarios.sequential_s": fastest("scenarios.sequential_s"),
        "scenarios.replay_s": fastest("scenarios.replay_s"),
        "scenarios.trial_ns": probes["trial_ns"],
        "scenarios.heap_peak_mb": max(heap, default=0) / 2**20,
        "stats.exact_s": fastest("stats.exact_s"),
        "stats.exact_cells": fastest("cells"),
        "stats.tally_s": fastest("stats.tally_s"),
        "traceio.read_csv_s": fastest("traceio.read_csv_s"),
        "traceio.write_json_s": fastest("traceio.write_json_s"),
        "traceio.format_trace_s": fastest("traceio.format_trace_s"),
        "traceio.parse_trace_s": fastest("traceio.parse_trace_s"),
        "traceio.bytes_in": fastest("bytes_in"),
        "traceio.bytes_out": fastest("bytes_out"),
        "cli.import_s": report["import_ns"] / 1e9,
        "cli.parse_s": fastest("cli.parse_s"),
        "cli.self_s": fastest("cli.self_s"),
        "trace.overhead_ratio": wall(True) / wall(False),
    }
    layers = {}
    for it in traced:
        for layer, s in runs.get(it["run"], {}).get("layers", {}).items():
            layers.setdefault(layer, []).append(s)
    shares = {layer: min(v) for layer, v in layers.items()}
    total = sum(shares.values())
    # Sampling and model calls run inside the scenario spans; the probes
    # apportion that self time by calls made times ns per call.
    scenario_s = metrics["scenarios.independent_s"] + metrics["scenarios.sequential_s"]
    sampling_s = metrics["sampling.draws"] * probes["randint_ns"] / 1e9
    records = fastest("trials") + fastest("moves")
    model_s = records * (probes["record_ns"] + probes["classify_ns"]) / 1e9
    return metrics, {"self_time_share": {k: v / total for k, v in shares.items()},
                     "scenario_split_s": {"sampling": sampling_s, "model": model_s,
                                          "scenarios": scenario_s - sampling_s - model_s},
                     "traced_iterations": len(traced)}


def fingerprint(seed: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "simulmob").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def check_checkout() -> None:
    if not (SRC / "simulmob" / "__init__.py").is_file():
        raise SetupError(f"no simulmob source tree under {SRC}")
    found = subprocess.run(
        [sys.executable, "-c", "import simulmob; print(simulmob.__file__)"],
        env=child_env(), capture_output=True, text=True, timeout=60).stdout.strip()
    if not found or Path(found).resolve().parent != (SRC / "simulmob").resolve():
        raise SetupError(f"simulmob imports from {found!r}, not from {SRC}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](seed, work)
    workload.prepare()
    pins = load_pins().get(name, {}).get(str(seed))
    attempts = Attempts()
    if trace:
        metrics, samples = per_layer(workload, attempts, seconds)
    else:
        metrics, samples = end_to_end(workload, Checker(workload, pins), attempts, seconds)
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "pinned": pins is not None, "correct": attempts.failed == 0,
            "attempted": attempts.attempted, "failed": attempts.failed,
            "errors": attempts.errors[:20], "metrics": metrics, "samples": samples}


def describe(result: dict) -> list[str]:
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"trace {result['trace']}  digests {'pinned' if result['pinned'] else 'unpinned'}"]
    for key, value in result["metrics"].items():
        lines.append(f"  {key:<26} {value:>14.6g} {UNITS.get(key, '')}")
    lines.append(f"  {'error_rate':<26} {result['failed'] / result['attempted']:>14.6g} "
                 f"ratio ({result['failed']} of {result['attempted']} invocations)")
    samples = result["samples"]
    if "wall_s" in samples:
        tail = samples["wall_tail"]
        lines.append(f"  scaled iteration wall over {len(samples['wall_s'])} iterations: " + (
            f"p{tail[0]} {tail[1]:.6g} s" if tail else "too few for a tail percentile"))
        readings = samples["calibration_s"]
        lines.append(f"  raw iteration wall median {samples['raw_wall_median']:.6g} s; "
                     f"calibration median {statistics.median(readings):.6g} s "
                     f"over {len(readings)} readings (reference {REFERENCE_S} s)")
    if "self_time_share" in samples:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in
                           sorted(samples["self_time_share"].items(), key=lambda kv: -kv[1]))
        lines.append(f"  self-time share: {shares}")
        lines.append("  scenario self time by probes: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in samples["scenario_split_s"].items()))
    lines += [f"  error: {e}" for e in result["errors"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every child it starts, so that the
        # calibration reads the speed of the CPU the measured code runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        check_checkout()
        if args.workload == "all":
            results = [run_one(name, args.seed, args.seconds, trace)
                       for name in WORKLOADS for trace in (False, True)]
        else:
            results = [run_one(args.workload, args.seed, args.seconds, bool(args.trace))]
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = fingerprint(args.seed)
    print("fingerprint: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for result in results:
        print("\n".join(describe(result)))
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"fingerprint": info, "results": results}, indent=2) + "\n")
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{key}" if prefix else key):
                    {"value": value, "unit": UNITS.get(key, "")}
                    for r in results for key, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
