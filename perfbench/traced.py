"""In-process traced run of one workload: layer spans plus micro-probes.

Usage: ``python perfbench/traced.py WORKLOAD SEED SECONDS WORKDIR OUT.json``
with ``src`` on ``PYTHONPATH``. ``run.py --trace 1`` starts it after it has
written the workload's inputs into WORKDIR.

The public functions are wrapped where ``simulmob.cli`` binds them (and
``tally`` where ``simulmob.scenarios`` binds it), from this file, so the
program itself carries no tracing code. Each call records one span: name,
start, end, parent and the run id its iteration shares; counts taken from
the call's arguments and result ride on the span. Spans stay in memory and
are written to OUT.json at exit, where ``run.py`` turns them into per-layer
self times. Untraced iterations alternate with traced ones, so the file
also gives the tracing overhead. Calls too fine to span one by one
(``Pcg32.randint``, ``MoveRecord.from_inits``, ``classify``, one trial) get
micro-probes instead.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import tracemalloc
from pathlib import Path

from workloads import WORKLOADS, Checker, canonical_rows, load_pins, sha256

PROBE_CALLS = 20_000
PROBE_REPEATS = 7


class Tracer:
    """Collects spans from wrapped functions into memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.run_id = ""
        self.heap = False

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` gives counts."""

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            heap = self.heap and name.startswith("scenarios.")
            if heap:  # only allocations made during the call are traced
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
            counts = count(args, result) if count else {}
            if heap:
                counts["heap_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.spans.append([self.run_id, span_id, parent, name, start, end, counts])
            return result

        return traced


def _bytes_in(args, result):
    return {"bytes_in": len(args[0])}


def _bytes_out(args, result):
    return {"bytes_out": len(result)}


def _exact_cells(args, result):
    layout, max_step, node = args
    width = layout.zone0_width if node == 0 else layout.zone1_width
    return {"cells": width * (max_step + 1)}


class Instrumentation:
    """Swaps wrapped functions in and out of the modules that bind them."""

    def __init__(self, tracer: Tracer):
        cli = importlib.import_module("simulmob.cli")
        scenarios = importlib.import_module("simulmob.scenarios")
        traceio = importlib.import_module("simulmob.traceio")
        self.traceio = traceio
        t = tracer

        cli_build_parser = cli.build_parser

        def build_parser():
            parser = t.wrap("cli.parse", cli_build_parser)()
            parser.parse_args = t.wrap("cli.parse", parser.parse_args)
            return parser

        self.patches = [
            (cli, "build_parser", build_parser),
            (cli, "run_independent_scenario", t.wrap(
                "scenarios.independent", cli.run_independent_scenario,
                lambda a, r: {"trials": sum(len(s.records) for s in r)})),
            (cli, "run_sequential_scenario", t.wrap(
                "scenarios.sequential", cli.run_sequential_scenario,
                lambda a, r: {"moves": sum(run.steps_taken for run in r[1])})),
            (cli, "replay_independent", t.wrap(
                "scenarios.replay", cli.replay_independent)),
            (cli, "replay_sequential", t.wrap(
                "scenarios.replay", cli.replay_sequential)),
            (scenarios, "tally", t.wrap("stats.tally", scenarios.tally)),
            (cli, "exact_crossing_probability", t.wrap(
                "stats.exact", cli.exact_crossing_probability, _exact_cells)),
            (cli, "read_csv", t.wrap("traceio.read_csv", cli.read_csv, _bytes_in)),
            (cli, "write_json", t.wrap("traceio.write_json", cli.write_json, _bytes_out)),
            (cli, "format_trace", t.wrap(
                "traceio.format_trace", cli.format_trace, _bytes_out)),
            (traceio, "parse_trace", t.wrap(
                "traceio.parse_trace", traceio.parse_trace, _bytes_in)),
        ]
        self.originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self.patches]
        self.main = cli.main
        self.traced_main = t.wrap("cli.main", cli.main)

    @contextlib.contextmanager
    def active(self, on: bool):
        if on:
            for mod, attr, fn in self.patches:
                setattr(mod, attr, fn)
        try:
            yield self.traced_main if on else self.main
        finally:
            for mod, attr, fn in self.originals:
                setattr(mod, attr, fn)


def run_iteration(inst: Instrumentation, invocations, traced: bool):
    """Run one iteration in process; returns (wall ns, [(inv, stdout bytes)])."""
    outputs = []
    with inst.active(traced) as main:
        start = time.perf_counter_ns()
        for inv in invocations:
            if inv.kind == "cli":
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(list(inv.args))
                stdout = out.getvalue().encode() if code == 0 else None
            else:
                with open(inv.args[0], encoding="utf-8") as fh:
                    records = inst.traceio.parse_trace(fh.read())
                stdout = f"{len(records)} {sha256(canonical_rows(records))}\n".encode()
            outputs.append((inv, stdout))
        wall = time.perf_counter_ns() - start
    return wall, outputs


def per_call_ns(call, args) -> float:
    """Fastest over repeats of ns per ``call(*args)``, loop overhead included."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter_ns()
        for _ in range(PROBE_CALLS):
            call(*args)
        samples.append((time.perf_counter_ns() - start) / PROBE_CALLS)
    return min(samples)


def probes(seed: int) -> dict:
    from simulmob import (MoveRecord, Pcg32, Sampler, classify, preset,
                          run_independent_trial)

    config = preset(2, seed=seed)  # zones of 50 positions, steps 0..50
    layout = config.sampler.layout
    rng = Pcg32(seed)
    rec = MoveRecord.from_inits(80, 120, 25)
    return {
        "randint_ns": per_call_ns(rng.randint, (0, 50)),
        "randint_wide_ns": per_call_ns(rng.randint, (0, 374)),  # preset 1 zone
        "record_ns": per_call_ns(MoveRecord.from_inits, (80, 120, 25)),
        "classify_ns": per_call_ns(classify, (rec, layout)),
        "trial_ns": per_call_ns(run_independent_trial,
                                (Sampler(config.sampler), layout)),
    }


def main(name: str, seed: int, seconds: float, work: Path, out: Path) -> None:
    start = time.perf_counter_ns()
    importlib.import_module("simulmob.cli")
    import_ns = time.perf_counter_ns() - start

    workload = WORKLOADS[name](seed, work)
    checker = Checker(workload, load_pins().get(name, {}).get(str(seed)))
    tracer = Tracer()
    inst = Instrumentation(tracer)
    invocations = workload.iteration()
    report = {"import_ns": import_ns, "iterations": [], "errors": [],
              "attempted": 0, "failed": 0}

    def iteration(label: str, traced: bool) -> int:
        tracer.run_id = f"{name}/{seed}/{label}"
        wall, outputs = run_iteration(inst, invocations, traced)
        for inv, stdout in outputs:
            errors = (checker.check(inv, stdout) if stdout is not None
                      else [f"{inv.label}: non-zero exit"])
            report["attempted"] += 1
            report["failed"] += bool(errors)
            report["errors"] += [f"{label} {e}" for e in errors]
        return wall

    iteration("warmup", False)
    tracer.heap = True
    iteration("heap", True)
    tracer.heap = False
    report["heap_spans"], tracer.spans = tracer.spans, []

    window = time.perf_counter()
    pair = 0
    while pair < 2 or time.perf_counter() - window < seconds:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            label = f"{pair}{'t' if traced else 'u'}"
            wall = iteration(label, traced)
            report["iterations"].append({"run": tracer.run_id, "traced": traced,
                                         "wall_ns": wall})
        pair += 1
    report["spans"] = tracer.spans
    report["probes"] = probes(seed & (2**64 - 1))
    out.write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), Path(sys.argv[4]),
         Path(sys.argv[5]))
