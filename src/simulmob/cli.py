"""Command-line entry point.

Subcommands: ``simulate`` runs a preset or a JSON-configured scenario,
``replay`` re-classifies a bundled or user-supplied record set, ``estimate``
prints the step-length estimators next to observed counts, and ``plot``
renders position series as SVG or ASCII.

Exit codes: 0 success, 1 I/O failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from statistics import fmean
from typing import Sequence

from .datasets import DATASET_IDS, ReplayDataset, load_dataset
from .model import Outcome, ZoneLayout, classify
from .plotting import render_ascii, render_svg
from .sampling import SamplerConfig, validate
from .scenarios import (
    IndependentTrialConfig,
    SampleResult,
    SequentialConfig,
    SequentialRun,
    config_from_dict,
    config_to_dict,
    preset,
    replay_independent,
    replay_sequential,
    run_independent_scenario,
    run_sequential_scenario,
)
from .stats import (
    METRIC_LABELS,
    EstimateReport,
    Tally,
    average_step_length,
    compare,
    exact_crossing_probability,
    expected_crossings,
    expected_steps_to_cross,
    tally,
)
from .traceio import format_trace, read_csv, record_dict, write_csv, write_json

ENV_SEED = "SIMULMOB_SEED"


class UsageError(ValueError):
    """Bad flag combination or bad config content; exit code 2."""


def _zone(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            raise ValueError
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI with integer bounds, got {text!r}"
        ) from None


def _add_layout_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-step", type=int, metavar="N",
                     help="inclusive upper bound for drawn step lengths")
    sub.add_argument("--zone0", type=_zone, metavar="LO:HI",
                     help="zone 0 bounds, inclusive")
    sub.add_argument("--zone1", type=_zone, metavar="LO:HI",
                     help="zone 1 bounds, inclusive")
    sub.add_argument("--brink", type=int, metavar="N",
                     help="boundary plane position")


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", type=int, metavar="N",
                     help="preset scenario id (1, 2 or 3)")
    sub.add_argument("--config", metavar="PATH",
                     help="JSON scenario config file")
    sub.add_argument("--seed", type=int, metavar="N",
                     help=f"RNG seed (default: ${ENV_SEED}, then 0)")
    sub.add_argument("--runs", type=int, metavar="N",
                     help="override runs per sample (or sequential run count)")
    sub.add_argument("--samples", type=int, metavar="N",
                     help="override sample count (independent shape only)")
    _add_layout_flags(sub)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("table", "csv", "json"),
                     default="table", help="stdout report format")
    sub.add_argument("--trace", metavar="PATH",
                     help="also write a movement trace file")
    sub.add_argument("--step-headers", action="store_true",
                     help="group trace lines under STEP-k headers")
    sub.add_argument("--plot", metavar="PATH",
                     help="also write a plot file (SVG, or text with --ascii)")
    sub.add_argument("--ascii", action="store_true",
                     help="render plots as text instead of SVG")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulmob",
        description="Two-node simultaneous-mobility simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a scenario")
    _add_scenario_flags(simulate)
    _add_output_flags(simulate)

    replay = sub.add_parser("replay", help="re-classify recorded moves")
    replay.add_argument("--dataset", metavar="ID",
                        help=f"bundled dataset id ({', '.join(DATASET_IDS)})")
    replay.add_argument("--input", metavar="PATH", help="CSV record file")
    _add_layout_flags(replay)
    _add_output_flags(replay)

    estimate = sub.add_parser(
        "estimate", help="print crossing estimators vs observations")
    estimate.add_argument("--dataset", metavar="ID",
                          help=f"bundled dataset id ({', '.join(DATASET_IDS)})")
    _add_scenario_flags(estimate)
    estimate.add_argument("--format", choices=("table", "json"),
                          default="table", help="stdout report format")

    plot = sub.add_parser("plot", help="render position series")
    plot.add_argument("--dataset", metavar="ID",
                      help=f"bundled dataset id ({', '.join(DATASET_IDS)})")
    plot.add_argument("--input", metavar="PATH", help="CSV record file")
    _add_scenario_flags(plot)
    plot.add_argument("--ascii", action="store_true",
                      help="render as text instead of SVG")
    plot.add_argument("-o", "--output", metavar="PATH",
                      help="output file (default: stdout)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "simulate": _cmd_simulate,
        "replay": _cmd_replay,
        "estimate": _cmd_estimate,
        "plot": _cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# -- shared helpers ---------------------------------------------------------


def _resolve_seed(args: argparse.Namespace) -> tuple[int, bool]:
    """Seed precedence: --seed flag, then $SIMULMOB_SEED, then 0.

    The boolean reports whether the user picked the seed explicitly (so it
    should override a config file's own seed).
    """
    if getattr(args, "seed", None) is not None:
        return args.seed, True
    raw = os.environ.get(ENV_SEED)
    if raw is not None:
        try:
            return int(raw), True
        except ValueError:
            raise UsageError(
                f"{ENV_SEED} must be an integer, got {raw!r}"
            ) from None
    return 0, False


def _layout_from_flags(
    args: argparse.Namespace, base: ZoneLayout | None
) -> ZoneLayout:
    """Merge --zone0/--zone1/--brink over an optional base layout."""
    zone0 = args.zone0 if args.zone0 else (
        (base.zone0_lo, base.zone0_hi) if base else None)
    zone1 = args.zone1 if args.zone1 else (
        (base.zone1_lo, base.zone1_hi) if base else None)
    brink = args.brink if args.brink is not None else (
        base.brink if base else None)
    missing = [flag for flag, value in
               (("--zone0", zone0), ("--zone1", zone1), ("--brink", brink))
               if value is None]
    if missing:
        raise UsageError(
            "this input carries no zone layout; supply " + ", ".join(missing))
    return ZoneLayout(zone0[0], zone0[1], zone1[0], zone1[1], brink)


def _effective_layout(
    args: argparse.Namespace, base: ZoneLayout | None
) -> ZoneLayout:
    if args.zone0 or args.zone1 or args.brink is not None or base is None:
        return _layout_from_flags(args, base)
    return base


def _scenario_config(
    args: argparse.Namespace,
) -> IndependentTrialConfig | SequentialConfig:
    has_scenario = args.scenario is not None
    has_config = args.config is not None
    if has_scenario == has_config:
        raise UsageError("exactly one of --scenario or --config is required")
    seed, explicit = _resolve_seed(args)
    if has_scenario:
        config = preset(args.scenario, seed=seed)
    else:
        with open(args.config, encoding="utf-8") as fh:
            config = config_from_dict(json.load(fh))
        if explicit:
            config = replace(config, sampler=replace(config.sampler, seed=seed))
    return _apply_overrides(config, args)


def _apply_overrides(
    config: IndependentTrialConfig | SequentialConfig, args: argparse.Namespace
) -> IndependentTrialConfig | SequentialConfig:
    sampler = config.sampler
    layout = sampler.layout
    if args.zone0 or args.zone1 or args.brink is not None:
        layout = _layout_from_flags(args, layout)
    max_step = args.max_step if args.max_step is not None else sampler.max_step
    sampler = SamplerConfig(sampler.seed, max_step, layout)
    if isinstance(config, SequentialConfig):
        if args.samples is not None:
            raise UsageError(
                "--samples applies to independent-trial scenarios only")
        runs = args.runs if args.runs is not None else config.runs
        return replace(config, sampler=sampler, runs=runs)
    runs = args.runs if args.runs is not None else config.runs_per_sample
    samples = args.samples if args.samples is not None else config.samples
    return replace(
        config, sampler=sampler, runs_per_sample=runs, samples=samples)


def _print_warnings(sampler: SamplerConfig) -> None:
    for warning in validate(sampler).warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(cell) for cell in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
             for row in [list(header), *rows]]
    return "\n".join(lines) + "\n"


def _independent_table(results: Sequence[SampleResult]) -> str:
    header = ["sample", *METRIC_LABELS]
    rows = [[str(r.sample + 1), *(str(c) for c in r.tally.columns())]
            for r in results]
    means = [fmean(col) for col in zip(*(r.tally.columns() for r in results))]
    rows.append(["mean", *(f"{m:.2f}" for m in means)])
    return _format_table(header, rows)


def _sequential_table(total: Tally, runs: Sequence[SequentialRun]) -> str:
    header = ["runs", *METRIC_LABELS]
    rows = [[str(total.trials), *(str(c) for c in total.columns())]]
    timed_out = sum(1 for run in runs if run.timed_out)
    return (
        _format_table(header, rows)
        + f"mean steps to first crossing: {fmean(r.steps_taken for r in runs):.2f}\n"
        + f"timed out: {timed_out} of {len(runs)}\n"
    )


def _independent_series(records) -> tuple[list[int], list[int]]:
    return ([rec.mn0_new for rec in records], [rec.mn1_new for rec in records])


def _chained_series(records) -> tuple[list[int], list[int]]:
    mn0 = [records[0].mn0_init, *(rec.mn0_new for rec in records)]
    mn1 = [records[0].mn1_init, *(rec.mn1_new for rec in records)]
    return mn0, mn1


def _render_plot(mn0, mn1, brink, chained: bool, title: str, xlabel: str,
                 ascii_mode: bool) -> str:
    if ascii_mode:
        return render_ascii(mn0, mn1, brink)
    return render_svg(mn0, mn1, brink, chained, title, xlabel)


def _estimate_dict(est: EstimateReport) -> dict:
    doc = {
        "avg_step": est.avg_step,
        "expected_steps_to_cross": est.expected_steps_to_cross,
        "expected_crossings": est.expected_crossings,
        "observed_crossings": est.observed_crossings,
    }
    if est.exact_probability is not None:
        doc["exact_probability"] = {
            "fraction": str(est.exact_probability),
            "value": float(est.exact_probability),
        }
    return doc


# -- simulate ---------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _scenario_config(args)
    _print_warnings(config.sampler)
    layout = config.sampler.layout
    if isinstance(config, SequentialConfig):
        total, parts = run_sequential_scenario(config)
        if args.format == "table":
            sys.stdout.write(_sequential_table(total, parts))
        elif args.format == "csv":
            records = _records(parts)
            outcomes = [classify(rec, layout) for rec in records]
            sys.stdout.write(write_csv(records, outcomes))
        else:
            sys.stdout.write(write_json(_sequential_doc(config, total, parts)))
        chained, xlabel = True, "step"
    else:
        parts = run_independent_scenario(config)
        if args.format == "table":
            sys.stdout.write(_independent_table(parts))
        elif args.format == "csv":
            outcomes = [o for r in parts for o in r.outcomes]
            sys.stdout.write(write_csv(_records(parts), outcomes))
        else:
            sys.stdout.write(write_json(_independent_doc(config, parts)))
        chained, xlabel = False, "trial"
    if args.trace:
        _write_text(args.trace, format_trace(_records(parts), args.step_headers))
    if args.plot:
        series = (_chained_series(parts[0].records) if chained
                  else _independent_series(_records(parts)))
        title = (f"scenario {args.scenario}" if args.scenario is not None
                 else "custom scenario")
        _write_text(args.plot, _render_plot(
            *series, layout.brink, chained, title, xlabel, args.ascii))
    return 0


def _records(parts: Sequence[SampleResult | SequentialRun]) -> list:
    """All move records of a scenario's samples or walks, in order."""
    return [rec for part in parts for rec in part.records]


def _independent_doc(
    config: IndependentTrialConfig, results: Sequence[SampleResult]
) -> dict:
    total = Tally()
    for r in results:
        total = total + r.tally
    steps = [step for r in results for step in r.steps]
    avg = average_step_length(steps)
    layout = config.sampler.layout
    if avg > 0:
        estimate = _estimate_dict(EstimateReport(
            avg_step=avg,
            expected_steps_to_cross=expected_steps_to_cross(
                layout.zone0_span, avg),
            expected_crossings=expected_crossings(
                len(steps), layout.zone0_span, avg),
            observed_crossings=total.mn0_handover,
            exact_probability=exact_crossing_probability(
                layout, config.sampler.max_step, 0),
        ))
    else:
        estimate = None
    return {
        "config": config_to_dict(config),
        "samples": [
            {
                "sample": r.sample,
                "tally": r.tally.as_dict(),
                "records": [record_dict(rec, out)
                            for rec, out in zip(r.records, r.outcomes)],
            }
            for r in results
        ],
        "total": total.as_dict(),
        "estimate": estimate,
    }


def _sequential_doc(
    config: SequentialConfig, total: Tally, runs: Sequence[SequentialRun]
) -> dict:
    return {
        "config": config_to_dict(config),
        "tally": total.as_dict(),
        "mean_steps_taken": fmean(run.steps_taken for run in runs),
        "runs": [
            {
                "run": j,
                "terminal": run.terminal.value,
                "steps_taken": run.steps_taken,
                "timed_out": run.timed_out,
                "final_positions": list(run.final_positions),
                "records": [record_dict(rec) for rec in run.records],
            }
            for j, run in enumerate(runs)
        ],
    }


# -- replay -----------------------------------------------------------------


def _replay_source(
    args: argparse.Namespace,
) -> tuple[list, ZoneLayout, ReplayDataset | None]:
    if (args.dataset is None) == (args.input is None):
        raise UsageError("exactly one of --dataset or --input is required")
    if args.dataset is not None:
        dataset = load_dataset(args.dataset)
        return list(dataset.rows), _effective_layout(args, dataset.layout), dataset
    with open(args.input, encoding="utf-8") as fh:
        records = read_csv(fh.read())
    return records, _layout_from_flags(args, None), None


def _replay_diff_table(tally: Tally, published: tuple[int, ...] | None) -> str:
    if published is None:
        header = ["metric", "replayed"]
        rows = [[label, str(count)]
                for label, count in zip(METRIC_LABELS, tally.columns())]
        return _format_table(header, rows)
    header = ["metric", "replayed", "published", ""]
    rows = []
    for label, ours, theirs in zip(METRIC_LABELS, tally.columns(), published):
        mark = "*" if ours != theirs else ""
        rows.append([label, str(ours), str(theirs), mark])
    text = _format_table(header, rows)
    if any(row[3] == "*" for row in rows):
        text += "* differs from the published count\n"
    return text


def _print_notes(dataset: ReplayDataset | None) -> None:
    if dataset is not None and dataset.notes:
        sys.stdout.write("notes:\n")
        for note in dataset.notes:
            sys.stdout.write(f"  - {note}\n")


def _cmd_replay(args: argparse.Namespace) -> int:
    records, layout, dataset = _replay_source(args)
    sequential = dataset is not None and dataset.kind == "sequential"
    run = None
    if sequential:
        run = replay_sequential(records, layout)
        total = tally([run.terminal])
        outcomes = [classify(rec, layout) for rec in records]
        if args.format == "table":
            sys.stdout.write(
                f"dataset {dataset.id}: sequential walk, {len(records)} rows\n")
            if run.timed_out:
                state = "timed out"
            elif run.terminal is Outcome.NO_OVERLAP:
                state = "ended without crossing"
            else:
                state = "crossed"
            sys.stdout.write(
                f"terminal outcome: {run.terminal.value} at step "
                f"{run.steps_taken} ({state})\n")
            sys.stdout.write(
                f"final positions: {run.final_positions}\n")
            sys.stdout.write(_replay_diff_table(total, None))
            _print_notes(dataset)
    else:
        total, outcomes = replay_independent(records, layout)
        if args.format == "table":
            label = dataset.id if dataset else args.input
            sys.stdout.write(f"dataset {label}: {len(records)} rows replayed\n")
            sys.stdout.write(_replay_diff_table(
                total, dataset.published_counts if dataset else None))
            _print_notes(dataset)
    if args.format == "csv":
        sys.stdout.write(write_csv(records, outcomes))
    elif args.format == "json":
        doc = {
            "dataset": dataset.id if dataset else None,
            "input": args.input,
            "tally": total.as_dict(),
            "records": [record_dict(rec, out)
                        for rec, out in zip(records, outcomes)],
        }
        if dataset is not None:
            doc["published_counts"] = (
                dict(zip(METRIC_LABELS, dataset.published_counts))
                if dataset.published_counts else None)
            doc["notes"] = list(dataset.notes)
        if run is not None:
            doc["terminal"] = run.terminal.value
            doc["steps_taken"] = run.steps_taken
            doc["timed_out"] = run.timed_out
            doc["final_positions"] = list(run.final_positions)
        sys.stdout.write(write_json(doc))
    if args.trace:
        _write_text(args.trace, format_trace(records, args.step_headers))
    if args.plot:
        if sequential:
            series = _chained_series(records)
            chained, xlabel = True, "step"
        else:
            series = _independent_series(records)
            chained, xlabel = False, "run"
        title = dataset.id if dataset else args.input
        _write_text(args.plot, _render_plot(
            *series, layout.brink, chained, title, xlabel, args.ascii))
    return 0


# -- estimate ---------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> int:
    sources = [s for s in (args.dataset, args.scenario, args.config)
               if s is not None]
    if len(sources) != 1:
        raise UsageError(
            "exactly one of --dataset, --scenario or --config is required")
    if args.dataset is not None:
        return _estimate_dataset(args)
    return _estimate_scenario(args)


def _estimate_dataset(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    layout = _effective_layout(args, dataset.layout)
    max_step = (args.max_step if args.max_step is not None
                else dataset.max_step)
    avg = average_step_length(dataset.steps)
    if avg <= 0:
        raise UsageError("average step length is zero; estimators undefined")
    steps_to_cross = expected_steps_to_cross(layout.zone0_span, avg)
    lines = [
        f"source: dataset {dataset.id} ({len(dataset.rows)} rows, "
        f"{dataset.kind})",
        f"average step length: {avg:.2f}",
        f"zone0 span: {layout.zone0_span}",
        f"expected steps to cross (span / avg step): {steps_to_cross:.2f}",
    ]
    doc = {
        "source": f"dataset {dataset.id}",
        "rows": len(dataset.rows),
        "avg_step": avg,
        "zone0_span": layout.zone0_span,
        "expected_steps_to_cross": steps_to_cross,
    }
    if dataset.kind == "sequential":
        run = replay_sequential(dataset.rows, layout)
        lines += [
            f"observed steps to first crossing: {run.steps_taken}",
            f"terminal outcome: {run.terminal.value}",
            f"final positions: {run.final_positions}",
        ]
        doc.update(
            observed_steps=run.steps_taken,
            terminal=run.terminal.value,
            final_positions=list(run.final_positions),
        )
    else:
        trials = len(dataset.rows)
        crossings = expected_crossings(trials, layout.zone0_span, avg)
        total, _ = replay_independent(dataset.rows, layout)
        report = EstimateReport(
            avg_step=avg,
            expected_steps_to_cross=steps_to_cross,
            expected_crossings=crossings,
            observed_crossings=total.mn0_handover,
        )
        lines.append(
            f"expected crossings over {trials} trials: {crossings:.2f}")
        doc["expected_crossings"] = crossings
        lines += _exact_probability_lines(layout, max_step, trials, doc)
        comparison = compare(report, total)
        lines += [
            f"observed: mn0 handover {total.mn0_handover}, mn1 handover "
            f"{total.mn1_handover}, simultaneous {total.simultaneous}, "
            f"overlap events {total.overlap_events}",
            f"estimator vs observed overlap events: {comparison.expected:.2f} "
            f"vs {comparison.observed}, diff {comparison.absolute_difference:.2f} "
            f"({comparison.relative_difference:.1%})",
        ]
        doc["observed"] = total.as_dict()
        doc["comparison"] = {
            "expected": comparison.expected,
            "observed": comparison.observed,
            "absolute_difference": comparison.absolute_difference,
            "relative_difference": comparison.relative_difference,
        }
    return _emit_estimate(args, lines, doc, dataset)


def _exact_probability_lines(
    layout: ZoneLayout, max_step: int | None, trials: int, doc: dict
) -> list[str]:
    """Exact crossing probability block; skipped when no step bound is known.

    The printed label still reads "(enumeration)": the golden outputs pin
    it, and the closed form gives the same fractions as the enumeration.
    """
    if max_step is None:
        return ["exact crossing probability: unavailable (no --max-step)"]
    p0 = exact_crossing_probability(layout, max_step, 0)
    p1 = exact_crossing_probability(layout, max_step, 1)
    doc["exact_probability"] = {
        "node0": {"fraction": str(p0), "value": float(p0)},
        "node1": {"fraction": str(p1), "value": float(p1)},
    }
    doc["analytic_expected_crossings"] = {
        "node0": trials * float(p0),
        "node1": trials * float(p1),
    }
    return [
        "exact crossing probability (enumeration):",
        f"  node 0: {p0} = {float(p0):.6f}",
        f"  node 1: {p1} = {float(p1):.6f}",
        "expected crossings (trials x probability): "
        f"node 0 {trials * float(p0):.2f}, node 1 {trials * float(p1):.2f}",
    ]


def _estimate_scenario(args: argparse.Namespace) -> int:
    config = _scenario_config(args)
    _print_warnings(config.sampler)
    layout = config.sampler.layout
    if isinstance(config, SequentialConfig):
        total, runs = run_sequential_scenario(config)
        steps = [step for run in runs for step in run.steps]
        avg = average_step_length(steps)
        if avg <= 0:
            raise UsageError(
                "average step length is zero; estimators undefined")
        steps_to_cross = expected_steps_to_cross(layout.zone0_span, avg)
        mean_taken = fmean(run.steps_taken for run in runs)
        fraction = total.simultaneous / total.trials
        timed_out = sum(1 for run in runs if run.timed_out)
        lines = [
            f"source: scenario ({config.runs} runs, sequential)",
            f"average step length: {avg:.2f}",
            f"zone0 span: {layout.zone0_span}",
            f"expected steps to cross (span / avg step): {steps_to_cross:.2f}",
            f"observed mean steps to first crossing: {mean_taken:.2f}",
            f"simultaneous handover fraction: {fraction:.3f}",
            f"timed out: {timed_out} of {config.runs}",
        ]
        doc = {
            "source": "scenario",
            "runs": config.runs,
            "avg_step": avg,
            "zone0_span": layout.zone0_span,
            "expected_steps_to_cross": steps_to_cross,
            "observed_mean_steps": mean_taken,
            "simultaneous_fraction": fraction,
            "timed_out": timed_out,
            "tally": total.as_dict(),
        }
        return _emit_estimate(args, lines, doc, None)
    results = run_independent_scenario(config)
    steps = [step for r in results for step in r.steps]
    total = Tally()
    for r in results:
        total = total + r.tally
    avg = average_step_length(steps)
    if avg <= 0:
        raise UsageError("average step length is zero; estimators undefined")
    trials = len(steps)
    steps_to_cross = expected_steps_to_cross(layout.zone0_span, avg)
    crossings = expected_crossings(trials, layout.zone0_span, avg)
    report = EstimateReport(avg, steps_to_cross, crossings, total.mn0_handover)
    comparison = compare(report, total)
    lines = [
        f"source: scenario ({config.samples} samples x "
        f"{config.runs_per_sample} trials)",
        f"average step length: {avg:.2f}",
        f"zone0 span: {layout.zone0_span}",
        f"expected steps to cross (span / avg step): {steps_to_cross:.2f}",
        f"expected crossings over {trials} trials: {crossings:.2f}",
    ]
    doc = {
        "source": "scenario",
        "trials": trials,
        "avg_step": avg,
        "zone0_span": layout.zone0_span,
        "expected_steps_to_cross": steps_to_cross,
        "expected_crossings": crossings,
    }
    lines += _exact_probability_lines(
        layout, config.sampler.max_step, trials, doc)
    lines += [
        f"observed: mn0 handover {total.mn0_handover}, mn1 handover "
        f"{total.mn1_handover}, simultaneous {total.simultaneous}, "
        f"overlap events {total.overlap_events}",
        f"estimator vs observed overlap events: {comparison.expected:.2f} "
        f"vs {comparison.observed}, diff {comparison.absolute_difference:.2f} "
        f"({comparison.relative_difference:.1%})",
    ]
    doc["observed"] = total.as_dict()
    doc["comparison"] = {
        "expected": comparison.expected,
        "observed": comparison.observed,
        "absolute_difference": comparison.absolute_difference,
        "relative_difference": comparison.relative_difference,
    }
    return _emit_estimate(args, lines, doc, None)


def _emit_estimate(
    args: argparse.Namespace, lines: list[str], doc: dict,
    dataset: ReplayDataset | None,
) -> int:
    if args.format == "json":
        if dataset is not None and dataset.notes:
            doc["notes"] = list(dataset.notes)
        sys.stdout.write(write_json(doc))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
        _print_notes(dataset)
    return 0


# -- plot -------------------------------------------------------------------


def _cmd_plot(args: argparse.Namespace) -> int:
    sources = [s for s in (args.dataset, args.input, args.scenario,
                           args.config) if s is not None]
    if len(sources) != 1:
        raise UsageError(
            "exactly one of --dataset, --input, --scenario or --config "
            "is required")
    if args.dataset is not None:
        dataset = load_dataset(args.dataset)
        brink = _plot_brink(args, dataset.layout)
        if dataset.kind == "sequential":
            series = _chained_series(dataset.rows)
            chained, xlabel = True, "step"
        else:
            series = _independent_series(dataset.rows)
            chained, xlabel = False, "run"
        title = dataset.id
    elif args.input is not None:
        with open(args.input, encoding="utf-8") as fh:
            records = read_csv(fh.read())
        if not records:
            raise UsageError("no records to plot")
        brink = _plot_brink(args, None)
        series = _independent_series(records)
        chained, xlabel = False, "run"
        title = args.input
    else:
        config = _scenario_config(args)
        _print_warnings(config.sampler)
        brink = config.sampler.layout.brink
        if isinstance(config, SequentialConfig):
            _, runs = run_sequential_scenario(config)
            series = _chained_series(runs[0].records)
            chained, xlabel = True, "step"
        else:
            results = run_independent_scenario(config)
            series = _independent_series(_records(results))
            chained, xlabel = False, "trial"
        title = (f"scenario {args.scenario}" if args.scenario is not None
                 else "custom scenario")
    text = _render_plot(*series, brink, chained, title, xlabel, args.ascii)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _plot_brink(args: argparse.Namespace, layout: ZoneLayout | None) -> int:
    if args.brink is not None:
        return args.brink
    if layout is not None:
        return layout.brink
    raise UsageError("this input carries no zone layout; supply --brink")
