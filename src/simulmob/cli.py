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
from dataclasses import asdict, dataclass, replace
from statistics import fmean
from typing import Sequence

from .datasets import DATASET_IDS, ReplayDataset, load_dataset
from .model import MoveRecord, Outcome, ZoneLayout, classify
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


def _scenario_config(
    args: argparse.Namespace,
) -> IndependentTrialConfig | SequentialConfig:
    seed, explicit = _resolve_seed(args)
    if args.scenario is not None:
        config = preset(args.scenario, seed=seed)
    else:
        with open(args.config, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise UsageError(
                    f"config {args.config} nests too deeply") from None
        config = config_from_dict(doc)
        if explicit:
            config = replace(config, sampler=replace(config.sampler, seed=seed))
    return _apply_overrides(config, args)


def _apply_overrides(
    config: IndependentTrialConfig | SequentialConfig, args: argparse.Namespace
) -> IndependentTrialConfig | SequentialConfig:
    sampler = config.sampler
    layout = _layout_from_flags(args, sampler.layout)
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


# -- sources ----------------------------------------------------------------


@dataclass(frozen=True)
class Source:
    """One resolved input: a bundled dataset, a CSV file or a scenario run.

    ``kind`` is the mobility shape, "independent" or "sequential". A dataset
    or CSV file carries its ``records``, and its ``layout`` when it has one.
    A scenario carries its ``config`` (overrides applied), the samples or
    walks it ran (``parts``) and their ``total`` tally; it builds no move
    record until :meth:`moves` asks for them.
    """

    kind: str
    layout: ZoneLayout | None
    title: str
    dataset: ReplayDataset | None = None
    records: Sequence[MoveRecord] | None = None
    config: IndependentTrialConfig | SequentialConfig | None = None
    parts: Sequence[SampleResult | SequentialRun] = ()
    total: Tally | None = None

    def moves(self) -> Sequence[MoveRecord]:
        """Every move record, in order."""
        if self.records is not None:
            return self.records
        return [rec for part in self.parts for rec in part.records]


def _resolve_source(args: argparse.Namespace, flags: Sequence[str]) -> Source:
    """Load, or resolve and run, the one input named by one of ``flags``.

    ``flags`` are the subcommand's source options (``dataset``, ``input``,
    ``scenario``, ``config``); exactly one must be given. A scenario's
    warnings are printed before it runs.
    """
    given = [flag for flag in flags if getattr(args, flag) is not None]
    if len(given) != 1:
        names = [f"--{flag}" for flag in flags]
        raise UsageError(f"exactly one of {', '.join(names[:-1])} or "
                         f"{names[-1]} is required")
    if given == ["dataset"]:
        dataset = load_dataset(args.dataset)
        return Source(dataset.kind, dataset.layout, dataset.id, dataset,
                      list(dataset.rows))
    if given == ["input"]:
        with open(args.input, encoding="utf-8") as fh:
            records = read_csv(fh.read())
        return Source("independent", None, args.input, records=records)
    config = _scenario_config(args)
    _print_warnings(config.sampler)
    layout = config.sampler.layout
    title = (f"scenario {args.scenario}" if args.scenario is not None
             else "custom scenario")
    if isinstance(config, SequentialConfig):
        total, parts = run_sequential_scenario(config)
        return Source("sequential", layout, title, config=config, parts=parts,
                      total=total)
    parts = run_independent_scenario(config)
    total = sum((part.tally for part in parts), Tally())
    return Source("independent", layout, title, config=config, parts=parts,
                  total=total)


def _replay(
    source: Source, layout: ZoneLayout
) -> tuple[Tally, list[Outcome], SequentialRun | None]:
    """Re-classify a dataset's or CSV file's moves under ``layout``.

    Returns the tally, each move's outcome and, for a sequential walk, the
    replayed run.
    """
    if source.kind == "sequential":
        run = replay_sequential(source.records, layout)
        outcomes = [classify(rec, layout) for rec in source.records]
        return tally([run.terminal]), outcomes, run
    total, outcomes = replay_independent(source.records, layout)
    return total, outcomes, None


def _plot_text(source: Source, brink: int, ascii_mode: bool) -> str:
    """Plot both nodes' positions after each move against ``brink``.

    A sequential walk is drawn as a chain from its start (a scenario's
    first walk only); independent moves are one point per trial or row.
    """
    chained = source.kind == "sequential"
    records = (source.parts[0].records if chained and source.config
               else source.moves())
    mn0 = [rec.mn0_new for rec in records]
    mn1 = [rec.mn1_new for rec in records]
    if chained:
        mn0.insert(0, records[0].mn0_init)
        mn1.insert(0, records[0].mn1_init)
    if ascii_mode:
        return render_ascii(mn0, mn1, brink)
    xlabel = "step" if chained else "trial" if source.config else "run"
    return render_svg(mn0, mn1, brink, chained, source.title, xlabel)


def _write_side_files(
    args: argparse.Namespace, source: Source, brink: int
) -> None:
    """The --trace and --plot files of ``simulate`` and ``replay``."""
    if args.trace:
        _write_text(args.trace, format_trace(source.moves(), args.step_headers))
    if args.plot:
        _write_text(args.plot, _plot_text(source, brink, args.ascii))


def _exact_doc(layout: ZoneLayout, max_step: int) -> dict:
    """Both nodes' exact crossing probabilities, as fraction and value."""
    doc = {}
    for node in (0, 1):
        p = exact_crossing_probability(layout, max_step, node)
        doc[f"node{node}"] = {"fraction": str(p), "value": float(p)}
    return doc


# -- simulate ---------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    source = _resolve_source(args, ("scenario", "config"))
    sequential = source.kind == "sequential"
    layout = source.layout
    if args.format == "table":
        text = (_sequential_table(source.total, source.parts) if sequential
                else _independent_table(source.parts))
    elif args.format == "csv":
        records = source.moves()
        text = write_csv(records, [classify(rec, layout) for rec in records])
    else:
        text = write_json(_sequential_doc(source) if sequential
                          else _independent_doc(source))
    sys.stdout.write(text)
    _write_side_files(args, source, layout.brink)
    return 0


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


def _independent_doc(source: Source) -> dict:
    config, results = source.config, source.parts
    steps = [step for r in results for step in r.steps]
    avg = average_step_length(steps)
    layout = config.sampler.layout
    if avg > 0:
        estimate = asdict(EstimateReport(
            avg_step=avg,
            expected_steps_to_cross=expected_steps_to_cross(
                layout.zone0_span, avg),
            expected_crossings=expected_crossings(
                len(steps), layout.zone0_span, avg),
            observed_crossings=source.total.mn0_handover,
        ))
        estimate["exact_probability"] = _exact_doc(
            layout, config.sampler.max_step)
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
        "total": source.total.as_dict(),
        "estimate": estimate,
    }


def _sequential_doc(source: Source) -> dict:
    return {
        "config": config_to_dict(source.config),
        "tally": source.total.as_dict(),
        "mean_steps_taken": fmean(run.steps_taken for run in source.parts),
        "runs": [
            {
                "run": j,
                "terminal": run.terminal.value,
                "steps_taken": run.steps_taken,
                "timed_out": run.timed_out,
                "final_positions": list(run.final_positions),
                "records": [record_dict(rec) for rec in run.records],
            }
            for j, run in enumerate(source.parts)
        ],
    }


# -- replay -----------------------------------------------------------------


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
    source = _resolve_source(args, ("dataset", "input"))
    layout = _layout_from_flags(args, source.layout)
    total, outcomes, run = _replay(source, layout)
    dataset, records = source.dataset, source.records
    if args.format == "table":
        if run is None:
            sys.stdout.write(
                f"dataset {source.title}: {len(records)} rows replayed\n")
        else:
            # A replayed walk has no step cap, so it never times out.
            state = ("ended without crossing"
                     if run.terminal is Outcome.NO_OVERLAP else "crossed")
            sys.stdout.write(
                f"dataset {dataset.id}: sequential walk, {len(records)} rows\n"
                f"terminal outcome: {run.terminal.value} at step "
                f"{run.steps_taken} ({state})\n"
                f"final positions: {run.final_positions}\n")
        sys.stdout.write(_replay_diff_table(
            total, dataset.published_counts if dataset else None))
        _print_notes(dataset)
    elif args.format == "csv":
        sys.stdout.write(write_csv(records, outcomes))
    else:
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
    _write_side_files(args, source, layout.brink)
    return 0


# -- estimate ---------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> int:
    source = _resolve_source(args, ("dataset", "scenario", "config"))
    layout = _layout_from_flags(args, source.layout)
    dataset, config = source.dataset, source.config
    if dataset is not None:
        steps = dataset.steps
        label = f"dataset {dataset.id} ({len(dataset.rows)} rows, {dataset.kind})"
        size = {"rows": len(dataset.rows)}
    else:
        steps = [step for part in source.parts for step in part.steps]
        if source.kind == "sequential":
            label = f"scenario ({config.runs} runs, sequential)"
            size = {"runs": config.runs}
        else:
            label = (f"scenario ({config.samples} samples x "
                     f"{config.runs_per_sample} trials)")
            size = {"trials": len(steps)}
    avg = average_step_length(steps)
    if avg <= 0:
        raise UsageError("average step length is zero; estimators undefined")
    steps_to_cross = expected_steps_to_cross(layout.zone0_span, avg)
    lines = [
        f"source: {label}",
        f"average step length: {avg:.2f}",
        f"zone0 span: {layout.zone0_span}",
        f"expected steps to cross (span / avg step): {steps_to_cross:.2f}",
    ]
    doc = {
        "source": f"dataset {dataset.id}" if dataset else "scenario",
        **size,
        "avg_step": avg,
        "zone0_span": layout.zone0_span,
        "expected_steps_to_cross": steps_to_cross,
    }
    if source.kind == "independent":
        if dataset is None:
            total, max_step = source.total, config.sampler.max_step
        else:
            total = _replay(source, layout)[0]
            max_step = (args.max_step if args.max_step is not None
                        else dataset.max_step)
        report = EstimateReport(
            avg, steps_to_cross,
            expected_crossings(len(steps), layout.zone0_span, avg),
            total.mn0_handover)
        lines += _crossing_lines(report, total, layout, max_step, doc)
    elif dataset is not None:
        run = _replay(source, layout)[2]
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
        total, runs = source.total, source.parts
        mean_taken = fmean(run.steps_taken for run in runs)
        fraction = total.simultaneous / total.trials
        timed_out = sum(1 for run in runs if run.timed_out)
        lines += [
            f"observed mean steps to first crossing: {mean_taken:.2f}",
            f"simultaneous handover fraction: {fraction:.3f}",
            f"timed out: {timed_out} of {config.runs}",
        ]
        doc.update(
            observed_mean_steps=mean_taken,
            simultaneous_fraction=fraction,
            timed_out=timed_out,
            tally=total.as_dict(),
        )
    if args.format == "json":
        if dataset is not None and dataset.notes:
            doc["notes"] = list(dataset.notes)
        sys.stdout.write(write_json(doc))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
        _print_notes(dataset)
    return 0


def _crossing_lines(
    report: EstimateReport, total: Tally, layout: ZoneLayout,
    max_step: int | None, doc: dict,
) -> list[str]:
    """Expected against observed crossings of independent trials.

    Adds the same numbers to ``doc``. The exact probability is skipped when
    no step bound is known; its label still reads "(enumeration)": the
    golden outputs pin it, and the closed form gives the same fractions.
    """
    trials = total.trials
    lines = [f"expected crossings over {trials} trials: "
             f"{report.expected_crossings:.2f}"]
    doc["expected_crossings"] = report.expected_crossings
    if max_step is None:
        lines.append("exact crossing probability: unavailable (no --max-step)")
    else:
        exact = doc["exact_probability"] = _exact_doc(layout, max_step)
        analytic = doc["analytic_expected_crossings"] = {
            node: trials * p["value"] for node, p in exact.items()}
        lines += [
            "exact crossing probability (enumeration):",
            *(f"  node {n}: {p['fraction']} = {p['value']:.6f}"
              for n, p in enumerate(exact.values())),
            "expected crossings (trials x probability): "
            f"node 0 {analytic['node0']:.2f}, node 1 {analytic['node1']:.2f}",
        ]
    comparison = compare(report, total)
    doc["observed"] = total.as_dict()
    doc["comparison"] = asdict(comparison)
    return lines + [
        f"observed: mn0 handover {total.mn0_handover}, mn1 handover "
        f"{total.mn1_handover}, simultaneous {total.simultaneous}, "
        f"overlap events {total.overlap_events}",
        f"estimator vs observed overlap events: {comparison.expected:.2f} "
        f"vs {comparison.observed}, diff {comparison.absolute_difference:.2f} "
        f"({comparison.relative_difference:.1%})",
    ]


# -- plot -------------------------------------------------------------------


def _cmd_plot(args: argparse.Namespace) -> int:
    source = _resolve_source(args, ("dataset", "input", "scenario", "config"))
    if not (source.records or source.parts):
        raise UsageError("no records to plot")
    if args.brink is not None:
        brink = args.brink
    elif source.layout is not None:
        brink = source.layout.brink
    else:
        raise UsageError("this input carries no zone layout; supply --brink")
    text = _plot_text(source, brink, args.ascii)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0
