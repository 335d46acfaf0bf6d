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
from dataclasses import dataclass, replace
from functools import cached_property
from statistics import fmean
from typing import Callable, Sequence

from .datasets import DATASET_IDS, ReplayDataset, load_dataset
from .model import MoveRecord, Outcome, ZoneLayout
from .plotting import MAGNITUDE_LIMIT, render_ascii, render_svg
from .sampling import SamplerConfig, validate
from .scenarios import (
    IndependentTrialConfig,
    SampleResult,
    SequentialConfig,
    SequentialRun,
    Walks,
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
    Tally,
    average_step_length,
    exact_crossing_probability,
    expected_crossings,
    expected_steps_to_cross,
    tally,
)
from .traceio import JsonRecords, format_trace, read_csv, write_csv, write_json

_DATASET_HELP = f"bundled dataset id ({', '.join(DATASET_IDS)})"
_LAYOUT_FLAGS = ("zone0", "zone1", "brink")
_SCENARIO_FLAGS = ("seed", "runs", "samples", "max_step", *_LAYOUT_FLAGS)


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
                     help="RNG seed (default: the scenario's own)")
    sub.add_argument("--runs", type=int, metavar="N",
                     help="override runs per sample (or sequential run count)")
    sub.add_argument("--samples", type=int, metavar="N",
                     help="override sample count (independent shape only)")
    sub.add_argument("--max-step", type=int, metavar="N",
                     help="inclusive upper bound for drawn step lengths")
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
    simulate.set_defaults(handler=_cmd_simulate)
    _add_scenario_flags(simulate)
    _add_output_flags(simulate)

    replay = sub.add_parser("replay", help="re-classify recorded moves")
    replay.set_defaults(handler=_cmd_replay)
    replay.add_argument("--dataset", metavar="ID", help=_DATASET_HELP)
    replay.add_argument("--input", metavar="PATH", help="CSV record file")
    _add_layout_flags(replay)
    _add_output_flags(replay)

    estimate = sub.add_parser(
        "estimate", help="print crossing estimators vs observations")
    estimate.set_defaults(handler=_cmd_estimate)
    estimate.add_argument("--dataset", metavar="ID", help=_DATASET_HELP)
    _add_scenario_flags(estimate)
    estimate.add_argument("--format", choices=("table", "json"),
                          default="table", help="stdout report format")

    plot = sub.add_parser("plot", help="render position series")
    plot.set_defaults(handler=_cmd_plot)
    plot.add_argument("--dataset", metavar="ID", help=_DATASET_HELP)
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
    try:
        args.handler(args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # A reader that stops early is no failure. Python flushes stdout again
        # at exit, so point it at devnull (the Python docs' note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OSError) else 2


# -- shared helpers ---------------------------------------------------------


def _layout_from_flags(
    args: argparse.Namespace, base: ZoneLayout | None
) -> ZoneLayout:
    """Merge --zone0/--zone1/--brink over an optional base layout."""
    own = (((base.zone0_lo, base.zone0_hi), (base.zone1_lo, base.zone1_hi),
            base.brink) if base else (None, None, None))
    zone0, zone1, brink = merged = [
        value if value is not None else default
        for value, default in zip((args.zone0, args.zone1, args.brink), own)]
    missing = [f"--{flag}" for flag, value in zip(_LAYOUT_FLAGS, merged)
               if value is None]
    if missing:
        raise UsageError(
            "this input carries no zone layout; supply " + ", ".join(missing))
    return ZoneLayout(*zone0, *zone1, brink)


def _scenario_config(
    args: argparse.Namespace,
) -> IndependentTrialConfig | SequentialConfig:
    """The preset or config file's scenario, with the flags applied over it."""
    if args.scenario is not None:
        config = preset(args.scenario)
    else:
        with open(args.config, encoding="utf-8-sig") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise UsageError(
                    f"config {args.config} nests too deeply") from None
            except ValueError as exc:  # not JSON, not UTF-8, or an int too long
                raise UsageError(
                    f"config {args.config} is not a JSON document: {exc}"
                ) from None
        config = config_from_dict(doc)
    base = config.sampler
    sampler = SamplerConfig(
        args.seed if args.seed is not None else base.seed,
        args.max_step if args.max_step is not None else base.max_step,
        _layout_from_flags(args, base.layout))
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


def _notes_text(doc: dict) -> str:
    """The dataset notes a result document carries, as a table footer."""
    notes = doc.get("notes")
    return "".join(["notes:\n", *(f"  - {n}\n" for n in notes)]) if notes else ""


# -- sources ----------------------------------------------------------------


@dataclass(frozen=True)
class Source:
    """One resolved input: a bundled dataset, a CSV file or a scenario run.

    ``kind`` is the mobility shape, "independent" or "sequential". A dataset
    or CSV file carries its ``records`` and its own ``layout``, if any; a
    replayed one carries the merged ``layout``, the ``total`` tally and each
    row's ``outcomes``, which a walk takes from its replayed run, carried as
    ``parts``. A scenario carries its ``config`` (overrides applied), the
    samples or :class:`Walks` it ran (``parts``, which keep counts and sums
    and redraw their moves on access) and their ``total`` tally; it draws no
    move again until :attr:`drawn` or :meth:`moves` asks for them.
    """

    kind: str
    layout: ZoneLayout | None
    title: str
    dataset: ReplayDataset | None = None
    records: Sequence[MoveRecord] | None = None
    config: IndependentTrialConfig | SequentialConfig | None = None
    parts: Sequence[SampleResult | SequentialRun] = ()
    total: Tally | None = None
    outcomes: Sequence[Outcome] | None = None

    @cached_property
    def drawn(self) -> Sequence[SampleResult | SequentialRun]:
        """``parts``, each sample or walk redrawn once for every output."""
        return list(self.parts)

    def moves(self) -> Sequence[MoveRecord]:
        """Every move record, in order."""
        if self.records is not None:
            return self.records
        return [rec for part in self.drawn for rec in part.records]


# The scenario flags a dataset or CSV file reads, by subcommand, for
# (independent rows, a sequential walk); any other one given with it is
# rejected. A scenario reads them all.
_RECORDS_READ = {
    "replay": (_LAYOUT_FLAGS, _LAYOUT_FLAGS),
    "estimate": ((*_LAYOUT_FLAGS, "max_step"), _LAYOUT_FLAGS),
    "plot": (("brink",), ("brink",)),
}


def _resolve_source(args: argparse.Namespace, flags: Sequence[str]) -> Source:
    """Load, or resolve and run, the one input named by one of ``flags``.

    ``flags`` are the subcommand's source options (``dataset``, ``input``,
    ``scenario``, ``config``); exactly one must be given. A scenario's
    warnings are printed before it runs. A dataset or CSV file rejects the
    scenario flags it does not read; ``replay`` and ``estimate`` get it
    replayed under the merged layout, ``plot`` gets its rows as given.
    """
    given = [flag for flag in flags if getattr(args, flag) is not None]
    if len(given) != 1:
        names = [f"--{flag}" for flag in flags]
        raise UsageError(f"exactly one of {', '.join(names[:-1])} or "
                         f"{names[-1]} is required")
    if given in (["scenario"], ["config"]):
        config = _scenario_config(args)
        for warning in validate(config.sampler):
            print(f"warning: {warning}", file=sys.stderr)
        title = (f"scenario {args.scenario}" if args.scenario is not None
                 else "custom scenario")
        sequential = isinstance(config, SequentialConfig)
        if sequential:
            total, parts = run_sequential_scenario(config)
        else:
            parts = run_independent_scenario(config)
            total = sum((part.tally for part in parts), Tally())
        return Source("sequential" if sequential else "independent",
                      config.sampler.layout, title, config=config,
                      parts=parts, total=total)
    if given == ["dataset"]:
        dataset = load_dataset(args.dataset)
        source = Source(dataset.kind, dataset.layout, dataset.id, dataset,
                        list(dataset.rows))
    else:
        with open(args.input, encoding="utf-8-sig") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise UsageError(
                    f"input {args.input} is not UTF-8 text: {exc}") from None
        source = Source("independent", None, args.input,
                        records=read_csv(text))
    reads = _RECORDS_READ[args.command][source.kind == "sequential"]
    unread = [f"--{flag.replace('_', '-')}" for flag in _SCENARIO_FLAGS
              if flag not in reads and getattr(args, flag, None) is not None]
    if unread:
        raise UsageError(f"{args.command} --{given[0]} {source.title} "
                         f"does not read {', '.join(unread)}")
    if "zone0" not in reads:
        return source
    layout, records = _layout_from_flags(args, source.layout), source.records
    if source.kind == "sequential":
        run = replay_sequential(records, layout)
        return replace(source, layout=layout, parts=(run,),
                       total=tally([run.terminal]), outcomes=run.outcomes)
    total, outcomes = replay_independent(records, layout)
    return replace(source, layout=layout, total=total, outcomes=outcomes)


def _plot_text(args: argparse.Namespace, source: Source) -> str:
    """Plot both nodes' positions after each move, as SVG or with --ascii.

    The brink is --brink, else the source layout's (a merged layout already
    holds --brink). A sequential walk is drawn as a chain from its start
    (its first part, else its rows); independent moves are one point per
    trial or row.
    """
    if not (source.records or source.parts):
        raise UsageError("no records to plot")
    brink = (args.brink if args.brink is not None
             else getattr(source.layout, "brink", None))
    if brink is None:
        raise UsageError("this input carries no zone layout; supply --brink")
    chained = source.kind == "sequential"
    records = (source.parts[0].records if chained and source.parts
               else source.moves())
    mn0 = [rec.mn0_new for rec in records]
    mn1 = [rec.mn1_new for rec in records]
    if chained:
        mn0.insert(0, records[0].mn0_init)
        mn1.insert(0, records[0].mn1_init)
    if args.ascii:
        return render_ascii(mn0, mn1, brink)
    xlabel = "step" if chained else "trial" if source.config else "run"
    return render_svg(mn0, mn1, brink, chained, source.title, xlabel)


def _check_output_switches(args: argparse.Namespace) -> None:
    """Reject --step-headers without --trace and --ascii without --plot."""
    orphans = [f"{switch} needs {option}" for switch, option, given in (
        ("--step-headers", "--trace", args.step_headers and args.trace is None),
        ("--ascii", "--plot", args.ascii and args.plot is None)) if given]
    if orphans:
        raise UsageError("; ".join(orphans))


def _report(
    args: argparse.Namespace, source: Source,
    table: Callable[[], str], doc: Callable[[], dict],
) -> None:
    """Write the --trace and --plot files, then the stdout that --format picks.

    Only the chosen renderer runs, so table output builds no move record.
    CSV output classifies no move: a scenario, which carries no
    ``outcomes``, takes them from its samples or walks. Every text is
    rendered before anything is written, and stdout comes last, so a source
    that cannot be drawn or a file that cannot be written leaves stdout
    empty.
    """
    plot = None if args.plot is None else _plot_text(args, source)
    if args.format == "table":
        text = table()
    elif args.format == "csv":
        outcomes = (source.outcomes if source.outcomes is not None else
                    [o for part in source.drawn for o in part.outcomes])
        text = write_csv(source.moves(), outcomes)
    else:
        text = write_json(doc())
    if args.trace is not None:
        _write_text(args.trace, format_trace(source.moves(), args.step_headers))
    if plot is not None:
        _write_text(args.plot, plot)
    sys.stdout.write(text)


def _walk_summary(walks: Walks) -> tuple[float, int]:
    """Mean steps to first crossing of a batch of walks, and how many timed out.

    ``float(total) / n`` is what ``fmean`` gives: ``fsum(data) / n``, and
    ``fsum`` of ints exact as floats rounds their sum once, as ``float`` does.
    """
    return float(walks.moves) / len(walks), walks.timed_out


# -- simulate ---------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> None:
    _check_output_switches(args)
    source = _resolve_source(args, ("scenario", "config"))
    if source.kind == "sequential":
        table, doc = _sequential_table, _sequential_doc
    else:
        table, doc = _independent_table, _independent_doc
    _report(args, source, lambda: table(source), lambda: doc(source))


def _independent_table(source: Source) -> str:
    results = source.parts
    header = ["sample", *METRIC_LABELS]
    rows = [[str(r.sample + 1), *(str(c) for c in r.tally.columns())]
            for r in results]
    means = [fmean(col) for col in zip(*(r.tally.columns() for r in results))]
    rows.append(["mean", *(f"{m:.2f}" for m in means)])
    return _format_table(header, rows)


def _sequential_table(source: Source) -> str:
    total = source.total
    header = ["runs", *METRIC_LABELS]
    rows = [[str(total.trials), *(str(c) for c in total.columns())]]
    mean_taken, timed_out = _walk_summary(source.parts)
    return (
        _format_table(header, rows)
        + f"mean steps to first crossing: {mean_taken:.2f}\n"
        + f"timed out: {timed_out} of {len(source.parts)}\n"
    )


def _independent_doc(source: Source) -> dict:
    config, results = source.config, source.parts
    try:
        full = _estimate_doc(source, config.sampler.max_step)
    except UsageError:
        estimate = None  # undefined estimators are reported as null
    else:
        estimate = {key: full[key] for key in (
            "avg_step", "expected_steps_to_cross", "expected_crossings")}
        estimate.update(observed_crossings=full["observed"]["mn0_handover"],
                        exact_probability=full["exact_probability"])
    return {
        "config": config_to_dict(config),
        "samples": [
            {
                "sample": r.sample,
                "tally": r.tally.as_dict(),
                "records": JsonRecords(r.records, r.outcomes),
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
        "mean_steps_taken": _walk_summary(source.parts)[0],
        "runs": [
            {
                "run": j,
                "terminal": run.terminal.value,
                "steps_taken": run.steps_taken,
                "timed_out": run.timed_out,
                "final_positions": list(run.final_positions),
                "records": JsonRecords(run.records),
            }
            for j, run in enumerate(source.drawn)
        ],
    }


# -- replay -----------------------------------------------------------------


def _cmd_replay(args: argparse.Namespace) -> None:
    _check_output_switches(args)
    source = _resolve_source(args, ("dataset", "input"))
    dataset, run = source.dataset, (source.parts[0] if source.parts else None)
    doc = {"dataset": dataset.id if dataset else None, "input": args.input,
           "tally": source.total.as_dict(),
           "records": JsonRecords(source.records, source.outcomes)}
    if dataset is not None:
        doc["published_counts"] = (
            dict(zip(METRIC_LABELS, dataset.published_counts))
            if dataset.published_counts else None)
        doc["notes"] = list(dataset.notes)
    if run is not None:
        doc.update(terminal=run.terminal.value, steps_taken=run.steps_taken,
                   timed_out=run.timed_out,
                   final_positions=list(run.final_positions))

    _report(args, source, lambda: _replay_table(source, run, doc), lambda: doc)


def _replay_table(source: Source, run: SequentialRun | None, doc: dict) -> str:
    """Replayed counts, beside the published counts and notes in ``doc``."""
    rows_read = len(source.records)
    if run is None:
        text = f"dataset {source.title}: {rows_read} rows replayed\n"
    else:
        # A replayed walk has no step cap, so it never times out.
        state = ("ended without crossing"
                 if run.terminal is Outcome.NO_OVERLAP else "crossed")
        text = (f"dataset {source.title}: sequential walk, {rows_read} rows\n"
                f"terminal outcome: {run.terminal.value} at step "
                f"{run.steps_taken} ({state})\n"
                f"final positions: {run.final_positions}\n")
    published = doc.get("published_counts")
    header = ["metric", "replayed", *(("published", "") if published else ())]
    rows = []
    for label, ours in zip(METRIC_LABELS, source.total.columns()):
        row = [label, str(ours)]
        if published:
            theirs = published[label]
            row += [str(theirs), "*" if ours != theirs else ""]
        rows.append(row)
    text += _format_table(header, rows)
    if any(row[-1] == "*" for row in rows):
        text += "* differs from the published count\n"
    return text + _notes_text(doc)


# -- estimate ---------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> None:
    source = _resolve_source(args, ("dataset", "scenario", "config"))
    dataset, config = source.dataset, source.config
    if dataset is not None:
        label = f"dataset {dataset.id} ({len(dataset.rows)} rows, {dataset.kind})"
        max_step = (args.max_step if args.max_step is not None
                    else dataset.max_step)
    else:
        label = (f"scenario ({config.samples} samples x "
                 f"{config.runs_per_sample} trials)"
                 if source.kind == "independent"
                 else f"scenario ({config.runs} runs, sequential)")
        max_step = config.sampler.max_step
    doc = _estimate_doc(source, max_step)
    sys.stdout.write(write_json(doc) if args.format == "json"
                     else _estimate_text(doc, label))


def _estimate_doc(source: Source, max_step: int | None) -> dict:
    """The span / average-step estimators beside what ``source`` observed.

    Independent trials add the expected crossings, both nodes' exact
    crossing probabilities when ``max_step`` is known, the observed tally
    and the comparison; a walk adds its steps to the first crossing. Raises
    UsageError when the estimators are undefined.
    """
    dataset, total, layout = source.dataset, source.total, source.layout
    independent = source.kind == "independent"
    if dataset is not None:
        avg = average_step_length(dataset.steps)
        doc = {"source": f"dataset {dataset.id}", "rows": len(dataset.rows)}
    elif independent:
        avg = float(sum(part.step_sum for part in source.parts)) / total.trials
        doc = {"source": "scenario", "trials": total.trials}
    else:
        avg = float(source.parts.step_sum) / source.parts.moves
        doc = {"source": "scenario", "runs": source.config.runs}
    if avg <= 0:
        raise UsageError("average step length is zero; estimators undefined")
    span = layout.zone0_span
    if span >= MAGNITUDE_LIMIT:
        raise UsageError(f"zone 0 spans {MAGNITUDE_LIMIT:.0e} positions or "
                         "more; estimators undefined")
    doc.update(avg_step=avg, zone0_span=span,
               expected_steps_to_cross=expected_steps_to_cross(span, avg))
    if independent:
        if span <= 0:
            raise UsageError("zone 0 holds one position; estimators undefined")
        expected = doc["expected_crossings"] = expected_crossings(
            total.trials, span, avg)
        if max_step is not None:
            exact = doc["exact_probability"] = {
                f"node{node}": {"fraction": str(p), "value": float(p)}
                for node in (0, 1)
                for p in [exact_crossing_probability(layout, max_step, node)]}
            doc["analytic_expected_crossings"] = {
                node: total.trials * p["value"] for node, p in exact.items()}
        # expected > 0: the span and the average step both are.
        observed = total.overlap_events
        difference = abs(observed - expected)
        doc["observed"] = total.as_dict()
        doc["comparison"] = {
            "expected": expected,
            "observed": observed,
            "absolute_difference": difference,
            "relative_difference": difference / expected,
        }
    elif dataset is not None:
        run = source.parts[0]
        doc.update(observed_steps=run.steps_taken, terminal=run.terminal.value,
                   final_positions=list(run.final_positions))
    else:
        mean_taken, timed_out = _walk_summary(source.parts)
        doc.update(observed_mean_steps=mean_taken,
                   simultaneous_fraction=total.simultaneous / total.trials,
                   timed_out=timed_out, tally=total.as_dict())
    if dataset is not None and dataset.notes:
        doc["notes"] = list(dataset.notes)
    return doc


def _estimate_text(doc: dict, label: str) -> str:
    """The ``estimate`` table: the values of ``doc``, under ``label``.

    The exact probability is skipped when no step bound is known; its label
    still reads "(enumeration)": the golden outputs pin it, and the closed
    form gives the same fractions.
    """
    lines = [
        f"source: {label}",
        f"average step length: {doc['avg_step']:.2f}",
        f"zone0 span: {doc['zone0_span']}",
        "expected steps to cross (span / avg step): "
        f"{doc['expected_steps_to_cross']:.2f}",
    ]
    if "comparison" in doc:
        observed, comparison = doc["observed"], doc["comparison"]
        expected, events = comparison["expected"], comparison["observed"]
        lines.append(f"expected crossings over {observed['trials']} trials: "
                     f"{expected:.2f}")
        exact = doc.get("exact_probability")
        if exact is None:
            lines.append("exact crossing probability: unavailable (no --max-step)")
        else:
            analytic = doc["analytic_expected_crossings"]
            lines += [
                "exact crossing probability (enumeration):",
                *(f"  node {n}: {p['fraction']} = {p['value']:.6f}"
                  for n, p in enumerate(exact.values())),
                "expected crossings (trials x probability): "
                f"node 0 {analytic['node0']:.2f}, node 1 {analytic['node1']:.2f}",
            ]
        lines += [
            f"observed: mn0 handover {observed['mn0_handover']}, mn1 handover "
            f"{observed['mn1_handover']}, simultaneous "
            f"{observed['simultaneous']}, overlap events {events}",
            f"estimator vs observed overlap events: {expected:.2f} vs {events}, "
            f"diff {comparison['absolute_difference']:.2f} "
            f"({comparison['relative_difference']:.1%})",
        ]
    elif "observed_steps" in doc:
        lines += [
            f"observed steps to first crossing: {doc['observed_steps']}",
            f"terminal outcome: {doc['terminal']}",
            f"final positions: {tuple(doc['final_positions'])}",
        ]
    else:
        lines += [
            "observed mean steps to first crossing: "
            f"{doc['observed_mean_steps']:.2f}",
            f"simultaneous handover fraction: {doc['simultaneous_fraction']:.3f}",
            f"timed out: {doc['timed_out']} of {doc['runs']}",
        ]
    return "\n".join(lines) + "\n" + _notes_text(doc)


# -- plot -------------------------------------------------------------------


def _cmd_plot(args: argparse.Namespace) -> None:
    source = _resolve_source(args, ("dataset", "input", "scenario", "config"))
    text = _plot_text(args, source)
    if args.output is not None:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
