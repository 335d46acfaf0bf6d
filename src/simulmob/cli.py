"""Command-line entry point.

Subcommands: ``simulate`` runs a preset or a JSON-configured scenario,
``replay`` re-classifies a bundled or user-supplied record set, ``estimate``
prints the step-length estimators next to observed counts, and ``plot``
renders position series as SVG or ASCII.

Exit codes: 0 success, 1 I/O failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from importlib import import_module
from itertools import chain
from math import fsum

from .model import MAGNITUDE_LIMIT, JsonRecords, Outcome, Row, ZoneLayout
from .stats import (
    METRIC_KEYS,
    METRIC_LABELS,
    SequentialRun,
    Tally,
    average_step_length,
    exact_crossing_probability,
    expected_crossings,
    expected_steps_to_cross,
    replay_independent,
    replay_sequential,
    tally,
)

# The names loaded on first use, by the module that defines each: only a
# scenario run loads ``sampling`` and ``scenarios``, and only record output
# or a CSV input loads ``traceio`` (and with it ``csv`` or ``json``).
# ``datasets`` and ``plotting`` load on the paths that use them.
_LAZY = {name: module for module, names in {
    "sampling": "SamplerConfig validate",
    "scenarios": "IndependentTrialConfig SequentialConfig config_from_dict "
                 "config_to_dict preset run_independent_scenario "
                 "run_sequential_scenario",
    "traceio": "csv_pieces format_trace json_pieces read_csv trace_pieces "
               "write_json",
}.items() for name in names.split()}
_cli = sys.modules[__name__]
_DATASET_HELP = "bundled dataset id (table-1, table-3, table-5, table-6)"
_LAYOUT_FLAGS = ("zone0", "zone1", "brink")
_SCENARIO_FLAGS = ("seed", "runs", "samples", "max_step", *_LAYOUT_FLAGS)


def __getattr__(name: str) -> object:
    """Import the module that defines ``name`` in ``_LAZY`` on first use;
    keep the value here.

    The commands call these names as ``_cli.name``, through this module,
    so a name rebound on it is the one called: ``perfbench/traced.py``
    wraps the two runners, ``read_csv``, ``write_json`` and
    ``format_trace`` here.
    """
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __package__)
    value = globals()[name] = getattr(module, name)
    return value


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
        config = _cli.preset(args.scenario)
    else:
        import json

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
        config = _cli.config_from_dict(doc)
    base = config.sampler
    sampler = _cli.SamplerConfig(
        args.seed if args.seed is not None else base.seed,
        args.max_step if args.max_step is not None else base.max_step,
        _layout_from_flags(args, base.layout))
    if isinstance(config, _cli.SequentialConfig):
        if args.samples is not None:
            raise UsageError(
                "--samples applies to independent-trial scenarios only")
        runs = args.runs if args.runs is not None else config.runs
        return config._replace(sampler=sampler, runs=runs)
    runs = args.runs if args.runs is not None else config.runs_per_sample
    samples = args.samples if args.samples is not None else config.samples
    return config._replace(
        sampler=sampler, runs_per_sample=runs, samples=samples)


def _write_text(path: str, pieces: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(pieces)


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


class Source(namedtuple(
        "Source", "kind layout title dataset records config parts total",
        defaults=(None, None, None, (), None))):
    """One resolved input: a bundled dataset, a CSV file or a scenario run.

    ``kind`` is the mobility shape, "independent" or "sequential", and
    ``title`` names the input. A bundled ``dataset`` (a ``ReplayDataset``)
    or CSV file carries its ``records`` (rows of five ints) and its own
    ``layout``, if any, and ``plot`` draws it so; for ``replay`` and
    ``estimate`` it is replayed, and carries the merged ``layout``, the
    ``total`` tally and, for a walk, the replayed run as ``parts``. A
    scenario carries its ``config`` (overrides applied), the samples or
    :class:`Walks` it ran (``parts``, which keep counts and sums and redraw
    their moves on access) and their ``total`` tally; it draws no move again
    until :meth:`moves` asks.
    A subcommand reports a source through the one document it builds from
    it: its tables read that document, not the source.
    """

    __slots__ = ()

    def moves(self) -> Iterable[Row]:
        """Every move's row, in order; a scenario's are redrawn per call."""
        if self.records is not None:
            return self.records
        return chain.from_iterable(part.moves() for part in self.parts)


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
        for warning in _cli.validate(config.sampler):
            print(f"warning: {warning}", file=sys.stderr)
        title = (f"scenario {args.scenario}" if args.scenario is not None
                 else "custom scenario")
        sequential = isinstance(config, _cli.SequentialConfig)
        if sequential:
            total, parts = _cli.run_sequential_scenario(config)
        else:
            parts = _cli.run_independent_scenario(config)
            total = sum((part.tally for part in parts), Tally())
        return Source("sequential" if sequential else "independent",
                      config.sampler.layout, title, config=config,
                      parts=parts, total=total)
    if given == ["dataset"]:
        from .datasets import load_dataset

        dataset = load_dataset(args.dataset)
        source = Source(dataset.kind, dataset.layout, dataset.id, dataset,
                        dataset.rows)
    else:
        with open(args.input, encoding="utf-8-sig") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise UsageError(
                    f"input {args.input} is not UTF-8 text: {exc}") from None
        source = Source("independent", None, args.input,
                        records=_cli.read_csv(text))
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
        return source._replace(layout=layout, parts=(run,),
                               total=tally([run.terminal]))
    return source._replace(layout=layout,
                           total=replay_independent(records, layout))


def _check_output_switches(args: argparse.Namespace) -> None:
    """Reject --step-headers without --trace."""
    if args.step_headers and args.trace is None:
        raise UsageError("--step-headers needs --trace")


def _report(
    args: argparse.Namespace, source: Source, doc: dict,
    table: Callable[[dict], str],
) -> None:
    """Write the --trace file, then the stdout that --format picks.

    ``doc`` is the ``--format json`` document, and ``table(doc)`` renders
    the table from its values alone. The document's records are lazy, so
    table output builds no move row. The document is built before this
    is called and the trace is written before stdout, so a document that
    cannot be built or a trace that cannot be opened or written leaves
    stdout empty. Trace, CSV and JSON text goes out in pieces of at most
    1,024 moves, rendered from the moves as they are drawn: each output of
    a scenario redraws its samples or walks, and no output keeps a move.
    """
    if args.format == "table":
        pieces = [table(doc)]
    elif args.format == "csv":
        pieces = _cli.csv_pieces(source.moves(), source.layout.brink)
    else:
        pieces = _cli.json_pieces(doc)
    if args.trace is not None:
        _write_text(args.trace,
                    _cli.trace_pieces(source.moves(), args.step_headers))
    sys.stdout.writelines(pieces)


# -- simulate ---------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> None:
    _check_output_switches(args)
    source = _resolve_source(args, ("scenario", "config"))
    if source.kind == "sequential":
        doc, table = _sequential_doc(source), _sequential_table
    else:
        doc, table = _independent_doc(source), _independent_table
        if args.format == "json":  # so a table loads no ``fractions``
            doc["estimate"] = _estimate_block(source)
    _report(args, source, doc, table)


def _independent_table(doc: dict) -> str:
    counts = [[s["tally"][key] for key in METRIC_KEYS] for s in doc["samples"]]
    rows = [[str(s["sample"] + 1), *map(str, c)]
            for s, c in zip(doc["samples"], counts)]
    means = [fsum(col) / len(col) for col in zip(*counts)]
    rows.append(["mean", *(f"{m:.2f}" for m in means)])
    return _format_table(["sample", *METRIC_LABELS], rows)


def _sequential_table(doc: dict) -> str:
    # A walk ends without crossing only at its step cap.
    total = doc["tally"]
    rows = [[str(total["trials"]), *(str(total[key]) for key in METRIC_KEYS)]]
    return (
        _format_table(["runs", *METRIC_LABELS], rows)
        + f"mean steps to first crossing: {doc['mean_steps_taken']:.2f}\n"
        + f"timed out: {total['no_overlap']} of {total['trials']}\n"
    )


def _independent_doc(source: Source) -> dict:
    """Rendered once only: its record lists are single-use generators."""
    config = source.config
    return {
        "config": _cli.config_to_dict(config),
        "samples": [
            {
                "sample": r.sample,
                "tally": r.tally.as_dict(),
                "records": JsonRecords(r.moves(), config.sampler.layout.brink),
            }
            for r in source.parts
        ],
        "total": source.total.as_dict(),
    }


def _estimate_block(source: Source) -> dict | None:
    """Five values of the ``estimate`` document; None when undefined."""
    try:
        full = _estimate_doc(source, source.config.sampler.max_step)
    except UsageError:
        return None
    block = {key: full[key] for key in (
        "avg_step", "expected_steps_to_cross", "expected_crossings")}
    block.update(observed_crossings=full["observed"]["mn0_handover"],
                 exact_probability=full["exact_probability"])
    return block


def _sequential_doc(source: Source) -> dict:
    """Rendered once only: its runs are a single-use generator."""
    walks = source.parts
    return {
        "config": _cli.config_to_dict(source.config),
        "tally": source.total.as_dict(),
        "mean_steps_taken": float(walks.moves) / len(walks),
        "runs": (
            {"run": j, **_walk_fields(run), "records": JsonRecords(run.moves())}
            for j, run in enumerate(walks)
        ),
    }


def _walk_fields(run: SequentialRun) -> dict:
    """A walk's fields in a simulated or replayed document, in their order."""
    return {"terminal": run.terminal.value, "steps_taken": run.steps_taken,
            "timed_out": run.timed_out,
            "final_positions": list(run.final_positions)}


# -- replay -----------------------------------------------------------------


def _cmd_replay(args: argparse.Namespace) -> None:
    _check_output_switches(args)
    source = _resolve_source(args, ("dataset", "input"))
    dataset, run = source.dataset, (source.parts[0] if source.parts else None)
    doc = {"dataset": dataset.id if dataset else None, "input": args.input,
           "tally": source.total.as_dict(),
           "records": JsonRecords(source.records, source.layout.brink)}
    if dataset is not None:
        doc["published_counts"] = (
            dict(zip(METRIC_LABELS, dataset.published_counts))
            if dataset.published_counts else None)
        doc["notes"] = list(dataset.notes)
    if run is not None:
        doc.update(_walk_fields(run))
    _report(args, source, doc, _replay_table)


def _replay_table(doc: dict) -> str:
    """Replayed counts, beside the published counts and notes in ``doc``."""
    title = doc["dataset"] or doc["input"]
    if "terminal" not in doc:
        text = f"dataset {title}: {doc['tally']['trials']} rows replayed\n"
    else:
        # A replayed walk has no step cap, so it never times out; each row
        # is one step.
        state = ("ended without crossing"
                 if doc["terminal"] == Outcome.NO_OVERLAP.value else "crossed")
        text = (f"dataset {title}: sequential walk, {doc['steps_taken']} rows\n"
                f"terminal outcome: {doc['terminal']} at step "
                f"{doc['steps_taken']} ({state})\n"
                f"final positions: {tuple(doc['final_positions'])}\n")
    published = doc.get("published_counts")
    header = ["metric", "replayed", *(("published", "") if published else ())]
    rows = []
    for label, key in zip(METRIC_LABELS, METRIC_KEYS):
        ours = doc["tally"][key]
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
    sys.stdout.write(_cli.write_json(doc) if args.format == "json"
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
        doc.update(observed_mean_steps=float(source.parts.moves) / total.trials,
                   simultaneous_fraction=total.simultaneous / total.trials,
                   timed_out=total.no_overlap, tally=total.as_dict())
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
    """Plot both nodes' positions after each move, as SVG or with --ascii.

    The brink is --brink, else the source layout's. A sequential walk is
    drawn as a chain from its start (a scenario's first walk, else the
    rows); independent moves are one point per trial or row. The values
    are checked before the output is opened, so a source that cannot be
    drawn writes nothing; the SVG is then written in pieces as it is made.
    """
    from .plotting import render_ascii, render_svg

    source = _resolve_source(args, ("dataset", "input", "scenario", "config"))
    if not (source.records or source.parts):
        raise UsageError("no records to plot")
    brink = (args.brink if args.brink is not None
             else getattr(source.layout, "brink", None))
    if brink is None:
        raise UsageError("this input carries no zone layout; supply --brink")
    chained = source.kind == "sequential"
    mn0, mn1 = [], []
    for _, mn0_init, mn0_new, mn1_init, mn1_new in (
            source.parts[0].moves() if chained and source.parts
            else source.moves()):
        if chained and not mn0:
            mn0.append(mn0_init)
            mn1.append(mn1_init)
        mn0.append(mn0_new)
        mn1.append(mn1_new)
    if args.ascii:
        pieces = [render_ascii(mn0, mn1, brink)]
    else:
        xlabel = "step" if chained else "trial" if source.config else "run"
        pieces = render_svg(mn0, mn1, brink, chained, source.title, xlabel)
    if args.output is not None:
        _write_text(args.output, pieces)
    else:
        sys.stdout.writelines(pieces)
