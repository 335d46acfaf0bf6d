"""Seedable two-node simultaneous-mobility simulator.

Two mobile nodes walk toward each other on the x axis with one shared,
randomly drawn step length per move; moves are classified by whether either
node touched or passed the boundary plane between their zones. The package
runs the scenarios, replays bundled reference datasets, computes the
crossing estimators, and emits traces, CSV/JSON, and plots.

``import simulmob`` loads no submodule. Each public name's module is
imported when the name is first used (PEP 562), so ``import
simulmob.traceio`` loads only ``simulmob.model`` beside it.
"""

from importlib import import_module

# Each public name, by the submodule that defines it.
_HOME = {name: module for module, names in {
    "datasets": "DATASET_IDS ReplayDataset load_dataset",
    "model": "MOVE_INTERVAL_S LayoutError MoveRecord Outcome Position "
             "StepLength ZoneLayout classify crossing",
    "sampling": "Pcg32 Sampler SamplerConfig validate",
    "scenarios": "IndependentTrialConfig SampleResult SequentialConfig "
                 "Walks config_from_dict config_to_dict preset "
                 "run_independent_scenario run_independent_trial "
                 "run_sequential_scenario",
    "stats": "METRIC_LABELS SequentialRun Tally average_step_length "
             "exact_crossing_probability expected_crossings "
             "expected_steps_to_cross replay_independent replay_sequential "
             "tally",
    "traceio": "CSV_HEADER CsvFormatError TraceParseError format_trace "
               "parse_trace read_csv write_csv write_json",
}.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """Import the module that defines public ``name``; keep its value here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_HOME[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
