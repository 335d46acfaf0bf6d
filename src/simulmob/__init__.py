"""Seedable two-node simultaneous-mobility simulator.

Two mobile nodes walk toward each other on the x axis with one shared,
randomly drawn step length per move; moves are classified by whether either
node touched or passed the boundary plane between their zones. The package
runs the scenarios, replays bundled reference datasets, computes the
crossing estimators, and emits traces, CSV/JSON, and plots.
"""

from .datasets import DATASET_IDS, ReplayDataset, load_dataset
from .model import (
    MOVE_INTERVAL_S,
    LayoutError,
    MoveRecord,
    Outcome,
    Position,
    StepLength,
    ZoneLayout,
    classify,
    crossing,
    mn0_crossed,
    mn1_crossed,
)
from .sampling import Pcg32, Sampler, SamplerConfig, validate
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
    run_independent_trial,
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
from .traceio import (
    CSV_HEADER,
    CsvFormatError,
    TraceLine,
    TraceParseError,
    format_trace,
    format_trace_line,
    parse_trace,
    parse_trace_line,
    read_csv,
    write_csv,
    write_json,
)

__version__ = "0.1.0"

__all__ = [
    "MOVE_INTERVAL_S",
    "METRIC_LABELS",
    "CSV_HEADER",
    "DATASET_IDS",
    "CsvFormatError",
    "IndependentTrialConfig",
    "LayoutError",
    "MoveRecord",
    "Outcome",
    "Pcg32",
    "Position",
    "ReplayDataset",
    "SampleResult",
    "Sampler",
    "SamplerConfig",
    "SequentialConfig",
    "SequentialRun",
    "StepLength",
    "Tally",
    "TraceLine",
    "TraceParseError",
    "Walks",
    "ZoneLayout",
    "average_step_length",
    "classify",
    "config_from_dict",
    "config_to_dict",
    "crossing",
    "exact_crossing_probability",
    "expected_crossings",
    "expected_steps_to_cross",
    "format_trace",
    "format_trace_line",
    "load_dataset",
    "mn0_crossed",
    "mn1_crossed",
    "parse_trace",
    "parse_trace_line",
    "preset",
    "read_csv",
    "replay_independent",
    "replay_sequential",
    "run_independent_scenario",
    "run_independent_trial",
    "run_sequential_scenario",
    "tally",
    "validate",
    "write_csv",
    "write_json",
]
