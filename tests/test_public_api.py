"""The package's public names: each export is deliberate and resolves."""

import simulmob

PUBLIC = [
    "CSV_HEADER", "CsvFormatError", "DATASET_IDS", "IndependentTrialConfig",
    "LayoutError", "METRIC_LABELS", "MOVE_INTERVAL_S", "MoveRecord", "Outcome",
    "Pcg32", "Position", "ReplayDataset", "SampleResult", "Sampler",
    "SamplerConfig", "SequentialConfig", "SequentialRun", "StepLength", "Tally",
    "TraceParseError", "Walks", "ZoneLayout", "average_step_length", "classify",
    "config_from_dict", "config_to_dict", "crossing",
    "exact_crossing_probability", "expected_crossings",
    "expected_steps_to_cross", "format_trace", "load_dataset", "parse_trace",
    "preset", "read_csv", "replay_independent", "replay_sequential",
    "run_independent_scenario", "run_independent_trial",
    "run_sequential_scenario", "tally", "validate", "write_csv", "write_json",
]


def test_all_lists_the_public_names():
    assert sorted(simulmob.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [name for name in simulmob.__all__ if not hasattr(simulmob, name)] == []
