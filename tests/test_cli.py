import collections
import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from math import fsum
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simulmob.cli import main
from simulmob.datasets import DATASET_IDS, load_dataset
from simulmob.model import MoveRecord
from simulmob.sampling import Pcg32
from simulmob.scenarios import config_to_dict, preset
from simulmob.stats import METRIC_LABELS
from simulmob.traceio import CSV_HEADER, parse_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ROWS_CSV = str(Path(__file__).resolve().parent / "golden" / "rows.csv")
LAYOUT_2 = ("--zone0", "50:99", "--zone1", "101:150", "--brink", "100")


class TestSimulate:
    def test_table_has_samples_and_mean_row(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "2", "--seed", "7")
        assert code == 0
        lines = out.splitlines()
        for label in METRIC_LABELS:
            assert label in lines[0]
        assert len(lines) == 32  # header + 30 samples + mean
        assert lines[-1].lstrip().startswith("mean")

    def test_preset2_step_bound_warning_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "2", "--seed", "7")
        assert code == 0
        assert "warning" in err
        assert "step range" in err
        assert "warning" not in out

    def test_byte_identical_runs(self, capsys):
        first = run_cli(capsys, "simulate", "--scenario", "1", "--seed", "3")
        second = run_cli(capsys, "simulate", "--scenario", "1", "--seed", "3")
        assert first == second

    def test_seeds_differ(self, capsys):
        _, out_a, _ = run_cli(
            capsys, "simulate", "--scenario", "1", "--seed", "3")
        _, out_b, _ = run_cli(
            capsys, "simulate", "--scenario", "1", "--seed", "4")
        assert out_a != out_b

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "1", "--seed", "3",
            "--format", "csv", "--samples", "2", "--runs", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,mn0_init,mn0_new,mn1_init,mn1_new,outcome"
        assert len(lines) == 7

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "1", "--seed", "3",
            "--format", "json", "--samples", "2", "--runs", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["sampler"]["seed"] == 3
        assert len(doc["samples"]) == 2
        assert doc["total"]["trials"] == 6
        assert "estimate" in doc

    def test_trace_file_grammar(self, capsys, tmp_path):
        trace = tmp_path / "walk.tr"
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", "3", "--seed", "7",
            "--trace", str(trace))
        assert code == 0
        text = trace.read_text(encoding="utf-8")
        records = parse_trace(text)
        assert records
        # Node 1's line precedes node 0's within each move.
        assert text.splitlines()[0].startswith("M 0.00100 1 ")

    def test_sequential_table_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "3", "--seed", "7")
        assert code == 0
        assert "mean steps to first crossing" in out
        assert "timed out: 0 of 30" in out

    def test_custom_config_file(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_dict(preset(2, seed=7))), encoding="utf-8")
        _, out_file, _ = run_cli(capsys, "simulate", "--config", str(path))
        _, out_preset, _ = run_cli(
            capsys, "simulate", "--scenario", "2", "--seed", "7")
        assert out_file == out_preset

    def test_seed_flag_overrides_config_file(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_dict(preset(2, seed=7))), encoding="utf-8")
        _, out_override, _ = run_cli(
            capsys, "simulate", "--config", str(path), "--seed", "8")
        _, out_preset, _ = run_cli(
            capsys, "simulate", "--scenario", "2", "--seed", "8")
        assert out_override == out_preset

    def test_zone_overrides(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "1", "--seed", "1",
            "--zone0", "0:99", "--zone1", "201:300", "--brink", "150",
            "--max-step", "10", "--samples", "1", "--runs", "5")
        assert code == 0
        assert err == ""  # narrow step range: no warning


class TestSimulateErrors:
    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "9")
        assert code == 2
        assert "unknown scenario" in err

    def test_scenario_and_config_together(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", "1", "--config", str(path))
        assert code == 2

    def test_neither_scenario_nor_config(self, capsys):
        code, _, _ = run_cli(capsys, "simulate")
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--config", "/no/such.json")
        assert code == 1

    def test_malformed_config_json(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2

    def test_config_that_is_not_text(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config {path} is not a JSON document: ")

    def test_config_with_an_over_long_integer(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"runs_per_sample": ' + "1" * 4301 + "}",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config {path} is not a JSON document: ")

    def test_config_with_a_bom(self, capsys, tmp_path):
        text = json.dumps(config_to_dict(preset(2, seed=7)))
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        expected = run_cli(capsys, "simulate", "--config", str(plain))
        assert run_cli(capsys, "simulate", "--config", str(bom)) == expected
        assert expected[0] == 0

    def test_mixed_shape_config(self, capsys, tmp_path):
        doc = config_to_dict(preset(3))
        doc["samples"] = 3
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize("scenario", [2, 3])
    def test_config_file_must_be_valid_on_its_own(self, capsys, tmp_path,
                                                  scenario):
        # A flag overrides a valid value; it does not mend an invalid one.
        doc = config_to_dict(preset(scenario))
        doc["sampler"]["seed"] = -1
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(path), "--seed", "3")
        assert (code, out) == (2, "")
        assert err == "error: seed must be a 64-bit unsigned integer, got -1\n"

    def test_first_fault_is_the_seed(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "2",
                               "--seed", "-1", "--runs", "0")
        assert code == 2
        assert err == "error: seed must be a 64-bit unsigned integer, got -1\n"

    def test_samples_flag_on_sequential(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", "3", "--samples", "4")
        assert code == 2
        assert "--samples" in err

    # Every output format, on both subcommands that write a trace: stdout is
    # streamed only after the trace is written.
    REPORTS = [(*source, "--format", fmt)
               for source in (("simulate", "--scenario", "3", "--seed", "1"),
                              ("simulate", "--scenario", "2", "--runs", "3",
                               "--samples", "2"),
                              ("replay", "--dataset", "table-5"))
               for fmt in ("table", "csv", "json")]

    def test_unwritable_trace_path(self, capsys, tmp_path):
        path = tmp_path / "missing_dir" / "x.tr"
        for argv in self.REPORTS:
            code, out, _ = run_cli(capsys, *argv, "--trace", str(path))
            assert (code, out) == (1, ""), argv

    def test_plot_flags_are_plot_subcommand_only(self, capsys, tmp_path):
        # argparse's usage text differs across Python versions; its
        # "unrecognized arguments" does not.
        for argv in (("simulate", "--scenario", "2", "--runs", "1",
                      "--samples", "1", "--plot", str(tmp_path / "p.svg")),
                     ("replay", "--dataset", "table-5", "--ascii")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "unrecognized arguments" in err, argv
        assert list(tmp_path.iterdir()) == []

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_invalid_zone_syntax(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", "1", "--zone0", "axb")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--scenario", "2", "--max-step", str(2**32)),
        ("--scenario", "3", "--max-step", str(2**32)),
        ("--scenario", "2", "--zone0", f"0:{2**32}",
         "--zone1", f"{2**32 + 2}:{2**32 + 9}", "--brink", str(2**32 + 1)),
    ])
    def test_range_wider_than_a_draw(self, capsys, monkeypatch, argv):
        # Such a range once hung in Pcg32.randint; it must fail before any
        # draw, with exit 2 and a one-line message.
        def refuse(self):
            raise AssertionError("drew from the generator")

        monkeypatch.setattr(Pcg32, "_next_u32", refuse)
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSeedEnvIgnored:
    """A seeded run's output depends only on its argv and the files it names."""

    @pytest.mark.parametrize("value", ["5", "not-a-number"])
    def test_environment_seed_changes_nothing(self, capsys, monkeypatch, value):
        config = str(Path(__file__).resolve().parent / "golden"
                     / "independent.json")
        for argv in (
            ("simulate", "--scenario", "1", "--runs", "3", "--samples", "2"),
            ("simulate", "--config", config),
            ("estimate", "--scenario", "2"),
            ("plot", "--scenario", "3", "--ascii"),
        ):
            monkeypatch.delenv("SIMULMOB_SEED", raising=False)
            unset = run_cli(capsys, *argv)
            assert unset[0] == 0, argv
            monkeypatch.setenv("SIMULMOB_SEED", value)
            assert run_cli(capsys, *argv) == unset, argv


class TestReplay:
    def test_table5_diff(self, capsys):
        code, out, _ = run_cli(capsys, "replay", "--dataset", "table-5")
        assert code == 0
        assert "MN_0 handover" in out
        assert "published" in out
        assert "*" in out  # the no-overlap row differs
        assert "notes:" in out

    def test_table6_summary(self, capsys):
        code, out, _ = run_cli(capsys, "replay", "--dataset", "table-6")
        assert code == 0
        assert "simultaneous_overlap at step 11" in out
        assert "(289, 221)" in out

    def test_walk_without_crossing_summary(self, capsys, monkeypatch):
        import simulmob.datasets as datasets

        dataset = load_dataset("table-6")
        cut = dataset._replace(rows=dataset.rows[:5])
        # ``cli`` imports ``load_dataset`` when a dataset is named.
        monkeypatch.setattr(datasets, "load_dataset", lambda _id: cut)
        code, out, _ = run_cli(capsys, "replay", "--dataset", "table-6")
        assert code == 0
        assert "no_overlap at step 5 (ended without crossing)" in out
        code, out, _ = run_cli(
            capsys, "replay", "--dataset", "table-6", "--format", "json")
        doc = json.loads(out)
        assert (doc["terminal"], doc["timed_out"]) == ("no_overlap", False)

    def test_dataset_help_names_every_dataset(self):
        # A literal, so that ``cli`` need not import ``datasets`` to build it.
        from simulmob.cli import _DATASET_HELP

        assert _DATASET_HELP == f"bundled dataset id ({', '.join(DATASET_IDS)})"

    def test_table1_requires_layout(self, capsys):
        code, _, err = run_cli(capsys, "replay", "--dataset", "table-1")
        assert code == 2
        assert "--zone0" in err

    def test_table1_with_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "replay", "--dataset", "table-1",
            "--zone0", "0:37", "--zone1", "39:60", "--brink", "38")
        assert code == 0
        assert "3 rows replayed" in out

    def test_unknown_dataset(self, capsys):
        code, _, err = run_cli(capsys, "replay", "--dataset", "table-9")
        assert code == 2

    def test_dataset_and_input_together(self, capsys):
        code, _, _ = run_cli(
            capsys, "replay", "--dataset", "table-5", "--input", "x.csv")
        assert code == 2

    def test_csv_input_round_trip(self, capsys, tmp_path):
        _, out, _ = run_cli(
            capsys, "replay", "--dataset", "table-5", "--format", "csv")
        path = tmp_path / "rows.csv"
        path.write_text(out, encoding="utf-8")
        code, replayed, _ = run_cli(
            capsys, "replay", "--input", str(path),
            "--zone0", "50:99", "--zone1", "101:150", "--brink", "100")
        assert code == 0
        assert "15" in replayed

    def test_csv_input_with_a_bom(self, capsys, tmp_path, monkeypatch):
        golden = Path(__file__).resolve().parent / "golden"
        (tmp_path / "rows.csv").write_bytes(
            b"\xef\xbb\xbf" + (golden / "rows.csv").read_bytes())
        monkeypatch.chdir(tmp_path)  # the report names the path as given
        code, out, err = run_cli(
            capsys, "replay", "--input", "rows.csv",
            "--zone0", "50:99", "--zone1", "101:150", "--brink", "100")
        assert (code, err) == (0, "")
        assert out.encode() == (golden / "replay-input-table.stdout").read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                        reason="no /dev/stdin on this platform")
    def test_csv_input_from_a_pipe(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        outputs = []
        for path, stdin in ((ROWS_CSV, b""),
                            ("/dev/stdin", Path(ROWS_CSV).read_bytes())):
            proc = subprocess.run(
                [sys.executable, "-m", "simulmob", "replay", "--input", path,
                 *LAYOUT_2, "--format", "csv"],
                input=stdin, capture_output=True, env=env, timeout=60)
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.append(proc.stdout)
        assert outputs[0].startswith(",".join(CSV_HEADER).encode() + b"\n")
        assert outputs[1] == outputs[0]

    def test_malformed_csv_input(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,mn0_init\n1,2\n", encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "replay", "--input", str(path),
            "--zone0", "0:10", "--zone1", "20:30", "--brink", "15")
        assert code == 2

    def test_missing_input_file(self, capsys):
        code, _, _ = run_cli(
            capsys, "replay", "--input", "/no/such.csv",
            "--zone0", "0:10", "--zone1", "20:30", "--brink", "15")
        assert code == 1

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "replay", "--dataset", "table-6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["terminal"] == "simultaneous_overlap"
        assert doc["steps_taken"] == 11
        assert doc["final_positions"] == [289, 221]

    def test_trace_output(self, capsys, tmp_path):
        path = tmp_path / "walk.tr"
        code, _, _ = run_cli(
            capsys, "replay", "--dataset", "table-6", "--trace", str(path))
        assert code == 0
        assert ("M 0.00100 1 (500.00, 00.00), (472.00, 00.00), 28.00"
                in path.read_text(encoding="utf-8"))


class TestEstimate:
    def test_table5_report(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--dataset", "table-5")
        assert code == 0
        assert "average step length: 21.50" in out
        assert "2.28" in out
        assert "13.16" in out
        assert "1/2 = 0.500000" in out

    def test_table3_prints_column_mean(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--dataset", "table-3")
        assert code == 0
        assert "average step length: 21.52" in out
        assert "1/15" in out

    def test_table6_report(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--dataset", "table-6")
        assert code == 0
        assert "observed steps to first crossing: 11" in out

    def test_scenario3_statistics(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate", "--scenario", "3", "--runs", "200",
            "--seed", "1")
        assert code == 0
        mean_line = next(line for line in out.splitlines()
                         if "observed mean steps" in line)
        mean = float(mean_line.rsplit(" ", 1)[1])
        assert 9.5 <= mean <= 11.5

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--dataset", "table-5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["avg_step"] == 21.5
        assert doc["exact_probability"]["node0"]["fraction"] == "1/2"

    def test_table5_comparison(self, capsys):
        # 30 trials of mean step 21.5 over span 49 predict 13.163 crossings;
        # the table has 15 overlap events.
        code, out, _ = run_cli(
            capsys, "estimate", "--dataset", "table-5", "--format", "json")
        assert code == 0
        comparison = json.loads(out)["comparison"]
        assert comparison["observed"] == 15
        assert abs(comparison["expected"] - 13.163) < 0.01
        assert abs(comparison["relative_difference"] - 0.1396) < 0.001

    def test_one_position_zone0_is_undefined(self, capsys):
        argv = ("--scenario", "2", "--zone0", "99:99", "--runs", "2",
                "--samples", "1")
        code, out, err = run_cli(capsys, "estimate", *argv)
        assert (code, out) == (2, "")
        assert err.endswith(
            "error: zone 0 holds one position; estimators undefined\n")
        for fmt in ("table", "csv", "json"):
            code, out, _ = run_cli(capsys, "simulate", *argv, "--format", fmt)
            assert code == 0
        assert json.loads(out)["estimate"] is None

    def test_wide_zones_cost_is_bounded(self, capsys):
        # Two 10^9-wide zones and a 10^6 step bound: a walk of the
        # (init, step) grid would take 10^15 iterations. Node n's nearest
        # init sits at distance d_n from the brink, and inits at distance
        # d <= 10^6 cross on 10^6 + 1 - d steps, so the favorable counts
        # are 1 + 2 + ... + K with K = 10^6 + 1 - d_n.
        width, max_step, brink = 10**9, 10**6, 10**9 + 4
        near = {0: 5, 1: 6}
        code, out, _ = run_cli(
            capsys, "estimate", "--scenario", "2", "--seed", "3",
            "--runs", "5", "--samples", "1", "--max-step", str(max_step),
            "--zone0", f"0:{width - 1}", "--brink", str(brink),
            "--zone1", f"{brink + near[1]}:{brink + near[1] + width - 1}")
        assert code == 0
        assert brink - (width - 1) == near[0]
        for node, d in near.items():
            k = max_step + 1 - d
            p = Fraction(k * (k + 1) // 2, width * (max_step + 1))
            assert f"  node {node}: {p} = {float(p):.6f}\n" in out

    def test_requires_exactly_one_source(self, capsys):
        assert run_cli(capsys, "estimate")[0] == 2
        assert run_cli(capsys, "estimate", "--dataset", "table-5",
                       "--scenario", "1")[0] == 2


# A value in estimate's table: an outcome, an int, a decimal, a fraction or a
# percentage, but not the digit of a name such as "zone0", "mn0" or "node 0".
_VALUE = re.compile(
    r"(?<![\w./])(?<!node )(\w+_overlap|\d+(?:\.\d+)?(?:/\d+)?%?)(?![\w/])")
# Each line of estimate's table with its values blanked to "#", and the
# document keys of those values, in order.
_PRINTS = {
    "average step length: #": ["avg_step"],
    "zone0 span: #": ["zone0_span"],
    "expected steps to cross (span / avg step): #": ["expected_steps_to_cross"],
    "expected crossings over # trials: #": [
        "observed.trials", "expected_crossings"],
    "exact crossing probability: unavailable (no --max-step)": [],
    "exact crossing probability (enumeration):": [],
    **{f"  node {n}: # = #": [f"exact_probability.node{n}.fraction",
                              f"exact_probability.node{n}.value"]
       for n in (0, 1)},
    "expected crossings (trials x probability): node 0 #, node 1 #": [
        "analytic_expected_crossings.node0", "analytic_expected_crossings.node1"],
    "observed: mn0 handover #, mn1 handover #, simultaneous #, "
    "overlap events #": ["observed.mn0_handover", "observed.mn1_handover",
                         "observed.simultaneous", "comparison.observed"],
    "estimator vs observed overlap events: # vs #, diff # (#)": [
        "comparison.expected", "comparison.observed",
        "comparison.absolute_difference", "comparison.relative_difference"],
    "observed steps to first crossing: #": ["observed_steps"],
    "terminal outcome: #": ["terminal"],
    "final positions: (#, #)": ["final_positions.0", "final_positions.1"],
    "observed mean steps to first crossing: #": ["observed_mean_steps"],
    "simultaneous handover fraction: #": ["simultaneous_fraction"],
    "timed out: # of #": ["timed_out", "runs"],
}


def _at(doc, path):
    for key in path.split("."):
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def _printed_as(token, value):
    """Whether ``value`` prints as ``token`` at the token's precision."""
    if isinstance(value, str):
        return value == token
    if token.endswith("%"):
        return f"{value:.{len(token.partition('.')[2]) - 1}%}" == token
    if "." in token:
        return f"{value:.{len(token.partition('.')[2])}f}" == token
    return isinstance(value, int) and str(value) == token


@st.composite
def scenario_argvs(draw, scenarios=("1", "2", "3")):
    """A preset scenario with small counts, any seed and maybe a step bound."""
    scenario = draw(st.sampled_from(scenarios))
    argv = ["--scenario", scenario,
            "--seed", str(draw(st.integers(0, 2**64 - 1))),
            "--runs", str(draw(st.integers(1, 5)))]
    if scenario != "3":
        argv += ["--samples", str(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        max_step = draw(st.sampled_from([0, 1, 2**32 - 1]) | st.integers(0, 120))
        argv += ["--max-step", str(max_step)]
    return argv


# The ``tally`` key of each METRIC_LABELS column of a result table.
COLUMN_KEYS = dict(zip(METRIC_LABELS, (
    "mn0_only", "mn0_handover", "mn1_only", "mn1_handover", "simultaneous",
    "no_overlap", "simultaneous")))


def _cells(line):
    """A table row's cells: they are padded apart by two spaces or more."""
    return re.split(r"\s{2,}", line.strip())


class TestReportMatchesDocument:
    """Each table prints the values of its ``--format json`` document:
    estimate's, simulate's and replay's; and simulate's estimate block holds
    values of ``estimate --format json``. The goldens pin only fixed seeds."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario_argvs())
    def test_scenario_table_prints_the_document(self, capsys, argv):
        self.check_table(capsys, argv)

    @pytest.mark.parametrize("dataset", DATASET_IDS)
    def test_dataset_table_prints_the_document(self, capsys, dataset):
        self.check_table(capsys, ["--dataset", dataset])

    @staticmethod
    def check_table(capsys, argv):
        code, table, _ = run_cli(capsys, "estimate", *argv)
        json_code, out, _ = run_cli(capsys, "estimate", *argv, "--format", "json")
        assert code == json_code
        if code:
            assert table == out == ""
            return
        doc = json.loads(out)
        table, _, notes = table.partition("notes:\n")
        assert notes == "".join(f"  - {note}\n" for note in doc.get("notes", ()))
        label, *lines = table.splitlines()
        assert label.startswith("source: ")
        for line in lines:
            paths = _PRINTS[_VALUE.sub("#", line)]
            tokens = _VALUE.findall(line)
            assert len(tokens) == len(paths)
            for token, path in zip(tokens, paths):
                assert _printed_as(token, _at(doc, path)), (line, path)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario_argvs(scenarios=("1", "2")))
    def test_simulate_block_is_a_projection(self, capsys, argv):
        code, out, _ = run_cli(capsys, "estimate", *argv, "--format", "json")
        sim_code, sim_out, _ = run_cli(capsys, "simulate", *argv,
                                       "--format", "json")
        assert sim_code == 0
        block = json.loads(sim_out)["estimate"]
        if code:
            assert (code, block) == (2, None)
            return
        doc = json.loads(out)
        assert list(block.items()) == [
            ("avg_step", doc["avg_step"]),
            ("expected_steps_to_cross", doc["expected_steps_to_cross"]),
            ("expected_crossings", doc["expected_crossings"]),
            ("observed_crossings", doc["observed"]["mn0_handover"]),
            ("exact_probability", doc["exact_probability"]),
        ]

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario_argvs())
    def test_simulate_table_prints_the_document(self, capsys, argv):
        code, table, _ = run_cli(capsys, "simulate", *argv)
        json_code, out, _ = run_cli(capsys, "simulate", *argv,
                                    "--format", "json")
        assert code == json_code == 0
        doc = json.loads(out)
        header, *rows = (_cells(line) for line in table.splitlines())
        if "samples" in doc:
            assert list(doc)[-1] == "estimate"
            assert header == ["sample", *METRIC_LABELS]
            *rows, mean = rows
            tallies = [s["tally"] for s in doc["samples"]]
            assert [row[0] for row in rows] == [
                str(s["sample"] + 1) for s in doc["samples"]]
            assert [row[1:] for row in rows] == [
                [str(t[key]) for key in COLUMN_KEYS.values()] for t in tallies]
            assert mean == ["mean", *(
                f"{fsum(t[key] for t in tallies) / len(tallies):.2f}"
                for key in COLUMN_KEYS.values())]
            return
        total, runs = doc["tally"], doc["runs"]
        assert header == ["runs", *METRIC_LABELS]
        (row, mean_line, timed_out_line) = rows
        assert row == [str(len(runs)),
                       *(str(total[key]) for key in COLUMN_KEYS.values())]
        assert doc["mean_steps_taken"] == fsum(
            run["steps_taken"] for run in runs) / len(runs)
        assert mean_line == [
            f"mean steps to first crossing: {doc['mean_steps_taken']:.2f}"]
        assert total["no_overlap"] == sum(run["timed_out"] for run in runs)
        assert timed_out_line == [
            f"timed out: {total['no_overlap']} of {total['trials']}"]

    @pytest.mark.parametrize("source", [
        *(("--dataset", dataset, *(("--zone0", "0:37", "--zone1", "39:60",
                                    "--brink", "38")
                                   if dataset == "table-1" else ()))
          for dataset in DATASET_IDS),
        ("--input", ROWS_CSV, *LAYOUT_2),
    ], ids=[*DATASET_IDS, "rows.csv"])
    def test_replay_table_prints_the_document(self, capsys, source):
        code, table, _ = run_cli(capsys, "replay", *source)
        json_code, out, _ = run_cli(capsys, "replay", *source,
                                    "--format", "json")
        assert code == json_code == 0
        doc = json.loads(out)
        table, _, notes = table.partition("notes:\n")
        assert notes == "".join(f"  - {note}\n" for note in doc.get("notes", ()))
        lines = table.splitlines()
        title, rows = doc["dataset"] or doc["input"], len(doc["records"])
        if "terminal" in doc:
            x, y = doc["final_positions"]
            assert lines[:3] == [
                f"dataset {title}: sequential walk, {rows} rows",
                f"terminal outcome: {doc['terminal']} at step "
                f"{doc['steps_taken']} (crossed)",
                f"final positions: ({x}, {y})"]
            lines = lines[3:]
        else:
            assert lines[0] == f"dataset {title}: {rows} rows replayed"
            lines = lines[1:]
        published = doc.get("published_counts")
        assert _cells(lines[0]) == ["metric", "replayed",
                                    *(["published"] if published else [])]
        differs = False
        for (label, key), line in zip(COLUMN_KEYS.items(), lines[1:8],
                                      strict=True):
            ours = doc["tally"][key]
            cells = [label, str(ours)]
            if published:
                theirs = published[label]
                differs |= ours != theirs
                cells += [str(theirs), *(["*"] if ours != theirs else [])]
            assert _cells(line) == cells
        assert lines[8:] == (["* differs from the published count"]
                             if differs else [])


class TestPlot:
    def test_svg_deterministic(self, capsys):
        first = run_cli(capsys, "plot", "--dataset", "table-6")
        second = run_cli(capsys, "plot", "--dataset", "table-6")
        assert first == second
        assert first[1].startswith("<svg ")
        assert "brink 250.00" in first[1]

    def test_ascii_plot(self, capsys):
        code, out, _ = run_cli(
            capsys, "plot", "--dataset", "table-6", "--ascii")
        assert code == 0
        assert "0" in out and "1" in out
        assert "250.0" in out

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "fig.svg"
        code, out, _ = run_cli(
            capsys, "plot", "--dataset", "table-5", "-o", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="utf-8").startswith("<svg ")

    def test_scenario_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "plot", "--scenario", "3", "--seed", "2")
        assert code == 0
        assert out.startswith("<svg ")

    def test_empty_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("step,mn0_init,mn0_new,mn1_init,mn1_new,outcome\n",
                        encoding="utf-8")
        code, _, err = run_cli(
            capsys, "plot", "--input", str(path), "--brink", "100")
        assert code == 2
        assert "no records" in err

    def test_input_requires_brink(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(
            "step,mn0_init,mn0_new,mn1_init,mn1_new\n5,14,19,55,50\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "plot", "--input", str(path))
        assert code == 2

    def test_requires_exactly_one_source(self, capsys):
        assert run_cli(capsys, "plot")[0] == 2


FLAG_VALUES = {"--seed": "1", "--runs": "2", "--samples": "2",
               "--max-step": "30", "--zone0": "40:89", "--zone1": "101:160",
               "--brink": "100"}
# Sources that are not scenarios, and the scenario flags each one reads.
RECORD_SOURCES = [
    ("replay", ("--dataset", "table-6"), {"--zone0", "--zone1", "--brink"}),
    ("replay", ("--input", ROWS_CSV, *LAYOUT_2),
     {"--zone0", "--zone1", "--brink"}),
    ("estimate", ("--dataset", "table-5"),
     {"--zone0", "--zone1", "--brink", "--max-step"}),
    ("estimate", ("--dataset", "table-6"), {"--zone0", "--zone1", "--brink"}),
    ("plot", ("--dataset", "table-5"), {"--brink"}),
    ("plot", ("--input", ROWS_CSV, "--brink", "100"), {"--brink"}),
]


class TestSourceFlags:
    """A dataset or CSV file rejects each scenario flag it does not read."""

    @pytest.mark.parametrize("command,source,reads,flag", [
        pytest.param(command, source, reads, flag,
                     id=f"{command}-{Path(source[1]).name}-{flag[2:]}")
        for command, source, reads in RECORD_SOURCES
        for flag in sorted(FLAG_VALUES)
        # replay has no --seed, --runs, --samples or --max-step option
        if command != "replay" or flag in ("--zone0", "--zone1", "--brink")
    ])
    def test_flag_read_or_rejected(self, capsys, command, source, reads,
                                   flag):
        code, out, err = run_cli(capsys, command, *source, flag,
                                 FLAG_VALUES[flag])
        if flag in reads:
            assert "does not read" not in err
        else:
            assert (code, out) == (2, "")
            assert err == (f"error: {command} {source[0]} {source[1]} "
                           f"does not read {flag}\n")


SCENARIO_FLAGS = ("--scenario", "--config", "--seed", "--runs", "--samples",
                  "--max-step", "--zone0", "--zone1", "--brink")
OUTPUT_FLAGS = ("--format", "--trace", "--step-headers")
# The flags that each subcommand's --help lists, beside -h and --help.
HELP_FLAGS = {
    "simulate": (*SCENARIO_FLAGS, *OUTPUT_FLAGS),
    "replay": ("--dataset", "--input", "--zone0", "--zone1", "--brink",
               *OUTPUT_FLAGS),
    "estimate": ("--dataset", *SCENARIO_FLAGS, "--format"),
    "plot": ("--dataset", "--input", *SCENARIO_FLAGS, "--ascii", "-o",
             "--output"),
}
FLAG = re.compile(r"(?<![\w-])--?[a-z][\w-]*")  # not "STEP-k" or "table-1"


class TestHelp:
    """``--help`` prints the usage and every flag of its parser, with exit 0."""

    def test_top_level(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: simulmob ")
        assert all(command in out for command in HELP_FLAGS)
        assert set(FLAG.findall(out)) == {"-h", "--help"}

    @pytest.mark.parametrize("command", HELP_FLAGS)
    def test_subcommand(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: simulmob {command} ")
        assert set(FLAG.findall(out)) == {"-h", "--help", *HELP_FLAGS[command]}


class TestReplayOnce:
    """A dataset or CSV file is replayed once, by the source resolver, and
    only where the subcommand reads the zone flags."""

    @pytest.mark.parametrize("command", ["replay", "plot"])
    def test_non_utf8_input_is_named(self, capsys, tmp_path, command):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"step,mn0_init,mn0_new,mn1_init,mn1_new\n"
                         b"5,14,19,55,\xff0\n")
        zones = ("--zone0", "0:9", "--zone1", "11:20")
        code, out, err = run_cli(
            capsys, command, "--input", str(path),
            *(zones if command == "replay" else ()), "--brink", "10")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: input {path} is not UTF-8 text: "
                              "'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("source,zones", [
        (("--dataset", "table-6"), ()),
        (("--input", ROWS_CSV), ("--zone0", "50:99", "--zone1", "101:150")),
    ], ids=["table-6", "rows.csv"])
    def test_plot_draws_rows_as_given(self, capsys, source, zones):
        code, out, err = run_cli(
            capsys, "plot", *source, "--brink", "600", "--ascii")
        assert (code, err) == (0, "")
        assert "600.0" in out
        code, out, err = run_cli(
            capsys, "replay", *source, *zones, "--brink", "600")
        assert (code, out) == (2, "")
        assert err.startswith("error: layout must satisfy ")

    @pytest.mark.parametrize("argv,calls", [
        (("replay", "--dataset", "table-5", "--format", "csv"),
         ["replay_independent"]),
        (("replay", "--dataset", "table-6", "--format", "json"),
         ["replay_sequential"]),
        (("estimate", "--dataset", "table-5"), ["replay_independent"]),
        (("estimate", "--dataset", "table-6"), ["replay_sequential"]),
        (("plot", "--dataset", "table-5"), []),
        (("simulate", "--scenario", "2", "--runs", "3", "--samples", "2",
          "--format", "csv"), []),
        (("simulate", "--scenario", "3", "--runs", "3", "--format", "csv"),
         []),
    ])
    def test_one_replay_per_run(self, capsys, monkeypatch, tmp_path, argv,
                                calls):
        import simulmob.cli as cli

        # The CLI decides no outcome: a replayed source is tallied once, in
        # the replay, a scenario's moves by the run that made them, and a
        # written move's outcome is derived by the writer.
        assert not hasattr(cli, "classify")
        called = []
        # The names perfbench's scenarios.replay span wraps.
        for name in ("replay_independent", "replay_sequential"):
            def counted(*args, _name=name, _real=getattr(cli, name)):
                called.append(_name)
                return _real(*args)

            monkeypatch.setattr(cli, name, counted)
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        assert called == calls


PRESET_2_WARNING = (
    b"warning: step range >= zone width: max_step 50 can cross a whole zone "
    b"in one move (narrowest zone holds 50 positions)\n")


class TestClosedStdout:
    """A reader that closes the pipe early ends the run quietly, with exit 0."""

    @pytest.mark.parametrize("argv", [
        ("plot", "--dataset", "table-5"),
        ("replay", "--dataset", "table-5", "--format", "json"),
        ("estimate", "--dataset", "table-6"),
        ("simulate", "--scenario", "2", "--runs", "3", "--samples", "2"),
    ])
    def test_closed_pipe(self, argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "simulmob", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        # No error and no "Exception ignored" at shutdown: preset 2's
        # step-bound warning is the only stderr allowed.
        assert proc.stderr in (b"", PRESET_2_WARNING)

    def test_reader_closes_mid_document(self):
        # The document is about 3.7 MB, written in pieces, so the pipe breaks
        # part-way through it.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(
                [sys.executable, "-m", "simulmob", "simulate", "--scenario", "2",
                 "--runs", "20000", "--samples", "1", "--format", "json"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert stderr in (b"", PRESET_2_WARNING)


class TestNoRecordsForTables:
    """Table and estimate output are tallies, and record output (CSV, JSON,
    trace) of a scenario or a CSV file passes its moves as rows: none of
    them builds a MoveRecord. Only a row that fails its check does, to
    raise its message."""

    @pytest.fixture(autouse=True)
    def _no_records(self, monkeypatch):
        # A record is built, and checked, in ``__new__``.
        def refuse(cls, *args, **kwargs):
            raise AssertionError("MoveRecord built")

        monkeypatch.setattr(MoveRecord, "__new__", refuse)

    @pytest.mark.parametrize("argv", [
        ("simulate", "--scenario", "2"),
        ("simulate", "--scenario", "3"),
        ("estimate", "--scenario", "2"),
    ])
    def test_tally_outputs(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--seed", "5", "--format", "table")
        assert code == 0
        assert out

    @pytest.mark.parametrize("source", [
        ("simulate", "--scenario", "2", "--runs", "50", "--samples", "2"),
        ("simulate", "--scenario", "3", "--runs", "20"),
        ("replay", "--input", ROWS_CSV, *LAYOUT_2),
    ], ids=["trials", "walks", "csv-input"])
    @pytest.mark.parametrize("output", [
        ("--format", "csv"), ("--format", "json"), ("--trace", "{tmp}/t.tr"),
    ], ids=["csv", "json", "trace"])
    def test_record_outputs(self, capsys, tmp_path, source, output):
        argv = [*source, *(arg.replace("{tmp}", str(tmp_path)) for arg in output)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out
        if "--trace" in argv:
            assert (tmp_path / "t.tr").read_text(encoding="utf-8")

    def test_patch_is_live(self, capsys, tmp_path):
        path = tmp_path / "broken.csv"
        rows = Path(ROWS_CSV).read_text(encoding="utf-8").splitlines()
        rows[3] = "5,14,20,55,50,no_overlap"  # MN_0 moved 6, not 5
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(AssertionError, match="MoveRecord built"):
            run_cli(capsys, "replay", "--input", str(path), *LAYOUT_2)


class TestRedrawOnce:
    """A scenario draws each sample or walk once for its counts. Each record
    output (CSV, JSON, trace) and each plot redraws each one once more, and
    keeps none of its moves; a plot of a walk redraws only walk 0."""

    @pytest.fixture
    def passes(self, monkeypatch):
        import simulmob.scenarios as scenarios

        counted = collections.Counter()
        sample_draws, walks = scenarios._sample_draws, scenarios._walks

        def count_sample(sampler, k, runs):
            counted[k] += 1
            return sample_draws(sampler, k, runs)

        def count_walks(config, first, stop):
            for j, walk in zip(range(first, stop), walks(config, first, stop)):
                counted[j] += 1
                yield walk

        monkeypatch.setattr(scenarios, "_sample_draws", count_sample)
        monkeypatch.setattr(scenarios, "_walks", count_walks)
        return counted

    @pytest.mark.parametrize("argv,passes_per_part", [
        (("simulate", "--scenario", "2", "--samples", "3"), [1, 1, 1]),
        (("estimate", "--scenario", "2", "--samples", "3"), [1, 1, 1]),
        (("simulate", "--scenario", "3"), [1, 1, 1, 1]),
        (("estimate", "--scenario", "3"), [1, 1, 1, 1]),
        (("simulate", "--scenario", "2", "--samples", "3", "--format", "csv",
          "--trace", "{tmp}/t.tr"), [3, 3, 3]),
        (("simulate", "--scenario", "2", "--samples", "3", "--format", "json",
          "--trace", "{tmp}/t.tr"), [3, 3, 3]),
        (("simulate", "--scenario", "3", "--format", "csv",
          "--trace", "{tmp}/t.tr"), [3, 3, 3, 3]),
        (("simulate", "--scenario", "3", "--format", "json"), [2, 2, 2, 2]),
        (("plot", "--scenario", "3"), [2, 1, 1, 1]),
    ])
    def test_passes(self, capsys, tmp_path, passes, argv, passes_per_part):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code, out, _ = run_cli(capsys, *argv, "--runs", "4")
        assert code == 0 and out
        assert [passes[j] for j in range(len(passes))] == passes_per_part


class _Discard(io.TextIOBase):
    """A stdout that drops what it is given, so only the program's own
    memory is measured."""

    def write(self, text: str) -> int:
        return len(text)


class TestRecordOutputMemory:
    """Record output keeps no move: its heap peak stays under 1 MiB and does
    not grow with the run.

    Never run at full size: each output renders its pieces of 1,024 moves
    from the moves as they are redrawn, so the peak of 10,000 trials (2,000
    walks) is that of 30,000 trials (6,000 walks) and of 300,000 (50,000).
    On top of the 17.5 MB of RSS a one-trial ``simulate`` peaks at (CPython
    3.11), such a run stays well under CI's 30 MB bound. When every record
    was cached until exit, 30,000 trials peaked at 3.8 MB of heap and 6,000
    walks at 11 MB.
    """

    TRIALS = ("--scenario", "2", "--samples", "1")

    @pytest.mark.parametrize("argv,runs", [
        ((*TRIALS, "--format", "csv"), (10_000, 30_000)),
        ((*TRIALS, "--format", "json"), (10_000, 30_000)),
        ((*TRIALS, "--trace", "{tmp}/t.tr"), (10_000, 30_000)),
        (("--scenario", "3", "--format", "json"), (2_000, 6_000)),
        (("--scenario", "3", "--format", "csv"), (2_000, 6_000)),
    ], ids=["trials-csv", "trials-json", "trials-trace", "walks-json", "walks-csv"])
    def test_peak_is_bounded(self, tmp_path, argv, runs):
        argv = ["simulate", *(arg.replace("{tmp}", str(tmp_path)) for arg in argv)]

        def run(n: int) -> None:
            with contextlib.redirect_stdout(_Discard()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main([*argv, "--runs", str(n)]) == 0

        run(runs[0])  # imports and first-use caches are not the output's
        peaks = []
        for n in runs:
            tracemalloc.start()
            try:
                run(n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2**20, peaks
        assert peaks[1] < peaks[0] + 64 * 2**10, peaks


GOLDEN = Path(__file__).resolve().parent / "golden"
_ints = st.integers(-3, 300) | st.sampled_from(
    [2**32 - 1, 2**32, 2**40, -2**40, 10**400, -10**400])
# Each subcommand's source options and other options; value strategies, or
# None for a switch. "{tmp}" is a scratch directory. ``--runs`` is left out:
# it is appended, at most 5, wherever a scenario may run, so together with
# ``--samples`` at most 5 no run draws more than 150 trials or walks more
# than five capped walks. A dataset or CSV file rejects ``--runs``, so it is
# left off their argv.
SOURCES = {
    "--scenario": st.sampled_from(["1", "2", "3", "1", "2", "3", "0", "x"]),
    "--config": st.sampled_from(["independent.json", "sequential.json",
                                 "rows.csv", "missing.json", "{tmp}"]),
    "--dataset": st.sampled_from(["table-1", "table-3", "table-5", "table-6",
                                  "table-9"]),
    "--input": st.sampled_from(["rows.csv", "rows.csv", "empty.csv",
                                "independent.json", "missing.csv"]),
}
OPTIONS = {
    "--seed": _ints.map(str),
    "--samples": st.integers(-1, 5).map(str),
    "--max-step": _ints.map(str),
    "--format": st.sampled_from(["table", "csv", "json", "svg"]),
    "--trace": st.sampled_from(["{tmp}/out.tr", "{tmp}"]),
    "--output": st.sampled_from(["{tmp}/fig.svg", "{tmp}"]),
    "--step-headers": None,
    "--ascii": None,
}
_SCENARIO = ("--seed", "--samples", "--max-step")
_OUTPUT = ("--format", "--trace", "--step-headers")
GRAMMAR = {
    "simulate": (("--scenario", "--config"), _SCENARIO + _OUTPUT),
    "replay": (("--dataset", "--input"), _OUTPUT),
    "estimate": (("--dataset", "--scenario", "--config"),
                 _SCENARIO + ("--format",)),
    "plot": (("--dataset", "--input", "--scenario", "--config"),
             _SCENARIO + ("--ascii", "--output")),
}


@st.composite
def layout_flags(draw):
    """--zone0/--zone1/--brink, mostly an ordered layout, sometimes not."""
    cuts = sorted(draw(st.lists(_ints, min_size=5, max_size=5)))
    if draw(st.integers(0, 3)) == 0:
        cuts = draw(st.permutations(cuts))
    zone0, brink, zone1 = f"{cuts[0]}:{cuts[1]}", str(cuts[2]), f"{cuts[3]}:{cuts[4]}"
    if draw(st.integers(0, 7)) == 0:
        zone0 = draw(st.sampled_from(["", ":", "5", "a:b", "1:2:3"]))
    flags = [f"--zone0={zone0}", f"--brink={brink}", f"--zone1={zone1}"]
    return draw(st.lists(st.sampled_from(flags), max_size=3))


@st.composite
def argvs(draw):
    """One subcommand with its real options, values often out of range."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    sources, options = GRAMMAR[command]
    argv = [command]
    flags = [draw(st.sampled_from(sources))]
    if draw(st.integers(0, 5)) == 0:  # none, or two sources
        flags = draw(st.lists(st.sampled_from(sources), max_size=2))
    flags += draw(st.lists(st.sampled_from(options), max_size=4))
    # simulate and replay reject --step-headers without --trace; mostly add
    # the trace, so success stays reachable.
    if command in ("simulate", "replay"):
        if ("--step-headers" in flags and "--trace" not in flags
                and draw(st.integers(0, 3))):
            flags.append("--trace")
    for flag in flags:
        strategy = SOURCES.get(flag, OPTIONS.get(flag))
        argv += [flag] if strategy is None else [flag, draw(strategy)]
    argv += draw(layout_flags())
    if command != "replay" and not {"--dataset", "--input"} & set(flags):
        argv += ["--runs", draw(st.sampled_from("123451230-"))]
    return argv


_NINES = "9" * 400
_ROWS = {  # one row each: (mn0_init, mn1_init), both held still
    "huge.csv": (10**400, 10**400),
    "span.csv": (-int(1.5e308), int(1.5e308)),
    "pad.csv": (0, int(1.75e308)),
}


class TestMagnitudeLimit:
    """Plots and span estimators refuse a value of 1e300 or more with one
    ``error:`` line and exit 2, before any output is written."""

    @pytest.mark.parametrize("argv", [
        ("plot", "--dataset", "table-5", "--brink", _NINES, "--ascii"),
        ("plot", "--input", "{tmp}/huge.csv", "--brink", "3"),
        ("plot", "--input", "{tmp}/huge.csv", "--brink", "3", "--ascii"),
        ("plot", "--input", "{tmp}/span.csv", "--brink", "0", "--ascii"),
        ("plot", "--input", "{tmp}/span.csv", "--brink", "0"),
        ("plot", "--input", "{tmp}/pad.csv", "--brink", "0"),
        ("estimate", "--dataset", "table-5", f"--zone0=-{_NINES}:99"),
        ("estimate", "--dataset", "table-6", f"--zone0=-{_NINES}:99"),
        ("estimate", "--dataset", "table-1", f"--zone0=-{_NINES}:99",
         "--brink", "100", "--zone1", "101:200"),
        ("estimate", "--dataset", "table-5", f"--zone0=-{_NINES}:99",
         "--format", "json"),
    ])
    def test_refused(self, capsys, tmp_path, argv):
        for name, (p0, p1) in _ROWS.items():
            (tmp_path / name).write_text(
                f"{','.join(CSV_HEADER[:5])}\n0,{p0},{p0},{p1},{p1}\n",
                encoding="utf-8")
        code, out, err = run_cli(
            capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1e+300" in err
        assert not (tmp_path / "p.svg").exists()

    def test_just_below_the_limit(self, capsys):
        below = str(10**299)
        code, out, _ = run_cli(
            capsys, "plot", "--dataset", "table-5", "--brink", below)
        assert code == 0
        assert "nan" not in out and "inf" not in out
        code, _, _ = run_cli(capsys, "plot", "--dataset", "table-5",
                             "--brink", f"-{below}", "--ascii")
        assert code == 0
        code, _, _ = run_cli(capsys, "estimate", "--dataset", "table-5",
                             f"--zone0=-{below}:99")
        assert code == 0


class TestArgvFuzz:
    """``main`` answers any argv with exit 0, 1 or 2 and no traceback."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argvs())
    def test_exit_codes(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [arg.replace("{tmp}", tmp) for arg in argv]
            argv = [str(GOLDEN / arg) if (GOLDEN / arg).suffix in (".csv", ".json")
                    else arg for arg in argv]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()

    def test_deeply_nested_config(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        for command in ("simulate", "estimate", "plot"):
            code, out, err = run_cli(capsys, command, "--config", str(path))
            assert code == 2
            assert out == ""
            assert err == f"error: config {path} nests too deeply\n"

    def test_csv_field_over_the_csv_module_limit(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("step,mn0_init,mn0_new,mn1_init,mn1_new\n"
                        + "9" * 200_000 + ",1,2,3,4\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "replay", "--input", str(path), "--zone0", "0:9",
            "--zone1", "11:20", "--brink", "10")
        assert code == 2
        assert out == ""
        assert err == "error: line 2: field larger than field limit (131072)\n"

def check_run(argv: list[str]) -> None:
    """Run ``main``; only its exit code and stderr lines say how it ended.

    The exit code is 0, 1 or 2. A failure leaves stdout empty and ends
    stderr with its one ``error:`` line; a success writes only warnings.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), argv
    if code:
        assert out.getvalue() == "", argv
        assert [n for n, line in enumerate(lines) if line.startswith("error: ")] \
            == [len(lines) - 1], (argv, lines)
    else:
        assert all(line.startswith("warning: ") for line in lines), (argv, lines)


_CELLS = st.sampled_from([str(10**400), str(-10**400), "-7", '"5"', "+5",
                          "1_0", "\u0662\u0660", "", "5.0", " 5", "x"])


@st.composite
def csv_texts(draw):
    """A record CSV, valid or edited: huge, negative, quoted, signed or
    non-ASCII cells, wrong field counts, blank rows, a BOM, CRLF endings."""
    outcome = draw(st.booleans())
    offset = draw(st.sampled_from([0, 0, -500, 10**400, -10**400]))
    rows = [list(CSV_HEADER if outcome else CSV_HEADER[:5])]
    for rec in draw(st.lists(st.builds(
            MoveRecord.from_inits, st.integers(-50, 250),
            st.integers(-50, 250), st.integers(0, 60)), max_size=5)):
        rows.append([str(rec.step)] + [
            str(v + offset) for v in (rec.mn0_init, rec.mn0_new, rec.mn1_init,
                                      rec.mn1_new)]
            + (["no_overlap"] if outcome else []))
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        edit = draw(st.sampled_from(["cell", "cell", "drop", "extra", "blank"]))
        if edit == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_CELLS)
        elif edit == "drop" and row:
            row.pop()
        elif edit == "extra":
            row.append(draw(_CELLS))
        elif edit == "blank":
            rows.insert(draw(st.integers(1, len(rows))), [])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + "".join(",".join(row) + newline for row in rows)


_LAYOUT = {"zone0_lo": 0, "zone0_hi": 99, "zone1_lo": 101, "zone1_hi": 200,
           "brink": 100}
CONFIGS = (
    {"sampler": {"seed": 3, "max_step": 20, "layout": _LAYOUT},
     "runs_per_sample": 4, "samples": 2},
    {"sampler": {"seed": 5, "max_step": 30, "layout": _LAYOUT},
     "mn0_start": 10, "mn1_start": 160, "runs": 3, "max_steps_cap": 50},
)
# The run counts and the step cap only ever take small or invalid values,
# so no fuzzed config runs long.
_COUNTS = {"runs_per_sample", "samples", "runs", "max_steps_cap"}
_WRONG_TYPES = st.sampled_from(["5", 5.5, True, None, [], {}, [5]])
_VALUES = (st.integers(-300, 300) | _WRONG_TYPES | st.sampled_from(
    [10**400, -10**400, 2**32 - 1, 2**32, 2**64]))


def _paths(doc: dict, prefix: tuple = ()):
    """The key path of every value in ``doc``, nested objects included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _parent(doc: dict, path: tuple) -> dict:
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def config_docs(draw):
    """A scenario config, valid or edited: wrong JSON types, huge and
    negative numbers, dropped, unknown and mixed-shape keys, and layouts
    moved by 10**400."""
    doc = copy.deepcopy(draw(st.sampled_from(CONFIGS)))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        edit = draw(st.sampled_from(
            ["set", "set", "drop", "unknown", "mixed", "offset"]))
        if edit in ("set", "drop") and paths:
            path = draw(st.sampled_from(paths))
            counted = path[-1] in _COUNTS
            if edit == "set":
                _parent(doc, path)[path[-1]] = draw(
                    st.integers(-2, 5) | _WRONG_TYPES if counted else _VALUES)
            elif not counted:
                del _parent(doc, path)[path[-1]]
        elif edit == "unknown":
            target = draw(st.sampled_from(
                [doc] + [v for v in doc.values() if isinstance(v, dict)]))
            target["colour"] = 1
        elif edit == "mixed":
            doc.update({"samples": 2} if "runs" in doc else {"mn0_start": 10})
        elif edit == "offset":
            shift = draw(st.sampled_from([10**400, -10**400]))
            sampler = doc.get("sampler")
            layout = sampler.get("layout") if isinstance(sampler, dict) else None
            for target, keys in ((layout, _LAYOUT), (doc, ("mn0_start", "mn1_start"))):
                for key in keys:
                    if isinstance(target, dict) and type(target.get(key)) is int:
                        target[key] += shift
    return doc


class TestFileFuzz:
    """``main`` answers any CSV or config file content the same way it
    answers any argv: exit 0, 1 or 2, a typed error, and clean streams."""

    @settings(max_examples=150, deadline=None)
    @given(csv_texts())
    def test_csv_input(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/in.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            layout = ["--zone0", "0:99", "--zone1", "101:200", "--brink", "100"]
            for argv in (
                ["replay", "--input", path, *layout],
                ["replay", "--input", path, *layout, "--format", "json"],
                ["plot", "--input", path, "--brink", "100"],
                ["plot", "--input", path, "--brink", "100", "--ascii"],
            ):
                check_run(argv)

    @settings(max_examples=150, deadline=None)
    @given(config_docs())
    def test_config_file(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/config.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for argv in (
                ["simulate", "--config", path],
                ["simulate", "--config", path, "--format", "json"],
                ["estimate", "--config", path],
                ["estimate", "--config", path, "--format", "json"],
                ["plot", "--config", path, "--ascii"],
            ):
                check_run(argv)

