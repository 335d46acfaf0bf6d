"""Byte-for-byte golden outputs of seeded CLI runs.

Each case runs ``main(argv)`` in process, from inside ``tests/golden/`` so
the input files in ``FIXTURES`` are named by relative paths (the replay
header and the SVG title print them). It compares the exit code, stdout,
stderr when it is not empty, and every file the run writes (a trace, or a
plot's ``-o`` file) with the bytes frozen in ``tests/golden/``. Regenerate
them only for an intended output change, and name it in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from simulmob import traceio
from simulmob.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SMALL = ("--seed", "7", "--runs", "4", "--samples", "3")
SEQ_SMALL = ("--seed", "7", "--runs", "4")
LAYOUT_1 = ("--zone0", "0:374", "--zone1", "376:750", "--brink", "375")
LAYOUT_2 = ("--zone0", "50:99", "--zone1", "101:150", "--brink", "100")
# Inputs read by the cases; regenerating keeps them.
FIXTURES = ("rows.csv", "empty.csv", "independent.json", "sequential.json")
ASYM = ("--scenario", "2", "--zone0", "0:4999", "--zone1", "5020:9999",
        "--brink", "5007", "--max-step", "99", "--seed", "7", "--runs", "5",
        "--samples", "1")

# name -> (argv, files the run writes). "{out}" in argv is the written file.
CASES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
for _s in (1, 2, 3):
    _size = SEQ_SMALL if _s == 3 else SMALL
    CASES[f"plot-s{_s}-svg"] = (("plot", "--scenario", str(_s), *_size), ())
    CASES[f"plot-s{_s}-ascii"] = (
        ("plot", "--scenario", str(_s), *_size, "--ascii"), ())
    for _fmt in ("table", "csv", "json"):
        CASES[f"simulate-s{_s}-{_fmt}"] = (
            ("simulate", "--scenario", str(_s), *_size, "--format", _fmt), ())
    for _fmt in ("table", "json"):
        CASES[f"estimate-s{_s}-{_fmt}"] = (
            ("estimate", "--scenario", str(_s), "--seed", "7", "--format", _fmt),
            ())
for _s in (2, 3):
    _size = SEQ_SMALL if _s == 3 else SMALL
    CASES[f"simulate-s{_s}-trace"] = (
        ("simulate", "--scenario", str(_s), *_size, "--trace", "{out}"),
        ("trace",))
    CASES[f"simulate-s{_s}-trace-headers"] = (
        ("simulate", "--scenario", str(_s), *_size, "--trace", "{out}",
         "--step-headers"),
        ("trace",))
CASES["simulate-s3-capped-table"] = (
    ("simulate", "--scenario", "3", "--runs", "2", "--max-step", "0"), ())
for _fmt in ("table", "csv", "json"):
    CASES[f"replay-table-6-{_fmt}"] = (
        ("replay", "--dataset", "table-6", "--format", _fmt), ())
    CASES[f"replay-table-5-{_fmt}"] = (
        ("replay", "--dataset", "table-5", "--format", _fmt), ())
CASES["replay-table-3-table"] = (("replay", "--dataset", "table-3"), ())
CASES["replay-table-1-table"] = (
    ("replay", "--dataset", "table-1", *LAYOUT_1), ())
CASES["replay-table-6-trace"] = (
    ("replay", "--dataset", "table-6", "--trace", "{out}", "--step-headers"),
    ("trace",))
for _ds in ("table-3", "table-5", "table-6"):
    CASES[f"estimate-{_ds}-json"] = (
        ("estimate", "--dataset", _ds, "--format", "json"), ())
# The preset layouts are brink-symmetric, so both nodes share one crossing
# probability; this layout is not, so node 0 and node 1 differ.
for _fmt in ("table", "json"):
    CASES[f"estimate-asym-{_fmt}"] = (
        ("estimate", *ASYM, "--format", _fmt), ())
CASES["simulate-asym-json"] = (("simulate", *ASYM, "--format", "json"), ())

# Every source each subcommand accepts: CSV input, layout-less table-1,
# config files of both shapes, and plots of datasets and inputs.
for _fmt in ("table", "csv", "json"):
    CASES[f"replay-input-{_fmt}"] = (
        ("replay", "--input", "rows.csv", *LAYOUT_2, "--format", _fmt), ())
    for _shape in ("independent", "sequential"):
        CASES[f"simulate-config-{_shape}-{_fmt}"] = (
            ("simulate", "--config", f"{_shape}.json", "--format", _fmt), ())
CASES["replay-input-trace"] = (
    ("replay", "--input", "rows.csv", *LAYOUT_2, "--trace", "{out}"),
    ("trace",))
for _fmt in ("csv", "json"):
    CASES[f"replay-table-1-{_fmt}"] = (
        ("replay", "--dataset", "table-1", *LAYOUT_1, "--format", _fmt), ())
for _ds in ("table-3", "table-5", "table-6"):
    CASES[f"plot-{_ds}-svg"] = (("plot", "--dataset", _ds), ())
    CASES[f"plot-{_ds}-ascii"] = (("plot", "--dataset", _ds, "--ascii"), ())
CASES["plot-table-1-brink"] = (
    ("plot", "--dataset", "table-1", "--brink", "30"), ())
CASES["plot-input-svg"] = (("plot", "--input", "rows.csv", "--brink", "100"), ())
CASES["plot-input-ascii"] = (
    ("plot", "--input", "rows.csv", "--brink", "100", "--ascii"), ())
CASES["plot-input-file"] = (
    ("plot", "--input", "rows.csv", "--brink", "100", "-o", "{out}"),
    ("plot",))
CASES["plot-config-sequential"] = (
    ("plot", "--config", "sequential.json"), ())
CASES["plot-config-independent-ascii"] = (
    ("plot", "--config", "independent.json", "--ascii"), ())
CASES["estimate-table-1-table"] = (
    ("estimate", "--dataset", "table-1", *LAYOUT_1), ())
for _ds in ("table-3", "table-5", "table-6"):
    CASES[f"estimate-{_ds}-table"] = (("estimate", "--dataset", _ds), ())
CASES["estimate-table-5-max-step"] = (
    ("estimate", "--dataset", "table-5", "--max-step", "30"), ())
CASES["estimate-table-5-layout-json"] = (
    ("estimate", "--dataset", "table-5", "--brink", "90", "--zone0", "40:89",
     "--format", "json"), ())
for _shape in ("independent", "sequential"):
    for _fmt in ("table", "json"):
        CASES[f"estimate-config-{_shape}-{_fmt}"] = (
            ("estimate", "--config", f"{_shape}.json", "--format", _fmt), ())
# Zone 0 holds one position, so the coarse estimators are undefined and the
# JSON "estimate" block is null.
CASES["simulate-one-position-zone0-json"] = (
    ("simulate", "--scenario", "2", "--zone0", "99:99", "--runs", "2",
     "--samples", "1", "--format", "json"), ())

# Rejected inputs: name -> (argv, exit code). Their stderr is pinned like
# stdout.
ERRORS = {
    "error-simulate-no-source": (("simulate",), 2),
    "error-simulate-two-sources": (
        ("simulate", "--scenario", "1", "--config", "independent.json"), 2),
    "error-replay-no-source": (("replay",), 2),
    "error-replay-two-sources": (
        ("replay", "--dataset", "table-5", "--input", "rows.csv"), 2),
    "error-estimate-no-source": (("estimate",), 2),
    "error-estimate-two-sources": (
        ("estimate", "--dataset", "table-5", "--scenario", "1"), 2),
    "error-plot-no-source": (("plot",), 2),
    "error-plot-two-sources": (
        ("plot", "--input", "rows.csv", "--config", "sequential.json"), 2),
    "error-replay-input-no-layout": (("replay", "--input", "rows.csv"), 2),
    "error-replay-input-brink-only": (
        ("replay", "--input", "rows.csv", "--brink", "100"), 2),
    "error-replay-table-1-no-layout": (("replay", "--dataset", "table-1"), 2),
    "error-replay-table-6-chain": (
        ("replay", "--dataset", "table-6", "--zone0", "0:149", "--brink", "150"),
        2),
    "error-replay-missing-input": (("replay", "--input", "missing.csv"), 1),
    "error-estimate-table-1-no-layout": (
        ("estimate", "--dataset", "table-1", "--brink", "30"), 2),
    "error-estimate-zero-step": (
        ("estimate", "--scenario", "2", "--max-step", "0"), 2),
    "error-plot-input-no-brink": (("plot", "--input", "rows.csv"), 2),
    "error-plot-table-1-no-brink": (("plot", "--dataset", "table-1"), 2),
    "error-plot-empty-input": (("plot", "--input", "empty.csv"), 2),
    "error-plot-unknown-dataset": (("plot", "--dataset", "table-9"), 2),
    "error-simulate-missing-config": (
        ("simulate", "--config", "missing.json"), 1),
    "error-simulate-sequential-samples": (
        ("simulate", "--scenario", "3", "--samples", "2"), 2),
    "error-simulate-config-not-json": (("simulate", "--config", "rows.csv"), 2),
    # A broken layout gives the same error for either shape.
    "error-simulate-s2-broken-layout": (
        ("simulate", "--scenario", "2", "--zone0", "300:5"), 2),
    "error-simulate-s3-broken-layout": (
        ("simulate", "--scenario", "3", "--zone0", "300:5"), 2),
    # A scenario flag that a dataset or CSV file does not read.
    "error-estimate-dataset-scenario-flags": (
        ("estimate", "--dataset", "table-5", "--runs", "3", "--samples", "2",
         "--seed", "9"), 2),
    "error-estimate-table-6-max-step": (
        ("estimate", "--dataset", "table-6", "--max-step", "30"), 2),
    "error-replay-dataset-max-step": (
        ("replay", "--dataset", "table-5", "--max-step", "30"), 2),
    "error-plot-dataset-zones": (
        ("plot", "--dataset", "table-5", "--zone0", "0:10", "--zone1",
         "900:901"), 2),
    "error-plot-input-seed": (
        ("plot", "--input", "rows.csv", "--brink", "100", "--seed", "3"), 2),
    # An output switch without the option whose file it shapes.
    "error-simulate-switches-without-files": (
        ("simulate", "--scenario", "1", "--runs", "2", "--samples", "1",
         "--step-headers"), 2),
    "error-replay-step-headers-without-trace": (
        ("replay", "--dataset", "table-6", "--step-headers"), 2),
    # An empty output path is given, and cannot be opened.
    "error-simulate-empty-trace": (
        ("simulate", "--scenario", "2", "--runs", "1", "--samples", "1",
         "--trace", ""), 1),
    "error-simulate-empty-trace-step-headers": (
        ("simulate", "--scenario", "2", "--runs", "1", "--samples", "1",
         "--trace", "", "--step-headers"), 1),
    "error-plot-empty-output": (("plot", "--dataset", "table-5", "-o", ""), 1),
}
for _name, (_argv, _) in ERRORS.items():
    CASES[_name] = (_argv, ())


def run_case(name: str, tmp: Path) -> dict[str, bytes]:
    """Run one case; return its stdout and written files by golden file name."""
    argv, files = CASES[name]
    out_path = tmp / f"{name}.out"
    argv = [a.replace("{out}", str(out_path)) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    try:
        os.chdir(GOLDEN)
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == ERRORS.get(name, ((), 0))[1], f"{name}: exit {code}"
    outputs = {f"{name}.stdout": stdout.getvalue().encode()}
    if stderr.getvalue():
        outputs[f"{name}.stderr"] = stderr.getvalue().encode()
    for kind in files:
        outputs[f"{name}.{kind}"] = out_path.read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    outputs = run_case(name, tmp_path)
    assert (GOLDEN / f"{name}.stderr").exists() == (f"{name}.stderr" in outputs)
    for filename, data in outputs.items():
        assert data == (GOLDEN / filename).read_bytes(), filename


# The cases that write moves as CSV, JSON or a trace.
RECORD_CASES = sorted(
    name for name, (argv, files) in CASES.items()
    if name not in ERRORS and argv[0] != "estimate"
    and ("trace" in files or "csv" in argv or "json" in argv))


@pytest.mark.parametrize("name", RECORD_CASES)
def test_golden_in_pieces_of_two_moves(name, tmp_path, monkeypatch):
    # A writer's pieces end inside every record list, and still give the
    # golden bytes.
    monkeypatch.setattr(traceio, "_CHUNK", 2)
    test_golden(name, tmp_path)


def regenerate() -> None:
    """Run every case into memory, then replace the golden files, so a case
    that raises leaves them all as they were."""
    outputs: dict[str, bytes] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            outputs.update(run_case(name, Path(tmp)))
    for stale in GOLDEN.iterdir():
        if stale.name not in FIXTURES and stale.name not in outputs:
            stale.unlink()
    for filename, data in outputs.items():
        (GOLDEN / filename).write_bytes(data)
    print(f"wrote {len(outputs)} files to {GOLDEN}", file=sys.stderr)


def test_regenerate_keeps_every_file_when_a_case_raises(tmp_path, monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    before = {path.name: path.read_bytes() for path in golden.iterdir()}
    module, real_run_case = sys.modules[__name__], run_case

    def run_or_raise(name: str, tmp: Path) -> dict[str, bytes]:
        if name == "simulate-s2-json":
            raise RuntimeError("case failed")
        return real_run_case(name, tmp)

    # The failing case sorts after one that runs, and before one that does not.
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(module, "CASES", {
        name: CASES[name] for name in
        ("simulate-s1-json", "simulate-s2-json", "simulate-s3-json")})
    monkeypatch.setattr(module, "run_case", run_or_raise)
    with pytest.raises(RuntimeError, match="case failed"):
        regenerate()
    assert {path.name: path.read_bytes() for path in golden.iterdir()} == before


if __name__ == "__main__":
    regenerate()
