"""Byte-for-byte golden outputs of seeded CLI runs.

Each case runs ``main(argv)`` in process and compares its stdout, and every
file it writes (trace, plot), with the bytes frozen in ``tests/golden/``.
Regenerate them only for an intended output change, and name it in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from simulmob.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SMALL = ("--seed", "7", "--runs", "4", "--samples", "3")
SEQ_SMALL = ("--seed", "7", "--runs", "4")
LAYOUT_1 = ("--zone0", "0:374", "--zone1", "376:750", "--brink", "375")
ASYM = ("--scenario", "2", "--zone0", "0:4999", "--zone1", "5020:9999",
        "--brink", "5007", "--max-step", "99", "--seed", "7", "--runs", "5",
        "--samples", "1")

# name -> (argv, files the run writes). "{out}" in argv is the written file.
CASES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
for _s in (1, 2, 3):
    _size = SEQ_SMALL if _s == 3 else SMALL
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
    CASES[f"simulate-s{_s}-plot-svg"] = (
        ("simulate", "--scenario", str(_s), *_size, "--plot", "{out}"),
        ("plot",))
    CASES[f"simulate-s{_s}-plot-ascii"] = (
        ("simulate", "--scenario", str(_s), *_size, "--plot", "{out}",
         "--ascii"),
        ("plot",))
    CASES[f"plot-s{_s}-svg"] = (("plot", "--scenario", str(_s), *_size), ())
CASES["simulate-s3-capped-table"] = (
    ("simulate", "--scenario", "3", "--runs", "2", "--max-step", "0"), ())
for _fmt in ("table", "csv", "json"):
    CASES[f"replay-table-6-{_fmt}"] = (
        ("replay", "--dataset", "table-6", "--format", _fmt), ())
    CASES[f"replay-table-5-{_fmt}"] = (
        ("replay", "--dataset", "table-5", "--format", _fmt), ())
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


def run_case(name: str, tmp: Path) -> dict[str, bytes]:
    """Run one case; return its stdout and written files by golden file name."""
    argv, files = CASES[name]
    out_path = tmp / f"{name}.out"
    argv = [a.replace("{out}", str(out_path)) for a in argv]
    stdout = io.StringIO()
    env_seed = os.environ.pop("SIMULMOB_SEED", None)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        if env_seed is not None:
            os.environ["SIMULMOB_SEED"] = env_seed
    assert code == 0, f"{name}: exit {code}"
    outputs = {f"{name}.stdout": stdout.getvalue().encode()}
    for kind in files:
        outputs[f"{name}.{kind}"] = out_path.read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    for filename, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / filename).read_bytes(), filename


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            for filename, data in run_case(name, Path(tmp)).items():
                (GOLDEN / filename).write_bytes(data)
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
