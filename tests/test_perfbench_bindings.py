"""The names ``perfbench``'s traced mode binds in simulmob still exist.

``perfbench/traced.py`` patches functions where ``simulmob.cli`` and
``simulmob.scenarios`` bind them, reads fields off their results, and
imports more names from ``simulmob`` for its micro-probes. Only
``run.py --trace 1`` runs that code, so a rename in ``src/`` would
otherwise break the benchmark without failing a test. ``cli`` loads its
codec names on first use, so a wrapper bound there must still be the
function that a command calls.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced

    return traced


def test_traced_main_runs_both_shapes(traced, capsys):
    tracer = traced.Tracer()
    inst = traced.Instrumentation(tracer)
    with inst.active(True) as main:
        assert main(["simulate", "--scenario", "2", "--runs", "2",
                     "--samples", "1"]) == 0
        assert main(["simulate", "--scenario", "3", "--runs", "2"]) == 0
    capsys.readouterr()
    counts = {span[3]: span[6] for span in tracer.spans}
    assert counts["scenarios.independent"] == {"trials": 2}
    assert counts["scenarios.sequential"]["moves"] >= 2
    assert "stats.tally" in counts


def test_probes_run(traced, monkeypatch):
    monkeypatch.setattr(traced, "PROBE_CALLS", 1)
    monkeypatch.setattr(traced, "PROBE_REPEATS", 1)
    assert set(traced.probes(0)) == {"randint_ns", "randint_wide_ns",
                                     "record_ns", "classify_ns", "trial_ns"}


def test_traced_read_csv_takes_effect(traced, tmp_path, capsys):
    # ``cli`` calls its codec names through the module, so the wrapper that
    # ``traced.py`` binds there is the one a ``replay --input`` calls.
    from simulmob.traceio import write_csv

    text = write_csv([(3, 10, 13, 20, 17), (5, 11, 16, 19, 14)], 15)
    path = tmp_path / "rows.csv"
    path.write_text(text, encoding="utf-8")
    tracer = traced.Tracer()
    inst = traced.Instrumentation(tracer)
    with inst.active(True) as main:
        assert main(["replay", "--input", str(path), "--zone0", "0:14",
                     "--zone1", "16:30", "--brink", "15",
                     "--format", "json"]) == 0
    capsys.readouterr()
    reads = [span[6] for span in tracer.spans if span[3] == "traceio.read_csv"]
    assert reads == [{"bytes_in": len(text)}]


@pytest.mark.parametrize("name", ["csv_pieces", "format_trace", "json_pieces",
                                  "read_csv", "trace_pieces", "write_json"])
def test_cli_codec_names_are_traceio_names(name):
    from simulmob import cli, traceio

    assert getattr(cli, name) is getattr(traceio, name)


def test_cli_unknown_name_raises_attribute_error():
    from simulmob import cli

    with pytest.raises(AttributeError, match="'simulmob.cli' has no attribute 'nope'"):
        cli.nope
