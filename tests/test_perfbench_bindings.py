"""The names ``perfbench``'s traced mode binds in simulmob still exist.

``perfbench/traced.py`` patches functions where ``simulmob.cli`` and
``simulmob.scenarios`` bind them, reads fields off their results, and
imports more names from ``simulmob`` for its micro-probes. Only
``run.py --trace 1`` runs that code, so a rename in ``src/`` would
otherwise break the benchmark without failing a test.
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
