"""The runtime stays stdlib-only: no declared dependency, no foreign import.

Each entry point also loads only the modules its code path uses.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ["simulmob.cli", "simulmob.datasets", "simulmob.model",
              "simulmob.plotting", "simulmob.sampling", "simulmob.scenarios",
              "simulmob.stats", "simulmob.traceio"]


def loaded_modules(code: str) -> list[str]:
    """The names in ``sys.modules`` of a fresh interpreter after ``code`` ran.

    -I -S: no site-packages and no PYTHONPATH, so a third-party import
    fails here, and every module loaded outside the package is listed.
    -I also ignores PYTHONDONTWRITEBYTECODE; -B keeps the child from
    writing src/simulmob/__pycache__ into the checkout. The names go to
    stderr, after whatever ``code`` writes to stdout.
    """
    child = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        f"{code}\n"
        "import simulmob\n"
        "assert simulmob.__file__.startswith(sys.path[0]), simulmob.__file__\n"
        "print('modules:', *sorted(sys.modules), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", child],
        capture_output=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.rpartition("modules:")[2].split()


def test_pyproject_lists_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []


def test_import_loads_only_stdlib_modules():
    # Every submodule is named: ``import simulmob`` alone loads none.
    out = loaded_modules("from simulmob import *\n"
                         "import simulmob.cli, simulmob.plotting")
    assert [name for name in out if name.startswith("simulmob.")] == SUBMODULES
    foreign = [
        name for name in out
        if name != "__main__"
        and name.split(".")[0] not in (*sys.stdlib_module_names, "simulmob")
    ]
    assert foreign == []


# Modules that no start-up path needs: the value classes are namedtuples,
# and no module evaluates an annotation.
NO_CLASS_BUILDERS = {"dataclasses", "inspect", "typing"}
# The codecs: a table reads no file and writes no record.
CODECS = {"simulmob.traceio", "csv", "json"}
# Modules that the table paths of ``simulate`` and a trace reader never call.
UNUSED_AT_START = {"simulmob.datasets", "simulmob.plotting", "fractions",
                   "decimal", "statistics", *NO_CLASS_BUILDERS, *CODECS}
# ``estimate`` loads ``fractions`` (which imports ``decimal``) for its exact
# probability, and nothing more.
UNUSED_BY_ESTIMATE = UNUSED_AT_START - {"fractions", "decimal"}
# The sampler and scenario code: a dataset or file source draws nothing.
SCENARIO_CODE = {"simulmob.sampling", "simulmob.scenarios"}
# A CSV of two independent trials, and the flags that replay it.
ROWS = ("step,mn0_init,mn0_new,mn1_init,mn1_new\\n"
        "3,10,13,20,17\\n5,11,16,19,14\\n")
LAYOUT = "'--zone0', '0:14', '--zone1', '16:30', '--brink', '15'"


@pytest.mark.parametrize("code, package, absent", [
    ("import simulmob", {"simulmob"}, set()),
    ("import simulmob.traceio",
     {"simulmob", "simulmob.model", "simulmob.traceio"}, set()),
    ("import simulmob.cli", None, UNUSED_AT_START | SCENARIO_CODE),
    ("import simulmob.cli\n"
     "simulmob.cli.main(['simulate', '--scenario', '2', '--runs', '1',"
     " '--samples', '1'])", None, UNUSED_AT_START),
    ("import simulmob.cli\n"
     "simulmob.cli.main(['simulate', '--scenario', '3', '--runs', '1'])",
     None, UNUSED_AT_START),
    ("import simulmob.cli\n"
     "simulmob.cli.main(['replay', '--dataset', 'table-5'])",
     None, NO_CLASS_BUILDERS | CODECS | SCENARIO_CODE),
    ("import simulmob.cli\n"
     "assert simulmob.cli.main(['replay', '--dataset', 'table-6']) == 0",
     None, NO_CLASS_BUILDERS | CODECS | SCENARIO_CODE),
    # The CSV is written in a temporary directory that the child removes.
    ("import os, tempfile, simulmob.cli\n"
     "with tempfile.TemporaryDirectory() as tmp:\n"
     "    path = os.path.join(tmp, 'rows.csv')\n"
     "    with open(path, 'w', encoding='utf-8') as fh:\n"
     f"        fh.write('{ROWS}')\n"
     f"    assert simulmob.cli.main(['replay', '--input', path, {LAYOUT}]) == 0",
     None, NO_CLASS_BUILDERS | SCENARIO_CODE | {"json"}),
    ("import simulmob.cli\n"
     "assert simulmob.cli.main(['estimate', '--dataset', 'table-5']) == 0",
     None, NO_CLASS_BUILDERS | CODECS | SCENARIO_CODE),
    ("import simulmob.cli\n"
     "assert simulmob.cli.main(['plot', '--dataset', 'table-6', '--ascii']) == 0",
     None, NO_CLASS_BUILDERS | SCENARIO_CODE | {"csv", "json"}),
    # The run of ``perfbench``'s ``oracle_wide`` workload.
    ("import simulmob.cli\n"
     "simulmob.cli.main(['estimate', '--scenario', '2', '--runs', '5',"
     " '--samples', '1', '--zone0', '1000:50999', '--zone1', '51040:101039',"
     " '--brink', '51010', '--max-step', '99'])", None, UNUSED_BY_ESTIMATE),
    # The trace codec and the CSV writer need neither stdlib codec; the
    # CSV reader needs ``csv`` alone.
    ("from simulmob.traceio import format_trace, parse_trace, write_csv\n"
     "rows = [(3, 10, 13, 20, 17), (5, 11, 16, 19, 14)]\n"
     "assert parse_trace(format_trace(rows)) == rows\n"
     "assert parse_trace(format_trace(rows, step_headers=True)) == rows\n"
     "assert write_csv(rows, 15)",
     {"simulmob", "simulmob.model", "simulmob.traceio"}, {"csv", "json"}),
    ("from simulmob.traceio import read_csv\n"
     f"assert len(read_csv('{ROWS}')) == 2\n"
     "assert 'csv' in sys.modules",
     {"simulmob", "simulmob.model", "simulmob.traceio"}, {"json"}),
], ids=["package", "traceio", "cli", "simulate", "simulate-walks", "replay",
        "replay-walk", "replay-input", "estimate-dataset", "plot-dataset",
        "estimate", "trace-codec", "read-csv"])
def test_entry_point_loads_only_what_it_runs(code, package, absent):
    out = loaded_modules(code)
    if package is not None:
        assert {name for name in out if name.startswith("simulmob")} == package
    assert absent.isdisjoint(out), sorted(absent.intersection(out))
