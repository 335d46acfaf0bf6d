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


@pytest.mark.parametrize("code, package, absent", [
    ("import simulmob", {"simulmob"}, set()),
    ("import simulmob.traceio",
     {"simulmob", "simulmob.model", "simulmob.traceio"}, set()),
    ("import simulmob.cli", None, UNUSED_AT_START),
    ("import simulmob.cli\n"
     "simulmob.cli.main(['simulate', '--scenario', '2', '--runs', '1',"
     " '--samples', '1'])", None, UNUSED_AT_START),
    ("import simulmob.cli\n"
     "simulmob.cli.main(['simulate', '--scenario', '3', '--runs', '1'])",
     None, UNUSED_AT_START),
    ("import simulmob.cli\n"
     "simulmob.cli.main(['replay', '--dataset', 'table-5'])",
     None, NO_CLASS_BUILDERS | CODECS),
    # The run of ``perfbench``'s ``oracle_wide`` workload.
    ("import simulmob.cli\n"
     "simulmob.cli.main(['estimate', '--scenario', '2', '--runs', '5',"
     " '--samples', '1', '--zone0', '1000:50999', '--zone1', '51040:101039',"
     " '--brink', '51010', '--max-step', '99'])", None, UNUSED_BY_ESTIMATE),
], ids=["package", "traceio", "cli", "simulate", "simulate-walks", "replay",
        "estimate"])
def test_entry_point_loads_only_what_it_runs(code, package, absent):
    out = loaded_modules(code)
    if package is not None:
        assert {name for name in out if name.startswith("simulmob")} == package
    assert absent.isdisjoint(out), sorted(absent.intersection(out))
