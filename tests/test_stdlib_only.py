"""The runtime stays stdlib-only: no declared dependency, no foreign import."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_lists_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []


def test_import_loads_only_stdlib_modules():
    # -I -S: no site-packages and no PYTHONPATH, so a third-party import
    # fails here, and every module loaded outside the package is listed.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import simulmob, simulmob.cli\n"
        "assert simulmob.__file__.startswith(sys.path[0]), simulmob.__file__\n"
        "for name in sorted(sys.modules):\n"
        "    print(name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.split()
    assert "simulmob.traceio" in out
    foreign = [
        name for name in out
        if name != "__main__"
        and name.split(".")[0] not in (*sys.stdlib_module_names, "simulmob")
    ]
    assert foreign == []
