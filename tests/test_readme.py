"""The README's examples, run as written."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

from simulmob.scenarios import config_from_dict, preset

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def first_block(lang: str, after: str) -> str:
    """The first ```lang fenced block that follows the text ``after``."""
    tail = README[README.index(after):]
    return re.search(rf"^```{lang}\n(.*?)^```$", tail, re.M | re.S).group(1)


def test_config_example_is_preset_2():
    example = first_block("json", "A config file mirrors")
    assert config_from_dict(json.loads(example)) == preset(2, seed=7)


def test_library_block_prints_its_comment():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(first_block("python", "## Library"), {})
    assert out.getvalue().splitlines()[-1] == "1/2"
