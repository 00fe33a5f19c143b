"""The README's examples run against the current API: every ```python
block executes, and every ```json block is a valid config."""
import json
import re
from pathlib import Path

import pytest

from gfpk import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(python|json)\n(.*?)^```", README.read_text(), re.M | re.S)


def _blocks(language):
    return [text for lang, text in BLOCKS if lang == language]


def test_readme_has_examples():
    assert _blocks("python") and _blocks("json")


@pytest.mark.parametrize("source", _blocks("python"))
def test_python_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("text", _blocks("json"))
def test_json_block_is_a_valid_config(text):
    parse_config(json.loads(text))
