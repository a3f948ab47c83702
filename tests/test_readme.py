"""The examples in README.md run as written."""

import re
import shlex
from pathlib import Path

import pytest

from rscwe.cli import run_cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
CLI_LINES = [
    line
    for lang, body in BLOCKS
    if lang == "sh"
    for line in body.splitlines()
    if line.startswith("rscwe ")
]
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]


def test_readme_has_examples():
    assert len(CLI_LINES) == 6
    assert len(PYTHON_BLOCKS) == 1


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example(line, capsys):
    assert run_cli(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("source", PYTHON_BLOCKS)
def test_python_example(source, capsys):
    exec(compile(source, "README.md", "exec"), {})
    assert capsys.readouterr().out
