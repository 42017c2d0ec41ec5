"""README.md's examples run as written: every ```python block executes, and
every `minimaxlb ...` line of its shell blocks exits 0."""
import re
import shlex
from pathlib import Path

import pytest

from minimaxlb.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
CLI_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
             for line in block.splitlines() if line.startswith("minimaxlb ")]


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) >= 2 and len(CLI_LINES) >= 13


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the lines write their --out and --svg files here
    assert main(shlex.split(line, comments=True)[1:]) == 0, capsys.readouterr().err
