"""Every `cylgauge ...` example of the README's "Command line" section runs
in process at its documented settings and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from cylgauge.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# CHANGES.md, FOUND: resolution-check gates raw N = 32 lattice estimates,
# which carry an O(s/N) bias, against continuum targets
KNOWN_FAILURES = {
    "resolution-check": "exits 3 at its README settings: z = 27.2 on resolution[s=32][2,2], "
                        "raw lattice estimates gated against continuum targets",
}


def readme_commands():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("cylgauge ")]


def as_param(line):
    command = line.split()[1]
    marks = []
    if command in KNOWN_FAILURES:
        marks = [pytest.mark.xfail(strict=True, reason=KNOWN_FAILURES[command])]
    return pytest.param(line, marks=marks, id=command)


def test_readme_lists_fourteen_commands():
    assert len(readme_commands()) == 14


@pytest.mark.parametrize("line", [as_param(line) for line in readme_commands()])
def test_readme_command_exits_0(line, capsys):
    code = main(shlex.split(line)[1:])
    capsys.readouterr()
    assert code == 0
