"""Every `cylgauge ...` example of the README's "Command line" section runs
in process at its documented settings, reproduces its golden CSV report in
tests/golden/, and exits 0."""

import csv
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from cylgauge import cli

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"
# numpy's SIMD transcendentals may round the last bit differently on another
# CPU; the absolute floor covers roundoff-level quantities such as 1e-15 gaps
REL_TOL = ABS_TOL = 1e-12

# CHANGES.md, FOUND: resolution-check gates raw N = 32 lattice estimates,
# which carry an O(s/N) bias, against continuum targets
KNOWN_FAILURES = {
    "resolution-check": "exits 3 at its README settings: z = 27.2 on resolution[s=32][2,2], "
                        "raw lattice estimates gated against continuum targets",
}


class NonzeroExit(AssertionError):
    """The command exited nonzero; the only failure a known failure may show."""


def readme_commands():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("cylgauge ")]


def as_param(line):
    command = line.split()[1]
    marks = []
    if command in KNOWN_FAILURES:
        marks = [pytest.mark.xfail(strict=True, raises=NonzeroExit, reason=KNOWN_FAILURES[command])]
    return pytest.param(line, marks=marks, id=command)


def assert_matches_golden(command, text, passed):
    """Same header, row count, quantities and passed flags; every other field
    empty in both or numerically equal within REL_TOL (ABS_TOL floor)."""
    got = list(csv.reader(io.StringIO(text)))
    want = list(csv.reader(io.StringIO((GOLDEN / f"{command}.csv").read_text())))
    assert got[0] == want[0]
    assert len(got) == len(want)
    assert passed == json.loads((GOLDEN / "passed.json").read_text())[command]
    for row, gold in zip(got[1:], want[1:]):
        assert row[0] == gold[0]
        for name, value, expected in zip(want[0][1:], row[1:], gold[1:]):
            if value == "" or expected == "":
                assert value == expected, f"{gold[0]} {name}: {value!r} vs {expected!r}"
            else:
                assert math.isclose(float(value), float(expected), rel_tol=REL_TOL, abs_tol=ABS_TOL), \
                    f"{gold[0]} {name}: {value} vs golden {expected}"


def test_readme_lists_fourteen_commands():
    assert len(readme_commands()) == 14


@pytest.mark.parametrize("line", [as_param(line) for line in readme_commands()])
def test_readme_command_exits_0(line, capsys, monkeypatch):
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, *args: (reports.append(report), emit(report, *args)))
    command = line.split()[1]
    code = cli.main(shlex.split(line)[1:])
    assert_matches_golden(command, capsys.readouterr().out, [r.passed for r in reports[0].rows])
    if code != 0:
        raise NonzeroExit(f"{command} exited {code}")
