"""The README's `## CLI` and `## Library` example blocks run as written.

CI also runs them through the installed console script; here they run
in-process, so a README command the code no longer accepts fails tier-1.
The README's count of `verify` checks is the one place that states it, so it
is held to the grid here.
"""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from conical_harvest import verification
from conical_harvest.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    return re.search(rf"^## {heading}\n+```{language}\n(.*?)^```", README, re.S | re.M).group(1)


# every conical-harvest line of the CLI block, backslash continuations joined
COMMANDS = [shlex.split(line)[1:] for line in _block("CLI", "sh").replace("\\\n", " ").splitlines()
            if line.startswith("conical-harvest ")]


def test_the_cli_block_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("args", COMMANDS, ids=[args[0] for args in COMMANDS])
def test_a_readme_cli_command_exits_0(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


def test_the_readme_library_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("Library", "python"), "README.md (## Library)", "exec"),
         {"__name__": "__main__"})


def test_the_readme_verify_row_counts_match_the_grid():
    found = re.search(r"grid\s+of\s+(\d+)\s+checks\s+\((\d+)\s+oracle\s+points,\s+(\d+)\s+identities\)",
                      README)
    assert found, "the README no longer states the verify grid's row counts"
    total, oracle_points, identities = map(int, found.groups())
    reports, _ = verification.run_verification()
    assert total == len(reports) == oracle_points + identities
    assert oracle_points == len(verification._standard_grid())
    assert identities == len(verification._identity_grid())
