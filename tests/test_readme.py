"""The README's `## CLI` and `## Library` example blocks run as written.

CI also runs them through the installed console script; here they run
in-process, so a README command the code no longer accepts fails tier-1.
"""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

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
