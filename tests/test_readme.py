"""The README's examples run as written.

The Library block is executed as one script, and each ``ctrwpricer ...``
line of the Command line block (continuation lines joined, comments
dropped) runs in order through ``cli.main`` in one scratch directory, so
a file one command writes is there for the next.
"""

import re
import shlex
import time
from pathlib import Path

from ctrwpricer import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    body = README.split(f"## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def _commands() -> list[list[str]]:
    script = _block("Command line", "sh").replace("\\\n", " ")
    words = [shlex.split(line, comments=True) for line in script.splitlines()]
    return [w[1:] for w in words if w and w[0] == "ctrwpricer"]


def test_library_block_runs():
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})


def test_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    assert len(commands) >= 9
    start = time.perf_counter()
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    assert time.perf_counter() - start < 10.0
    assert (tmp_path / "fig3.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()
