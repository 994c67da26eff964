"""The README's examples run as written: the Python quick tour executes,
and every ``qinvert`` line of the command-line block exits 0."""

import re
import shlex
from pathlib import Path

from qinvert.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the ``heading`` line."""
    match = re.search(rf"^{re.escape(heading)}\n.*?^```{lang}\n(.*?)^```", README,
                      re.DOTALL | re.MULTILINE)
    assert match, f"no {lang} block under {heading!r} in README.md"
    return match.group(1)


def test_library_quick_tour_runs():
    exec(compile(_block("## Library quick tour", "python"), "README.md", "exec"), {})


def test_command_line_block_runs(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in _block("## Command-line tool", "sh").splitlines()]
    assert len(commands) >= 6 and all(argv[0] == "qinvert" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
        capsys.readouterr()

