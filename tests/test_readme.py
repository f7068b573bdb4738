"""The README's examples run: its Python block, its command lines and its config file."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from orbitwalk.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(language: str, after: str = "") -> str:
    """The first fenced block in `language` after the heading or line `after`."""
    start = README.index(after)
    return re.search(rf"```{language}\n(.*?)```", README[start:], re.S).group(1)


def test_the_library_example_runs(capsys):
    exec(compile(_block("python", "## Library use"), "README.md", "exec"), {})
    assert complex(capsys.readouterr().out) == -0.11491537910523966 - 0.18743174354845016j


def test_every_example_command_line_exits_0(capsys):
    lines = [ln for ln in _block("sh", "## Command line").splitlines() if ln.startswith("orbitwalk ")]
    assert len(lines) == 4
    for line in lines:
        code = main(shlex.split(line)[1:])
        err = capsys.readouterr().err
        assert code == 0, (line, err)


def test_the_example_config_file_runs_evolve(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(_block("json", "Example config file:"), encoding="utf-8")
    code = main(["evolve", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 0, err
