"""`cli.parse_args` reads every command line as the argparse parser did.

The reference is the argparse parser the CLI used before
(`tests/_reference_parser.py`).  Each command line of the corpus must give
both the same namespace, or make both exit with the same code and print the
same text: the usage line and `orbitwalk: error: ...` on a usage error, the
help on -h.  The help is compared at 80 columns, the width argparse reads
from COLUMNS.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shlex
from pathlib import Path

import pytest

from _reference_parser import build_parser
from orbitwalk.cli import COMMANDS, parse_args

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _readme_lines() -> list:
    lines = re.findall(r"^orbitwalk (.*)$", README, re.M) + re.findall(r"`orbitwalk ([^`]*)`", README)
    return [shlex.split(line) for line in lines]


def _digest_lines() -> list:
    text = (ROOT / "benchmarks" / "digest_jobs.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


CORPUS = [
    *_digest_lines(),
    *_readme_lines(),
    # = forms and unique prefixes
    ["evolve", "--set=space.L=6", "--precision=5", "--format=json", "--window=1:3", "--output=x.csv"],
    ["thermal", "--s", "space.L=3", "--prec", "5", "--p=7", "--f", "json", "--w", "1:3", "--o="],
    ["dos", "--c=cfg.json", "--m=4", "--max", "5", "--con", "cfg.json"],
    ["verify", "--set=", "--set=a", "--s=a=b=c", "--set", "x y=1"],
    # options before, around and after COMMAND; repeated options
    ["--set", "space.L=5", "--precision", "4", "coined", "--set", "coined.steps=3"],
    ["--format", "csv", "resolvent", "--format", "json", "--format=csv", "--precision", "3", "--precision", "9"],
    ["--window", "1:4", "--", "evolve"],
    # values that start with "-"
    ["evolve", "--precision", "-3"],
    ["evolve", "--max-shell", "-2"],
    ["evolve", "--precision", "-.5"],
    ["evolve", "--window", "-40:40"],
    ["evolve", "--window=-40:40"],
    ["evolve", "--set", "-"],
    ["evolve", "--output", "-"],
    ["evolve", "--set", "-x y"],
    ["evolve", "--precision", "-1e5"],
    # "--", "-" and unknown options
    ["evolve", "--"],
    ["--", "evolve"],
    ["--", "--", "evolve"],
    ["evolve", "--", "--set", "a=1"],
    ["evolve", "--precision", "5", "--"],
    ["evolve", "--set", "--"],
    ["--"],
    ["evolve", "-"],
    ["evolve", "-x"],
    ["evolve", "--bogus", "3"],
    ["--bogus", "evolve"],
    ["evolve", "--bogus=1", "-c", "---"],
    ["evolve", "--=x"],
    ["evolve", "--set", "--format", "csv"],
    ["evolve", "--set"],
    ["evolve", "--format"],
    # converters
    ["evolve", "--precision", "x"],
    ["evolve", "--precision=5.0"],
    ["evolve", "--precision", " 5"],
    ["evolve", "--max-shell", "x"],
    ["evolve", "--format", "xml"],
    ["evolve", "--format", "CSV"],
    # COMMAND: two, none, unknown, empty
    ["evolve", "thermal"],
    ["evolve", "--set", "a=1", "thermal"],
    [],
    ["--precision", "5"],
    ["bogus"],
    [""],
    ["bogus", "--precision", "x"],
    ["--precision", "x", "bogus"],
    # help, alone and with what comes before or after it
    ["evolve", "--help"],
    ["-h"],
    ["--he", "bogus"],
    ["bogus", "-h"],
    ["evolve", "--precision", "x", "-h"],
    ["evolve", "-h", "--precision", "x"],
    ["-hh"],
    ["-hx"],
    ["-h="],
    ["-h=h"],
    ["--help=x"],
    ["--h="],
]


def _outcome(parse, argv: list, monkeypatch) -> tuple:
    """(namespace as a dict or None, exit code or None, stdout, stderr) of one parse."""
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            parsed, code = None, exc.code
    return parsed, code, out.getvalue(), err.getvalue()


def _reference(argv: list):
    return build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(argv) or "(none)" for argv in CORPUS])
def test_parse_args_reads_the_corpus_as_argparse_did(monkeypatch, argv):
    assert _outcome(parse_args, argv, monkeypatch) == _outcome(_reference, argv, monkeypatch)


def test_the_corpus_covers_every_outcome(monkeypatch):
    codes = {_outcome(parse_args, argv, monkeypatch)[1] for argv in CORPUS}
    assert codes == {None, 0, 2}
    errors = {_outcome(parse_args, argv, monkeypatch)[3].split(": error: ")[-1].split(":")[0]
              for argv in CORPUS}
    for text in ("the following arguments are required", "unrecognized arguments",
                 "argument --precision", "argument --format", "argument COMMAND",
                 "argument --window", "argument -h/--help", "ambiguous option"):
        assert any(error.startswith(text) for error in errors), text


_TOKENS = (
    *COMMANDS, "bogus", "", "x", "-", "--", "-h", "-hh", "-hx", "-h=", "--help", "--he", "--help=x",
    "--config", "--c", "--config=a.json", "--set", "--s", "--se=a=1", "--set=", "a=1", "--max-shell",
    "--m=3", "--window", "--w", "-40:40", "--window=-40:40", "1:5", "--output", "--o", "--output=",
    "--format", "--f=json", "csv", "json", "xml", "--precision", "--p", "--pr=5", "5", " 5", "5.0",
    "-3", "-.5", "-1e5", "-3 ", "-x y", "--bogus", "--bogus=1", "---", "--=x", "-c", "--s x",
)


@pytest.mark.parametrize("seed", range(4))
def test_parse_args_reads_drawn_command_lines_as_argparse_did(monkeypatch, seed):
    rng = random.Random(seed)
    for _ in range(500):
        argv = [rng.choice(_TOKENS) for _ in range(rng.randint(0, 6))]
        assert _outcome(parse_args, argv, monkeypatch) == _outcome(_reference, argv, monkeypatch), argv


@pytest.mark.parametrize("name", ["--config", "--set", "--max-shell", "--window", "--output", "--format",
                                  "--precision"])
def test_a_value_of_two_dashes_after_equals_is_that_text(monkeypatch, name):
    """argparse dropped "--" from `--name=--` and stored an empty list, which
    `--set`, `--window` and `--config` then crashed on; the table keeps the text."""
    parsed, code, _, err = _outcome(parse_args, ["evolve", f"{name}=--"], monkeypatch)
    if name in ("--max-shell", "--format", "--precision"):
        assert (parsed, code) == (None, 2)
        assert f"orbitwalk: error: argument {name}: invalid " in err and "'--'" in err
    else:
        assert code is None
        assert parsed[name[2:]] == (["--"] if name == "--set" else "--")
