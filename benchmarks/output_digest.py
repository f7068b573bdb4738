"""Digests of what every job prints, to show a change moves no output.

Run as `python benchmarks/output_digest.py OUT.json` to run each job of
`benchmarks/digest_jobs.jsonl` through `orbitwalk.cli.main` in-process and
to write one JSON object: the numpy version of the run, and for each job
the sha256 of its stdout, the sha256 of its stderr and its exit code.  A
job file holds one JSON list of command-line arguments per line, and a job
is named by its arguments joined by spaces (" #2" marks a line that repeats
an earlier one).  The first 165 lines are the perfbench jobs of seeds 1-5
of its workloads `single_walker`, `many_walker`, `resolvent_sweep` and
`known_defects`, as they stood when they were written out, so a change to
perfbench renames no job here.  The other 83 cover what perfbench does not
run: JSON output, other precisions, Line and HalfLine windows, custom and
backward coined walks, coined walks whose shifts share one sign, complex
2- and 3-state coins and a coin of exact zeros and -1 (whose signed zeros
show in the table), boson
`thermal` at N = 4 and 5, fermion and wide-window `verify`, tables longer
than one CSV write batch and a JSON table as long, refusals by the lift
and coined bounds and of a time past the Bessel row's range, the library's
refusals of a Line with no window, of Z off a finite space, of `coined`
off the one-walker Circle or past `STEP_MAX`, of Im E <= 0 and of a start
with the wrong walker count, fermion starts with and without a repeated
coordinate, config values that once ended in a traceback, and an
`initial_state` that only `evolve` reads.  A job that an exception ends
records `"exception: <type>"` as its exit, and the run goes on.
`--src DIR` runs the orbitwalk sources under DIR (another checkout's
`src/`) instead of this checkout's; `--argv-file FILE` adds one job per
line of FILE.

`benchmarks/output_digest.json` holds the digest of the committed
program, and `tests/test_output_digest.py` recomputes it and names every
job that moved.  A change that means to move output rewrites that file
(`python benchmarks/output_digest.py benchmarks/output_digest.json`), so
its diff lists the moves.  `coined` tables go through numpy's matmul and
complex abs, so a digest holds for the numpy version it records.
`python benchmarks/output_digest.py --compare A B` lists the jobs whose
digests differ between two such files (or that only one of them has) and
exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_JOBS = ROOT / "benchmarks" / "digest_jobs.jsonl"
DIGEST_FILE = ROOT / "benchmarks" / "output_digest.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def jobs(argv_file: str | None = None) -> dict:
    """Job name -> argv: each line of `DIGEST_JOBS`, then of `argv_file`."""
    out = {}
    for path in filter(None, (DIGEST_JOBS, argv_file)):
        with open(path, encoding="utf-8") as fh:
            for line in filter(str.strip, fh):
                argv = json.loads(line)
                name, repeat = " ".join(argv), 1
                while name in out:
                    repeat += 1
                    name = f"{' '.join(argv)} #{repeat}"
                out[name] = argv
    return out


def digest(src: Path, named: dict) -> dict:
    """Job name -> {stdout, stderr, exit} of each argv run through `cli.main`;
    the exit of a job that raises is the exception's type."""
    sys.path.insert(0, str(src))
    from orbitwalk import cli

    if Path(cli.__file__).resolve().parent != src.resolve() / "orbitwalk":
        raise SystemExit(f"output_digest: imported orbitwalk from {cli.__file__}")
    out = {}
    for name, argv in named.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback at the command line
                code = f"exception: {type(exc).__name__}"
        out[name] = {"stdout": _sha(stdout.getvalue()), "stderr": _sha(stderr.getvalue()),
                     "exit": code}
    return out


def record(src: Path, argv_file: str | None = None) -> dict:
    """The digest file's content: the numpy version and every job's digest."""
    import numpy

    return {"numpy": numpy.__version__, "jobs": digest(src, jobs(argv_file))}


def numpy_mismatch(recorded: dict) -> str | None:
    """Why a digest recorded under another numpy cannot be compared, or None."""
    import numpy

    if recorded["numpy"] == numpy.__version__:
        return None
    return (f"the digest was recorded with numpy {recorded['numpy']}, and this is numpy "
            f"{numpy.__version__}: `coined` bytes depend on it, so record the digest again")


def compare(a: dict, b: dict) -> list[str]:
    """One line per job whose digests differ between `a` and `b`, or that one lacks."""
    lines = []
    for name in sorted(a.keys() | b.keys()):
        left, right = a.get(name), b.get(name)
        if left is None or right is None:
            lines.append(f"{name}: only in {'B' if left is None else 'A'}")
        elif left != right:
            moved = [key for key in ("stdout", "stderr", "exit") if left[key] != right[key]]
            lines.append(f"{name}: {', '.join(moved)} differ"
                         f" (exit {left['exit']} -> {right['exit']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="JSON file to write the digests to")
    parser.add_argument("--src", default=str(ROOT / "src"), help="orbitwalk sources to run")
    parser.add_argument("--argv-file", default=None, help="extra jobs, one JSON argv per line")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list jobs that differ")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare)
        lines = ([f"numpy {a['numpy']} -> {b['numpy']}"] if a["numpy"] != b["numpy"] else [])
        lines += compare(a["jobs"], b["jobs"])
        print("\n".join(lines) if lines else f"all {len(a['jobs'])} jobs identical")
        return 1 if lines else 0
    if not args.out:
        parser.error("give an output file or --compare A B")
    content = record(Path(args.src), args.argv_file)
    Path(args.out).write_text(json.dumps(content, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(content['jobs'])} jobs digested to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
