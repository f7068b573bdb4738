"""Digests of what every perfbench job prints, to show a change moves no output.

Run as `python benchmarks/output_digest.py OUT.json` to run each job of
perfbench's four workloads (`single_walker`, `many_walker`,
`resolvent_sweep`, `known_defects`) for seeds 1-5, 165 jobs in all, then
every job of `benchmarks/digest_jobs.jsonl` (what perfbench does not run:
JSON output, other precisions, Line and HalfLine windows, custom and
backward coined walks, coined walks whose shifts share one sign, boson
`thermal` at N = 4 and 5, fermion and wide-window `verify`, tables longer
than one CSV write batch, config values that once ended in a traceback),
through `orbitwalk.cli.main` in-process, and to write one JSON object that
maps each job to the sha256 of its stdout, the sha256 of its stderr and its
exit code.  A job that an exception ends records `"exception: <type>"` as
its exit, and the run goes on.  `--src DIR` runs the orbitwalk sources
under DIR (another checkout's `src/`) instead of this checkout's;
`--argv-file FILE` adds one job per line of FILE.  A job file holds one
JSON list of command-line arguments per line.
`python benchmarks/output_digest.py --compare A B` lists the jobs whose
digests differ between two such files (or that only one of them has) and
exits 1 if any does.  Job lists come from
`perfbench/workloads.py`, which is imported, not changed.
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
WORKLOADS = ("single_walker", "many_walker", "resolvent_sweep", "known_defects")
DIGEST_JOBS = ROOT / "benchmarks" / "digest_jobs.jsonl"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def jobs(argv_file: str | None) -> dict:
    """Job name -> argv: every perfbench job of seeds 1-5, then each line of
    `DIGEST_JOBS` and of `argv_file`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = {}
    for workload in WORKLOADS:
        for seed in range(1, 6):
            for i, job in enumerate(workloads.generate(workload, seed)):
                out[f"{workload}:{seed}:{i} {job.label()}"] = job.argv()
    for path in filter(None, (DIGEST_JOBS, argv_file)):
        with open(path, encoding="utf-8") as fh:
            for line in filter(str.strip, fh):
                argv = json.loads(line)
                out[" ".join(argv)] = argv
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
        lines = compare(a, b)
        print("\n".join(lines) if lines else f"all {len(a)} jobs identical")
        return 1 if lines else 0
    if not args.out:
        parser.error("give an output file or --compare A B")
    digests = digest(Path(args.src), jobs(args.argv_file))
    Path(args.out).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} jobs digested to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
