"""Timings for the pure-Python Bessel core and the layers above it.

Run as `python benchmarks/bench_core.py`.  Each workload is timed over
enough repetitions to be stable on a laptop; the table reports per-call
microseconds.  The Bessel rows are the core's only entry points: short rows
at small and large arguments (`j_row(3, 2.5)`, `j_row(15, 40.0)`,
`i_row(4, 1.8)`), then the long rows a time or heat plan builds.  The
orbit-sum row times one kernel per pair, each with its own plan.  The
plan-sweep rows time one heat plan filling all L^2 entries through
`KernelPlan.value`: of a circle, which folds L residues and keeps one sum
per displacement, and of an interval, which folds 2L residues and keeps one
sum per pair, each the sum of a direct and a reflected fold.  The
long-time fold row times a one-site circle at tau = 500, whose one residue
takes every winding of a 627-term Bessel row.  The parser row times
`cli.parse_args` reading one command line against the option table, all
`main()` does before it loads the config.  The dos-sweep rows time the
default `orbitwalk dos` (201 energies on a 4-site circle, one residue) and
the same sweep on an 8-site interval (residue 0 and one reflected residue per
site, L + 1 in all).  The resolvent-table rows time one-energy `resolvent`
tables: an 8-site interval (64 entries from 16 residues) and a half line
windowed to sites 1..60 (3,600 entries, one free term per distance |d| up
to 119), a path with no period.  The coined-table rows time a coined walk
on a 16-site circle with 20 steps (1,041 table rows) in CSV and in JSON.
The command builds all 31 circle blocks in one `orbit_coined_blocks` call,
which the coined-blocks row times alone; the line-blocks row times the
20-step line walk under it (`coined_line_blocks`), so the winding sum costs
the difference of the two.  The verify rows time `verify` on a 3-site
circle with N = 2 bosons (a config of perfbench's many_walker workload), a
5-site circle with N = 4 bosons and a half line windowed to sites 1..4 with
N = 3 bosons, whose composition check glues through every 3-walker point
of the window and its light cone.  The N = 2 thermal row times fermions on
a 5-site circle.  The N >= 4 rows time boson `thermal` tables on an 8-site circle with N = 4
(108,900 entries over 14,400 kept 3-row minors) and a 6-site circle with
N = 5 (63,504 entries over 19,012 kept 3- and 4-row minors).  The dos,
resolvent, coined-table, verify, N = 2 and N >= 4 rows run in-process through
`cli.main`, output discarded.  The cold-start row runs the default
`orbitwalk evolve` in fresh interpreters against this checkout's `src/` and
reports the median wall time and the modules the run loaded.  The
table-memory rows run `orbitwalk thermal` in a fresh interpreter with its
output written to the null device: the default config, then Circle L=1000,
whose 10^6 rows are `MAX_TABLE_ROWS`, as CSV and as JSON; each reports the
wall time and the interpreter's peak RSS (`ru_maxrss`).  CSV rows are
written as they are made, so its peak should stay near the default's; JSON
holds its columns until the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

from orbitwalk import _core_py
from orbitwalk.cli import main as cli_main, parse_args
from orbitwalk.group import OrbitSpaceSpec, Representation
from orbitwalk.kernels import KernelParams, coined_line_blocks, hadamard_coin
from orbitwalk.orbit import KernelPlan, orbit_coined_blocks

WORKLOADS = [
    ("j_row(3, 2.5)", lambda m: m.j_row(3, 2.5), 20000),
    ("j_row(15, 40.0)", lambda m: m.j_row(15, 40.0), 20000),
    ("i_row(4, 1.8)", lambda m: m.i_row(4, 1.8), 20000),
    ("j_row(60, 5.0)", lambda m: m.j_row(60, 5.0), 5000),
    ("j_row(140, 90.0)", lambda m: m.j_row(140, 90.0), 2000),
    ("i_row(60, 2.0)", lambda m: m.i_row(60, 2.0), 5000),
]


def per_call_us(fn, repeats: int) -> float:
    best = min(timeit.repeat(fn, number=repeats, repeat=3))
    return 1e6 * best / repeats


def bench_orbit_sum() -> float:
    space = OrbitSpaceSpec("Circle", 6)
    D = Representation(theta=math.pi / 2)
    p = KernelParams(omega=1.0, tau=5.0)

    def sweep():
        for x in range(1, 7):
            for y in range(1, 7):
                KernelPlan(space, D, p).value((x,), (y,))

    return per_call_us(sweep, 20)


PLAN_SWEEP_L = 16


def bench_plan_sweep(space: OrbitSpaceSpec, D: Representation) -> float:
    p = KernelParams(omega=1.0, beta=1.0)
    sites = range(1, space.L + 1)

    def sweep():
        plan = KernelPlan(space, D, p, mode="heat")
        for x in sites:
            for y in sites:
                plan.value((x,), (y,))

    return per_call_us(sweep, 20)


def bench_long_fold() -> float:
    """A one-site circle at tau = 500: one plan, one residue over every winding."""
    space = OrbitSpaceSpec("Circle", 1)
    D = Representation(theta=0.7)
    p = KernelParams(omega=1.0, tau=500.0)
    return per_call_us(lambda: KernelPlan(space, D, p).value((1,), (1,)), 50)


def bench_coined_blocks() -> float:
    """One `orbit_coined_blocks` call: every displacement of a 16-site circle, 20 steps."""
    space = OrbitSpaceSpec("Circle", 16)
    D = Representation(theta=0.7)
    coin = hadamard_coin()
    return per_call_us(lambda: orbit_coined_blocks(space, D, 20, coin, -15, 15), 200)


def bench_coined_line_blocks() -> float:
    """One `coined_line_blocks` call: the 41-displacement stack of a 20-step Hadamard walk."""
    coin = hadamard_coin()
    return per_call_us(lambda: coined_line_blocks(20, coin), 200)


PARSER_ARGV = ["thermal", "--set", "space.L=16", "--format", "csv"]


def bench_parser() -> float:
    return per_call_us(lambda: parse_args(PARSER_ARGV), 500)


def bench_cli(argv: list[str], repeats: int) -> float:
    """Microseconds per in-process `cli.main(argv)`, output discarded."""
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(argv)

    return per_call_us(run, repeats)


COINED_ARGV = ["coined", "--set", "space.L=16", "--set", "coined.steps=20"]
INTERVAL_DOS_ARGV = ["dos", "--set", "space.kind=Interval", "--set", "space.L=8"]
INTERVAL_RESOLVENT_ARGV = ["resolvent", "--set", "space.kind=Interval", "--set", "space.L=8"]
HALF_LINE_RESOLVENT_ARGV = ["resolvent", "--set", "space.kind=HalfLine", "--window=1:60"]
# (label, argv, repeats per timing)
VERIFY_ROWS = [
    ("Circle L=3 N=2", ["verify", "--set", "space.L=3", "--set", "space.N=2",
                        "--set", "representation.theta=0.7"], 20),
    ("Circle L=5 N=4", ["verify", "--set", "space.L=5", "--set", "space.N=4"], 3),
    ("HalfLine N=3 --window=1:4", ["verify", "--set", "space.kind=HalfLine", "--set", "space.N=3",
                                   "--window=1:4"], 1),
]
FERMION_THERMAL_ARGV = [
    "thermal", "--set", "space.L=5", "--set", "space.N=2",
    "--set", "representation.statistics=Fermion", "--set", "representation.theta=0.7",
]

BOSON_THERMAL_ARGVS = [
    ["thermal", "--set", "space.L=8", "--set", "space.N=4"],
    ["thermal", "--set", "space.L=6", "--set", "space.N=5"],
]


COLD_START_RUNS = 9

_COLD_START_SCRIPT = """\
import contextlib, io, json, sys
from orbitwalk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["evolve"])
names = list(sys.modules)
print(json.dumps({
    "code": code,
    "orbitwalk": sum(n == "orbitwalk" or n.startswith("orbitwalk.") for n in names),
    "numpy": sum(n == "numpy" or n.startswith("numpy.") for n in names),
}))
"""


def cold_start(runs: int = COLD_START_RUNS) -> tuple[float, dict]:
    """Median seconds of a fresh interpreter running the default `evolve`, and
    the exit code and orbitwalk/numpy module counts of its last run."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), json.loads(proc.stdout)


_TABLE_MEMORY_SCRIPT = """\
import contextlib, json, os, resource, sys
from orbitwalk.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

TABLE_MEMORY_ROWS = [
    ("default thermal", ["thermal"]),
    ("Circle L=1000 thermal, CSV", ["thermal", "--set", "space.L=1000"]),
    ("Circle L=1000 thermal, JSON", ["thermal", "--set", "space.L=1000", "--format", "json"]),
]


def table_memory(argv: list[str]) -> tuple[float, dict]:
    """Wall seconds of a fresh interpreter running `orbitwalk argv` with its
    output discarded, and the run's exit code and peak RSS in KB (Linux units)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _TABLE_MEMORY_SCRIPT, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return time.perf_counter() - start, json.loads(proc.stdout)


def main() -> None:
    rows = [(label, per_call_us(lambda: call(_core_py), repeats))
            for label, call, repeats in WORKLOADS]
    width = max(len(label) for label, _ in rows) + 2
    print(f"{'workload':<{width}}{'us/call':>12}")
    for label, us in rows:
        print(f"{label:<{width}}{us:>12.2f}")

    sweep_us = bench_orbit_sum()
    print(f"\norbit kernel 6x6 sweep (omega*tau=5): {sweep_us / 1000.0:.2f} ms")
    plan_us = bench_plan_sweep(OrbitSpaceSpec("Circle", PLAN_SWEEP_L), Representation(theta=0.7))
    print(f"heat plan Circle {PLAN_SWEEP_L}x{PLAN_SWEEP_L} sweep (one plan, beta*omega=1): "
          f"{plan_us / 1000.0:.2f} ms")
    plan_us = bench_plan_sweep(OrbitSpaceSpec("Interval", 12), Representation(theta=math.pi))
    print(f"heat plan Interval 12x12 sweep (one plan, beta*omega=1): {plan_us / 1000.0:.2f} ms")
    print(f"long-time fold: Circle L=1, tau=500, one plan and entry: "
          f"{bench_long_fold() / 1000.0:.2f} ms")
    print(f"parser: parse_args, one thermal command line: "
          f"{bench_parser():.0f} us")
    print(f"dos sweep: default dos through cli.main: {bench_cli(['dos'], 10) / 1000.0:.2f} ms")
    print(f"dos sweep: Interval L=8 dos through cli.main: "
          f"{bench_cli(INTERVAL_DOS_ARGV, 10) / 1000.0:.2f} ms")
    print(f"resolvent table: Interval L=8 through cli.main: "
          f"{bench_cli(INTERVAL_RESOLVENT_ARGV, 20) / 1000.0:.2f} ms")
    print(f"resolvent table: HalfLine --window=1:60 through cli.main: "
          f"{bench_cli(HALF_LINE_RESOLVENT_ARGV, 10) / 1000.0:.2f} ms")
    print(f"coined blocks: L=16, steps=20, all 31 displacements in one call: "
          f"{bench_coined_blocks():.0f} us")
    print(f"coined line blocks: steps=20, the line stack alone: "
          f"{bench_coined_line_blocks():.0f} us")
    print(f"coined table: L=16, steps=20 through cli.main: "
          f"{bench_cli(COINED_ARGV, 20) / 1000.0:.2f} ms")
    print(f"coined table: L=16, steps=20, --format json through cli.main: "
          f"{bench_cli(COINED_ARGV + ['--format', 'json'], 20) / 1000.0:.2f} ms")
    for label, argv, repeats in VERIFY_ROWS:
        print(f"verify: {label}, bosons through cli.main: "
              f"{bench_cli(argv, repeats) / 1000.0:.2f} ms")
    print(f"N = 2 thermal: Circle L=5, fermions through cli.main: "
          f"{bench_cli(FERMION_THERMAL_ARGV, 20) / 1000.0:.2f} ms")
    for argv in BOSON_THERMAL_ARGVS:
        size = " ".join(assignment.split(".")[1] for assignment in argv[2::2])
        print(f"N >= 4 thermal: Circle {size}, bosons through cli.main: "
              f"{bench_cli(argv, 1) / 1e6:.2f} s")

    median_s, loaded = cold_start()
    print(f"\ncold start, default evolve (median of {COLD_START_RUNS} fresh interpreters): "
          f"{median_s * 1000.0:.0f} ms, exit {loaded['code']}, "
          f"{loaded['orbitwalk']} orbitwalk and {loaded['numpy']} numpy modules loaded")
    for label, argv in TABLE_MEMORY_ROWS:
        seconds, run = table_memory(argv)
        print(f"table memory, fresh process: {label}: {seconds:.2f} s, "
              f"peak RSS {run['peak_kb'] / 1024:.1f} MB, exit {run['code']}")


if __name__ == "__main__":
    main()
