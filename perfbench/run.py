"""The orbitwalk benchmark: seeded CLI workloads, checked, timed end to end and per layer.

    python3 perfbench/run.py --workload single_walker --seed 1 --seconds 25 --trace 0

One client in this process calls `orbitwalk.cli.main(argv)` job after job
(a closed loop).  A run generates the workload's job list from the seed,
makes one untimed warm-up pass, then repeats passes while the next one is
expected to end within `--seconds`.  Every later output must be
byte-identical to the warm-up's, and after the timing each warm-up table is
checked against a dense reference.

`--trace 0` reports the end-to-end metrics with no tracing installed.
`--trace 1` alternates untraced passes with passes in which every public
function of every layer is wrapped, and reports per-layer counts, self times
and the tracing overhead.  The last line of stdout is one JSON object; the
lines before it are the human-readable report, including metrics that are
not in the JSON because they do not exist on every workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
MIN_PASSES = 3  # timed passes per run, even when one pass outlasts --seconds

# Metrics of the final JSON line, by --trace value: name -> unit.  They are
# the metrics that exist, and are never a fixed 0, on every timed workload.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "orbit.kernel_calls": "count",
    "orbit.kernel_unique_frac": "ratio",
    "orbit.partition_function.calls": "count",
    "orbit.shells": "count",
    "orbit.terms": "count",
    "kernels.coined_line_kernel.calls": "count",
    "special.i_row.calls": "count",
    "special.j_row.calls": "count",
    "group.enumerate_shell.calls": "count",
    "group.elements": "count",
    "group.act.calls": "count",
    "group.rep_weight.calls": "count",
    "oracle.calls": "count",
    "cli.output_bytes": "bytes",
    "special.self_s": "s",
    "group.self_s": "s",
    "kernels.self_s": "s",
    "orbit.self_s": "s",
    "cli.self_s": "s",
    "cli.emit.self_s": "s",
    "trace_overhead_frac": "ratio",
}


def _import_program():
    """Import orbitwalk from this checkout's src/, never from site-packages."""
    if not (SRC / "orbitwalk" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no orbitwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orbitwalk
    import orbitwalk.cli

    if Path(orbitwalk.__file__).resolve().parent != SRC / "orbitwalk":
        raise SystemExit(f"perfbench: imported orbitwalk from {orbitwalk.__file__}")
    return orbitwalk


def _run_job(cli, job) -> tuple[object, str, float]:
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(job.argv())
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = "exception: " + traceback.format_exc(limit=3).replace("\n", " | ")
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


class Pass:
    """One run of the whole job list."""

    def __init__(self, cli, jobs):
        self.results = [_run_job(cli, job) for job in jobs]
        self.seconds = [seconds for _, _, seconds in self.results]
        self.output_bytes = sum(len(text) for _, text, _ in self.results)


def typical_pass_s(passes: list, jobs: list, command: str | None = None) -> float:
    """Sum over jobs (all, or one command's) of each job's median time across passes.

    Taking the median per job drops a slow stretch of the shared machine that
    hit one job of a pass without throwing away the rest of that pass.
    """
    return sum(
        statistics.median(p.seconds[i] for p in passes)
        for i, job in enumerate(jobs)
        if command in (None, job.command)
    )


def fresh_process(job) -> tuple[float, object, str]:
    """Seconds for a fresh interpreter to import the CLI and finish `job`,
    with its exit code and stdout."""
    code = "import sys\nfrom orbitwalk.cli import main\nsys.exit(main(sys.argv[1:]))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *job.argv()],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout


def _unit(name: str) -> str:
    if name in END_TO_END or name in PER_LAYER:
        return END_TO_END.get(name) or PER_LAYER[name]
    return "s" if name.endswith("_s") else "ratio" if name.endswith("_frac") else "count"


def _environment(orbitwalk) -> dict:
    import numpy

    return {
        "backend": orbitwalk.BACKEND_NAME,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main(argv=None) -> int:
    import workloads as workloads_mod

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    orbitwalk = _import_program()
    cli = sys.modules["orbitwalk.cli"]
    from layers import Tracer
    from reference import check

    jobs = workloads_mod.generate(args.workload, args.seed)
    env = _environment(orbitwalk)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} " + " ".join(f"{k}={v}" for k, v in env.items()))

    attempted = failed = 0
    setup_job, setup = workloads_mod.Job("evolve"), []

    def sample_setup() -> None:
        nonlocal attempted, failed
        seconds, code, text = fresh_process(setup_job)
        setup.append(seconds)
        attempted += 1
        failed += check(setup_job, code, text) is not None

    # Warm-up pass: fills caches and lazy imports, and gives the outputs that
    # every later pass must repeat byte for byte.
    warm = Pass(cli, jobs)
    verified = [(code, text) for code, text, _ in warm.results]
    mismatches = [0] * len(jobs)

    def tally(p: Pass) -> None:
        nonlocal attempted
        attempted += len(jobs)
        for i, (want, (code, text, _)) in enumerate(zip(verified, p.results)):
            mismatches[i] += (code, text) != want
        p.results = None  # keep no outputs: they would count in peak_rss_mb

    tally(warm)
    plain, traced, counts = [], [], None
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()

    def more() -> bool:
        if len(plain) < MIN_PASSES or (tracer and len(traced) < MIN_PASSES):
            return True
        elapsed = time.perf_counter() - start
        return elapsed * (1 + 1 / (len(plain) + len(traced))) <= args.seconds

    while more():
        if tracer and len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                p = Pass(cli, jobs)
            finally:
                tracer.remove()
            p.counts = tracer.counts()
            p.self_times = tracer.self_times()
            if counts is None:
                counts = p.counts
            elif p.counts != counts:
                print("counts differ between traced passes of one job list")
                failed += 1
            traced.append(p)
        else:
            p = Pass(cli, jobs)
            plain.append(p)
            # Setup samples are spread over the run, so that a slow stretch of
            # the shared machine weighs on them as it weighs on the passes.
            if not tracer and len(setup) < SETUP_SAMPLES:
                sample_setup()
        tally(p)

    wall = typical_pass_s(plain, jobs)
    # A cache that outlived one main() call would make later passes cheaper
    # than a user's fresh run; the first pass shows what such a cache hides.
    report = {"passes": len(plain), "first_pass_s": sum(warm.seconds), "wall_s": wall}
    for command in sorted({job.command for job in jobs}):
        report[f"{command}_s"] = typical_pass_s(plain, jobs, command)
    if tracer:
        report["traced_passes"] = len(traced)
        report.update(counts)
        report["cli.output_bytes"] = traced[0].output_bytes
        for name in traced[0].self_times:
            report[name] = statistics.median(p.self_times[name] for p in traced)
        report["trace_overhead_frac"] = typical_pass_s(traced, jobs) / wall - 1.0
    else:
        while len(setup) < SETUP_SAMPLES:
            sample_setup()
        report["setup_s"] = statistics.median(setup)
        # Read before the dense references exist, which would set the peak.
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The checked outputs: a job whose table misses its reference fails on
    # every run; otherwise a run fails when its output differs from the first.
    runs = 1 + len(plain) + len(traced)
    for i, (job, (code, text)) in enumerate(zip(jobs, verified)):
        verdict = check(job, code, text)
        failed += runs if verdict is not None else mismatches[i]
        print(f"job {i:2d} {'ok  ' if verdict is None else 'FAIL'} {job.label()}"
              + ("" if verdict is None else f": {verdict}"))
    report["failed_frac"] = failed / attempted
    for name, value in report.items():
        print(f"metric {name} {value:.6g} {_unit(name)}")

    wanted = PER_LAYER if tracer else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": report[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
