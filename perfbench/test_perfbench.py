"""Self-tests of the benchmark: job generation, output checks and tracing.

Run with `python -m pytest perfbench` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from orbitwalk import cli, group  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer  # noqa: E402
from reference import check  # noqa: E402
from workloads import Job  # noqa: E402


def _main(job: Job) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(job.argv())
    return code, out.getvalue()


def test_generator_is_stable_per_seed():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7)
        assert first == workloads.generate(name, 7)
        assert [j.argv() for j in first] == [j.argv() for j in workloads.generate(name, 7)]
        assert first != workloads.generate(name, 8)


def test_negative_window_is_passed_in_equals_form():
    job = Job("evolve", "Line", tau=2.0, window=(-12, 12), initial=(((-3,), 1.0, 0.0),))
    assert "--window=-12:12" in job.argv()
    assert check(job, *_main(job)) is None


def test_checker_passes_single_walker_circle_thermal():
    job = Job("thermal", "Circle", 6, beta=0.8, theta=1.1)
    assert check(job, *_main(job)) is None


def test_checker_fails_boson_pair_thermal():
    job = Job("thermal", "Circle", 3, 2, "Boson", beta=0.7)
    verdict = check(job, *_main(job))
    assert verdict is not None and verdict.startswith("Z relative")


def test_checker_fails_nonzero_exit():
    job = Job("dos", "Circle", 4, eta=0.05, points=11)  # the default shell cap gives up
    assert check(job, *_main(job)) == "exit code 3"


def test_traced_counts_repeat_and_tracer_removes_itself():
    jobs = [Job("thermal", "Circle", 4, beta=1.0), Job("evolve", "Interval", 3, 2, tau=0.5,
                                                        initial=(((1, 2), 1.0, 0.0),))]
    original = group.act
    tracer = Tracer()
    seen = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            for job in jobs:
                assert check(job, *_main(job)) is None
        finally:
            tracer.remove()
        seen.append(tracer.counts())
    assert seen[0] == seen[1]
    assert seen[0]["orbit.partition_function.calls"] == 17  # once for Z, then per entry
    assert seen[0]["special.i_row.calls"] > 0 and seen[0]["group.act.calls"] > 0
    assert group.act is original and cli.main.__module__ == "orbitwalk.cli"
    times = tracer.self_times()
    assert set(times) >= {"special.self_s", "group.self_s", "cli.emit.self_s"}
    assert all(t >= 0.0 for t in times.values())


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
