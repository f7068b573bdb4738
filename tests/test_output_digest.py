"""Every digest job prints what `benchmarks/output_digest.json` records.

The digest holds the sha256 of the stdout and stderr and the exit code of
each job of `benchmarks/digest_jobs.jsonl`.  A change that moves output
records the digest again, so its diff lists the jobs it moves; this test
names each job whose output moved without that.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "benchmarks" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def _recorded() -> dict:
    return json.loads(output_digest.DIGEST_FILE.read_text(encoding="utf-8"))


def test_every_job_prints_what_the_recorded_digest_says():
    recorded = _recorded()
    mismatch = output_digest.numpy_mismatch(recorded)
    assert mismatch is None, mismatch
    now = output_digest.digest(ROOT / "src", output_digest.jobs())
    assert len(now) == 248
    moved = output_digest.compare(recorded["jobs"], now)
    assert not moved, f"{len(moved)} jobs moved (A: recorded, B: now):\n" + "\n".join(moved)


def test_a_digest_from_another_numpy_names_both_versions():
    import numpy

    forged = {**_recorded(), "numpy": "0.0.0"}
    message = output_digest.numpy_mismatch(forged)
    assert "numpy 0.0.0" in message and f"numpy {numpy.__version__}" in message
