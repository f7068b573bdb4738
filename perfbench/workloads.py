"""Seeded job lists: each workload is a fixed list of slots filled in from a seed.

A job is one `orbitwalk` command line.  A slot fixes what sets a job's cost:
command, space, size, walker count, statistics, coin steps, shell cap and the
tau/beta/eta/Im E of every job whose cost they set.  The seed draws everything
else (twist and boundary angles, source sites and amplitudes, real energies,
and tau of the cheap single-walker evolve jobs), so two seeds give different
inputs of about the same cost and the run-to-run spread of a workload's times
is the machine's, not the generator's.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

OMEGA = 1.0


@dataclass(frozen=True)
class Job:
    """One CLI invocation; every field the reference needs is set explicitly."""

    command: str
    kind: str = "Circle"
    L: int = 4
    N: int = 1
    statistics: str = "Boson"
    theta: float = 0.0
    phi: float = 0.0
    tau: float = 1.0
    beta: float = 1.0
    energy: tuple = (0.4, 0.3)
    window: tuple | None = None
    eta: float = 0.05
    points: int = 201
    steps: int = 4
    source: int = 1
    initial: tuple = (((1,), 1.0, 0.0),)
    max_shell: int | None = None

    def argv(self) -> list[str]:
        sets = {
            "space.kind": self.kind,
            "space.L": self.L,
            "space.N": self.N,
            "representation.theta": self.theta,
            "representation.phi": self.phi,
            "representation.statistics": self.statistics,
            "params.omega": OMEGA,
        }
        if self.command in ("evolve", "verify"):
            sets["params.tau"] = self.tau
        if self.command == "evolve":
            sets["initial_state"] = [
                [pt[0] if self.N == 1 else list(pt), re, im] for pt, re, im in self.initial
            ]
        if self.command == "thermal":
            sets["params.beta"] = self.beta
        if self.command == "resolvent":
            sets["params.energy"] = list(self.energy)
        if self.command == "dos":
            sets["dos.eta"] = self.eta
            sets["dos.points"] = self.points
        if self.command == "coined":
            sets["coined.steps"] = self.steps
            sets["coined.source"] = self.source
        argv = [self.command]
        for key, value in sets.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        if self.max_shell is not None:
            argv += ["--max-shell", str(self.max_shell)]
        if self.window is not None:
            # argparse reads "--window -40:40" as two flags; the = form is safe.
            argv.append(f"--window={self.window[0]}:{self.window[1]}")
        return argv

    def label(self) -> str:
        text = f"{self.command} {self.kind} L={self.L} N={self.N} {self.statistics}"
        if self.max_shell is not None:
            text += f" max_shell={self.max_shell}"
        return text


def _angle(rng: random.Random) -> float:
    """A generic twist angle, away from 0 so the general phase path runs."""
    return rng.uniform(0.1, 2.0 * math.pi - 0.1)


def _phases(rng: random.Random, kind: str) -> dict:
    """Representation angles the space admits (Interval and HalfLine: 0 or pi)."""
    if kind == "Circle":
        return {"theta": _angle(rng)}
    if kind == "Interval":
        return {"theta": rng.choice((0.0, math.pi)), "phi": rng.choice((0.0, math.pi))}
    if kind == "HalfLine":
        return {"phi": rng.choice((0.0, math.pi))}
    return {}


def _walkers(rng: random.Random, L: int, N: int, statistics: str) -> tuple:
    """A sorted N-tuple of sites; distinct for fermions, whose coincident states vanish."""
    if statistics == "Fermion":
        return tuple(sorted(rng.sample(range(1, L + 1), N)))
    return tuple(sorted(rng.choice(range(1, L + 1)) for _ in range(N)))


def _superposition(rng: random.Random, sites: list) -> tuple:
    """Normalized complex amplitudes on the given single-walker sites."""
    raw = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in sites]
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
    return tuple(((s,), a.real / norm, a.imag / norm) for s, a in zip(sites, raw))


def single_walker(rng: random.Random) -> list[Job]:
    jobs = []
    for kind, L, beta in (("Circle", 16, 1.0), ("Interval", 12, 2.0), ("Circle", 8, 0.5)):
        jobs.append(Job("thermal", kind, L, beta=beta, **_phases(rng, kind)))
    for L, steps in ((16, 20), (12, 16), (8, 10)):
        jobs.append(
            Job("coined", "Circle", L, theta=_angle(rng), steps=steps, source=rng.randint(1, L))
        )
    for kind, L, tau_max, window in (
        ("Circle", 12, 20.0, None),
        ("Circle", 8, 5.0, None),
        ("Interval", 10, 10.0, None),
        ("Interval", 6, 3.0, None),
        ("HalfLine", 1, 10.0, (1, 40)),
        ("Line", 1, 10.0, (-40, 40)),
    ):
        # sources stay 10 sites inside a window so the light cone is mostly in view
        lo, hi = (window[0] + 10, window[1] - 10) if window else (1, L)
        sites = sorted(rng.sample(range(lo, hi + 1), 2))
        jobs.append(
            Job(
                "evolve", kind, L, tau=rng.uniform(0.5 * tau_max, tau_max), window=window,
                initial=_superposition(rng, sites), **_phases(rng, kind),
            )
        )
    return jobs


def many_walker(rng: random.Random) -> list[Job]:
    jobs = []
    for kind, L, N, statistics, tau in (
        ("Circle", 4, 3, "Boson", 1.0),
        ("Circle", 6, 2, "Boson", 2.5),
        ("Circle", 5, 2, "Fermion", 2.5),
        ("Interval", 4, 2, "Boson", 2.5),
        ("Interval", 3, 2, "Fermion", 2.5),
    ):
        initial = ((_walkers(rng, L, N, statistics), 1.0, 0.0),)
        jobs.append(
            Job("evolve", kind, L, N, statistics, tau=tau, initial=initial,
                **_phases(rng, kind))
        )
    # Bosonic N=2 thermal is a known defect (Z misses the coincident-point
    # weight); it runs in `known_defects`, so this workload has no failures.
    jobs.append(Job("thermal", "Circle", 3, 2, "Fermion", beta=1.0, theta=_angle(rng)))
    jobs.append(Job("verify", "Circle", 3, 2, "Boson", tau=1.0, theta=_angle(rng)))
    return jobs


def resolvent_sweep(rng: random.Random) -> list[Job]:
    jobs = []
    for kind, L, eta, points, cap in (
        ("Circle", 5, 0.05, 201, 600),
        ("Interval", 4, 0.1, 101, 600),
        ("Circle", 6, 0.25, 101, None),
    ):
        jobs.append(Job("dos", kind, L, eta=eta, points=points, max_shell=cap, **_phases(rng, kind)))
    for kind, L, im, cap in (
        ("Circle", 8, 0.05, 600),
        ("Interval", 6, 0.1, 600),
        ("Circle", 8, 0.3, None),
        ("Interval", 8, 0.2, None),
    ):
        energy = (rng.uniform(-0.5, 0.5), im)
        jobs.append(Job("resolvent", kind, L, energy=energy, max_shell=cap, **_phases(rng, kind)))
    return jobs


def known_defects(rng: random.Random) -> list[Job]:
    """The defects open at the time of writing, each next to a passing control.

    Not a timed workload: every job here that fails is a wrong answer or a
    refusal the program should not give, and the timed workloads must not fail.
    """
    theta = _angle(rng)
    energy = (rng.uniform(-0.5, 0.5), 0.5)
    return [
        # default shell cap cannot converge eta=0.05: exit 3
        Job("dos", "Circle", 4, theta=theta, eta=0.05, points=201),
        Job("dos", "Circle", 4, theta=theta, eta=0.05, points=201, max_shell=600),
        # bosonic Z lacks the 1/prod(multiplicity!) weight on coincident points
        Job("thermal", "Circle", 3, 2, "Boson", beta=1.0, theta=theta),
        Job("thermal", "Circle", 3, 2, "Fermion", beta=1.0, theta=theta),
        # the N-walker resolvent is not a product of single-walker resolvents
        Job("resolvent", "Circle", 3, 2, "Boson", theta=theta, energy=energy, max_shell=600),
        Job("dos", "Circle", 3, 2, "Fermion", theta=theta, eta=0.3, points=21, max_shell=600),
        Job("resolvent", "Circle", 3, 1, theta=theta, energy=energy, max_shell=600),
    ]


WORKLOADS = {
    "single_walker": single_walker,
    "many_walker": many_walker,
    "resolvent_sweep": resolvent_sweep,
    "known_defects": known_defects,
}


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of `workload` for `seed`; the same pair always gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
