"""Exit-code contract: seeded random configs run through `cli.main` in-process.

Every run must return 0, 2, 3 or 4 without an exception escaping `main`, a
refused or unconverged run (2, 3) must emit no table, every exit-0 `thermal`
table must equal the dense projected-kron Gibbs state of
`_oracles.many_walker_gibbs` at the gate-7 tolerances, every exit-0 `evolve`
table on the Circle and Interval must equal the state evolved by the dense
projected-kron time kernel of `_oracles.many_walker_evolution` at the gate-5
tolerance, and every exit-0 `resolvent` table must equal
`oracle.resolvent_direct` of the dense single-walker Hamiltonian at the
gate-6 tolerance.  On the Line and HalfLine that Hamiltonian is the window
with exact open ends (`_oracles.open_window_hamiltonian`).

The configs are drawn once, from a fixed seed, across every command, the four
space kinds, N <= 4, both statistics, and quarter-multiple and generic angles.
Two draws are capped to keep the campaign to a few seconds:
- Line/HalfLine `verify` draws one walker.  Its composition check glues
  through C(sites + N - 1, N) middles of the window +- the light cone, which
  is seconds of work from N = 2 on; the Line N = 3 fixed cases below cover
  the refusal of the large ones.
- `thermal` draws L^N <= 625, the size of the dense reference.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from orbitwalk import oracle
from orbitwalk.cli import COMMANDS, main

from _oracles import (
    chain_hamiltonian,
    many_walker_evolution,
    many_walker_gibbs,
    open_window_hamiltonian,
)

SEED = 6061
DRAWS_PER_COMMAND = 20
KINDS = ("Line", "Circle", "HalfLine", "Interval")
QUARTERS = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
PRECISION = 16

# Z relative and trace tolerances of acceptance gate 7; the entry tolerance of
# the projected-kron density-matrix test in test_orbit.py.
Z_REL_TOL = 1e-11
TRACE_TOL = 1e-12
RHO_TOL = 1e-10
# The matrix tolerance of acceptance gate 6.
RESOLVENT_TOL = 1e-9
# The kernel tolerance of acceptance gate 5.
EVOLVE_TOL = 1e-10

# Configs that once crashed or ran for minutes, with the exit code they must give.
FIXED = [
    (["thermal", "--set", "space.L=2", "--set", "space.N=3",
      "--set", "representation.statistics=Fermion"], 2),
    (["verify", "--set", "space.kind=Line", "--set", "space.N=3",
      "--set", "representation.statistics=Fermion", "--window=0:3"], 2),
    (["verify", "--set", "space.kind=Line", "--set", "space.N=3",
      "--set", "representation.statistics=Boson", "--window=0:3"], 2),
    (["verify", "--set", "space.kind=HalfLine", "--window=-3:0"], 2),
    (["evolve", "--set", "initial_state=[[1,0.6,0],[1,0.8,0]]", "--set", "params.tau=0"], 2),
    # Malformed values exit 2 rather than with a traceback.
    (["evolve", "--set", 'window=["a",3]'], 2),
    (["evolve", "--set", 'initial_state=[[1,"x",0]]'], 2),
    (["evolve", "--set", 'initial_state=[[[1,"b"],1,0]]'], 2),
    (["evolve", "--set", "initial_state=[[null,1,0]]"], 2),
    (["evolve", "--set", "output.precision=true"], 2),
    # Non-integral integer settings are refused, not truncated.
    (["dos", "--set", "dos.points=2.7"], 2),
    (["coined", "--set", "coined.steps=2.5"], 2),
    (["coined", "--set", "coined.source=1.9"], 2),
    (["evolve", "--set", "space.kind=Line", "--window=0:3", "--set", "initial_state=[[1.5,1,0]]"], 2),
    (["coined", "--set",
      'coined.coin={"matrix":[[[1,0],[0,0]],[[0,0],[1,0]]],"shifts":[1.5,-1]}'], 2),
    (["thermal", "--set", "space.L=2.5"], 2),
    (["evolve", "--set", "space.N=1.5"], 2),
    # A JSON true is not a real number, and an amplitude must be finite, its
    # squared norm too.
    (["evolve", "--set", "params.tau=true"], 2),
    (["evolve", "--set", "params.omega=true"], 2),
    (["evolve", "--set", "representation.theta=true"], 2),
    (["evolve", "--set", "params.beta=true"], 2),
    (["dos", "--set", "dos.eta=true"], 2),
    (["resolvent", "--set", "params.energy=[0.4,true]"], 2),
    (["evolve", "--set", "initial_state=[[1,true,0]]"], 2),
    (["evolve", "--set", "initial_state=[[1,NaN,0]]"], 2),
    (["evolve", "--set", "initial_state=[[1,Infinity,0]]"], 2),
    (["evolve", "--set", "initial_state=[[1,1e300,0]]"], 2),
    # A light cone whose width overflows, and a coined walk whose line blocks
    # would not fit in memory, are refused before any compute: the identity
    # coin's two shifts span 2e9 + 1 blocks of 64 bytes after 10^4 steps.
    (["evolve", "--set", "params.omega=1e300", "--set", "params.tau=1e10"], 2),
    (["verify", "--set", "params.omega=1e300", "--set", "params.tau=1e10"], 2),
    (["coined", "--set",
      'coined.coin={"matrix":[[[1,0],[0,0]],[[0,0],[1,0]]],"shifts":[100000,-100000]}',
      "--set", "coined.steps=10000"], 2),
    # A one-state walk spans a single block at every step, however far it moves.
    (["coined", "--set", 'coined.coin={"matrix": [[[1,0]]], "shifts": [100000]}',
      "--set", "coined.steps=10000"], 0),
    (["coined", "--set", 'coined.coin={"matrix": [[[1,0]]], "shifts": [10000000]}',
      "--set", "coined.steps=1"], 0),
    # The Hadamard walk at STEP_MAX does 10^8 block products: refused, not run
    # for most of a minute.
    (["coined", "--set", "space.L=1", "--set", "coined.steps=10000"], 2),
    # A section set to a non-object, and an output path that is not a
    # non-empty string, are refused like any bad value.
    (["dos", "--set", "dos=5"], 2),
    (["coined", "--set", "coined=5"], 2),
    (["evolve", "--set", "output=5"], 2),
    (["evolve", "--set", "params=[1]"], 2),
    (["evolve", "--set", "output.path=[1]"], 2),
    (["evolve", "--output="], 2),
]


def _angle(rng: random.Random, reflective: bool) -> float:
    """A quarter multiple or a generic angle; reflective spaces mostly get 0 or pi."""
    if reflective and rng.random() < 0.75:
        return rng.choice((0.0, math.pi))
    if rng.random() < 0.5:
        return rng.choice(QUARTERS)
    return round(rng.uniform(-math.pi, 3.0 * math.pi), 6)


def _draw(rng: random.Random, command: str) -> list[str]:
    # Mostly configs the command accepts, sometimes one it must refuse.
    if command == "thermal" and rng.random() < 0.85:
        kind = rng.choice(("Circle", "Interval"))
    elif command == "coined" and rng.random() < 0.85:
        kind = "Circle"
    else:
        kind = rng.choice(KINDS)
    finite = kind in ("Circle", "Interval")
    reflective = kind in ("HalfLine", "Interval")
    L = rng.randint(1, 6)
    if command in ("resolvent", "dos", "coined") and rng.random() < 0.8:
        N = 1
    else:
        N = rng.randint(1, 4)
    if command == "verify" and not finite:
        N = 1
    if command == "thermal":
        while L**N > 625:
            N -= 1
    statistics = rng.choice(("Boson", "Fermion"))
    im_energy = rng.uniform(0.02, 0.8) if rng.random() < 0.9 else rng.uniform(-0.1, 0.0)
    sets = {
        "space.kind": kind,
        "space.L": L,
        "space.N": N,
        "space.boundary_convention": "Dirichlet" if reflective and rng.random() < 0.25 else "Standard",
        "representation.theta": _angle(rng, reflective),
        "representation.phi": _angle(rng, reflective),
        "representation.statistics": statistics,
        "params.omega": rng.choice((0.5, 1.0, 1.5)),
        "params.tau": round(rng.uniform(-1.5, 2.5), 3),
        "params.beta": round(rng.uniform(0.0, 2.5), 3),
        "params.energy": [round(rng.uniform(-1.5, 1.5), 3), round(im_energy, 3)],
    }
    window = None
    if not finite and rng.random() < 0.9:
        lo = rng.randint(1, 3) if kind == "HalfLine" else rng.randint(-3, 3)
        window = (lo, lo + rng.randint(0, 3))
    sites = range(1, L + 1) if finite else range(window[0], window[1] + 1) if window else range(1, 4)
    state = []
    for _ in range(rng.randint(1, 2)):
        point = sorted(rng.choice(sites) for _ in range(N))
        state.append([point[0] if N == 1 else point, rng.uniform(-1, 1), rng.uniform(-1, 1)])
    norm = math.sqrt(sum(re * re + im * im for _, re, im in state))
    sets["initial_state"] = [[pt, round(re / norm, 6), round(im / norm, 6)] for pt, re, im in state]
    if command == "dos":
        sets["dos.eta"] = round(rng.uniform(0.05, 0.5), 3)
        sets["dos.points"] = rng.randint(2, 30)
    if command == "coined":
        sets["coined.steps"] = rng.randint(-3, 6)
        sets["coined.source"] = rng.randint(1, L + 1)
    argv = [command, "--precision", str(PRECISION)]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}" if isinstance(value, str) else f"{key}={value!r}"]
    if window is not None:
        argv.append(f"--window={window[0]}:{window[1]}")  # "--window -3:0" reads as a flag
    if rng.random() < 0.15:
        argv += ["--max-shell", str(rng.randint(1, 3))]
    return argv


# The fixed cases that precede the drawn ones; cases added to FIXED later
# follow the draw, so every case keeps its position and test id.
FIXED_BEFORE_DRAW = 3


def _campaign() -> list:
    rng = random.Random(SEED)
    drawn = [(_draw(rng, command), None) for _ in range(DRAWS_PER_COMMAND) for command in COMMANDS]
    return FIXED[:FIXED_BEFORE_DRAW] + drawn + FIXED[FIXED_BEFORE_DRAW:]


CAMPAIGN = _campaign()


def _setting(argv: list[str], key: str) -> str:
    return next(a.partition("=")[2] for a in argv if a.startswith(f"{key}="))


def _chain(argv: list[str]) -> np.ndarray:
    """The single-walker Hamiltonian of a finite config, from the dense oracle."""
    return chain_hamiltonian(
        _setting(argv, "space.kind"),
        int(_setting(argv, "space.L")),
        float(_setting(argv, "params.omega")),
        float(_setting(argv, "representation.theta")),
        float(_setting(argv, "representation.phi")),
        _setting(argv, "space.boundary_convention"),
    )


def _rows(out: str) -> list[list[str]]:
    return [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")][1:]


def _check_resolvent_table(argv: list[str], out: str) -> None:
    energy = complex(*json.loads(_setting(argv, "params.energy")))
    kind = _setting(argv, "space.kind")
    if kind in ("Circle", "Interval"):
        h, first = _chain(argv), 1
    else:
        window = next(a for a in argv if a.startswith("--window=")).partition("=")[2]
        lo, hi = (int(c) for c in window.split(":"))
        h, first = open_window_hamiltonian(
            kind, _setting(argv, "space.boundary_convention"),
            float(_setting(argv, "representation.phi")), float(_setting(argv, "params.omega")),
            energy, lo, hi,
        )
    green = oracle.resolvent_direct(h, energy)
    rows = _rows(out)
    assert rows
    for x, y, re, im in rows:
        want = green[int(x) - first, int(y) - first]
        assert abs(complex(float(re), float(im)) - want) <= RESOLVENT_TOL, (x, y)


def _check_evolve_table(argv: list[str], out: str) -> None:
    N = int(_setting(argv, "space.N"))
    kernel = many_walker_evolution(
        _chain(argv), N, _setting(argv, "representation.statistics"),
        float(_setting(argv, "params.tau")),
    )
    # The config reader refuses a repeated point, so every point here is distinct.
    state = {
        tuple(pt) if isinstance(pt, list) else (pt,): complex(re, im)
        for pt, re, im in json.loads(_setting(argv, "initial_state"))
    }
    rows = _rows(out)
    assert rows[-1][0] == "total"
    L = int(_setting(argv, "space.L"))
    assert len(rows) - 1 == math.comb(L + N - 1, N)
    for row in rows[:-1]:
        x = tuple(int(c) for c in row[:N])
        want = sum(kernel(x, y) * a for y, a in state.items())
        amp = complex(float(row[N]), float(row[N + 1]))
        assert abs(amp - want) <= EVOLVE_TOL, x
        assert abs(float(row[N + 2]) - abs(want) ** 2) <= EVOLVE_TOL, x


def _check_thermal_table(argv: list[str], out: str) -> None:
    N = int(_setting(argv, "space.N"))
    statistics = _setting(argv, "representation.statistics")
    beta = float(_setting(argv, "params.beta"))
    z_want, heat_want = many_walker_gibbs(_chain(argv), N, statistics, beta)
    rows = _rows(out)
    assert rows[-1][0] == "Z"
    z = float(rows[-1][2 * N])
    assert abs(z / z_want - 1.0) <= Z_REL_TOL
    trace = 0.0
    for row in rows[:-1]:
        x = tuple(int(c) for c in row[:N])
        y = tuple(int(c) for c in row[N:2 * N])
        rho = complex(float(row[2 * N]), float(row[2 * N + 1]))
        assert abs(rho - heat_want(x, y) / z_want) <= RHO_TOL, (x, y)
        if x == y:
            trace += rho.real / math.prod(math.factorial(x.count(c)) for c in set(x))
    assert abs(trace - 1.0) <= TRACE_TOL


@pytest.mark.parametrize(
    "argv, expected", CAMPAIGN, ids=[f"{i:03d}-{argv[0]}" for i, (argv, _) in enumerate(CAMPAIGN)]
)
def test_exit_code_contract(capsys, argv, expected):
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 2, 3, 4)
    if expected is not None:
        assert code == expected
    if code in (2, 3):
        assert out == ""
    if code == 0 and argv[0] == "thermal":
        _check_thermal_table(argv, out)
    if code == 0 and argv[0] == "resolvent":
        _check_resolvent_table(argv, out)
    if code == 0 and argv[0] == "evolve" and _setting(argv, "space.kind") in ("Circle", "Interval"):
        _check_evolve_table(argv, out)


def test_campaign_covers_every_command_kind_walker_count_and_statistics():
    drawn = [argv for argv, expected in CAMPAIGN if expected is None]
    assert {argv[0] for argv in drawn} == set(COMMANDS)
    assert {_setting(argv, "space.kind") for argv in drawn} == set(KINDS)
    assert {_setting(argv, "space.N") for argv in drawn} == {"1", "2", "3", "4"}
    assert {_setting(argv, "representation.statistics") for argv in drawn} == {"Boson", "Fermion"}
    thetas = {float(_setting(argv, "representation.theta")) for argv in drawn}
    assert thetas & set(QUARTERS) and thetas - set(QUARTERS)
