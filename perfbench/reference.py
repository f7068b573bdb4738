"""Dense references for benchmark jobs, and the check of each emitted table.

The references come from explicit matrices.  The single-walker Hamiltonian is
`orbitwalk.oracle.build_hamiltonian`.  N walkers use the Kronecker sum of that
matrix, projected on the symmetric (bosons) or antisymmetric (fermions)
subspace, with numpy's eigh and solve.  Nothing here goes through the image
sums under test.  The orbit kernel of sorted tuples x, y is
sum_sigma sign(sigma) F(x, sigma y) = (F S)[x, y], with S the signed sum of
coordinate permutations; for one walker S is the identity.

The tolerances are those of the repository's acceptance gates.  `check` runs
outside every timed and traced region.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from orbitwalk import oracle
from orbitwalk.kernels import hadamard_coin

from workloads import OMEGA, Job

KERNEL_TOL = 1e-10
Z_REL_TOL = 1e-11
RESOLVENT_TOL = 1e-9
DOS_TOL = 1e-6
COINED_TOL = 1e-12


def _parity(perm: tuple) -> int:
    return sum(a > b for a, b in itertools.combinations(perm, 2)) & 1


def _single_hamiltonian(job: Job) -> tuple[np.ndarray, int]:
    """The walker's Hamiltonian and the site that row 0 stands for."""
    if job.kind == "Circle":
        return oracle.build_hamiltonian(
            oracle.HamiltonianSpec(job.L, OMEGA, oracle.CircleTwisted(job.theta))
        ), 1
    if job.kind == "Interval":
        return oracle.build_hamiltonian(
            oracle.HamiltonianSpec(job.L, OMEGA, oracle.IntervalPhase(job.theta, job.phi))
        ), 1
    # Infinite spaces: a chain whose far ends lie well outside the light cone
    # of tau (|J_n(tau)| < 1e-16 for n > 4 tau + 40).  Kept short so that the
    # reference does not set the benchmark's peak memory.
    margin = math.ceil(4 * abs(job.tau)) + 40
    lo, hi = job.window
    if job.kind == "HalfLine":
        sites = hi + margin
        return oracle.build_hamiltonian(
            oracle.HamiltonianSpec(sites, OMEGA, oracle.HalfLinePhase(job.phi))
        ), 1
    sites = hi - lo + 1 + 2 * margin
    return oracle.build_hamiltonian(oracle.HamiltonianSpec(sites, OMEGA, oracle.Dirichlet())), lo - margin


class Dense:
    """N-walker Hamiltonian of a job and its signed permutation sum S."""

    def __init__(self, job: Job):
        h, self.first = _single_hamiltonian(job)
        n, N = h.shape[0], job.N
        self.shape = (n,) * N
        eye = np.eye(n)
        self.h = sum(
            functools.reduce(np.kron, [h if k == i else eye for k in range(N)]) for i in range(N)
        )
        grid = np.indices(self.shape).reshape(N, -1)
        rows = np.arange(n**N)
        self.s = np.zeros((n**N, n**N))
        for perm in itertools.permutations(range(N)):
            sign = -1.0 if job.statistics == "Fermion" and _parity(perm) else 1.0
            self.s[rows, np.ravel_multi_index(grid[list(perm)], self.shape)] += sign
        self.values, self.vectors = np.linalg.eigh(self.h)

    def index(self, point: tuple) -> int:
        return int(np.ravel_multi_index([c - self.first for c in point], self.shape))

    def function(self, f) -> np.ndarray:
        """f(H) S, by the spectral sum."""
        return (self.vectors * f(self.values)) @ self.vectors.conj().T @ self.s

    def resolvent(self, energy: complex) -> np.ndarray:
        """(E - H)^{-1} S, by a direct solve."""
        return np.linalg.solve(energy * np.eye(len(self.values)) - self.h, self.s.astype(complex))


def _domain(job: Job) -> list[tuple]:
    if job.window is None:
        lo, hi = 1, job.L
    else:
        lo, hi = job.window
        if job.kind == "HalfLine":
            lo = max(lo, 1)
    return list(itertools.combinations_with_replacement(range(lo, hi + 1), job.N))


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no table in output")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _point(cells: list[str]) -> tuple:
    return tuple(int(c) for c in cells)


class Mismatch(Exception):
    """An emitted value differs from the reference by more than its tolerance."""


def _close(what: str, got, want, tol: float) -> None:
    err = abs(got - want)
    if not err <= tol:
        raise Mismatch(f"{what}: |{got} - {want}| = {err:.3e} > {tol:.0e}")


def _same_points(what: str, got: list, want: list) -> None:
    if sorted(got) != sorted(want):
        raise Mismatch(f"{what}: emitted points differ from the domain")


def _check_evolve(job: Job, rows) -> None:
    dense = Dense(job)
    kernel = dense.function(lambda e: np.exp(-1j * job.tau * e))
    N = job.N
    body, last = rows[:-1], rows[-1]
    _same_points("evolve", [_point(r[:N]) for r in body], _domain(job))
    total = 0.0
    for r in body:
        target = dense.index(_point(r[:N]))
        amp = sum(
            complex(re, im) * kernel[target, dense.index(pt)] for pt, re, im in job.initial
        )
        total += abs(amp) ** 2
        _close(f"amplitude at {r[:N]}", complex(float(r[N]), float(r[N + 1])), amp, KERNEL_TOL)
        _close(f"probability at {r[:N]}", float(r[N + 2]), abs(amp) ** 2, KERNEL_TOL)
    _close("total probability", float(last[-1]), total, KERNEL_TOL)


def _check_thermal(job: Job, rows) -> None:
    dense = Dense(job)
    gibbs = dense.function(lambda e: np.exp(-job.beta * e))
    z = float(np.trace(gibbs).real) / math.factorial(job.N)
    N = job.N
    body, last = rows[:-1], rows[-1]
    _close("Z relative", float(last[2 * N]) / z, 1.0, Z_REL_TOL)
    want = _domain(job)
    _same_points("thermal", [(_point(r[:N]), _point(r[N:2 * N])) for r in body],
                 list(itertools.product(want, want)))
    for r in body:
        x, y = dense.index(_point(r[:N])), dense.index(_point(r[N:2 * N]))
        got = complex(float(r[2 * N]), float(r[2 * N + 1]))
        _close(f"density {r[:2 * N]}", got, gibbs[x, y] / z, KERNEL_TOL)


def _check_resolvent(job: Job, rows) -> None:
    dense = Dense(job)
    green = dense.resolvent(complex(*job.energy))
    N = job.N
    want = _domain(job)
    _same_points("resolvent", [(_point(r[:N]), _point(r[N:2 * N])) for r in rows],
                 list(itertools.product(want, want)))
    for r in rows:
        x, y = dense.index(_point(r[:N])), dense.index(_point(r[N:2 * N]))
        got = complex(float(r[2 * N]), float(r[2 * N + 1]))
        _close(f"resolvent {r[:2 * N]}", got, green[x, y], RESOLVENT_TOL)


def _check_dos(job: Job, header, rows) -> None:
    dense = Dense(job)
    sites = [tuple(int(c) for c in name[len("dos_"):].split("_")) for name in header[1:]]
    _same_points("dos", sites, _domain(job))
    index = [dense.index(s) for s in sites]
    body, last = rows[:-1], rows[-1]
    if len(body) != job.points:
        raise Mismatch(f"dos: {len(body)} energies, expected {job.points}")
    energies = np.array([float(r[0]) for r in body])
    want = np.array(
        [-np.diag(dense.resolvent(complex(e, job.eta)))[index].imag / math.pi for e in energies]
    )
    got = np.array([[float(c) for c in r[1:]] for r in body])
    worst = float(np.max(np.abs(got - want)))
    if not worst <= DOS_TOL:
        raise Mismatch(f"dos: sup deviation {worst:.3e} > {DOS_TOL:.0e}")
    integrals = 0.5 * np.sum(np.diff(energies)[:, None] * (want[1:] + want[:-1]), axis=0)
    for site, g, w in zip(sites, last[1:], integrals):
        _close(f"dos integral at {site}", float(g), w, DOS_TOL)


def _check_coined(job: Job, rows) -> None:
    coin = hadamard_coin()
    d = coin.d
    power = oracle.coined_circle_power(job.L, job.theta, coin, job.steps)
    blocks = [r for r in rows if r[1] != ""]
    dist = [r for r in rows if r[1] == "" and r[0] != "total"]
    if len(blocks) != (job.L * d) ** 2 or len(dist) != job.L:
        raise Mismatch("coined: wrong row count")
    for r in blocks:
        x, y, i, j = (int(c) for c in r[:4])
        want = power[(x - 1) * d + i, (y - 1) * d + j]
        _close(f"coined block {r[:4]}", complex(float(r[4]), float(r[5])), want, COINED_TOL)
    total = 0.0
    for r in dist:
        x = int(r[0])
        prob = float(np.sum(np.abs(power[(x - 1) * d : x * d, (job.source - 1) * d]) ** 2))
        total += prob
        _close(f"coined probability at {x}", float(r[7]), prob, COINED_TOL)
    _close("coined total", float(rows[-1][7]), total, COINED_TOL)


def _check_verify(rows) -> None:
    failed = [r[0] for r in rows if r[1] != "pass"]
    if failed:
        raise Mismatch(f"verify: checks failed: {failed}")


def check(job: Job, code, text: str) -> str | None:
    """None when the run exited 0 and its table matches the dense reference,
    else the reason it does not."""
    if code != 0:
        return f"exit code {code}"
    try:
        header, rows = _table(text)
        if job.command == "evolve":
            _check_evolve(job, rows)
        elif job.command == "thermal":
            _check_thermal(job, rows)
        elif job.command == "resolvent":
            _check_resolvent(job, rows)
        elif job.command == "dos":
            _check_dos(job, header, rows)
        elif job.command == "coined":
            _check_coined(job, rows)
        else:
            _check_verify(rows)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, IndexError) as exc:
        return f"unreadable table: {exc}"
    return None
