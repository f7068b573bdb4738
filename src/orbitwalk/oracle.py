"""Independent ground truth: dense tight-binding Hamiltonians and their kernels.

Everything in this module goes through explicit matrices — build, eigh,
solve — and never touches the image-sum machinery, so agreement between the
two routes is a genuine cross-check rather than a tautology.  A chain may
have a single site: its Hamiltonian is then the 1 x 1 sum of its boundary
terms (-omega cos theta on the twisted ring).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import CoinSpec

SITES_MAX = 2048
COINED_DIM_MAX = 4096
MANY_BODY_MAX = 6

_ANGLE_TOL = 1e-12


def _require_zero_or_pi(angle: float, name: str) -> float:
    """Normalize to exactly 0.0 or pi; anything else breaks hermiticity."""
    reduced = angle % (2.0 * math.pi)
    if min(reduced, 2.0 * math.pi - reduced) <= _ANGLE_TOL:
        return 0.0
    if abs(reduced - math.pi) <= _ANGLE_TOL:
        return math.pi
    raise DomainError(f"{name} must be 0 or pi for a Hermitian boundary term, got {angle}")


@dataclass(frozen=True)
class CircleTwisted:
    """Periodic ring of L sites with flux phase theta on the closing bond."""

    theta: float = 0.0


@dataclass(frozen=True)
class HalfLinePhase:
    """Semi-infinite chain truncated to its sites, boundary phase phi at site 1."""

    phi: float = 0.0


@dataclass(frozen=True)
class IntervalPhase:
    """L-site chain with boundary phases phi at site 1 and theta+phi at site L."""

    theta: float = 0.0
    phi: float = 0.0


@dataclass(frozen=True)
class Dirichlet:
    """Plain open chain: no boundary terms at all."""


@dataclass(frozen=True)
class HamiltonianSpec:
    sites: int
    omega: float
    boundary: object

    def __post_init__(self):
        if self.sites < 1:
            raise DomainError("need at least one site")
        if self.sites > SITES_MAX:
            raise DomainError(f"site count {self.sites} exceeds {SITES_MAX}")
        if not self.omega > 0.0:
            raise DomainError("omega must be positive")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a Hermitian matrix; eigenvalues ascending, columns unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def sites(self) -> int:
        return len(self.eigenvalues)


def half_line_window(omega: float, tau: float) -> int:
    """Window size whose far edge stays outside the light cone of tau."""
    return max(200, math.ceil(4.0 * abs(omega * tau)) + 80)


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """Dense Hermitian matrix with -(omega/2) nearest-neighbor bonds."""
    n = spec.sites
    b = spec.boundary
    h = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        h[i, i + 1] += -spec.omega / 2.0
        h[i + 1, i] += -spec.omega / 2.0
    if isinstance(b, CircleTwisted):
        h[0, n - 1] += -(spec.omega / 2.0) * cmath.exp(-1j * b.theta)
        h[n - 1, 0] += -(spec.omega / 2.0) * cmath.exp(1j * b.theta)
    elif isinstance(b, HalfLinePhase):
        phi = _require_zero_or_pi(b.phi, "phi")
        h[0, 0] += -(spec.omega / 2.0) * math.cos(phi)  # e^{i phi} is +-1 here
    elif isinstance(b, IntervalPhase):
        theta = _require_zero_or_pi(b.theta, "theta")
        phi = _require_zero_or_pi(b.phi, "phi")
        h[0, 0] += -(spec.omega / 2.0) * math.cos(phi)
        h[n - 1, n - 1] += -(spec.omega / 2.0) * math.cos(theta + phi)
    elif isinstance(b, Dirichlet):
        pass
    else:
        raise DomainError(f"unknown boundary {b!r}")
    assert np.max(np.abs(h - h.conj().T)) <= 1e-15 * max(1.0, spec.omega)
    return h


def diagonalize(h: np.ndarray) -> SpectralDecomposition:
    """Eigenpairs of a Hermitian matrix, with residual and unitarity checks."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    if h.shape != (n, n):
        raise DomainError("matrix must be square")
    if n > SITES_MAX:
        raise DomainError(f"matrix size {n} exceeds {SITES_MAX}")
    if np.max(np.abs(h - h.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(h))):
        raise DomainError("matrix is not Hermitian")
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    residual = np.max(np.abs(h @ eigenvectors - eigenvectors * eigenvalues))
    if residual > 1e-10 * scale:
        raise DomainError(f"eigensolver residual {residual:.2e} too large")
    unit = np.max(np.abs(eigenvectors.conj().T @ eigenvectors - np.eye(n)))
    if unit > 1e-12:
        raise DomainError(f"eigenvector matrix not unitary to 1e-12 ({unit:.2e})")
    return SpectralDecomposition(eigenvalues, eigenvectors)


def spectral_kernel_matrix(dec: SpectralDecomposition, tau: float) -> np.ndarray:
    """Full e^{-iH tau} via the spectral sum."""
    phases = np.exp(-1j * dec.eigenvalues * tau)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T


def spectral_kernel(dec: SpectralDecomposition, tau: float, x: int, y: int) -> complex:
    """Single matrix element of e^{-iH tau}; sites are 1-based."""
    n = dec.sites
    if not (1 <= x <= n and 1 <= y <= n):
        raise DomainError(f"sites must lie in 1..{n}")
    vx = dec.eigenvectors[x - 1, :]
    vy = dec.eigenvectors[y - 1, :]
    return complex(np.sum(vx * np.exp(-1j * dec.eigenvalues * tau) * vy.conj()))


def resolvent_direct(h: np.ndarray, energy: complex) -> np.ndarray:
    """(E - H)^{-1} by direct linear solve; requires Im E > 0."""
    if not complex(energy).imag > 0.0:
        raise DomainError(f"resolvent requires Im(energy) > 0, got {energy}")
    n = h.shape[0]
    g = np.linalg.solve(energy * np.eye(n) - h, np.eye(n, dtype=complex))
    residual = np.max(np.abs((energy * np.eye(n) - h) @ g - np.eye(n)))
    assert residual <= 1e-11 * max(1.0, abs(energy))
    return g


def gibbs_direct(dec: SpectralDecomposition, beta: float) -> np.ndarray:
    """e^{-beta H} via the spectral sum."""
    if beta < 0.0:
        raise DomainError("beta must be >= 0")
    weights = np.exp(-beta * dec.eigenvalues)
    return (dec.eigenvectors * weights) @ dec.eigenvectors.conj().T


def partition_direct(dec: SpectralDecomposition, beta: float) -> float:
    """Tr e^{-beta H}."""
    if beta < 0.0:
        raise DomainError("beta must be >= 0")
    return float(np.sum(np.exp(-beta * dec.eigenvalues)))


def permanent(m) -> complex:
    """Permanent by its definition, the sum over all n! column orders (small matrices only).

    `m` is a square matrix of nested lists or an array, the same to the last
    bit in either.  No term is subtracted, so a matrix of positive entries
    keeps every digit (Ryser's formula cancels there).  At most 720 terms.
    """
    rows = [[complex(v) for v in row] for row in m]
    n = len(rows)
    if n > MANY_BODY_MAX:
        raise DomainError(f"permanent limited to {MANY_BODY_MAX}x{MANY_BODY_MAX}")
    total = 0j
    for perm in itertools.permutations(range(n)):
        total += functools.reduce(operator.mul, map(operator.getitem, rows, perm))
    return total


def many_body_value(m: list, statistics: str) -> complex:
    """Permanent (bosons) or determinant (fermions) of a single-particle kernel
    matrix m[a][b] = <x_a| e^{-iH tau} |y_b>, given as nested lists."""
    if statistics == "Fermion":
        return complex(np.linalg.det(np.array(m)))
    return permanent(m)


def many_body_kernel(
    dec: SpectralDecomposition, n_walkers: int, statistics: str, x: tuple, y: tuple, tau: float
) -> complex:
    """N identical walkers: permanent (bosons) / determinant (fermions) of the
    single-particle kernel matrix K[a, b] = <x_a| e^{-iH tau} |y_b>."""
    if n_walkers > MANY_BODY_MAX:
        raise DomainError(f"walker count limited to {MANY_BODY_MAX}")
    if len(x) != n_walkers or len(y) != n_walkers:
        raise DomainError("coordinate tuples must have one entry per walker")
    if list(x) != sorted(x) or list(y) != sorted(y):
        raise DomainError("coordinate tuples must be sorted ascending")
    if statistics not in ("Boson", "Fermion"):
        raise DomainError(f"unknown statistics {statistics!r}")
    m = [[spectral_kernel(dec, tau, xa, yb) for yb in y] for xa in x]
    return many_body_value(m, statistics)


def coined_circle_power(L: int, theta: float, c: CoinSpec, steps: int) -> np.ndarray:
    """(S_theta (I x C))^steps on the ring, basis index (site-1)*d + coin."""
    if steps < 0:
        raise DomainError("steps must be >= 0")
    d = c.d
    dim = L * d
    if dim > COINED_DIM_MAX:
        raise DomainError(f"matrix dimension {dim} exceeds {COINED_DIM_MAX}")
    coin_full = np.kron(np.eye(L, dtype=complex), np.asarray(c.coin, dtype=complex))
    shift = np.zeros((dim, dim), dtype=complex)
    # On the sector psi(x+L) = e^{i theta} psi(x) an up-wrap of the shift
    # contributes e^{-i theta} (same orientation as the twisted Hamiltonian's
    # boundary hop), hence the minus sign in the wrap phase.
    for x in range(1, L + 1):
        for i, s in enumerate(c.shifts):
            target = x + s
            wraps = (target - 1) // L
            wrapped = target - wraps * L
            shift[(wrapped - 1) * d + i, (x - 1) * d + i] = cmath.exp(-1j * theta * wraps)
    w = shift @ coin_full
    unit = np.max(np.abs(w.conj().T @ w - np.eye(dim)))
    if unit > 1e-12:
        raise DomainError(f"step matrix not unitary ({unit:.2e})")
    return np.linalg.matrix_power(w, steps)


def coined_circle_block(power: np.ndarray, d: int, x: int, y: int) -> np.ndarray:
    """The (x, y) coin block of a matrix returned by coined_circle_power."""
    return power[(x - 1) * d : x * d, (y - 1) * d : y * d].copy()


def gauge_check(L: int, theta: float, tau: float, omega: float = 1.0) -> float:
    """Max deviation between the uniformly-phased ring kernel and the
    phase-dressed twisted-ring kernel; zero when the two are gauge images."""
    twisted = diagonalize(build_hamiltonian(HamiltonianSpec(L, omega, CircleTwisted(theta))))
    k_twisted = spectral_kernel_matrix(twisted, tau)

    peierls = np.zeros((L, L), dtype=complex)
    up = -(omega / 2.0) * cmath.exp(-1j * theta / L)
    for x in range(L):
        peierls[(x + 1) % L, x] += up
        peierls[x, (x + 1) % L] += up.conjugate()
    k_peierls = spectral_kernel_matrix(diagonalize(peierls), tau)

    sites = np.arange(1, L + 1)
    dressing = np.exp(-1j * theta * (sites[:, None] - sites[None, :]) / L)
    return float(np.max(np.abs(k_peierls - dressing * k_twisted)))
