"""Closed-form building-block kernels on the covering lattice.

Everything here lives on the full integer lattice: the time-evolution kernel
(phase times Bessel J), the heat kernel (Bessel I), the resolvent (complex
momentum), products over walkers, and the exact light-cone blocks of a
discrete-time coined step.  numpy is imported only by the coined-walk code,
so the scalar kernels load without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError
from .special import bessel_i, bessel_j, quarter_phase

STEP_MAX = 10_000
COIN_DIM_MAX = 8

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class KernelParams:
    """Physical parameters; each operation reads only the fields it needs."""

    omega: float = 1.0
    tau: float = 0.0
    beta: float = 0.0
    energy: complex = 0j

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise DomainError(f"hopping omega must be positive and finite, got {self.omega}")
        if not math.isfinite(self.tau):
            raise DomainError("tau must be finite")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise DomainError(f"inverse temperature beta must be >= 0, got {self.beta}")


def window_radius(omega: float, tau: float) -> int:
    """Half-width beyond which J_{|x-y|}(omega tau) terms drop below ~1e-16."""
    z = abs(omega * tau)
    return math.ceil(z + 12.0 * z ** (1.0 / 3.0) + 30.0)


def line_kernel(x: int, y: int, p: KernelParams) -> complex:
    """Walker amplitude on the line: e^{i pi |x-y| / 2} J_{|x-y|}(omega tau).

    Negative times go through the unitarity relation, so the quarter phase
    flips sign while the Bessel value is taken at |tau|.
    """
    d = abs(x - y)
    value = bessel_j(d, p.omega * abs(p.tau))
    return quarter_phase(d if p.tau >= 0.0 else -d) * value


def line_heat_kernel(x: int, y: int, p: KernelParams) -> float:
    """Gibbs-operator matrix element on the line: I_{x-y}(beta omega)."""
    return bessel_i(abs(x - y), p.beta * p.omega)


def resolvent_momentum(p: KernelParams) -> complex:
    """The complex momentum q with energy = -omega cos q, Re q in (0, pi), Im q > 0."""
    return _momentum(p.energy, p.omega)


def _momentum(energy: complex, omega: float) -> complex:
    """`resolvent_momentum` at an energy and an already validated omega.

    An energy sweep calls it once per energy, with no `KernelParams` each.
    """
    e = complex(energy)
    if not e.imag > 0.0:
        raise DomainError(f"resolvent requires Im(energy) > 0, got {e}")
    q = cmath.acos(-e / omega)
    if q.imag < 0.0:
        q = -q
    if not (q.imag > 0.0 and 0.0 <= q.real <= math.pi):
        raise DomainError(f"no valid momentum branch for energy {e}")
    residual = abs(e + omega * cmath.cos(q))
    if residual > 1e-12 * max(1.0, abs(e)):
        raise DomainError(f"momentum branch residual {residual:.2e} too large for energy {e}")
    return q


def line_resolvent(x: int, y: int, p: KernelParams) -> complex:
    """Resolvent kernel on the line: e^{i q |x-y|} / (i omega sin q)."""
    q = resolvent_momentum(p)
    d = abs(x - y)
    return cmath.exp(1j * q * d) / (1j * p.omega * cmath.sin(q))


def product_kernel(x: tuple, y: tuple, p: KernelParams) -> complex:
    """N independent walkers: the product of per-coordinate line kernels."""
    if len(x) != len(y):
        raise DomainError(f"coordinate tuples differ in length: {len(x)} vs {len(y)}")
    out = 1 + 0j
    for xi, yi in zip(x, y):
        out *= line_kernel(xi, yi, p)
    return out


@dataclass(frozen=True, eq=False)
class CoinSpec:
    """Internal coin space: dimension, unitary coin matrix, shift per state."""

    d: int
    coin: np.ndarray
    shifts: tuple

    def __post_init__(self):
        import numpy as np

        if not 1 <= self.d <= COIN_DIM_MAX:
            raise DomainError(f"coin dimension must be in 1..{COIN_DIM_MAX}")
        coin = np.asarray(self.coin, dtype=complex)
        if coin.shape != (self.d, self.d):
            raise DomainError(f"coin matrix must be {self.d}x{self.d}")
        if len(self.shifts) != self.d or any(not isinstance(s, int) for s in self.shifts):
            raise DomainError("shifts must be d integers")
        dev = np.max(np.abs(coin @ coin.conj().T - np.eye(self.d)))
        if dev > 1e-14:
            raise DomainError(f"coin is not unitary (deviation {dev:.2e})")
        coin.setflags(write=False)
        object.__setattr__(self, "coin", coin)
        object.__setattr__(self, "shifts", tuple(self.shifts))


def hadamard_coin() -> CoinSpec:
    """The standard 2-state coin with shifts (+1, -1)."""
    import numpy as np

    coin = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex)
    return CoinSpec(2, coin, (1, -1))


def _coined_blocks(steps: int, c: CoinSpec) -> dict:
    """All nonzero blocks of W^steps on the line, keyed by x - y (steps >= 0).

    A step sends row i of C times the block at delta to row i of the block at
    delta + shift_i.  The blocks of one step are stacked over a contiguous
    displacement range, so a step is one batched matmul and one slice-add
    per shift.  Displacements the walk cannot reach (odd ones of a +-1 walk
    after an even step count) stay zero in the stack and are not returned.
    """
    import numpy as np

    low_shift, high_shift = min(c.shifts), max(c.shifts)
    stack = np.eye(c.d, dtype=complex)[np.newaxis]
    low = 0  # the displacement of stack[0]
    reached = {0}
    for _ in range(steps):
        rows = np.matmul(c.coin, stack)  # rows[k, i, j] = sum_l C_il stack[k, l, j]
        size = len(stack)
        new = np.zeros((size + high_shift - low_shift, c.d, c.d), dtype=complex)
        for i, s in enumerate(c.shifts):
            new[s - low_shift:s - low_shift + size, i, :] += rows[:, i, :]
        stack, low = new, low + low_shift
        reached = {delta + s for delta in reached for s in c.shifts}
    return {delta: stack[delta - low] for delta in sorted(reached)}


def coined_line_blocks(steps: int, c: CoinSpec) -> dict:
    """Every nonzero block of the n-step coined walk on the line, keyed by x - y.

    The walk has a strict light cone (|x - y| <= |steps| * max|shift|), so the
    blocks are exact — no truncation enters.  Negative step counts use the
    unitarity relation B_{-n}(delta) = B_n(-delta)^H.
    """
    if abs(steps) > STEP_MAX:
        raise DomainError(f"|steps| exceeds STEP_MAX = {STEP_MAX}")
    if steps < 0:
        return {-delta: blk.conj().T for delta, blk in _coined_blocks(-steps, c).items()}
    return _coined_blocks(steps, c)


def coined_line_kernel(steps: int, x: int, y: int, c: CoinSpec) -> np.ndarray:
    """The (x, y) block of the n-step coined walk on the line (see `coined_line_blocks`)."""
    import numpy as np

    blk = coined_line_blocks(steps, c).get(x - y)
    return blk.copy() if blk is not None else np.zeros((c.d, c.d), dtype=complex)
