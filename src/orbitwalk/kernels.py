"""Parameters and building blocks of the free kernels on the covering lattice.

The kernels on the full integer lattice have one implementation each, the
one the orbit-space routes run once per run: the time and heat rows are
Bessel rows (`orbit._free_row` over `special.j_row`/`i_row`), the resolvent
e^{iq|x-y|} / (i omega sin q) is summed in closed form by the resolvent plan
from the complex momentum `_momentum`, and the discrete-time coined walk is
the exact light-cone blocks of `coined_line_blocks`, one array over the
walk's final window that `orbit.orbit_coined_blocks` sums over windings as
it is returned.  A kernel on the line itself is the orbit-space kernel on
`OrbitSpaceSpec("Line")`.  numpy is imported only by the coined-walk code.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError

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
    if not math.isfinite(z):
        raise DomainError(f"omega * tau = {omega:g} * {tau:g} overflows: the light cone has no width")
    return math.ceil(z + 12.0 * z ** (1.0 / 3.0) + 30.0)


def _momentum(energy: complex, omega: float) -> complex:
    """The complex momentum q with energy = -omega cos q, Re q in [0, pi], Im q > 0.

    omega must already be validated (by `KernelParams`).  An energy sweep
    calls it once per energy, with no `KernelParams` each.
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


def coined_stack_bytes(steps: int, c: CoinSpec) -> int:
    """Peak bytes of `coined_line_blocks(steps, c)`: its stack and one step's product, 16 d^2 each per displacement."""
    return 2 * 16 * c.d**2 * (abs(steps) * (max(c.shifts) - min(c.shifts)) + 1)


def coined_block_products(steps: int, c: CoinSpec) -> int:
    """Block products of `coined_line_blocks(steps, c)`: step n multiplies n * (max - min) + 1."""
    n, width = abs(steps), max(c.shifts) - min(c.shifts)
    return n + width * n * (n - 1) // 2


def _coined_blocks(steps: int, c: CoinSpec) -> tuple:
    """W^steps on the line (steps >= 0) as (first, stack): stack[k] is the block at x - y = first + k.

    A step sends row i of C times the block at delta to row i of the block at
    delta + shift_i.  The stack, allocated once at the final window, moves
    with the walk: after n steps stack[delta - n * min(shifts)] is the block
    at delta.  A step is one batched matmul over the blocks reached so far,
    then one slice-add per shift; blocks the walk cannot reach are exact zeros.
    """
    import numpy as np

    low_shift, width = min(c.shifts), max(c.shifts) - min(c.shifts)
    stack = np.zeros((steps * width + 1, c.d, c.d), dtype=complex)
    stack[0] = np.eye(c.d, dtype=complex)
    for n in range(steps):
        size = n * width + 1  # stack[:size] holds the blocks reached so far
        rows = np.matmul(c.coin, stack[:size])  # rows[k, i, j] = sum_l C_il stack[k, l, j]
        stack[:size + width] = 0
        for i, s in enumerate(c.shifts):
            stack[s - low_shift:s - low_shift + size, i, :] += rows[:, i, :]
    return steps * low_shift, stack


def coined_line_blocks(steps: int, c: CoinSpec) -> tuple:
    """The n-step coined walk on the line as (first, stack), stack[k] the block at x - y = first + k.

    The walk has a strict light cone: every block outside the stack is zero,
    so the blocks are exact and no truncation enters.  The stack runs from
    steps * min(shifts) to steps * max(shifts); negative step counts use the
    unitarity relation B_{-n}(delta) = B_n(-delta)^H, the reversed,
    conjugate-transposed stack of n steps.
    """
    if abs(steps) > STEP_MAX:
        raise DomainError(f"|steps| exceeds STEP_MAX = {STEP_MAX}")
    if steps < 0:
        first, stack = _coined_blocks(-steps, c)
        return -(first + len(stack) - 1), stack[::-1].conj().transpose(0, 2, 1)
    return _coined_blocks(steps, c)
