"""Parameters and building blocks of the free kernels on the covering lattice.

The kernels on the full integer lattice have one implementation each, the
one the orbit-space routes run once per run: the time and heat rows are
Bessel rows (`orbit._free_row` over `special.j_row`/`i_row`), the resolvent
z^|x-y| / (i omega sin q), z = e^{iq}, is summed in closed form by the
resolvent plan in powers of z, from the z and omega sin q of `_momentum`
(two square roots per energy), and the coined walk is the exact
light-cone blocks of `coined_line_blocks`, priced by `coined_price`: d
planes over the final window, plane l holding row l of every block, which
a step updates with one coin product, returned as a stack of blocks that
views them and that `orbit.orbit_coined_blocks` sums over windings as it
is.  A kernel on the line is the orbit-space kernel
on `OrbitSpaceSpec("Line")`; numpy is imported only by the coined-walk code.
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


# |E| / omega past which omega sin q = -iE and e^{iq} = -omega / 2E to the last bit.
_FAR = 2.0**27


def _momentum(energy: complex, omega: float) -> tuple:
    """(z, v) with z = e^{iq}, v = omega sin q, energy = -omega cos q and Im q > 0.

    With w = cos q = -E / omega, sin q = sqrt(1 - w) sqrt(1 + w) on principal
    roots, so v = sqrt(omega + E) sqrt(omega - E): Re v > 0 whenever Im E > 0,
    and omega +- E keep every digit at the band edges E = -+omega.  Then
    z = 1 / (w - i sin q) = -omega / (E + i v), the root of modulus below 1,
    formed without cancellation.  Past |E| = 2^27 omega the roots are
    v = -iE and z = -omega / 2E, which nothing overflows.  Two square roots
    per energy and no other cmath call; the residual check recomputes
    cos q = (z + 1/z) / 2.  omega must already be validated (by
    `KernelParams`); an energy sweep calls this once per energy.
    """
    e = complex(energy)
    if not e.imag > 0.0:
        raise DomainError(f"resolvent energy must have positive imaginary part, got {e}")
    size = abs(e.real) + e.imag
    if size > _FAR * omega:
        return -0.5 * omega / e, -1j * e
    v = cmath.sqrt(omega + e) * cmath.sqrt(omega - e)
    z = -omega / (e + 1j * v)
    residual = abs(e + 0.5 * omega * (z + 1.0 / z))
    if residual > 1e-12 and residual > 1e-12 * omega and residual > 1e-12 * size:  # 1e-12 max(1, omega, size)
        raise DomainError(f"momentum branch residual {residual:.2e} too large for energy {e}")
    return z, v


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


def coined_price(steps: int, c: CoinSpec) -> tuple:
    """(lift steps, bytes) of `coined_line_blocks(steps, c)`, in the units of `orbit.lift_price`.

    Step n multiplies the coin into the n (max - min) + 1 blocks reached so
    far, each block product priced at d + 1 lift steps, 0.9, 1.5 and 2.7 us
    at d = 2, 4 and 8.  That is above every time per block product measured
    on a shared 2-core VM for walks of 20 to 3,000 steps and widths 1 to 7:
    0.008-0.36, 0.037-0.26 and 0.17-0.48 us, the most on 20-step walks,
    whose steps' fixed cost falls on few blocks, and 0.008-0.016,
    0.037-0.090 and 0.20-0.23 us from 1,000 steps on.  So the price is an
    upper bound by 2.5x or more, and by far more on the long walks it exists
    to refuse.  A step's fixed 2-3 us is not priced apart: STEP_MAX steps of
    it take under 0.05 s.  The bytes are the final window's planes and one
    step's product, at most as large again: 16 d^2 per block.
    """
    n, width = abs(steps), max(c.shifts) - min(c.shifts)
    products = n + width * n * (n - 1) // 2
    return products * (c.d + 1), 2 * 16 * c.d**2 * (n * width + 1)


def _coined_blocks(steps: int, c: CoinSpec) -> tuple:
    """W^steps on the line (steps >= 0) as (first, stack): stack[k] is the block at x - y = first + k.

    A step sends row i of C times the block at delta to row i of the block at
    delta + shift_i.  The blocks live in d planes, allocated once at the
    final window: plane l holds row l of every block side by side, so that
    after n steps planes[l, d k:d (k + 1)] is row l of the block at
    delta = k + n * min(shifts).  A step is one matmul of the coin with the
    planes reached so far, C (d x d k), into a product buffer allocated
    once, then one contiguous copy of product row i into plane i at block
    offset shift_i - min(shifts).  A plane is written only from that offset
    on, and each step's copy covers the last one's, so what no step writes
    stays an exact zero: the blocks the walk cannot reach.  The stack is a
    view of the planes.
    """
    import numpy as np

    d, low_shift, width = c.d, min(c.shifts), max(c.shifts) - min(c.shifts)
    blocks = steps * width + 1
    # zero steps: the identity, one block; a walk starts from it outside the
    # planes, in which a cell no step writes must stay zero
    planes = np.eye(d, dtype=complex)
    if steps:
        reached, planes = planes, np.zeros((d, blocks * d), dtype=complex)
        product = np.empty((d, (blocks - width) * d), dtype=complex)  # the last step's blocks
        for n in range(steps):
            cols = (n * width + 1) * d  # reached holds the blocks of step n
            rows = np.matmul(c.coin, reached, out=product[:, :cols])
            for i, s in enumerate(c.shifts):
                planes[i, (s - low_shift) * d:(s - low_shift) * d + cols] = rows[i]
            reached = planes[:, :cols + width * d]
    return steps * low_shift, planes.reshape(d, blocks, d).transpose(1, 0, 2)


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
