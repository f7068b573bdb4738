"""Special functions and exact unit-phase arithmetic for the kernel formulas.

Bessel values come in rows, J_0..J_nmax or I_0..I_nmax at one argument, the
form every free-lattice kernel uses; one order is an entry of a row.  The
rows are computed by the pure-Python core `orbitwalk._core_py`; this module
owns argument validation and the shared range caps.
"""

from __future__ import annotations

import math

from . import _core_py as core
from ._core_py import I_Z_MAX
from .errors import DomainError

__all__ = [
    "I_Z_MAX",
    "N_MAX",
    "Z_MAX",
    "j_row",
    "i_row",
    "quarter_phase",
]

N_MAX = 10_000
Z_MAX = 1e4

_QUARTER = (1 + 0j, 1j, -1 + 0j, -1j)


def _check(n: int, z: float) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    if n > N_MAX:
        raise DomainError(f"order {n} exceeds N_MAX = {N_MAX}")
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got {z!r}")
    if z < 0.0:
        raise DomainError(f"argument must be non-negative, got {z}")
    if z > Z_MAX:
        raise DomainError(f"argument {z} exceeds Z_MAX = {Z_MAX}")


def j_row(nmax: int, z: float) -> list:
    """[J_0(z), ..., J_nmax(z)] in a single backward pass; absolute error < 1e-13 for z <= 100."""
    _check(nmax, float(z))
    return core.j_row(nmax, float(z))


def i_row(nmax: int, z: float) -> list:
    """[I_0(z), ..., I_nmax(z)] in a single backward pass; OverflowError past the double range."""
    _check(nmax, float(z))
    return core.i_row(nmax, float(z))


def quarter_phase(k: int) -> complex:
    """Exact e^{i pi k / 2} as an element of {1, i, -1, -i}.

    Pure integer arithmetic mod 4 — no floating trigonometry, so products of
    many phases stay exact.
    """
    return _QUARTER[k & 3]
