"""The Bessel core: the one implementation behind `orbitwalk.special`.

Two entry points, the rows J_0..J_nmax and I_0..I_nmax, in pure Python;
`special` validates the arguments before calling them.  J and I share one
backward (Miller) recurrence and one ascending series, which differ only in
a sign: c_{k-1} = (2k/z) c_k - c_{k+1} for J and + c_{k+1} for I.  A
recurrence row is normalized by the summation identities

    J_0(z) + 2 J_2(z) + 2 J_4(z) + ... = 1
    I_0(z) + 2 I_1(z) + 2 I_2(z) + ... = e^z

with periodic rescaling so intermediate values never overflow.  It serves
every z above `_ROW_SERIES_CUT`, where 2k/z stays finite; a row at or below
the cut, z = 0 included, takes the ascending series per order.
"""

from __future__ import annotations

import math

# Rescaling bounds for the backward recurrence (same trick as the classic
# Numerical Recipes bessj: keep the unnormalized values inside the double
# range, the normalization removes the accumulated factor at the end).
_BIG = 1e10
_BIG_INV = 1e-10

_SERIES_KMAX = 800

# Largest z of an I row: its normalization e^z stays inside the double range.
I_Z_MAX = 700.0

# Rows at z at or below this take the series per order.  Above it one
# recurrence pass replaces a series per order and is as accurate: within
# 1.1e-16 absolute of a 50-digit series for J, and an ulp for I, up to z = 6.4.
_ROW_SERIES_CUT = 0.01


def _series(n: int, z: float, sign: float) -> float:
    """Ascending series sum_k (sign z^2/4)^k (z/2)^n / (k! (n + k)!): J_n for sign -1, I_n for +1.

    The caller keeps z at or below `_ROW_SERIES_CUT`, where every term is
    stable.  The sum stops once a term falls below 1e-17 of the largest.
    """
    half = 0.5 * z
    if half == 0.0:  # zero or subnormal z: series degenerates to its limit
        return 1.0 if n == 0 else 0.0
    log_t0 = n * math.log(half) - math.lgamma(n + 1.0)
    if log_t0 < -745.0:
        return 0.0  # leading term underflows double precision
    term = math.exp(log_t0)
    total = term
    peak = abs(term)
    zz = sign * half * half
    for k in range(1, _SERIES_KMAX):
        term *= zz / (k * (n + k))
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        elif mag < 1e-17 * peak:
            break
    return total


def _miller(nmax: int, z: float, sign: float, stride: int) -> tuple:
    """The unnormalized row c_0..c_nmax of c_{k-1} = (2k/z) c_k + sign c_{k+1}, and its norm.

    The norm is c_0 + 2 (c_stride + c_2stride + ...): stride 2 for J, 1 for I.
    """
    m0 = max(nmax, int(z) + 1)
    m = m0 + int(12.0 * m0 ** (1.0 / 3.0)) + 42
    row = [0.0] * (nmax + 1)
    ahead = 0.0  # c_{k+1}
    cur = 1e-30  # c_k seeded at k = m
    norm = 0.0
    for k in range(m, -1, -1):
        if k <= nmax:
            row[k] = cur
        if k == 0:
            norm += cur
        elif k % stride == 0:
            norm += 2.0 * cur
        ahead, cur = cur, (2.0 * k / z) * cur + sign * ahead
        if abs(cur) > _BIG:
            cur *= _BIG_INV
            ahead *= _BIG_INV
            norm *= _BIG_INV
            for i in range(k, nmax + 1):  # only indices >= k are stored so far
                row[i] *= _BIG_INV
    return row, norm


def j_row(nmax: int, z: float) -> list:
    """[J_0(z), ..., J_nmax(z)] in one pass."""
    if z <= _ROW_SERIES_CUT:
        return [_series(n, z, -1.0) for n in range(nmax + 1)]
    row, norm = _miller(nmax, z, -1.0, 2)
    inv = 1.0 / norm
    return [v * inv for v in row]


def i_row(nmax: int, z: float) -> list:
    """[I_0(z), ..., I_nmax(z)] by backward recurrence, e^z normalized."""
    if z > I_Z_MAX:
        raise OverflowError(f"I_n({z}) normalization e^z exceeds double range")
    if z <= _ROW_SERIES_CUT:
        return [_series(n, z, 1.0) for n in range(nmax + 1)]
    row, norm = _miller(nmax, z, 1.0, 1)
    scale = math.exp(z) / norm
    return [v * scale for v in row]
