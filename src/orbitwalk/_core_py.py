"""The Bessel core: the one implementation behind `orbitwalk.special`.

Two entry points, the rows J_0..J_nmax and I_0..I_nmax, in pure Python;
`special` validates the arguments before calling them.
A row is one backward (Miller) recurrence, normalized by the summation
identities

    J_0(z) + 2 J_2(z) + 2 J_4(z) + ... = 1
    I_0(z) + 2 I_1(z) + 2 I_2(z) + ... = e^z

with periodic rescaling so intermediate values never overflow.  It serves
every z above `_ROW_SERIES_CUT`, where 2k/z stays finite; a row below the
cut takes the ascending series per order.
"""

from __future__ import annotations

import math

# Rescaling bounds for the backward recurrences (same trick as the classic
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


def _series_j(n: int, z: float) -> float:
    """Ascending series for J_n(z); caller guarantees the regime is safe."""
    half = 0.5 * z
    if half == 0.0:  # zero or subnormal z: series degenerates to its limit
        return 1.0 if n == 0 else 0.0
    log_t0 = n * math.log(half) - math.lgamma(n + 1.0)
    if log_t0 < -745.0:
        return 0.0  # leading term underflows double precision
    term = math.exp(log_t0)
    total = term
    peak = abs(term)
    zz = half * half
    for k in range(1, _SERIES_KMAX):
        term *= -zz / (k * (n + k))
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        elif mag < 1e-17 * peak:
            break
    return total


def _series_i(n: int, z: float) -> float:
    """Ascending series for I_n(z); all terms positive, always stable."""
    half = 0.5 * z
    if half == 0.0:  # zero or subnormal z: series degenerates to its limit
        return 1.0 if n == 0 else 0.0
    log_t0 = n * math.log(half) - math.lgamma(n + 1.0)
    if log_t0 < -745.0:
        return 0.0
    term = math.exp(log_t0)
    total = term
    zz = half * half
    for k in range(1, _SERIES_KMAX):
        term *= zz / (k * (n + k))
        total += term
        if total > 1e307:
            raise OverflowError(f"I_{n}({z}) exceeds double-precision range")
        if term < 1e-17 * total:
            break
    return total


def _miller_j_row(nmax: int, z: float) -> list:
    """Rows J_0(z)..J_nmax(z) by backward recurrence, J-sum normalized."""
    m0 = max(nmax, int(z) + 1)
    m = m0 + int(12.0 * m0 ** (1.0 / 3.0)) + 42
    row = [0.0] * (nmax + 1)
    jp = 0.0  # J_{k+1}, unnormalized
    j = 1e-30  # J_k seeded at k = m
    norm = 0.0
    for k in range(m, -1, -1):
        if k <= nmax:
            row[k] = j
        if k == 0:
            norm += j
        elif k % 2 == 0:
            norm += 2.0 * j
        jm = (2.0 * k / z) * j - jp
        jp = j
        j = jm
        if abs(j) > _BIG:
            j *= _BIG_INV
            jp *= _BIG_INV
            norm *= _BIG_INV
            for i in range(k, nmax + 1):  # only indices >= k are stored so far
                row[i] *= _BIG_INV
    inv = 1.0 / norm
    return [v * inv for v in row]


def j_row(nmax: int, z: float) -> list:
    """[J_0(z), ..., J_nmax(z)] in one pass."""
    if z == 0.0:
        return [1.0] + [0.0] * nmax
    if z <= _ROW_SERIES_CUT:
        return [_series_j(n, z) for n in range(nmax + 1)]
    return _miller_j_row(nmax, z)


def i_row(nmax: int, z: float) -> list:
    """[I_0(z), ..., I_nmax(z)] by backward recurrence, e^z normalized."""
    if z == 0.0:
        return [1.0] + [0.0] * nmax
    if z > I_Z_MAX:
        raise OverflowError(f"I_n({z}) normalization e^z exceeds double range")
    if z <= _ROW_SERIES_CUT:
        return [_series_i(n, z) for n in range(nmax + 1)]
    m0 = max(nmax, int(z) + 1)
    m = m0 + int(12.0 * m0 ** (1.0 / 3.0)) + 42
    row = [0.0] * (nmax + 1)
    ip = 0.0
    cur = 1e-30
    norm = 0.0
    for k in range(m, -1, -1):
        if k <= nmax:
            row[k] = cur
        norm += cur if k == 0 else 2.0 * cur
        im = ip + (2.0 * k / z) * cur  # I_{k-1} = I_{k+1} + (2k/z) I_k
        ip = cur
        cur = im
        if abs(cur) > _BIG:
            cur *= _BIG_INV
            ip *= _BIG_INV
            norm *= _BIG_INV
            for i in range(k, nmax + 1):
                row[i] *= _BIG_INV
    scale = math.exp(z) / norm
    return [v * scale for v in row]
