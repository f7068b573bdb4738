"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against mpmath/scipy/numpy primitives
so that no production code path is exercised: the package under test evaluates
Bessel values through its own series/recurrence core, while these oracles
use arbitrary-precision ascending series and adaptive quadrature.  The one
exception is `shell_sum_resolvent`, which runs the package's generic shell
engine on the resolvent term to cross-check the closed-form resolvent.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import mpmath as mp
import numpy as np

from orbitwalk import orbit
from orbitwalk.kernels import resolvent_momentum


def bessel_j_series(n: int, z: float, terms: int = 30) -> float:
    """Ascending power series for J_n(z), evaluated in 50-digit arithmetic.

    sum_{k=0..terms-1} (-1)^k (z/2)^(n+2k) / (k! (n+k)!)

    Thirty terms at 50 digits are exact to double precision for z <= 50;
    callers needing larger arguments should pass more terms.  The working
    precision grows with z because the alternating partial sums reach ~e^z.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    with mp.workdps(50 + int(0.45 * abs(z))):
        half = mp.mpf(z) / 2
        total = mp.mpf(0)
        for k in range(terms):
            term = (-1) ** k * half ** (n + 2 * k) / (mp.factorial(k) * mp.factorial(n + k))
            total += term
        return float(total)


def bessel_i_series(n: int, z: float, terms: int = 30) -> float:
    """Ascending power series for I_n(z) (all-positive terms), 50 digits."""
    if n < 0:
        raise ValueError("order must be non-negative")
    with mp.workdps(50):
        half = mp.mpf(z) / 2
        total = mp.mpf(0)
        for k in range(terms):
            total += half ** (n + 2 * k) / (mp.factorial(k) * mp.factorial(n + k))
        return float(total)


def bessel_j_exact(n: int, z: float) -> float:
    """J_n(z) from mpmath's own implementation (independent cross-check)."""
    with mp.workdps(40):
        return float(mp.besselj(n, z))


def bessel_i_exact(n: int, z: float) -> float:
    """I_n(z) from mpmath's own implementation (independent cross-check)."""
    with mp.workdps(40):
        return float(mp.besseli(n, z))


def laplace_transform_j0(omega: float, energy: complex, t_max: float) -> complex:
    """Quadrature for integral_0^T J_0(omega*tau) e^{i E tau} d(tau), Im E > 0.

    Uses scipy's adaptive quadrature on real and imaginary parts separately
    with scipy's Bessel J_0, so the integrand never touches package code.
    """
    from scipy.integrate import quad
    from scipy.special import j0

    def integrand_re(t: float) -> float:
        return (j0(omega * t) * complex(mp.exp(1j * energy * t))).real

    def integrand_im(t: float) -> float:
        return (j0(omega * t) * complex(mp.exp(1j * energy * t))).imag

    pieces = 40
    edges = [t_max * k / pieces for k in range(pieces + 1)]
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        re, _ = quad(integrand_re, a, b, limit=200)
        im, _ = quad(integrand_im, a, b, limit=200)
        total += re + 1j * im
    return total


def many_walker_gibbs(h, n_walkers: int, statistics: str, beta: float):
    """Dense N-walker Gibbs kernel: (Z, kernel(x, y)) from an explicit Kronecker sum.

    H_N = sum_i 1 x .. x h x .. x 1 is diagonalized with numpy's eigh.  Z is
    the trace of e^{-beta H_N} over the symmetric (bosons) or antisymmetric
    (fermions) subspace, Tr(e^{-beta H_N} S) / N!, with S the signed sum of
    coordinate permutations.  kernel(x, y) = (e^{-beta H_N} S)[x, y] for
    1-based site tuples, the unnormalized symmetrized kernel of sorted points.
    """
    n = h.shape[0]
    eye = np.eye(n)
    h_n = sum(
        functools.reduce(np.kron, [h if k == i else eye for k in range(n_walkers)])
        for i in range(n_walkers)
    )
    values, vectors = np.linalg.eigh(h_n)
    gibbs = (vectors * np.exp(-beta * values)) @ vectors.conj().T
    shape = (n,) * n_walkers
    grid = np.indices(shape).reshape(n_walkers, -1)
    rows = np.arange(n**n_walkers)
    s = np.zeros((n**n_walkers, n**n_walkers))
    for perm in itertools.permutations(range(n_walkers)):
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) & 1
        sign = -1.0 if statistics == "Fermion" and odd else 1.0
        s[rows, np.ravel_multi_index(grid[list(perm)], shape)] += sign
    symmetrized = gibbs @ s
    z = float(np.trace(symmetrized).real) / math.factorial(n_walkers)

    def kernel(x: tuple, y: tuple) -> complex:
        i = np.ravel_multi_index([c - 1 for c in x], shape)
        j = np.ravel_multi_index([c - 1 for c in y], shape)
        return complex(symmetrized[i, j])

    return z, kernel


def shell_sum_resolvent(space, D, x: int, y: int, p, trunc):
    """Single-walker resolvent G_E(x, y) as an image sum truncated shell by shell.

    The free term is the line resolvent e^{iq|d|} / (i omega sin q); the sum
    runs through `orbit._orbit_sum` under `trunc`, so a slowly decaying sum
    raises `TruncationError` at the shell cap.  Points are not checked
    against the fundamental domain.
    """
    q = resolvent_momentum(p)
    prefactor = 1.0 / (1j * p.omega * cmath.sin(q))

    def term(xs: tuple, gy: tuple) -> complex:
        return prefactor * cmath.exp(1j * q * abs(xs[0] - gy[0]))

    return orbit._orbit_sum(space, D, (x,), (y,), term, trunc)
