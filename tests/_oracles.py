"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against mpmath/scipy/numpy primitives
so that no production code path is exercised: the package under test evaluates
Bessel values through its own series/recurrence core, while these oracles
use arbitrary-precision ascending series and adaptive quadrature.  The
single-walker Hamiltonians come from the package's dense `oracle`, which
shares no code with the image sums.  `shell_sum_resolvent` runs the N-walker
group reference of `_reference_group` on a resolvent term of its own, built
from a root of the dispersion relation rather than the package's momentum,
to cross-check the closed-form resolvent.  `coined_table_reference` is the per-pair build of
a `coined` table that the command's all-displacement route must reproduce.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math

import mpmath as mp
import numpy as np

from orbitwalk import oracle
from orbitwalk.errors import DomainError
from orbitwalk.group import Representation, weight_from_sums
from orbitwalk.kernels import coined_line_blocks

from _reference_group import _orbit_sum


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


def chain_hamiltonian(kind: str, L: int, omega: float, theta: float, phi: float,
                      convention: str) -> np.ndarray:
    """The dense single-walker Hamiltonian of a Circle or Interval, one row per site 1..L."""
    if kind == "Circle":
        boundary = oracle.CircleTwisted(theta)
    elif convention == "Dirichlet":
        boundary = oracle.Dirichlet()
    else:
        boundary = oracle.IntervalPhase(theta, phi)
    return oracle.build_hamiltonian(oracle.HamiltonianSpec(L, omega, boundary))


def lead_self_energy(omega: float, energy: complex) -> complex:
    """What a semi-infinite free chain (bonds -omega/2) adds to the site it hangs from.

    Sigma = t^2 g, with t = -omega/2 and g the Green's function of the
    chain's end site: the root of t^2 g^2 - E g + 1 = 0 that decays into the
    chain.  The two roots multiply to 1/t^2, so for Im E > 0 exactly one has
    |t g| < 1.
    """
    t2 = 0.25 * omega * omega
    root = cmath.sqrt(energy * energy - 4.0 * t2)
    g = min((energy + root) / (2.0 * t2), (energy - root) / (2.0 * t2), key=abs)
    return t2 * g


def open_window_hamiltonian(kind: str, convention: str, phi: float, omega: float,
                            energy: complex, lo: int, hi: int) -> tuple[np.ndarray, int]:
    """A finite stand-in for the Line or HalfLine at one energy, and the site of row 0.

    The chain covers the window (from site 1 on the HalfLine, with its
    boundary term) plus one site past each open end; each open end carries
    the exact self-energy of the infinite chain cut off beyond it.  Its
    resolvent at `energy` therefore equals the infinite space's resolvent
    on those sites, with no truncation error.
    """
    sigma = lead_self_energy(omega, energy)
    if kind == "Line":
        first, sites = lo - 1, hi - lo + 3
        h = oracle.build_hamiltonian(oracle.HamiltonianSpec(sites, omega, oracle.Dirichlet()))
        h[0, 0] += sigma
    else:
        first, sites = 1, hi + 1
        boundary = oracle.Dirichlet() if convention == "Dirichlet" else oracle.HalfLinePhase(phi)
        h = oracle.build_hamiltonian(oracle.HamiltonianSpec(sites, omega, boundary))
    h[sites - 1, sites - 1] += sigma
    return h, first


def many_walker_operator(h, n_walkers: int, statistics: str, spectral):
    """Dense N-walker f(H_N) S: (its trace / N!, entry(x, y)), f applied to eigenvalues.

    H_N = sum_i 1 x .. x h x .. x 1 is a Kronecker sum, so its eigenvectors
    are the Kronecker products of numpy's eigenvectors of h and its
    eigenvalues the matching sums of h's.  `spectral` maps an array of
    eigenvalues to f of them: e^{-beta E} for the Gibbs kernel, e^{-i tau E}
    for time evolution.  S sums the coordinate permutations, each with its
    sign for fermions, so f(H_N) S is the unnormalized symmetrized kernel of
    sorted points; entry(x, y) takes 1-based site tuples.
    """
    n = h.shape[0]
    energies, modes = np.linalg.eigh(h)
    values = functools.reduce(np.add.outer, [energies] * n_walkers).ravel()
    vectors = functools.reduce(np.kron, [modes] * n_walkers)
    operator = (vectors * spectral(values)) @ vectors.conj().T
    shape = (n,) * n_walkers
    signed = []
    for perm in itertools.permutations(range(n_walkers)):
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) & 1
        signed.append((perm, -1.0 if statistics == "Fermion" and odd else 1.0))
    grid = np.indices(shape).reshape(n_walkers, -1)
    rows = np.arange(n**n_walkers)
    trace = sum(
        sign * operator[rows, np.ravel_multi_index(grid[list(perm)], shape)].sum()
        for perm, sign in signed
    )

    def entry(x: tuple, y: tuple) -> complex:
        i = np.ravel_multi_index([c - 1 for c in x], shape)
        return complex(sum(
            sign * operator[i, np.ravel_multi_index([y[k] - 1 for k in perm], shape)]
            for perm, sign in signed
        ))

    return complex(trace) / math.factorial(n_walkers), entry


def many_walker_gibbs(h, n_walkers: int, statistics: str, beta: float):
    """Dense N-walker Gibbs kernel: (Z, kernel(x, y)) from `many_walker_operator`.

    Z is the trace of e^{-beta H_N} over the symmetric (bosons) or
    antisymmetric (fermions) subspace, Tr(e^{-beta H_N} S) / N!.
    """
    trace, kernel = many_walker_operator(
        h, n_walkers, statistics, lambda energies: np.exp(-beta * energies)
    )
    return trace.real, kernel


def many_walker_evolution(h, n_walkers: int, statistics: str, tau: float):
    """Dense N-walker time kernel (e^{-i tau H_N} S)(x, y) from `many_walker_operator`."""
    return many_walker_operator(
        h, n_walkers, statistics, lambda energies: np.exp(-1j * tau * energies)
    )[1]


def shell_sum_resolvent(space, D, x: int, y: int, p, trunc):
    """Single-walker resolvent G_E(x, y) as an image sum truncated shell by shell.

    The free term is the line resolvent z^|d| / (i omega sin q) with
    z = e^{iq}: the root of z^2 + (2E / omega) z + 1 = 0 (E = -omega cos q)
    inside the unit circle, taken as the reciprocal of the root outside it.
    So no momentum or branch choice is shared with the closed form, and
    i omega sin q = omega (z - 1/z) / 2.  The sum
    runs through `_reference_group._orbit_sum` under `trunc`, so a slowly
    decaying sum raises `TruncationError` at the shell cap.  Points are not
    checked against the fundamental domain.
    """
    b = p.energy / p.omega
    root = cmath.sqrt(b * b - 1.0)
    z = 1.0 / max(-b + root, -b - root, key=abs)  # the roots' product is 1
    prefactor = 2.0 / (p.omega * (z - 1.0 / z))

    def term(xs: tuple, gy: tuple) -> complex:
        return prefactor * z ** abs(xs[0] - gy[0])

    return _orbit_sum(space, D, (x,), (y,), term, trunc)


def many_body_kernel(dec, n_walkers: int, statistics: str, x: tuple, y: tuple, tau: float) -> complex:
    """N identical walkers from the dense oracle: permanent (bosons) / determinant
    (fermions) of the single-particle kernel matrix K[a, b] = <x_a| e^{-iH tau} |y_b>."""
    if n_walkers > oracle.MANY_BODY_MAX:
        raise DomainError(f"walker count limited to {oracle.MANY_BODY_MAX}")
    if len(x) != n_walkers or len(y) != n_walkers:
        raise DomainError("coordinate tuples must have one entry per walker")
    if list(x) != sorted(x) or list(y) != sorted(y):
        raise DomainError("coordinate tuples must be sorted ascending")
    if statistics not in ("Boson", "Fermion"):
        raise DomainError(f"unknown statistics {statistics!r}")
    m = [[oracle.spectral_kernel(dec, tau, xa, yb) for yb in y] for xa in x]
    return oracle.many_body_value(m, statistics)


def coined_circle_block(power: np.ndarray, d: int, x: int, y: int) -> np.ndarray:
    """The (x, y) coin block of a matrix returned by `oracle.coined_circle_power`."""
    return power[(x - 1) * d : x * d, (y - 1) * d : y * d].copy()


def coined_table_reference(L: int, theta: float, steps: int, coin, source: int,
                           precision: int) -> str:
    """A `coined` CSV table from its `# deviations` line on, built pair by pair.

    Each (x, y) block is its own winding loop over the line blocks,
    sum_n e^{i n theta} B_steps(x - y - nL) for the n in the light cone; each
    reference block is sliced alone from the matrix power
    (`coined_circle_block`); each site's probability is its block
    times the coin state (1, 0, ...).  The line blocks and the weights are
    the package's (`coined_line_blocks`, `weight_from_sums`), so what this
    checks is the winding sum, the table's layout and its formatting.
    """
    D = Representation(theta=theta)
    power = oracle.coined_circle_power(L, theta, coin, abs(steps))
    if steps < 0:
        power = power.conj().T
    first, blocks = coined_line_blocks(steps, coin)  # blocks[k] is the block at first + k

    def kernel(x: int, y: int) -> np.ndarray:
        out = np.zeros((coin.d, coin.d), dtype=complex)
        last = first + len(blocks) - 1
        for n in range(math.ceil((x - y - last) / L), math.floor((x - y - first) / L) + 1):
            out += weight_from_sums(D, n, 0) * blocks[x - y - n * L - first]
        return out

    def fmt(value: float) -> str:
        return f"{value:.{precision}e}"

    rows, worst = [], 0.0
    for x in range(1, L + 1):
        for y in range(1, L + 1):
            want = coined_circle_block(power, coin.d, x, y).tolist()
            for i, row in enumerate(kernel(x, y).tolist()):
                for j, value in enumerate(row):
                    dev = abs(value - want[i][j])
                    worst = max(worst, dev)
                    rows.append(f"{x},{y},{i},{j},{fmt(value.real)},{fmt(value.imag)},{fmt(dev)},")
    coin_state = np.zeros(coin.d, dtype=complex)
    coin_state[0] = 1.0
    total = 0.0
    for x in range(1, L + 1):
        prob = float(np.sum(np.abs(kernel(x, source) @ coin_state) ** 2))
        total += prob
        rows.append(f"{x},,,,,,,{fmt(prob)}")
    rows.append(f"total,,,,,,,{fmt(total)}")
    deviations = {"max_vs_matrix_power": float(f"{worst:.10e}")}
    lines = [f"# deviations {json.dumps(deviations)}", "x,y,i,j,re,im,deviation,probability"]
    return "\n".join(lines + rows) + "\n"
