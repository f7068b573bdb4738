"""The N-walker group engine: the independent reference for the image sums.

Production folds one walker's images by residue (`KernelPlan._fold`) and
lifts N walkers by permanent or determinant.  This engine instead builds
every element of the N-walker group shell by shell and sums
D(gamma) term(x, gamma y) over them (`_orbit_sum`), until whole shells fall
below a tolerance (`ShellPolicy`), and returns the sum with a report of its
work (`ShellReport`).  The acceptance gates and the parity tests compare
production against it at their tolerances, and it shares no code with the
fold or the lift (`tests/test_oracle.py` checks its imports).

A group element is stored in the normal form (winding, reflect, perm): per
coordinate a translation power n_i and a reflection bit m_i, followed by a
permutation of the coordinates.  Composition uses the conjugation rule
r t r = t^{-1}, so equality of elements is equality of normal forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from orbitwalk.errors import DomainError, OrbitwalkError
from orbitwalk.group import (
    OrbitSpaceSpec,
    Point,
    Representation,
    validate_representation,
    weight_from_sums,
)
from orbitwalk.kernels import KernelParams, window_radius
from orbitwalk.special import i_row, j_row, quarter_phase


class TruncationError(OrbitwalkError, RuntimeError):
    """A shell-by-shell image sum did not converge within its cap."""


@dataclass(frozen=True)
class ShellPolicy:
    """When the shell sum stops: absolute term tolerance and shell caps."""

    tol: float = 1e-14
    max_shell: int = 64
    consecutive_quiet_shells: int = 2


@dataclass(frozen=True)
class ShellReport:
    """A shell sum's value plus how hard the sum had to work."""

    value: complex
    shells_used: int
    last_shell_magnitude: float
    terms_evaluated: int


@dataclass(frozen=True)
class GroupElement:
    """t^{n_1} r^{m_1} ... t^{n_N} r^{m_N} sigma in normal form.

    Not validated: the enumeration and the tests build only elements of the
    space's group, so the reference spends no time re-checking them.
    """

    winding: tuple
    reflect: tuple
    perm: tuple

    @property
    def n_walkers(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return (
            all(n == 0 for n in self.winding)
            and all(m == 0 for m in self.reflect)
            and self.perm == tuple(range(len(self.perm)))
        )


def identity(n_walkers: int) -> GroupElement:
    return GroupElement((0,) * n_walkers, (0,) * n_walkers, tuple(range(n_walkers)))


def translation(i: int = 0, n_walkers: int = 1, power: int = 1) -> GroupElement:
    """t_i^power."""
    w = [0] * n_walkers
    w[i] = power
    return GroupElement(tuple(w), (0,) * n_walkers, tuple(range(n_walkers)))


def reflection(i: int = 0, n_walkers: int = 1) -> GroupElement:
    """r_i."""
    m = [0] * n_walkers
    m[i] = 1
    return GroupElement((0,) * n_walkers, tuple(m), tuple(range(n_walkers)))


def transposition(i: int, n_walkers: int) -> GroupElement:
    """sigma_i, swapping walkers i and i+1."""
    p = list(range(n_walkers))
    p[i], p[i + 1] = p[i + 1], p[i]
    return GroupElement((0,) * n_walkers, (0,) * n_walkers, tuple(p))


def act(g: GroupElement, x: Point, space: OrbitSpaceSpec) -> Point:
    """Apply gamma to a lattice point: coordinate i gets t^{n_i} r^{m_i} x_{sigma(i)}."""
    if len(x) != space.N:
        raise DomainError(f"point has {len(x)} coordinates, space has N={space.N}")
    period = space.period
    center = space.reflection_center
    out = []
    for i in range(space.N):
        xi = x[g.perm[i]]
        if g.reflect[i]:
            xi = center - xi
        out.append(xi + g.winding[i] * period)
    return tuple(out)


def compose(g1: GroupElement, g2: GroupElement, space: OrbitSpaceSpec) -> GroupElement:
    """Normal form of g1 g2, so act(compose(g1,g2), x) = act(g1, act(g2, x))."""
    if g1.n_walkers != g2.n_walkers:
        raise DomainError("cannot compose elements with different walker counts")
    n = g1.n_walkers
    winding = []
    reflect = []
    perm = []
    for i in range(n):
        j = g1.perm[i]
        sign = -1 if g1.reflect[i] else 1
        winding.append(g1.winding[i] + sign * g2.winding[j])
        reflect.append(g1.reflect[i] ^ g2.reflect[j])
        perm.append(g2.perm[j])
    return GroupElement(tuple(winding), tuple(reflect), tuple(perm))


def inverse(g: GroupElement) -> GroupElement:
    """The unique h with compose(g, h) = compose(h, g) = identity."""
    n = g.n_walkers
    pinv = [0] * n
    for i, j in enumerate(g.perm):
        pinv[j] = i
    winding = []
    reflect = []
    for i in range(n):
        j = pinv[i]
        m = g.reflect[j]
        winding.append(g.winding[j] if m else -g.winding[j])
        reflect.append(m)
    return GroupElement(tuple(winding), tuple(reflect), tuple(pinv))


def perm_parity(perm: tuple) -> int:
    """0 for even, 1 for odd, by counting inversions."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return inv & 1


def rep_weight(D: Representation, g: GroupElement) -> complex:
    """D(g) = e^{i theta sum(n_i)} e^{i phi sum(m_i)} (+-1)^{#sigma}, unchecked."""
    weight = weight_from_sums(D, sum(g.winding), sum(g.reflect))
    return -weight if D.statistics == "Fermion" and perm_parity(g.perm) else weight


def rep_value(D: Representation, g: GroupElement, space: OrbitSpaceSpec) -> complex:
    """rep_weight after checking that D is a representation of the space's group."""
    validate_representation(space, D)
    return rep_weight(D, g)


def _winding_tuples(n_walkers: int, shell: int):
    """All winding vectors with max |n_i| == shell, deterministic order."""
    if shell == 0:
        yield (0,) * n_walkers
        return
    if n_walkers == 1:
        yield (-shell,)
        yield (shell,)
        return
    lo, hi = -shell, shell
    for tup in itertools.product(range(lo, hi + 1), repeat=n_walkers):
        if max(abs(v) for v in tup) == shell:
            yield tup


def enumerate_shell(space: OrbitSpaceSpec, D: Representation, shell: int) -> list:
    """Group elements whose max |winding| equals `shell`.

    Shell lists partition the group; spaces without translations put the
    whole (finite) group in shell 0.  D is accepted for signature stability
    but the enumeration is independent of the representation.
    """
    if shell < 0:
        raise DomainError("shell must be non-negative")
    n = space.N
    if not space.has_translations and shell > 0:
        return []
    reflect_opts = ((0, 1) if space.has_reflections else (0,))
    perms = list(itertools.permutations(range(n)))
    windings = (
        _winding_tuples(n, shell) if space.has_translations else ((0,) * n,)
    )
    out = []
    for w in windings:
        for m in itertools.product(reflect_opts, repeat=n):
            for p in perms:
                out.append(GroupElement(w, m, p))
    return out


def _orbit_sum(space, D, x, y, term, trunc) -> ShellReport:
    """sum_gamma D(gamma) * term(x, gamma y), truncated per policy.

    The generic engine over group elements of any walker count: the direct
    N-walker reference and the test cross-checks use it, no production path.
    """
    validate_representation(space, D)
    total = 0j
    terms = 0
    quiet = 0
    shells_used = 0
    last_mag = 0.0
    for shell in range(trunc.max_shell + 1):
        elements = enumerate_shell(space, D, shell)
        if not elements:
            return ShellReport(total, shells_used, 0.0, terms)  # group exhausted: exact
        shell_max = 0.0
        for g in elements:
            contrib = rep_weight(D, g) * term(x, act(g, y, space))
            total += contrib
            mag = abs(contrib)
            if mag > shell_max:
                shell_max = mag
            terms += 1
        shells_used = shell + 1
        last_mag = shell_max
        if shell_max < trunc.tol:
            quiet += 1
            if quiet >= trunc.consecutive_quiet_shells:
                return ShellReport(total, shells_used, last_mag, terms)
        else:
            quiet = 0
    raise TruncationError(
        f"image sum did not converge within {trunc.max_shell} shells "
        f"(last shell magnitude {last_mag:.3e}, tol {trunc.tol:.3e})"
    )


def _time_term(p: KernelParams):
    """Free time-evolution term with a precomputed Bessel row."""
    z = p.omega * abs(p.tau)
    radius = window_radius(p.omega, p.tau)
    row = j_row(radius, z)
    sign = 1 if p.tau >= 0.0 else -1

    def term(x: tuple, gy: tuple) -> complex:
        prod = 1.0
        phase = 0
        for xi, yi in zip(x, gy):
            d = xi - yi if xi >= yi else yi - xi
            if d > radius:
                return 0j
            prod *= row[d]
            phase += d
        return quarter_phase(sign * phase) * prod

    return term


def _heat_term(p: KernelParams):
    z = p.beta * p.omega
    radius = window_radius(p.omega, p.beta)
    row = i_row(radius, z)

    def term(x: tuple, gy: tuple) -> complex:
        prod = 1.0
        for xi, yi in zip(x, gy):
            d = abs(xi - yi)
            if d > radius:
                return 0j
            prod *= row[d]
        return complex(prod)

    return term


def direct_kernel(space, D, x: tuple, y: tuple, p: KernelParams, trunc=None) -> ShellReport:
    """The time kernel U_tau(x, y) summed over the N-walker group; points are not checked."""
    return _orbit_sum(space, D, x, y, _time_term(p), trunc or ShellPolicy())
