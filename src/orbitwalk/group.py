"""Discrete symmetry groups acting on integer lattices.

A group element is stored in the normal form (winding, reflect, perm): per
coordinate a translation power n_i and a reflection bit m_i, followed by a
permutation of the coordinates.  Composition uses the conjugation rule
r t r = t^{-1}, so equality of elements is equality of normal forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import DomainError, RepresentationError
from .special import quarter_phase

Point = tuple  # tuple of ints, one per walker

KINDS = ("Line", "Circle", "HalfLine", "Interval")
CONVENTIONS = ("Standard", "Dirichlet")
STATISTICS = ("Boson", "Fermion")

_TWO_PI = 2.0 * math.pi
_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class GroupElement:
    """t^{n_1} r^{m_1} ... t^{n_N} r^{m_N} sigma in normal form."""

    winding: tuple
    reflect: tuple
    perm: tuple

    def __post_init__(self):
        n = len(self.perm)
        if len(self.winding) != n or len(self.reflect) != n:
            raise DomainError("winding, reflect and perm must have equal length")
        if sorted(self.perm) != list(range(n)):
            raise DomainError(f"perm {self.perm} is not a permutation of 0..{n - 1}")
        if any(m not in (0, 1) for m in self.reflect):
            raise DomainError("reflect entries must be bits")

    @property
    def n_walkers(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return (
            all(n == 0 for n in self.winding)
            and all(m == 0 for m in self.reflect)
            and self.perm == tuple(range(len(self.perm)))
        )


@dataclass(frozen=True)
class OrbitSpaceSpec:
    """Which quotient of Z^N the walkers live on."""

    kind: str
    L: int = 1
    N: int = 1
    boundary_convention: str = "Standard"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown space kind {self.kind!r}; expected one of {KINDS}")
        if self.boundary_convention not in CONVENTIONS:
            raise DomainError(f"unknown convention {self.boundary_convention!r}")
        if self.N < 1:
            raise DomainError("walker count N must be positive")
        if self.kind in ("Circle", "Interval") and self.L < 1:
            raise DomainError("site count L must be positive")
        if self.boundary_convention == "Dirichlet" and self.kind not in ("HalfLine", "Interval"):
            raise DomainError("Dirichlet convention applies to HalfLine and Interval only")

    # -- single-coordinate geometry ------------------------------------
    @property
    def has_translations(self) -> bool:
        return self.kind in ("Circle", "Interval")

    @property
    def has_reflections(self) -> bool:
        return self.kind in ("HalfLine", "Interval")

    @property
    def period(self) -> int:
        """Lattice step of the translation generator t."""
        if self.kind == "Circle":
            return self.L
        if self.kind == "Interval":
            return 2 * (self.L + 1) if self.boundary_convention == "Dirichlet" else 2 * self.L
        return 0

    @property
    def reflection_center(self) -> int:
        """c in r x = c - x (c = 1 standard, c = 0 Dirichlet)."""
        return 0 if self.boundary_convention == "Dirichlet" else 1


@dataclass(frozen=True)
class Representation:
    """One-dimensional unitary weight D: theta per winding, phi per bounce."""

    theta: float = 0.0
    phi: float = 0.0
    statistics: str = "Boson"

    def __post_init__(self):
        if self.statistics not in STATISTICS:
            raise RepresentationError(f"statistics must be one of {STATISTICS}")
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise RepresentationError("angles must be finite")


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


def _check_element_for_space(g: GroupElement, space: OrbitSpaceSpec) -> None:
    if g.n_walkers != space.N:
        raise DomainError(f"element acts on {g.n_walkers} walkers, space has {space.N}")
    if not space.has_translations and any(n != 0 for n in g.winding):
        raise DomainError(f"{space.kind} space has no translation generator")
    if not space.has_reflections and any(m != 0 for m in g.reflect):
        raise DomainError(f"{space.kind} space has no reflection generator")


def act(g: GroupElement, x: Point, space: OrbitSpaceSpec) -> Point:
    """Apply gamma to a lattice point: coordinate i gets t^{n_i} r^{m_i} x_{sigma(i)}."""
    _check_element_for_space(g, space)
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
    _check_element_for_space(g1, space)
    _check_element_for_space(g2, space)
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


def _angle_is(value: float, target: float) -> bool:
    d = (value - target) % _TWO_PI
    return min(d, _TWO_PI - d) <= _ANGLE_TOL


def _quarter_multiple(angle: float):
    """k with angle = k*pi/2 (mod 2pi) when that holds exactly enough, else None."""
    k = round((angle % _TWO_PI) / (0.5 * math.pi))
    if abs((angle % _TWO_PI) - k * 0.5 * math.pi) <= _ANGLE_TOL:
        return k & 3
    return None


def validate_representation(space: OrbitSpaceSpec, D: Representation) -> None:
    """Reject weight maps that are not representations of the space's group.

    Dirichlet conventions additionally require the weight to be -1 on the
    point stabilizers (the action has fixed points there), which pins the
    angles completely.
    """
    if space.kind in ("Line", "Circle"):
        return  # theta free on the circle, nothing to constrain on the line
    phi_ok = _angle_is(D.phi, 0.0) or _angle_is(D.phi, math.pi)
    if not phi_ok:
        raise RepresentationError(f"phi must be 0 or pi for {space.kind}, got {D.phi}")
    if space.kind == "Interval":
        if not (_angle_is(D.theta, 0.0) or _angle_is(D.theta, math.pi)):
            raise RepresentationError(f"theta must be 0 or pi for Interval, got {D.theta}")
    if space.boundary_convention == "Dirichlet":
        if not _angle_is(D.phi, math.pi):
            raise RepresentationError(
                "Dirichlet convention fixes the lattice point of the reflection; "
                "the trivial weight phi=0 on its stabilizer is ill-defined, use phi=pi"
            )
        if space.kind == "Interval" and not _angle_is(D.theta, 0.0):
            raise RepresentationError(
                "Dirichlet interval requires theta=0 so the weight on the stabilizer "
                "of the far fixed point is -1"
            )


def rep_weight(D: Representation, g: GroupElement) -> complex:
    """D(g) = e^{i theta sum(n_i)} e^{i phi sum(m_i)} (+-1)^{#sigma}, unchecked."""
    odd = D.statistics == "Fermion" and perm_parity(g.perm)
    return weight_from_sums(D, sum(g.winding), sum(g.reflect), odd)


def weight_from_sums(D: Representation, n_sum: int, m_sum: int, odd: bool = False) -> complex:
    """D(g) from g's winding sum, reflection sum and (fermion) permutation parity.

    A single walker's t^n r^m is (n, m) with odd=False: no element is built.
    """
    sign = -1.0 if (D.statistics == "Fermion" and odd) else 1.0

    k_phi = _quarter_multiple(D.phi) if m_sum else 0
    k_theta = _quarter_multiple(D.theta) if n_sum else 0
    if k_theta is not None and k_phi is not None:
        return sign * quarter_phase(k_theta * n_sum + k_phi * m_sum)
    # Generic theta: integer powers of the generator weight keep the
    # homomorphism property at the few-ulp level for any winding sum.
    value = complex(math.cos(D.theta), math.sin(D.theta)) ** n_sum
    if k_phi is None:  # phi is validated to {0, pi} wherever reflections exist
        value *= complex(math.cos(D.phi), math.sin(D.phi)) ** m_sum
    elif k_phi and m_sum:
        value *= quarter_phase(k_phi * m_sum)
    return sign * value


def rep_value(D: Representation, g: GroupElement, space: OrbitSpaceSpec) -> complex:
    """rep_weight after checking D is a representation and g acts on the space."""
    validate_representation(space, D)
    _check_element_for_space(g, space)
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


def fixed_point_free_check(space: OrbitSpaceSpec, sample_radius: int) -> bool:
    """True iff no non-identity element of shells 0..2 fixes a single-walker point.

    Used to warn before combining a fixed-point convention (Dirichlet) with a
    trivial stabilizer weight.
    """
    if not 1 <= sample_radius <= 50:
        raise DomainError("sample_radius must be in 1..50")
    single = OrbitSpaceSpec(space.kind, space.L, 1, space.boundary_convention)
    D = Representation()
    for shell in range(3):
        for g in enumerate_shell(single, D, shell):
            if g.is_identity():
                continue
            for x in range(-sample_radius, sample_radius + 1):
                if act(g, (x,), single) == (x,):
                    return False
    return True


# -- fundamental domain helpers ---------------------------------------


def coordinate_range(space: OrbitSpaceSpec):
    """Closed single-walker site range (lo, hi); None marks an open end."""
    if space.kind in ("Circle", "Interval"):
        return 1, space.L
    if space.kind == "HalfLine":
        return 1, None
    return None, None


def in_fundamental_domain(space: OrbitSpaceSpec, x: Point) -> bool:
    """Coordinates in range and (for several walkers) sorted ascending."""
    if len(x) != space.N:
        return False
    lo, hi = coordinate_range(space)
    for xi in x:
        if lo is not None and xi < lo:
            return False
        if hi is not None and xi > hi:
            return False
    return all(x[i] <= x[i + 1] for i in range(len(x) - 1))


def check_in_domain(space: OrbitSpaceSpec, x: Point, name: str = "point") -> None:
    if not in_fundamental_domain(space, x):
        raise DomainError(f"{name} {x} is outside the fundamental domain of {space.kind}")


def _site_range(space: OrbitSpaceSpec, window) -> tuple:
    lo, hi = coordinate_range(space)
    if window is not None:
        wlo, whi = window
        lo = wlo if lo is None else max(lo, wlo)
        hi = whi if hi is None else min(hi, whi)
    if lo is None or hi is None:
        raise DomainError(f"{space.kind} is infinite: an explicit window is required")
    return lo, hi


def fundamental_domain(space: OrbitSpaceSpec, window=None) -> list:
    """All fundamental-domain points, as sorted N-tuples.

    Finite spaces (Circle/Interval) need no window; Line and HalfLine require
    an explicit (lo, hi) site window.
    """
    lo, hi = _site_range(space, window)
    sites = range(lo, hi + 1)
    return [tuple(c) for c in itertools.combinations_with_replacement(sites, space.N)]


def domain_size(space: OrbitSpaceSpec, window=None) -> int:
    """len(fundamental_domain(space, window)), counted without building the points."""
    lo, hi = _site_range(space, window)
    return math.comb(max(hi - lo + 1, 0) + space.N - 1, space.N)
