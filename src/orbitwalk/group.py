"""Orbit spaces, the weights of their symmetry groups, and fundamental domains.

An `OrbitSpaceSpec` fixes which generators act on each walker coordinate:
the translation t x = x + P on the Circle and Interval and the reflection
r x = c - x on the HalfLine and Interval, with walker exchanges on top.  A
`Representation` weighs an element by its winding sum and reflection sum
alone (`weight_from_sums`, or `winding_weights` for a run of windings), so
no group element is ever built; the fermion sign of a walker exchange
enters through the determinant lift.  The fundamental-domain helpers list
and count the sorted points the commands tabulate, and those with distinct
coordinates, the fermion states that exist.
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


def weight_from_sums(D: Representation, n_sum: int, m_sum: int) -> complex:
    """D(g) from g's winding sum and reflection sum, without the fermion sign.

    A single walker's t^n r^m is (n, m): no element is built.
    """
    k_phi = _quarter_multiple(D.phi) if m_sum else 0
    k_theta = _quarter_multiple(D.theta) if n_sum else 0
    if k_theta is not None and k_phi is not None:
        return quarter_phase(k_theta * n_sum + k_phi * m_sum)
    # Generic theta: integer powers of the generator weight keep the
    # homomorphism property at the few-ulp level for any winding sum.
    value = complex(math.cos(D.theta), math.sin(D.theta)) ** n_sum
    if k_phi is None:  # phi is validated to {0, pi} wherever reflections exist
        value *= complex(math.cos(D.phi), math.sin(D.phi)) ** m_sum
    elif k_phi and m_sum:
        value *= quarter_phase(k_phi * m_sum)
    return value


def winding_weights(D: Representation, first: int, last: int) -> list:
    """[weight_from_sums(D, n, 0) for n in first..last], bit for bit, from one
    quarter-multiple test of theta and one cos/sin pair."""
    k = _quarter_multiple(D.theta)
    windings = range(first, last + 1)
    if k is not None:
        return [quarter_phase(k * n) for n in windings]
    turn = complex(math.cos(D.theta), math.sin(D.theta))
    return [turn**n for n in windings]


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


def site_range(space: OrbitSpaceSpec, window) -> tuple:
    """The closed site range (lo, hi) of the fundamental domain: 1..L on finite spaces,
    which ignore the window; the Line takes the window as it is, the HalfLine clips it
    to sites >= 1."""
    lo, hi = coordinate_range(space)
    if hi is not None:
        return lo, hi
    if window is None:
        raise DomainError(f"{space.kind} is infinite: an explicit window is required")
    wlo, whi = window
    return (wlo if lo is None else max(lo, wlo)), whi


def sorted_points(lo: int, hi: int, n: int, distinct: bool = False):
    """The sorted n-tuples of the sites lo..hi, lazily and in the domain's order; with
    `distinct`, only those with distinct coordinates, the fermion states that exist."""
    pick = itertools.combinations if distinct else itertools.combinations_with_replacement
    return pick(range(lo, hi + 1), n)


def fundamental_domain(space: OrbitSpaceSpec, window=None) -> list:
    """All fundamental-domain points, as sorted N-tuples (see `site_range` for the window)."""
    return list(sorted_points(*site_range(space, window), space.N))


def domain_size(space: OrbitSpaceSpec, window=None, distinct: bool = False) -> int:
    """How many points `sorted_points` yields on the domain's sites, counted without
    building them: C(sites + N - 1, N), or C(sites, N) with distinct coordinates."""
    lo, hi = site_range(space, window)
    sites = max(hi - lo + 1, 0)
    return math.comb(sites, space.N) if distinct else math.comb(sites + space.N - 1, space.N)
