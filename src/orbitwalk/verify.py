"""Self-checks: algebraic properties and oracle agreement for a configured space.

Each check returns a CheckResult with the worst deviation it measured; the
suite passes iff every deviation is within its tolerance.  Infinite spaces
are probed through an explicit site window.  The probing scheme, which
`cli.ResolvedRun` prices from these names: each check probes `PROBES`
points, composition and equivariance pair `ENDS` of them, and composition
glues those through every middle point of `glue_window`.  `run_checks`
builds one kernel plan per parameter set (tau, tau/2, -tau, 0), which its
checks share; no entry is kept, so an entry two checks use is lifted twice.
Every reference comes from the oracle's permanent or determinant
(`oracle.many_body_value`): at tau = 0 of the 0/1 matrix [x_a == y_b],
which is exact, and at tau of dense-chain elements, each computed once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from . import oracle
from .errors import DomainError
from .group import OrbitSpaceSpec, Representation, domain_size, fundamental_domain, weight_from_sums
from .kernels import KernelParams, window_radius
from .orbit import KernelPlan, _gluing_weight

COMPOSITION_TOL = 1e-10
UNITARITY_TOL = 1e-12
INITIAL_TOL = 1e-12
EQUIVARIANCE_TOL = 1e-12
ORACLE_TOL = 1e-10
GAUGE_TOL = 1e-10
PROBES = 8  # domain points each check probes
ENDS = 3  # probes that composition and equivariance pair
COMPOSITION_MARGIN = 8  # sites past the light cone that composition glues through


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float
    detail: str = ""


def _probe_points(space: OrbitSpaceSpec, D: Representation, window) -> list:
    """The first `PROBES` domain points; for fermions, the first with distinct
    coordinates (any other entry is 0j by construction).  Refuses a domain with none."""
    try:
        points = fundamental_domain(space, window)
    except DomainError:  # a Line or HalfLine with no window
        raise DomainError(f"{space.kind} verification needs an explicit window") from None
    if not points:
        raise DomainError(f"verification window {window} holds no point of the {space.kind} domain")
    if D.statistics == "Fermion":
        points = list(itertools.islice((pt for pt in points if len(set(pt)) == len(pt)), PROBES))
        if not points:
            sites = domain_size(replace(space, N=1), window)
            raise DomainError(f"{space.N} fermions on {sites} sites have no antisymmetric state")
    return points[:PROBES]


def glue_window(lo: int, hi: int, p: KernelParams) -> tuple:
    """The sites composition glues through for probes on sites lo..hi: the light cone and a margin."""
    reach = window_radius(p.omega, p.tau) + COMPOSITION_MARGIN
    return lo - reach, hi + reach


def plan_kernel(space: OrbitSpaceSpec, D: Representation):
    """The time kernel (x, y, p) -> entry, from one `KernelPlan` per parameter set.

    No entry is kept: a check that uses an entry twice asks the plan twice.
    """
    plans: dict = {}

    def kernel(x: tuple, y: tuple, p: KernelParams) -> complex:
        plan = plans.get(p)
        if plan is None:
            plan = plans[p] = KernelPlan(space, D, p)
        return plan.value(x, y)

    return kernel


def check_initial_condition(space, D, window=None, kernel=None) -> CheckResult:
    """K_0(x, y) against the permanent or determinant of [[x_a == y_b]], which is exact."""
    kernel = kernel or plan_kernel(space, D)
    p = KernelParams(omega=1.0, tau=0.0)
    probes = _probe_points(space, D, window)
    worst = 0.0
    for x in probes:
        for y in probes:
            delta = [[float(a == b) for b in y] for a in x]
            want = oracle.many_body_value(delta, D.statistics)
            worst = max(worst, abs(kernel(x, y, p) - want))
    return CheckResult("initial_condition", worst <= INITIAL_TOL, worst, INITIAL_TOL)


def check_composition(space, D, p, window=None, kernel=None) -> CheckResult:
    kernel = kernel or plan_kernel(space, D)
    half = KernelParams(omega=p.omega, tau=0.5 * p.tau)
    probes = _probe_points(space, D, window)
    coords = [c for pt in probes for c in pt]
    middles = fundamental_domain(space, glue_window(min(coords), max(coords), p))
    ends = probes[:ENDS]
    # Each middle's entries to and from the probes are computed once and
    # added into every glued sum that uses them, in the order of `middles`.
    glued = [[0j] * len(ends) for _ in ends]
    for z in middles:
        weight = _gluing_weight(z)
        into = [kernel(x, z, half) for x in ends]
        out_of = [kernel(z, y, half) for y in ends]
        for row, to_z in zip(glued, into):
            for j, from_z in enumerate(out_of):
                row[j] += weight * to_z * from_z
    worst = 0.0
    for x, row in zip(ends, glued):
        for y, value in zip(ends, row):
            worst = max(worst, abs(value - kernel(x, y, p)))
    return CheckResult("composition", worst <= COMPOSITION_TOL, worst, COMPOSITION_TOL)


def check_unitarity(space, D, p, window=None, kernel=None) -> CheckResult:
    kernel = kernel or plan_kernel(space, D)
    back = KernelParams(omega=p.omega, tau=-p.tau)
    worst = 0.0
    probes = _probe_points(space, D, window)
    for x in probes:
        for y in probes:
            forward = kernel(x, y, p)
            backward = kernel(y, x, back)
            worst = max(worst, abs(forward.conjugate() - backward))
    return CheckResult("unitarity", worst <= UNITARITY_TOL, worst, UNITARITY_TOL)


def check_equivariance(space, D, p, window=None, kernel=None) -> CheckResult:
    """K(g x, y) = D(g) K(x, y) for the generator g acting on walker 0.

    The translation maps x_0 to x_0 + P with weight D(t) = e^{i theta}, the
    reflection maps it to c - x_0 with weight D(r) = e^{i phi}.
    """
    kernel = kernel or plan_kernel(space, D)
    generators = []  # (image of walker 0's coordinate, weight)
    if space.has_translations:
        generators.append((lambda x0: x0 + space.period, weight_from_sums(D, 1, 0)))
    if space.has_reflections:
        generators.append((lambda x0: space.reflection_center - x0, weight_from_sums(D, 0, 1)))
    if not generators:
        return CheckResult("equivariance", True, 0.0, EQUIVARIANCE_TOL, "no generators")
    probes = _probe_points(space, D, window)[:ENDS]
    worst = 0.0
    for image, weight in generators:
        for x in probes:
            for y in probes:
                moved = kernel((image(x[0]),) + x[1:], y, p)
                worst = max(worst, abs(moved - weight * kernel(x, y, p)))
    return CheckResult("equivariance", worst <= EQUIVARIANCE_TOL, worst, EQUIVARIANCE_TOL)


def _oracle_sites(space: OrbitSpaceSpec, p: KernelParams, window):
    """Sites of the dense chain the oracle check diagonalizes; None on the free line."""
    if space.kind in ("Circle", "Interval"):
        return space.L
    if space.kind == "HalfLine":
        return max(oracle.half_line_window(p.omega, p.tau), (window[1] if window else 0) + 40)
    return None


def _oracle_decomposition(space: OrbitSpaceSpec, D: Representation, p: KernelParams, window):
    if space.kind == "Circle":
        boundary = oracle.CircleTwisted(D.theta)
    elif space.kind == "Interval":
        if space.boundary_convention == "Dirichlet":
            boundary = oracle.Dirichlet()
        else:
            boundary = oracle.IntervalPhase(D.theta, D.phi)
    elif space.kind == "HalfLine":
        if space.boundary_convention == "Dirichlet":
            boundary = oracle.Dirichlet()
        else:
            boundary = oracle.HalfLinePhase(D.phi)
    else:
        return None
    spec = oracle.HamiltonianSpec(_oracle_sites(space, p, window), p.omega, boundary)
    return oracle.diagonalize(oracle.build_hamiltonian(spec))


def check_against_oracle(space, D, p, window=None, kernel=None) -> CheckResult:
    """The kernel against the dense oracle at every probe pair.

    Each single-particle element e^{-iH tau}[a, b] is computed once by
    `oracle.spectral_kernel`; N-walker references are the oracle's
    permanent or determinant of those elements (`oracle.many_body_value`),
    the same values `oracle.many_body_kernel` gives.
    """
    kernel = kernel or plan_kernel(space, D)
    dec = _oracle_decomposition(space, D, p, window)
    if dec is None:
        return CheckResult("orbit_vs_oracle", True, 0.0, ORACLE_TOL, "free line: orbit sum is the reference")
    elements: dict = {}

    def element(a: int, b: int) -> complex:
        value = elements.get((a, b))
        if value is None:
            value = elements[(a, b)] = oracle.spectral_kernel(dec, p.tau, a, b)
        return value

    probes = _probe_points(space, D, window)
    worst = 0.0
    for x in probes:
        for y in probes:
            got = kernel(x, y, p)
            if space.N == 1:
                want = element(x[0], y[0])
            else:
                matrix = [[element(a, b) for b in y] for a in x]
                want = oracle.many_body_value(matrix, D.statistics)
            worst = max(worst, abs(got - want))
    return CheckResult("orbit_vs_oracle", worst <= ORACLE_TOL, worst, ORACLE_TOL)


def check_gauge(space, D, p) -> CheckResult:
    deviation = oracle.gauge_check(space.L, D.theta, p.tau, omega=p.omega)
    return CheckResult("gauge_equivalence", deviation <= GAUGE_TOL, deviation, GAUGE_TOL)


def run_checks(
    space: OrbitSpaceSpec,
    D: Representation,
    p: KernelParams,
    window=None,
) -> list[CheckResult]:
    """Full property suite for one (space, representation, parameters) triple.

    Runs the oracle cannot check are refused before any kernel is computed:
    more than `oracle.MANY_BODY_MAX` walkers, a dense chain of more than
    `oracle.SITES_MAX` sites, or no point to probe (`_probe_points`).
    """
    if not math.isfinite(p.tau) or p.tau == 0.0:
        raise DomainError("verification needs a nonzero finite tau")
    if space.N > oracle.MANY_BODY_MAX:
        raise DomainError(
            f"verification handles at most {oracle.MANY_BODY_MAX} walkers, not N={space.N}"
        )
    sites = _oracle_sites(space, p, window)
    if sites is not None and sites > oracle.SITES_MAX:
        raise DomainError(
            f"verification needs a dense oracle of {sites} sites, more than {oracle.SITES_MAX}"
        )
    kernel = plan_kernel(space, D)
    results = [
        check_initial_condition(space, D, window, kernel),
        check_composition(space, D, p, window, kernel),
        check_unitarity(space, D, p, window, kernel),
        check_equivariance(space, D, p, window, kernel),
        check_against_oracle(space, D, p, window, kernel),
    ]
    if space.kind == "Circle" and space.N == 1:
        results.append(check_gauge(space, D, p))
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
