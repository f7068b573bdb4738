"""Self-checks: algebraic properties and oracle agreement for a configured space.

Each check returns a CheckResult with the worst deviation it measured; the
suite passes iff every deviation is within its tolerance.  Infinite spaces
are probed through an explicit site window.  This module alone decides how
`verify` probes, glues and is priced: `run_checks` takes its probes once
and lazily (`probe_points`) and builds one plan kernel for every check,
composition glues through the states of `glue_window` with its own
`_gluing_weight`, and `lifted_entries` counts the entries the checks ask
for, which `orbit.lift_price` prices for the CLI.  Every reference comes from
the oracle's permanent or determinant (`oracle.many_body_value`): at
tau = 0 of the 0/1 matrix [x_a == y_b], which is exact, and at tau of
dense-chain elements, each computed once.  Equivariance weighs by the
route's `group.weight_from_sums`; the oracle check, run on every space
that has generators, catches a fault there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import oracle
from .errors import DomainError
from .group import OrbitSpaceSpec, Representation, domain_size, site_range, sorted_points, weight_from_sums
from .kernels import KernelParams, window_radius
from .orbit import KernelPlan

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


def probe_points(space: OrbitSpaceSpec, D: Representation, window) -> list:
    """The first `PROBES` states in the domain's order; a fermion state has distinct
    coordinates (any other entry is 0j).  They lie on the first PROBES + N - 1 sites,
    so only those are enumerated.  Refuses a run with none."""
    lo, hi = site_range(space, window)
    if hi < lo:
        raise DomainError(f"verification window {window} holds no point of the {space.kind} domain")
    head = sorted_points(lo, min(hi, lo + PROBES + space.N - 2), space.N, D.statistics == "Fermion")
    probes = list(itertools.islice(head, PROBES))
    if not probes:
        raise DomainError(f"{space.N} fermions on {hi - lo + 1} sites have no antisymmetric state")
    return probes


def glue_window(space: OrbitSpaceSpec, probes: list, p: KernelParams) -> tuple:
    """The sites (lo, hi) composition glues `probes` through: theirs, the light cone
    and a margin, within the domain's."""
    coords = [c for pt in probes for c in pt]
    reach = window_radius(p.omega, p.tau) + COMPOSITION_MARGIN
    return site_range(space, (min(coords) - reach, max(coords) + reach))


def lifted_entries(space: OrbitSpaceSpec, D: Representation, p: KernelParams, window) -> tuple:
    """The (row points, column points, entries) families `run_checks` asks its plans
    for, counted from the probes, and the site window they lie in: every probe pair
    at tau = 0, tau, -tau and by the oracle check (not on the Line), every pair of
    `ENDS` by composition and twice per generator by equivariance, over three plans,
    so no point count bounds their minors (None); and ENDS entries into and out of
    each composition middle.  A run with no probe asks for none."""
    try:
        probes = probe_points(space, D, window)
    except DomainError:
        return [], window
    n, ends = len(probes), min(len(probes), ENDS)
    generators = space.has_translations + space.has_reflections
    at_probes = (3 + (space.kind != "Line")) * n * n + (1 + 2 * generators) * ends * ends
    glue = glue_window(space, probes, p)
    middles = domain_size(space, glue, D.statistics == "Fermion")
    return [(None, None, at_probes), (ends, middles, ends * middles), (middles, ends, middles * ends)], glue


def _gluing_weight(z: tuple) -> float:
    """1 / prod(m_i!) over the multiplicities m_i of the sorted point z, dividing by 2..m_i."""
    weight = 1.0
    for _, run in itertools.groupby(z):
        for m in range(2, len(list(run)) + 1):
            weight /= m
    return weight


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


def check_initial_condition(D, probes, kernel) -> CheckResult:
    """K_0(x, y) against the permanent or determinant of [[x_a == y_b]], which is exact."""
    p = KernelParams(omega=1.0, tau=0.0)
    worst = 0.0
    for x in probes:
        for y in probes:
            delta = [[float(a == b) for b in y] for a in x]
            want = oracle.many_body_value(delta, D.statistics)
            worst = max(worst, abs(kernel(x, y, p) - want))
    return CheckResult("initial_condition", worst <= INITIAL_TOL, worst, INITIAL_TOL)


def check_composition(space, D, p, probes, kernel) -> CheckResult:
    """K_tau(x, y) = sum_z w(z) K_tau/2(x, z) K_tau/2(z, y) over the states z of `glue_window`."""
    half = KernelParams(omega=p.omega, tau=0.5 * p.tau)
    middles = sorted_points(*glue_window(space, probes, p), space.N, D.statistics == "Fermion")
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


def check_unitarity(p, probes, kernel) -> CheckResult:
    back = KernelParams(omega=p.omega, tau=-p.tau)
    worst = 0.0
    for x in probes:
        for y in probes:
            forward = kernel(x, y, p)
            backward = kernel(y, x, back)
            worst = max(worst, abs(forward.conjugate() - backward))
    return CheckResult("unitarity", worst <= UNITARITY_TOL, worst, UNITARITY_TOL)


def check_equivariance(space, D, p, probes, kernel) -> CheckResult:
    """K(g x, y) = D(g) K(x, y) for the generator g acting on walker 0.

    The translation maps x_0 to x_0 + P with weight D(t) = e^{i theta}, the
    reflection maps it to c - x_0 with weight D(r) = e^{i phi}.
    """
    generators = []  # (image of walker 0's coordinate, weight)
    if space.has_translations:
        generators.append((lambda x0: x0 + space.period, weight_from_sums(D, 1, 0)))
    if space.has_reflections:
        generators.append((lambda x0: space.reflection_center - x0, weight_from_sums(D, 0, 1)))
    if not generators:
        return CheckResult("equivariance", True, 0.0, EQUIVARIANCE_TOL, "no generators")
    ends = probes[:ENDS]
    worst = 0.0
    for image, weight in generators:
        for x in ends:
            for y in ends:
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
    if space.kind == "Line":
        return None
    if space.kind == "Circle":
        boundary = oracle.CircleTwisted(D.theta)
    elif space.boundary_convention == "Dirichlet":  # the HalfLine's or the Interval's
        boundary = oracle.Dirichlet()
    elif space.kind == "Interval":
        boundary = oracle.IntervalPhase(D.theta, D.phi)
    else:
        boundary = oracle.HalfLinePhase(D.phi)
    spec = oracle.HamiltonianSpec(_oracle_sites(space, p, window), p.omega, boundary)
    return oracle.diagonalize(oracle.build_hamiltonian(spec))


def check_against_oracle(space, D, p, window, probes, kernel) -> CheckResult:
    """The kernel against the dense oracle at every probe pair.

    Each single-particle element e^{-iH tau}[a, b] is computed once by
    `oracle.spectral_kernel`; N-walker references are the oracle's
    permanent or determinant of those elements (`oracle.many_body_value`),
    the same values the tests' `many_body_kernel` gives.
    """
    dec = _oracle_decomposition(space, D, p, window)
    if dec is None:
        return CheckResult("orbit_vs_oracle", True, 0.0, ORACLE_TOL, "free line: orbit sum is the reference")
    elements: dict = {}

    def element(a: int, b: int) -> complex:
        value = elements.get((a, b))
        if value is None:
            value = elements[(a, b)] = oracle.spectral_kernel(dec, p.tau, a, b)
        return value

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
    `oracle.SITES_MAX` sites, or no state to probe (`probe_points`).
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
    probes, kernel = probe_points(space, D, window), plan_kernel(space, D)
    results = [
        check_initial_condition(D, probes, kernel),
        check_composition(space, D, p, probes, kernel),
        check_unitarity(p, probes, kernel),
        check_equivariance(space, D, p, probes, kernel),
        check_against_oracle(space, D, p, window, probes, kernel),
    ]
    if space.kind == "Circle" and space.N == 1:
        results.append(check_gauge(space, D, p))
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
