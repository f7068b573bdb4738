"""The self-check suite: all checks pass on healthy configs and flag broken ones."""

from __future__ import annotations

import collections
import math

import pytest

from orbitwalk import oracle
from orbitwalk.cli import ResolvedRun, apply_set, load_config
from orbitwalk.errors import DomainError
from orbitwalk.group import OrbitSpaceSpec, Representation, fundamental_domain
from orbitwalk.kernels import KernelParams, window_radius
from orbitwalk.orbit import KernelPlan, _gluing_weight
from orbitwalk.verify import (
    CheckResult,
    _oracle_decomposition,
    _probe_points,
    all_passed,
    check_against_oracle,
    check_composition,
    check_equivariance,
    plan_kernel,
    run_checks,
)


def names(results):
    return [r.name for r in results]


def test_circle_suite_passes_with_expected_checks():
    results = run_checks(
        OrbitSpaceSpec("Circle", L=4), Representation(theta=math.pi / 2), KernelParams(tau=1.0)
    )
    assert names(results) == [
        "initial_condition",
        "composition",
        "unitarity",
        "equivariance",
        "orbit_vs_oracle",
        "gauge_equivalence",
    ]
    assert all_passed(results)
    by_name = {r.name: r for r in results}
    assert by_name["orbit_vs_oracle"].deviation <= 1e-12


@pytest.mark.parametrize("theta", [0.0, math.pi])
@pytest.mark.parametrize("phi", [0.0, math.pi])
def test_interval_suite_passes_for_all_phase_pairs(theta, phi):
    results = run_checks(
        OrbitSpaceSpec("Interval", L=3), Representation(theta=theta, phi=phi), KernelParams(tau=1.0)
    )
    assert all_passed(results)
    assert "gauge_equivalence" not in names(results)


def test_half_line_needs_window():
    space = OrbitSpaceSpec("HalfLine")
    for kind in ("Line", "HalfLine"):
        with pytest.raises(DomainError, match=f"^{kind} verification needs an explicit window$"):
            run_checks(OrbitSpaceSpec(kind), Representation(), KernelParams(tau=1.0))
    results = run_checks(space, Representation(phi=math.pi), KernelParams(tau=1.0), window=(1, 10))
    assert all_passed(results)


def test_dirichlet_half_line_suite():
    space = OrbitSpaceSpec("HalfLine", boundary_convention="Dirichlet")
    results = run_checks(space, Representation(phi=math.pi), KernelParams(tau=1.0), window=(1, 10))
    assert all_passed(results)


@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
def test_two_walker_suite(statistics):
    results = run_checks(
        OrbitSpaceSpec("Circle", L=5, N=2),
        Representation(theta=0.9, statistics=statistics),
        KernelParams(tau=0.5),
    )
    assert all_passed(results)


@pytest.mark.parametrize(
    "L,theta,tau",
    [(2, 0.0, 0.5), (4, math.pi / 2, 1.0), (6, math.pi, 5.0), (8, 0.0, 5.0)],
)
def test_standard_circle_matrix_subset(L, theta, tau):
    results = run_checks(
        OrbitSpaceSpec("Circle", L=L), Representation(theta=theta), KernelParams(tau=tau)
    )
    assert all_passed(results)


def test_zero_tau_is_rejected():
    with pytest.raises(DomainError):
        run_checks(OrbitSpaceSpec("Circle", L=4), Representation(), KernelParams(tau=0.0))


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize(
    "kind, D, wrong",
    [
        ("Circle", Representation(theta=0.7), Representation(theta=0.3)),
        ("Interval", Representation(phi=math.pi), Representation(phi=0.0)),
    ],
    ids=["circle-theta", "interval-phi"],
)
def test_equivariance_fails_for_a_kernel_at_the_wrong_weight(kind, D, wrong, N):
    space = OrbitSpaceSpec(kind, L=4, N=N)
    p = KernelParams(tau=1.0)
    assert check_equivariance(space, D, p, kernel=plan_kernel(space, D)).passed
    result = check_equivariance(space, D, p, kernel=plan_kernel(space, wrong))
    assert result.passed is False
    assert result.deviation > result.tolerance


def test_check_result_is_plain_data():
    r = CheckResult("x", True, 1e-16, 1e-12)
    assert r.detail == ""
    assert r.passed


def test_symmetrized_delta_counts_matchings():
    # The tau = 0 reference: the signed count of coordinate matchings, as the
    # oracle's permanent or determinant of the 0/1 matrix [x_a == y_b].
    def delta(x, y, statistics):
        return oracle.many_body_value([[float(a == b) for b in y] for a in x], statistics)

    assert delta((1, 2), (1, 2), "Boson") == 1.0
    assert delta((1, 2), (1, 3), "Boson") == 0.0
    assert delta((2, 2), (2, 2), "Boson") == 2.0
    assert delta((2, 2), (2, 2), "Fermion") == 0.0
    assert delta((1, 2), (1, 2), "Fermion") == 1.0


@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
def test_composition_computes_each_probe_middle_entry_once(statistics):
    space = OrbitSpaceSpec("Circle", L=4, N=2)
    D = Representation(theta=0.7, statistics=statistics)
    p = KernelParams(tau=1.0)
    real = plan_kernel(space, D)
    calls = []

    def kernel(x, y, params):
        calls.append((x, y, params.tau))
        return real(x, y, params)

    result = check_composition(space, D, p, kernel=kernel)
    assert result.passed
    middles = fundamental_domain(space)
    # three probes into each middle and three out of it
    assert len([c for c in calls if c[2] == 0.5]) == 6 * len(middles)
    assert len([c for c in calls if c[2] == 1.0]) == 9

    # the same sums, one glued pair at a time, to the last bit
    half = KernelParams(tau=0.5)
    # the probes: for fermions, the first points with distinct coordinates
    probes = [z for z in middles if statistics == "Boson" or len(set(z)) == len(z)][:3]
    worst = 0.0
    for x in probes:
        for y in probes:
            glued = sum(_gluing_weight(z) * real(x, z, half) * real(z, y, half) for z in middles)
            worst = max(worst, abs(glued - real(x, y, p)))
    assert repr(result.deviation) == repr(worst)


def test_fermions_are_probed_at_distinct_coordinates():
    # the first 8 sorted 4-walker points of 8 sites all repeat a coordinate
    space = OrbitSpaceSpec("Circle", L=8, N=4)
    assert all(len(set(pt)) < 4 for pt in fundamental_domain(space)[:8])
    assert _probe_points(space, Representation(statistics="Fermion"), None) == [
        (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 3, 7),
        (1, 2, 3, 8), (1, 2, 4, 5), (1, 2, 4, 6), (1, 2, 4, 7),
    ]
    assert _probe_points(space, Representation(), None) == fundamental_domain(space)[:8]


def test_a_window_with_no_domain_point_is_refused():
    with pytest.raises(DomainError, match="holds no point"):
        run_checks(OrbitSpaceSpec("HalfLine"), Representation(), KernelParams(tau=1.0), window=(-3, 0))


@pytest.mark.parametrize(
    "space, theta, window",
    [
        (OrbitSpaceSpec("Circle", L=4, N=2), 0.7, None),
        (OrbitSpaceSpec("Interval", L=4, N=3), math.pi, None),
        (OrbitSpaceSpec("HalfLine", N=2), 0.0, (1, 4)),
    ],
    ids=["circle", "interval", "half-line"],
)
@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
def test_each_probe_entry_is_lifted_once_per_run(monkeypatch, space, theta, window, statistics):
    # The name is kept from the entry cache verify no longer has: every entry
    # a check asks for is lifted, so the probe entries are at most the count
    # `ResolvedRun._lifted_pairs` prices, 4 x 8^2 + 5 x 3^2, and its two
    # composition families are exactly the middle entries composition lifts.
    calls, lifts = collections.Counter(), collections.Counter()
    value = KernelPlan.value

    def counted(plan, x, y):
        calls[plan._params.tau] += 1
        if not plan._repeats(x, y):  # a fermion entry at a repeated coordinate is 0j unlifted
            lifts[plan._params.tau] += 1
        return value(plan, x, y)

    monkeypatch.setattr(KernelPlan, "value", counted)
    results = run_checks(
        space, Representation(theta=theta, statistics=statistics), KernelParams(tau=1.0), window=window
    )
    assert all_passed(results)
    config = load_config(None)
    for setting in (f"space.kind={space.kind}", f"space.L={space.L}", f"space.N={space.N}",
                    f"representation.theta={theta}", f"representation.statistics={statistics}"):
        apply_set(config, setting)
    config["window"] = window
    (_, _, priced), (_, _, into), (_, _, out_of) = ResolvedRun("verify", config)._lifted_pairs()
    assert 0 < lifts[1.0] + lifts[-1.0] + lifts[0.0] <= priced
    assert set(calls) == {1.0, 0.5, -1.0, 0.0}
    # composition: three probes into every middle and three out of it, and
    # the price counts the middles whose entries are lifted
    middles = _middles(space, window)
    assert calls[0.5] == 6 * len(middles)
    lifted = [z for z in middles if statistics == "Boson" or len(set(z)) == len(z)]
    assert lifts[0.5] == into + out_of == 6 * len(lifted)


def _middles(space, window):
    """The points `check_composition` glues through at tau = 1 (on the HalfLine,
    for a window whose probes reach both its ends): the window plus the light cone."""
    if window is None:
        return fundamental_domain(space)
    reach = window_radius(1.0, 1.0) + 8
    return fundamental_domain(space, (max(1, window[0] - reach), window[1] + reach))


def test_oracle_elements_are_computed_once_per_site_pair(monkeypatch):
    pairs = collections.Counter()
    spectral_kernel = oracle.spectral_kernel

    def counted(dec, tau, x, y):
        pairs[(x, y)] += 1
        return spectral_kernel(dec, tau, x, y)

    monkeypatch.setattr(oracle, "spectral_kernel", counted)
    space = OrbitSpaceSpec("Circle", L=5, N=3)
    results = run_checks(space, Representation(theta=0.4), KernelParams(tau=0.8))
    assert all_passed(results)
    assert pairs and set(pairs.values()) == {1}
    assert len(pairs) <= space.L**2


@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
def test_oracle_references_equal_the_many_body_kernel(statistics):
    space = OrbitSpaceSpec("Interval", L=4, N=2)
    D = Representation(theta=math.pi, statistics=statistics)
    p = KernelParams(tau=1.3)
    got = {}

    def kernel(x, y, params):
        got[(x, y)] = 0j
        return 0j

    result = check_against_oracle(space, D, p, kernel=kernel)
    dec = _oracle_decomposition(space, D, p, None)
    want = max(
        abs(oracle.many_body_kernel(dec, 2, statistics, x, y, p.tau)) for x, y in got
    )
    # against a zero kernel the deviation is the largest reference, to the last bit
    assert repr(result.deviation) == repr(want)
