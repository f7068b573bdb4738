"""The self-check suite: all checks pass on healthy configs and flag broken ones."""

from __future__ import annotations

import collections
import math

import pytest

import orbitwalk.orbit
from orbitwalk import oracle, verify
from orbitwalk.errors import DomainError
from orbitwalk.group import OrbitSpaceSpec, Representation, domain_size, fundamental_domain, sorted_points
from orbitwalk.kernels import KernelParams, window_radius
from orbitwalk.orbit import KernelPlan
from orbitwalk.verify import (
    CheckResult,
    _oracle_decomposition,
    all_passed,
    check_against_oracle,
    check_composition,
    check_equivariance,
    lifted_entries,
    plan_kernel,
    probe_points,
    run_checks,
)

from _oracles import many_body_kernel


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
        with pytest.raises(DomainError, match=f"^{kind} is infinite: an explicit window is required$"):
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
    probes = probe_points(space, D, None)
    assert check_equivariance(space, D, p, probes, plan_kernel(space, D)).passed
    result = check_equivariance(space, D, p, probes, plan_kernel(space, wrong))
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

    probes = probe_points(space, D, None)
    result = check_composition(space, D, p, probes, kernel)
    assert result.passed
    # the middles are the states: for fermions, the points with distinct coordinates
    middles = [z for z in fundamental_domain(space) if statistics == "Boson" or len(set(z)) == len(z)]
    # three probes into each middle and three out of it
    assert len([c for c in calls if c[2] == 0.5]) == 6 * len(middles)
    assert len([c for c in calls if c[2] == 1.0]) == 9

    # the same sums, one glued pair at a time, to the last bit; the weight
    # 1 / prod(m!) of two walkers is 1 or 1/2, exact however it is computed
    def weight(z):
        return 1 / math.prod(map(math.factorial, collections.Counter(z).values()))

    half = KernelParams(tau=0.5)
    worst = 0.0
    for x in probes[:3]:
        for y in probes[:3]:
            glued = sum(weight(z) * real(x, z, half) * real(z, y, half) for z in middles)
            worst = max(worst, abs(glued - real(x, y, p)))
    assert repr(result.deviation) == repr(worst)


def test_fermions_are_probed_at_distinct_coordinates():
    # the first 8 sorted 4-walker points of 8 sites all repeat a coordinate
    space = OrbitSpaceSpec("Circle", L=8, N=4)
    assert all(len(set(pt)) < 4 for pt in fundamental_domain(space)[:8])
    assert probe_points(space, Representation(statistics="Fermion"), None) == [
        (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 3, 7),
        (1, 2, 3, 8), (1, 2, 4, 5), (1, 2, 4, 6), (1, 2, 4, 7),
    ]
    assert probe_points(space, Representation(), None) == fundamental_domain(space)[:8]
    # the probes are the domain's first 8 states, though only the first 8 + N - 1
    # sites are enumerated, for windows wider and narrower than that
    cases = [(OrbitSpaceSpec("Line", N=3), (-4, 30)), (OrbitSpaceSpec("HalfLine", N=2), (-3, 6)),
             (OrbitSpaceSpec("Interval", L=5, N=3), None), (OrbitSpaceSpec("Circle", L=12, N=5), None)]
    for space, window in cases:
        for statistics in ("Boson", "Fermion"):
            states = [pt for pt in fundamental_domain(space, window)
                      if statistics == "Boson" or len(set(pt)) == len(pt)]
            assert probe_points(space, Representation(statistics=statistics), window) == states[:8]


def test_fermion_checks_never_ask_for_a_repeated_coordinate(monkeypatch):
    asked = []
    value = KernelPlan.value

    def spied(plan, x, y):
        asked.append((x, y))
        return value(plan, x, y)

    monkeypatch.setattr(KernelPlan, "value", spied)
    results = run_checks(
        OrbitSpaceSpec("Circle", L=8, N=4), Representation(theta=0.7, statistics="Fermion"),
        KernelParams(tau=1.0),
    )
    assert all_passed(results)
    assert asked and all(len(set(x)) == 4 and len(set(y)) == 4 for x, y in asked)


def test_run_checks_draws_its_probes_once_and_builds_no_domain(monkeypatch):
    # one lazy draw of PROBES points, shared by every check, and one pass over
    # composition's middles: the domain is enumerated, never listed, and only once
    drawn = []

    def counted(lo, hi, n, distinct=False):
        drawn.append(0)
        for point in sorted_points(lo, hi, n, distinct):
            drawn[-1] += 1
            yield point

    monkeypatch.setattr(verify, "sorted_points", counted)
    space = OrbitSpaceSpec("Interval", L=6, N=3)
    assert all_passed(run_checks(space, Representation(phi=math.pi), KernelParams(tau=1.0)))
    assert drawn == [verify.PROBES, domain_size(space)]


def test_a_window_with_no_domain_point_is_refused():
    with pytest.raises(DomainError, match="holds no point"):
        run_checks(OrbitSpaceSpec("HalfLine"), Representation(), KernelParams(tau=1.0), window=(-3, 0))


def _asked(monkeypatch, space, D, p, window, compute=True):
    """The entries `run_checks` asks its plans for, counted by tau."""
    calls = collections.Counter()
    value = KernelPlan.value

    def counted(plan, x, y):
        calls[plan._params.tau] += 1
        return value(plan, x, y) if compute else 0j

    monkeypatch.setattr(KernelPlan, "value", counted)
    return calls, run_checks(space, D, p, window=window)


@pytest.mark.parametrize(
    "space, theta, window",
    [
        (OrbitSpaceSpec("Circle", L=4, N=2), 0.7, None),
        (OrbitSpaceSpec("Interval", L=4, N=3), math.pi, None),
        (OrbitSpaceSpec("HalfLine", N=2), 0.0, (1, 4)),
        (OrbitSpaceSpec("Line", N=2), 0.0, (0, 3)),
    ],
    ids=["circle", "interval", "half-line", "line"],
)
@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
def test_each_probe_entry_is_lifted_once_per_run(monkeypatch, space, theta, window, statistics):
    # The name is kept from the entry cache verify no longer has: every entry
    # a check asks for is lifted, and `lifted_entries`, which the CLI prices
    # a verify run from, counts each family of them: the probe entries at
    # tau, -tau and 0, and composition's three probes into every middle and
    # three out of it at tau / 2, the middles being the states of the window
    # +- the light cone
    D, p = Representation(theta=theta, statistics=statistics), KernelParams(tau=1.0)
    calls, results = _asked(monkeypatch, space, D, p, window)
    assert all_passed(results)
    assert set(calls) == {1.0, 0.5, -1.0, 0.0}
    (_, _, at_probes), (_, _, into), (_, _, out_of) = lifted_entries(space, D, p, window)[0]
    assert calls[1.0] + calls[-1.0] + calls[0.0] == at_probes
    middles = _middles(space, window, statistics == "Fermion")
    assert calls[0.5] == into + out_of == 6 * middles


@pytest.mark.parametrize(
    "space, window, middles",
    [(OrbitSpaceSpec("HalfLine", N=3), (1, 30), 35_990), (OrbitSpaceSpec("Line", N=2), (-20, 20), 6_105)],
    ids=["half-line-N3-1:30", "line-N2--20:20"],
)
def test_wide_windows_are_priced_at_the_middles_of_their_probes(monkeypatch, space, window, middles):
    # the probes take the window's first sites, so composition glues through
    # the light cone around them, not around the whole window
    D, p = Representation(), KernelParams(tau=1.0)
    calls, _ = _asked(monkeypatch, space, D, p, window, compute=False)
    families, glue = lifted_entries(space, D, p, window)
    assert [pairs for _, _, pairs in families] == [
        calls[1.0] + calls[-1.0] + calls[0.0], calls[0.5] // 2, calls[0.5] // 2
    ]
    assert families[1][:2] == (3, middles)
    assert domain_size(space, glue) == middles


def _middles(space, window, distinct):
    """The number of states `check_composition` glues through at tau = 1 (on the
    HalfLine and Line, for a window whose probes reach both its ends): the
    window plus the light cone."""
    if window is not None:
        reach = window_radius(1.0, 1.0) + 8
        window = (window[0] - reach, window[1] + reach)
    return domain_size(space, window, distinct)


def test_composition_keeps_its_own_gluing_weight(monkeypatch):
    # A fault in the route's 1 / prod(m!) moves Z but not the composition
    # check, which shares no code with it: the tier-1 thermal tests catch it.
    space, D = OrbitSpaceSpec("Circle", L=4, N=2), Representation()
    p = KernelParams(tau=1.0, beta=1.0)
    (before,) = [r.deviation for r in run_checks(space, D, p) if r.name == "composition"]
    z = KernelPlan(space, D, p, mode="heat").partition_function()
    # the helper's code itself is replaced, so every reference to it sees the fault
    monkeypatch.setattr(orbitwalk.orbit._gluing_weight, "__code__", (lambda point: 1.0).__code__)
    assert KernelPlan(space, D, p, mode="heat").partition_function() != z
    (after,) = [r.deviation for r in run_checks(space, D, p) if r.name == "composition"]
    assert repr(after) == repr(before)


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

    result = check_against_oracle(space, D, p, None, probe_points(space, D, None), kernel)
    dec = _oracle_decomposition(space, D, p, None)
    want = max(
        abs(many_body_kernel(dec, 2, statistics, x, y, p.tau)) for x, y in got
    )
    # against a zero kernel the deviation is the largest reference, to the last bit
    assert repr(result.deviation) == repr(want)
