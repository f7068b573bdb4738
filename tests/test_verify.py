"""The self-check suite: all checks pass on healthy configs and flag broken ones."""

from __future__ import annotations

import collections
import math

import pytest

from orbitwalk import oracle
from orbitwalk.errors import DomainError
from orbitwalk.group import OrbitSpaceSpec, Representation, fundamental_domain
from orbitwalk.kernels import KernelParams, window_radius
from orbitwalk.orbit import KernelPlan, _gluing_weight
from orbitwalk.verify import (
    CheckResult,
    _Kernels,
    _oracle_decomposition,
    _symmetrized_delta,
    all_passed,
    check_against_oracle,
    check_composition,
    check_equivariance,
    check_initial_condition,
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
    assert check_equivariance(space, D, p, kernel=_Kernels(space, D)).passed
    result = check_equivariance(space, D, p, kernel=_Kernels(space, wrong))
    assert result.passed is False
    assert result.deviation > result.tolerance


def test_check_result_is_plain_data():
    r = CheckResult("x", True, 1e-16, 1e-12)
    assert r.detail == ""
    assert r.passed


def test_symmetrized_delta_counts_matchings():
    assert _symmetrized_delta((1, 2), (1, 2), "Boson") == 1.0
    assert _symmetrized_delta((1, 2), (1, 3), "Boson") == 0.0
    assert _symmetrized_delta((2, 2), (2, 2), "Boson") == 2.0
    assert _symmetrized_delta((2, 2), (2, 2), "Fermion") == 0.0
    assert _symmetrized_delta((1, 2), (1, 2), "Fermion") == 1.0


@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
def test_composition_computes_each_probe_middle_entry_once(statistics):
    space = OrbitSpaceSpec("Circle", L=4, N=2)
    D = Representation(theta=0.7, statistics=statistics)
    p = KernelParams(tau=1.0)
    real = _Kernels(space, D)
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
    probes = middles[:3]
    worst = 0.0
    for x in probes:
        for y in probes:
            glued = sum(_gluing_weight(z) * real(x, z, half) * real(z, y, half) for z in middles)
            worst = max(worst, abs(glued - real(x, y, p)))
    assert repr(result.deviation) == repr(worst)


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
    lifts = collections.Counter()
    value = KernelPlan.value

    def counted(plan, x, y):
        lifts[(plan._params.tau, x, y)] += 1
        return value(plan, x, y)

    monkeypatch.setattr(KernelPlan, "value", counted)
    results = run_checks(
        space, Representation(theta=theta, statistics=statistics), KernelParams(tau=1.0), window=window
    )
    assert all_passed(results)
    probe_entries = {key: n for key, n in lifts.items() if key[0] != 0.5}
    assert probe_entries and set(probe_entries.values()) == {1}
    # composition: three probes into every middle and three out of it
    assert sum(n for key, n in lifts.items() if key[0] == 0.5) == 6 * len(_middles(space, window))


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


def test_kept_entries_stay_bounded_by_the_probes():
    space = OrbitSpaceSpec("Circle", L=6, N=2)  # 21 domain points, 8 probes
    D = Representation(theta=0.7)
    p = KernelParams(tau=1.0)
    kernel = _Kernels(space, D)
    assert check_composition(space, D, p, kernel=kernel).passed
    probes = fundamental_domain(space)[:8]
    # only the 3 x 3 glued pairs, at tau: no entry through a middle point
    assert list(kernel.kept) == [p]
    assert set(kernel.kept[p]) == {(x, y) for x in probes[:3] for y in probes[:3]}
    for check in (check_initial_condition, check_against_oracle):
        args = (space, D) if check is check_initial_condition else (space, D, p)
        assert check(*args, kernel=kernel).passed
    assert KernelParams(tau=0.5) not in kernel.kept
    assert sum(len(entries) for entries in kernel.kept.values()) <= 4 * 8**2 + 36
