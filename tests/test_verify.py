"""The self-check suite: all checks pass on healthy configs and flag broken ones."""

from __future__ import annotations

import math

import pytest

from orbitwalk.errors import DomainError
from orbitwalk.group import OrbitSpaceSpec, Representation, fundamental_domain
from orbitwalk.kernels import KernelParams
from orbitwalk.orbit import TruncationPolicy, _gluing_weight
from orbitwalk.verify import (
    CheckResult,
    _Kernels,
    _symmetrized_delta,
    all_passed,
    check_composition,
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
    with pytest.raises(DomainError):
        run_checks(space, Representation(), KernelParams(tau=1.0))
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


def test_loose_truncation_fails_oracle_check():
    results = run_checks(
        OrbitSpaceSpec("Circle", L=4),
        Representation(),
        KernelParams(tau=5.0),
        TruncationPolicy(tol=1e-2),
    )
    assert not all_passed(results)
    by_name = {r.name: r for r in results}
    assert not by_name["orbit_vs_oracle"].passed
    assert by_name["orbit_vs_oracle"].deviation > by_name["orbit_vs_oracle"].tolerance


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
    trunc = TruncationPolicy()
    real = _Kernels(space, D, trunc)
    calls = []

    def kernel(x, y, params):
        calls.append((x, y, params.tau))
        return real(x, y, params)

    result = check_composition(space, D, p, trunc, kernel=kernel)
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
