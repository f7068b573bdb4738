"""Ground-truth routines: dense spectra, direct resolvents, step-matrix powers."""

from __future__ import annotations

import ast
import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from orbitwalk import oracle
from orbitwalk.errors import DomainError
from orbitwalk.group import OrbitSpaceSpec, Representation
from orbitwalk.kernels import CoinSpec, KernelParams, hadamard_coin
from orbitwalk.orbit import KernelPlan

from _oracles import coined_circle_block, many_body_kernel


def circle_spec(L, theta=0.0, omega=1.0):
    return oracle.HamiltonianSpec(L, omega, oracle.CircleTwisted(theta))


# The production route's single-walker fold (whose residues are the time and
# heat winding sums and the closed-form resolvent), lift and coined winding sum.
PRODUCTION_ROUTE = {
    "_fold", "_residue", "_free_row", "KernelPlan", "first_row_expansion", "_minors",
    "lu_determinant", "orbit_coined_blocks", "_momentum",
}


@pytest.mark.parametrize(
    "path",
    [
        Path(__file__).parent / "_reference_group.py",
        Path(__file__).parent / "_oracles.py",
        Path(oracle.__file__),
    ],
    ids=["group-reference", "test-oracles", "dense-oracle"],
)
def test_references_share_no_code_with_the_route_they_check(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert not used & PRODUCTION_ROUTE


# -- Hamiltonian assembly ------------------------------------------------


def test_open_chain_matrix_entries():
    h = oracle.build_hamiltonian(oracle.HamiltonianSpec(4, 2.0, oracle.Dirichlet()))
    want = np.zeros((4, 4))
    for i in range(3):
        want[i, i + 1] = want[i + 1, i] = -1.0
    assert np.array_equal(h, want)


def test_twisted_ring_closing_bond():
    theta = 0.8
    h = oracle.build_hamiltonian(circle_spec(5, theta))
    assert h[0, 4] == pytest.approx(-0.5 * np.exp(-1j * theta))
    assert h[4, 0] == pytest.approx(-0.5 * np.exp(1j * theta))
    assert h[0, 1] == -0.5


def test_two_site_ring_accumulates_double_bond():
    h = oracle.build_hamiltonian(circle_spec(2, 0.0))
    assert h[0, 1] == pytest.approx(-1.0)  # chain bond plus closing bond


def test_half_line_boundary_shift():
    h = oracle.build_hamiltonian(oracle.HamiltonianSpec(6, 1.0, oracle.HalfLinePhase(0.0)))
    assert h[0, 0] == pytest.approx(-0.5)
    h = oracle.build_hamiltonian(oracle.HamiltonianSpec(6, 1.0, oracle.HalfLinePhase(math.pi)))
    assert h[0, 0] == pytest.approx(0.5)


def test_interval_boundary_shifts():
    h = oracle.build_hamiltonian(oracle.HamiltonianSpec(5, 1.0, oracle.IntervalPhase(math.pi, math.pi)))
    assert h[0, 0] == pytest.approx(0.5)  # -cos(phi)/2 with phi=pi
    assert h[4, 4] == pytest.approx(-0.5)  # -cos(theta+phi)/2 with theta+phi=2pi
    h = oracle.build_hamiltonian(oracle.HamiltonianSpec(5, 1.0, oracle.IntervalPhase(0.0, math.pi)))
    assert h[4, 4] == pytest.approx(0.5)


def test_interval_phases_must_be_multiples_of_pi():
    with pytest.raises(DomainError):
        oracle.build_hamiltonian(oracle.HamiltonianSpec(5, 1.0, oracle.IntervalPhase(0.3, 0.0)))
    with pytest.raises(DomainError):
        oracle.build_hamiltonian(oracle.HamiltonianSpec(5, 1.0, oracle.HalfLinePhase(1.0)))


def test_hamiltonian_spec_validation():
    with pytest.raises(DomainError):
        oracle.HamiltonianSpec(0, 1.0, oracle.Dirichlet())
    with pytest.raises(DomainError):
        oracle.HamiltonianSpec(4, 0.0, oracle.Dirichlet())
    with pytest.raises(DomainError):
        oracle.HamiltonianSpec(oracle.SITES_MAX + 1, 1.0, oracle.Dirichlet())


# -- closed-form spectra -------------------------------------------------


@pytest.mark.parametrize("L,theta", [(3, 0.0), (5, 0.7), (8, math.pi)])
def test_twisted_ring_eigenvalues(L, theta):
    dec = oracle.diagonalize(oracle.build_hamiltonian(circle_spec(L, theta)))
    want = sorted(-math.cos((2 * math.pi * p + theta) / L) for p in range(L))
    assert np.allclose(dec.eigenvalues, want, atol=1e-14)


@pytest.mark.parametrize("L", [2, 5, 9])
def test_open_chain_eigenvalues(L):
    dec = oracle.diagonalize(oracle.build_hamiltonian(oracle.HamiltonianSpec(L, 1.0, oracle.Dirichlet())))
    want = sorted(-math.cos(p * math.pi / (L + 1)) for p in range(1, L + 1))
    assert np.allclose(dec.eigenvalues, want, atol=1e-14)


def test_periodic_interval_eigenvalues():
    # theta=0, phi=0 interval of L sites has the spectrum -cos(p pi / L), p=0..L-1
    L = 6
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(L, 1.0, oracle.IntervalPhase(0.0, 0.0)))
    )
    want = sorted(-math.cos(p * math.pi / L) for p in range(L))
    assert np.allclose(dec.eigenvalues, want, atol=1e-14)


def test_diagonalize_rejects_non_hermitian():
    with pytest.raises(DomainError):
        oracle.diagonalize(np.array([[0.0, 1.0], [0.5, 0.0]]))


# -- spectral kernels ----------------------------------------------------


def test_spectral_kernel_at_zero_time_is_identity():
    dec = oracle.diagonalize(oracle.build_hamiltonian(circle_spec(5, 0.4)))
    assert np.allclose(oracle.spectral_kernel_matrix(dec, 0.0), np.eye(5), atol=1e-14)


def test_spectral_kernel_matrix_is_unitary():
    dec = oracle.diagonalize(oracle.build_hamiltonian(circle_spec(6, 1.1)))
    u = oracle.spectral_kernel_matrix(dec, 2.5)
    assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-13


def test_spectral_kernel_entry_indexing_is_one_based():
    dec = oracle.diagonalize(oracle.build_hamiltonian(circle_spec(4)))
    u = oracle.spectral_kernel_matrix(dec, 1.5)
    assert oracle.spectral_kernel(dec, 1.5, 1, 4) == pytest.approx(u[0, 3], abs=1e-14)
    with pytest.raises(DomainError):
        oracle.spectral_kernel(dec, 1.5, 0, 2)
    with pytest.raises(DomainError):
        oracle.spectral_kernel(dec, 1.5, 1, 5)


def test_resolvent_direct_solves_the_linear_system():
    h = oracle.build_hamiltonian(circle_spec(5, 0.3))
    energy = 0.4 + 0.2j
    g = oracle.resolvent_direct(h, energy)
    residual = (energy * np.eye(5) - h) @ g - np.eye(5)
    assert np.max(np.abs(residual)) < 1e-12


def test_resolvent_direct_requires_upper_half_plane():
    h = oracle.build_hamiltonian(circle_spec(4))
    with pytest.raises(DomainError):
        oracle.resolvent_direct(h, 0.5)
    with pytest.raises(DomainError):
        oracle.resolvent_direct(h, 0.5 - 0.1j)


def test_gibbs_and_partition_consistency():
    dec = oracle.diagonalize(oracle.build_hamiltonian(circle_spec(6, 0.9)))
    rho = oracle.gibbs_direct(dec, 1.3)
    assert np.trace(rho).real == pytest.approx(oracle.partition_direct(dec, 1.3), rel=1e-14)
    assert np.allclose(oracle.gibbs_direct(dec, 0.0), np.eye(6), atol=1e-13)
    with pytest.raises(DomainError):
        oracle.partition_direct(dec, -0.5)


# -- permanents and many-body kernels -----------------------------------


def brute_permanent(m):
    n = m.shape[0]
    return sum(
        np.prod([m[i, p[i]] for i in range(n)]) for p in itertools.permutations(range(n))
    )


# The three tests keep the names they had while the oracle used Ryser's formula.
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ryser_permanent_matches_brute_force(n):
    rng = np.random.default_rng(7 + n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert oracle.permanent(m) == pytest.approx(brute_permanent(m), rel=1e-12)


@pytest.mark.parametrize("n", range(1, oracle.MANY_BODY_MAX + 1))
def test_ryser_permanent_on_lists_equals_numpy_row_sums_to_the_last_bit(n):
    # lists and arrays give the same bits, signed zeros included
    rng = np.random.default_rng(40 + n)
    for scale in (1e-3, 1.0, 1e3):
        m = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        m[rng.random(size=(n, n)) < 0.2] = -0.0
        assert repr(oracle.permanent(m.tolist())) == repr(oracle.permanent(m))


def test_ryser_permanent_size_cap():
    with pytest.raises(DomainError):
        oracle.permanent(np.eye(oracle.MANY_BODY_MAX + 1))


def test_boson_value_of_a_repeated_row_heat_matrix_keeps_every_digit():
    # HalfLine heat entries between x = (1, 1, 1, 1) and y = (1, 2, 3, 4) are
    # positive, and four equal rows: Ryser's inclusion-exclusion cancelled
    # to 1.2e-12 relative here, the definition adds only positive terms.
    space = OrbitSpaceSpec("HalfLine", N=4)
    plan = KernelPlan(space, Representation(), KernelParams(beta=0.7), mode="heat")
    m = [[plan._sum(a, b) for b in (1, 2, 3, 4)] for a in (1, 1, 1, 1)]
    with mpmath.workdps(50):
        want = mpmath.fsum(
            mpmath.fprod(mpmath.mpf(m[i][j].real) for i, j in enumerate(perm))
            for perm in itertools.permutations(range(4))
        )
        got = oracle.many_body_value(m, "Boson")
        assert all(v.imag == 0.0 for row in m for v in row) and got.imag == 0.0
        assert abs((mpmath.mpf(got.real) - want) / want) <= 1e-15


def test_many_body_kernel_statistics():
    dec = oracle.diagonalize(oracle.build_hamiltonian(circle_spec(6, 0.5)))
    # fermions vanish at coincident coordinates
    assert abs(many_body_kernel(dec, 2, "Fermion", (2, 2), (1, 3), 1.0)) < 1e-15
    # tau=0 with distinct coordinates reduces to a delta
    assert many_body_kernel(dec, 2, "Boson", (1, 3), (1, 3), 0.0) == pytest.approx(1.0, abs=1e-13)
    assert abs(many_body_kernel(dec, 2, "Boson", (1, 3), (2, 4), 0.0)) < 1e-13


def test_many_body_kernel_requires_sorted_points_and_caps_n():
    dec = oracle.diagonalize(oracle.build_hamiltonian(circle_spec(6)))
    with pytest.raises(DomainError):
        many_body_kernel(dec, 2, "Boson", (3, 1), (1, 3), 1.0)
    with pytest.raises(DomainError):
        many_body_kernel(dec, 7, "Boson", tuple(range(1, 8)), tuple(range(1, 8)), 1.0)


# -- discrete-time step matrix -------------------------------------------


def test_coined_power_zero_steps_and_unitarity():
    coin = hadamard_coin()
    assert np.array_equal(oracle.coined_circle_power(5, 0.9, coin, 0), np.eye(10))
    w = oracle.coined_circle_power(5, 0.9, coin, 7)
    assert np.max(np.abs(w @ w.conj().T - np.eye(10))) < 1e-12


def test_coined_power_block_reads_one_based_sites():
    coin = hadamard_coin()
    w = oracle.coined_circle_power(4, 0.0, coin, 1)
    s = 1.0 / math.sqrt(2.0)
    # one step from site 1: coin row for +1 shift lands on site 2
    assert np.allclose(coined_circle_block(w, 2, 2, 1), [[s, s], [0, 0]], atol=1e-15)
    assert np.allclose(coined_circle_block(w, 2, 4, 1), [[0, 0], [s, -s]], atol=1e-15)


def test_coined_power_wrap_phase_orientation():
    # Hopping up from site L to site 1 must carry e^{-i theta}: that is the
    # sector psi(x + L) = e^{i theta} psi(x).
    theta = 1.2
    coin = CoinSpec(1, np.array([[1.0]]), (1,))
    w = oracle.coined_circle_power(3, theta, coin, 1)
    assert w[0, 2] == pytest.approx(np.exp(-1j * theta))
    assert w[1, 0] == pytest.approx(1.0)


def test_coined_power_size_cap():
    coin = hadamard_coin()
    with pytest.raises(DomainError):
        oracle.coined_circle_power(oracle.COINED_DIM_MAX, 0.0, coin, 1)


# -- gauge equivalence ----------------------------------------------------


@pytest.mark.parametrize("L,theta", [(3, math.pi), (5, 1.1)])
def test_gauge_check_is_tiny(L, theta):
    assert oracle.gauge_check(L, theta, 2.0) < 1e-12


def test_gauge_check_with_other_hopping():
    assert oracle.gauge_check(4, 0.7, 1.5, omega=2.0) < 1e-12


# -- window helper ---------------------------------------------------------


def test_half_line_window_floor_and_growth():
    assert oracle.half_line_window(1.0, 1.0) == 200
    assert oracle.half_line_window(1.0, 100.0) >= 480
    assert oracle.half_line_window(2.0, 50.0) == oracle.half_line_window(1.0, 100.0)
