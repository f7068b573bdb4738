"""Image-sum kernels: exact folds, invariants, and oracle agreement."""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitwalk.orbit
from orbitwalk import _core_py, oracle
from orbitwalk.errors import DomainError, PrecisionError
from orbitwalk.group import OrbitSpaceSpec, Representation, fundamental_domain
from orbitwalk.kernels import KernelParams, _momentum, hadamard_coin
from orbitwalk.orbit import (
    KernelPlan,
    _free_row,
    evolve_state,
    first_row_expansion,
    local_dos,
    lu_determinant,
    orbit_coined_blocks,
    orbit_coined_kernel,
    orbit_density_matrix,
    orbit_heat_kernel,
    orbit_kernel,
    orbit_resolvent,
    partition_function,
    probability,
)

from _oracles import many_walker_gibbs, shell_sum_resolvent
from _reference_group import (
    GroupElement,
    ShellPolicy,
    TruncationError,
    _heat_term,
    _orbit_sum,
    _time_term,
    act,
    direct_kernel,
    reflection,
    rep_value,
    rep_weight,
    translation,
)


def time_value(space, D, x, y, tau, omega=1.0, **kw):
    return orbit_kernel(space, D, x, y, KernelParams(omega=omega, tau=tau), **kw)


# -- frozen spot values (independently computed spectral sums) ---------


def test_circle_untwisted_return_amplitude():
    space = OrbitSpaceSpec("Circle", L=4)
    value = orbit_kernel(space, Representation(), 1, 1, KernelParams(tau=1.0))
    assert value == pytest.approx(0.7701511529340699 + 0j, abs=1e-12)


def test_half_line_dirichlet_value():
    space = OrbitSpaceSpec("HalfLine", boundary_convention="Dirichlet")
    value = orbit_kernel(space, Representation(phi=math.pi), 1, 2, KernelParams(tau=2.0))
    assert value == pytest.approx(0.7056680572312752j, abs=1e-12)


def test_interval_value():
    space = OrbitSpaceSpec("Interval", L=3)
    value = orbit_kernel(
        space, Representation(theta=math.pi, phi=0.0), 2, 3, KernelParams(tau=1.5)
    )
    assert value == pytest.approx(0.2438581513733221 + 0.5561617649326516j, abs=1e-12)


def test_resolvent_value():
    space = OrbitSpaceSpec("Circle", L=6)
    value = orbit_resolvent(space, Representation(theta=0.7), 1, 3, KernelParams(energy=0.4 + 0.3j))
    assert value == pytest.approx(-0.27881446688369005 + 0.20772976280130492j, abs=1e-11)


def test_partition_value():
    space = OrbitSpaceSpec("Circle", L=5)
    z = partition_function(space, Representation(theta=0.9), KernelParams(beta=1.0))
    assert z == pytest.approx(6.332016830172176, rel=1e-12)


# -- orbit sum vs spectral oracle --------------------------------------


@pytest.mark.parametrize("L", [2, 3, 5, 8])
@pytest.mark.parametrize("theta", [0.0, math.pi / 2, 2 * math.pi / 3])
def test_circle_matches_oracle(L, theta):
    space = OrbitSpaceSpec("Circle", L=L)
    D = Representation(theta=theta)
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(L, 1.0, oracle.CircleTwisted(theta)))
    )
    for x in range(1, L + 1):
        for y in range(1, L + 1):
            got = time_value(space, D, x, y, 3.0)
            want = oracle.spectral_kernel(dec, 3.0, x, y)
            assert got == pytest.approx(want, abs=1e-11)


@pytest.mark.parametrize("phi,convention", [(0.0, "Standard"), (math.pi, "Standard"), (math.pi, "Dirichlet")])
def test_half_line_matches_oracle(phi, convention):
    space = OrbitSpaceSpec("HalfLine", boundary_convention=convention)
    D = Representation(phi=phi)
    window = oracle.half_line_window(1.0, 4.0)
    boundary = oracle.Dirichlet() if convention == "Dirichlet" else oracle.HalfLinePhase(phi)
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(window, 1.0, boundary))
    )
    for x in (1, 2, 7, 20):
        for y in (1, 4, 11):
            got = time_value(space, D, x, y, 4.0)
            assert got == pytest.approx(oracle.spectral_kernel(dec, 4.0, x, y), abs=1e-9)


@pytest.mark.parametrize("theta", [0.0, math.pi])
@pytest.mark.parametrize("phi", [0.0, math.pi])
def test_interval_matches_oracle(theta, phi):
    L = 5
    space = OrbitSpaceSpec("Interval", L=L)
    D = Representation(theta=theta, phi=phi)
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(L, 1.0, oracle.IntervalPhase(theta, phi)))
    )
    for x in range(1, L + 1):
        for y in range(1, L + 1):
            got = time_value(space, D, x, y, 2.5)
            assert got == pytest.approx(oracle.spectral_kernel(dec, 2.5, x, y), abs=1e-10)


def test_dirichlet_interval_matches_open_chain():
    L = 4
    space = OrbitSpaceSpec("Interval", L=L, boundary_convention="Dirichlet")
    D = Representation(theta=0.0, phi=math.pi)
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(L, 1.0, oracle.Dirichlet()))
    )
    for x in range(1, L + 1):
        for y in range(1, L + 1):
            got = time_value(space, D, x, y, 2.0)
            assert got == pytest.approx(oracle.spectral_kernel(dec, 2.0, x, y), abs=1e-12)


def test_dirichlet_kernels_vanish_on_fixed_points():
    half = OrbitSpaceSpec("HalfLine", boundary_convention="Dirichlet")
    D = Representation(phi=math.pi)
    assert time_value(half, D, 0, 3, 2.0, restrict_domain=False) == 0j
    box = OrbitSpaceSpec("Interval", L=5, boundary_convention="Dirichlet")
    D = Representation(theta=0.0, phi=math.pi)
    assert abs(time_value(box, D, 0, 2, 2.0, restrict_domain=False)) < 1e-12
    assert abs(time_value(box, D, 6, 2, 2.0, restrict_domain=False)) < 1e-12


# -- algebraic invariants ----------------------------------------------


@pytest.mark.parametrize(
    "space,D",
    [
        (OrbitSpaceSpec("Circle", L=8), Representation(theta=0.7)),
        (OrbitSpaceSpec("Interval", L=6), Representation(theta=math.pi, phi=math.pi)),
    ],
    ids=["circle", "interval"],
)
def test_composition_on_finite_domain(space, D):
    points = fundamental_domain(space)
    for x in ((1,), (3,)):
        for y in ((2,), (5,)):
            lhs = sum(
                time_value(space, D, x, z, 0.5) * time_value(space, D, z, y, 1.0)
                for z in points
            )
            assert lhs == pytest.approx(time_value(space, D, x, y, 1.5), abs=1e-10)


def test_composition_half_line_windowed():
    space = OrbitSpaceSpec("HalfLine")
    D = Representation(phi=math.pi)
    lhs = sum(
        time_value(space, D, 2, (z,), 0.5) * time_value(space, D, (z,), 4, 1.0)
        for z in range(1, 120)
    )
    assert lhs == pytest.approx(time_value(space, D, 2, 4, 1.5), abs=1e-10)


@pytest.mark.parametrize(
    "space,D",
    [
        (OrbitSpaceSpec("Circle", L=5), Representation(theta=1.234)),
        (OrbitSpaceSpec("Interval", L=4), Representation(theta=0.0, phi=math.pi)),
        (OrbitSpaceSpec("HalfLine"), Representation(phi=0.0)),
    ],
    ids=["circle", "interval", "halfline"],
)
def test_unitarity_relation(space, D):
    for x in (1, 2, 3):
        for y in (1, 2, 4):
            forward = time_value(space, D, x, y, 2.0)
            backward = time_value(space, D, y, x, -2.0)
            assert forward.conjugate() == pytest.approx(backward, abs=1e-12)


@pytest.mark.parametrize(
    "space,D",
    [
        (OrbitSpaceSpec("Circle", L=5), Representation(theta=0.3)),
        (OrbitSpaceSpec("Interval", L=4), Representation(theta=math.pi, phi=0.0)),
        (OrbitSpaceSpec("HalfLine"), Representation(phi=math.pi)),
        (OrbitSpaceSpec("Line"), Representation()),
    ],
    ids=["circle", "interval", "halfline", "line"],
)
def test_initial_condition(space, D):
    p = KernelParams(tau=0.0)
    for x in (1, 2, 3):
        for y in (1, 2, 3):
            value = orbit_kernel(space, D, x, y, p)
            assert value == (1 + 0j if x == y else 0j)


@pytest.mark.parametrize(
    "space,D,generators",
    [
        (OrbitSpaceSpec("Circle", L=5), Representation(theta=0.7), [translation()]),
        (OrbitSpaceSpec("HalfLine"), Representation(phi=math.pi), [reflection()]),
        (
            OrbitSpaceSpec("Interval", L=4),
            Representation(theta=math.pi, phi=math.pi),
            [translation(), reflection()],
        ),
    ],
    ids=["circle-t", "halfline-r", "interval-tr"],
)
def test_equivariance_per_generator(space, D, generators):
    for g in generators:
        for x in ((1,), (2,)):
            for y in ((1,), (3,)):
                moved = time_value(space, D, act(g, x, space), y, 1.5, restrict_domain=False)
                weighted = rep_value(D, g, space) * time_value(space, D, x, y, 1.5)
                assert moved == pytest.approx(weighted, abs=1e-12)


def test_twisted_translation_identity():
    space = OrbitSpaceSpec("Circle", L=6)
    D = Representation(theta=1.1)
    for y in (1, 4):
        lhs = time_value(space, D, 7, y, 2.0, restrict_domain=False)
        rhs = cmath.exp(1.1j) * time_value(space, D, 1, y, 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_bounce_identity_half_line_and_interval():
    half = OrbitSpaceSpec("HalfLine")
    D = Representation(phi=math.pi)
    for y in (1, 4):
        lhs = time_value(half, D, 0, y, 2.0, restrict_domain=False)
        assert lhs == pytest.approx(-time_value(half, D, 1, y, 2.0), abs=1e-12)
    box = OrbitSpaceSpec("Interval", L=5)
    D = Representation(theta=math.pi, phi=math.pi)
    for y in (1, 4):
        lhs = time_value(box, D, 0, y, 2.0, restrict_domain=False)
        assert lhs == pytest.approx(-time_value(box, D, 1, y, 2.0), abs=1e-12)


@pytest.mark.parametrize("theta", [0.7, math.pi])
def test_reflection_conjugates_the_twist(theta):
    space = OrbitSpaceSpec("Circle", L=6)
    z = 7
    for x in (1, 2, 3):
        for y in (1, 4):
            mirrored = time_value(
                space, Representation(theta=theta), z - x, z - y, 2.0, restrict_domain=False
            )
            flipped = time_value(space, Representation(theta=-theta), x, y, 2.0)
            assert mirrored == pytest.approx(flipped, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, math.pi])
@pytest.mark.parametrize("phi", [0.0, math.pi])
def test_interval_from_doubled_circle(theta, phi):
    """Dihedral sum = twisted-circle sum + e^{i phi} * reflected twisted-circle sum."""
    L = 5
    box = OrbitSpaceSpec("Interval", L=L)
    ring = OrbitSpaceSpec("Circle", L=2 * L)
    D_box = Representation(theta=theta, phi=phi)
    D_ring = Representation(theta=theta)
    for x in range(1, L + 1):
        for y in range(1, L + 1):
            direct = time_value(ring, D_ring, x, y, 2.0)
            mirrored = time_value(ring, D_ring, x, 1 - y, 2.0, restrict_domain=False)
            combined = direct + cmath.exp(1j * phi) * mirrored
            assert combined == pytest.approx(time_value(box, D_box, x, y, 2.0), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(-math.pi, math.pi, allow_nan=False),
    tau=st.floats(-4.0, 4.0, allow_nan=False),
    x=st.integers(1, 5),
    y=st.integers(1, 5),
)
def test_unitarity_property(theta, tau, x, y):
    space = OrbitSpaceSpec("Circle", L=5)
    D = Representation(theta=theta)
    forward = time_value(space, D, x, y, tau)
    backward = time_value(space, D, y, x, -tau)
    assert forward.conjugate() == pytest.approx(backward, abs=1e-12)


# -- identical walkers --------------------------------------------------


@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
@pytest.mark.parametrize(
    "N,x,y", [(2, (1, 3), (2, 5)), (3, (1, 3, 4), (2, 5, 6))], ids=["N2", "N3"]
)
def test_many_walker_routes_agree_on_circle(statistics, N, x, y):
    space = OrbitSpaceSpec("Circle", L=6, N=N)
    D = Representation(theta=0.9, statistics=statistics)
    p = KernelParams(tau=1.0)
    direct = direct_kernel(space, D, x, y, p).value
    factorized = orbit_kernel(space, D, x, y, p)
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(6, 1.0, oracle.CircleTwisted(0.9)))
    )
    reference = oracle.many_body_kernel(dec, N, statistics, x, y, 1.0)
    assert direct == pytest.approx(factorized, abs=1e-10)
    assert direct == pytest.approx(reference, abs=1e-10)


@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
def test_two_walker_routes_agree_on_interval(statistics):
    space = OrbitSpaceSpec("Interval", L=5, N=2)
    D = Representation(theta=math.pi, phi=0.0, statistics=statistics)
    p = KernelParams(tau=1.0)
    direct = direct_kernel(space, D, (1, 3), (2, 4), p).value
    factorized = orbit_kernel(space, D, (1, 3), (2, 4), p)
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(5, 1.0, oracle.IntervalPhase(math.pi, 0.0)))
    )
    reference = oracle.many_body_kernel(dec, 2, statistics, (1, 3), (2, 4), 1.0)
    assert direct == pytest.approx(factorized, abs=1e-10)
    assert direct == pytest.approx(reference, abs=1e-10)


def test_fermion_kernel_vanishes_at_coincident_points():
    space = OrbitSpaceSpec("Circle", L=6, N=2)
    D = Representation(statistics="Fermion")
    p = KernelParams(tau=1.0)
    assert abs(orbit_kernel(space, D, (2, 2), (1, 3), p)) < 1e-13
    assert abs(direct_kernel(space, D, (2, 2), (1, 3), p).value) < 1e-13


def test_default_method_lifts_from_single_walker_sums(image_sums):
    p = KernelParams(tau=0.5)
    orbit_kernel(OrbitSpaceSpec("Circle", L=4, N=2), Representation(), (1, 3), (2, 4), p)
    # the four pairs (x_i, y_j) have the displacements -3, -1 and 1: residues 1 and 3 mod 4
    assert sorted(image_sums.residues) == [(4, 1), (4, 3)]
    space = OrbitSpaceSpec("Circle", L=4, N=4)
    lifted = orbit_kernel(space, Representation(), (1, 2, 3, 4), (1, 2, 3, 4), p)
    # a new plan: the sixteen pairs have the seven displacements -3..3, every residue
    assert sorted(image_sums.residues[2:]) == [(4, r) for r in range(4)]
    assert image_sums.direct == []
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(4, 1.0, oracle.CircleTwisted(0.0)))
    )
    want = oracle.many_body_kernel(dec, 4, "Boson", (1, 2, 3, 4), (1, 2, 3, 4), 0.5)
    assert lifted == pytest.approx(want, abs=1e-10)


def test_lifted_five_fermion_kernel_matches_oracle():
    space = OrbitSpaceSpec("Circle", L=7, N=5)
    D = Representation(theta=0.4, statistics="Fermion")
    x, y = (1, 2, 4, 5, 7), (1, 3, 4, 6, 7)
    got = orbit_kernel(space, D, x, y, KernelParams(tau=1.5))
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(7, 1.0, oracle.CircleTwisted(0.4)))
    )
    want = oracle.many_body_kernel(dec, 5, "Fermion", x, y, 1.5)
    assert got == pytest.approx(want, abs=1e-10)


def _permanent_by_definition(m) -> complex:
    n = len(m)
    return sum(
        math.prod(m[i][j] for i, j in enumerate(perm)) for perm in itertools.permutations(range(n))
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_glynn_permanent_matches_ryser(n):
    # The name is kept from Glynn's formula, which `first_row_expansion` replaced.
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rows = m.tolist()
    index = tuple(range(n))
    # The oracle's permanent stops at MANY_BODY_MAX; beyond it, the same definition here.
    want = oracle.permanent(m) if n <= oracle.MANY_BODY_MAX else _permanent_by_definition(m)
    minors: dict = {}
    got = first_row_expansion(lambda i, j: rows[i][j], index, index, False, minors)
    assert type(got) is complex
    assert abs(got - want) <= 1e-12 * abs(want)
    # the minors of 3 to n - 1 rows are kept, one per (row suffix, column subset)
    assert len(minors) == sum(math.comb(n, k) for k in range(3, n))
    assert first_row_expansion(lambda i, j: rows[i][j], index, index, False, minors) == got
    det = complex(np.linalg.det(m))
    got = first_row_expansion(lambda i, j: rows[i][j], index, index, True, {})
    assert abs(got - det) <= 1e-12 * abs(det)


@pytest.mark.parametrize("n", range(1, 9))
def test_lu_determinant_matches_numpy(n):
    rng = np.random.default_rng(100 + n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    want = complex(np.linalg.det(m))
    got = lu_determinant(m.tolist())
    assert type(got) is complex
    assert abs(got - want) <= 1e-12 * abs(want)


def test_lu_determinant_row_swap_flips_the_sign():
    assert lu_determinant([[0j, 1 + 0j], [1 + 0j, 0j]]) == -1
    rng = np.random.default_rng(7)
    m = (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))).tolist()
    swapped = [m[3], m[1], m[2], m[0], m[4]]
    # the same pivots in the same order, one swap more
    assert lu_determinant(swapped) == -lu_determinant(m)


@pytest.mark.parametrize(
    "m",
    [
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # the first pivot column is zero
        [[1, 2], [2, 4]],  # elimination leaves an exactly zero pivot
        [[1j, 2, 3], [2j, 4, 6], [0, 1, 1]],
    ],
    ids=["first-column", "eliminated", "eliminated-complex"],
)
def test_lu_determinant_of_a_zero_pivot_column_is_exact_zero(m):
    got = lu_determinant(m)
    assert got == 0j
    assert type(got) is complex


# -- resolvent, thermal, dos -------------------------------------------


@pytest.mark.parametrize("energy", [0.4 + 0.3j, -0.2 + 0.05j, 1.5 + 1.0j])
def test_resolvent_matches_direct_solve(energy):
    space = OrbitSpaceSpec("Circle", L=6)
    D = Representation(theta=0.7)
    h = oracle.build_hamiltonian(oracle.HamiltonianSpec(6, 1.0, oracle.CircleTwisted(0.7)))
    green = oracle.resolvent_direct(h, energy)
    for x in range(1, 7):
        for y in range(1, 7):
            value = orbit_resolvent(space, D, x, y, KernelParams(energy=energy))
            assert value == pytest.approx(green[x - 1, y - 1], abs=1e-9)


def test_resolvent_needs_upper_half_plane():
    space = OrbitSpaceSpec("Circle", L=4)
    with pytest.raises(DomainError):
        orbit_resolvent(space, Representation(), 1, 1, KernelParams(energy=0.5 - 0.1j))


def test_resolvent_shell_sum_trips_default_cap_closed_form_matches_direct_solve():
    space = OrbitSpaceSpec("Circle", L=6)
    D = Representation()
    p = KernelParams(energy=-0.2 + 0.05j)
    with pytest.raises(TruncationError):
        shell_sum_resolvent(space, D, 1, 1, p, ShellPolicy())
    h = oracle.build_hamiltonian(oracle.HamiltonianSpec(6, 1.0, oracle.CircleTwisted(0.0)))
    green = oracle.resolvent_direct(h, p.energy)
    value = orbit_resolvent(space, D, 1, 1, p)
    assert abs(value - green[0, 0]) <= 1e-9


@pytest.mark.parametrize(
    "space,D",
    [
        (OrbitSpaceSpec("Circle", L=5), Representation(theta=0.7)),
        (OrbitSpaceSpec("Circle", L=2), Representation(theta=2.3)),
        (OrbitSpaceSpec("Interval", L=4), Representation(theta=math.pi, phi=0.0)),
        (OrbitSpaceSpec("Interval", L=3), Representation(theta=0.0, phi=math.pi)),
        (
            OrbitSpaceSpec("Interval", L=3, boundary_convention="Dirichlet"),
            Representation(theta=0.0, phi=math.pi),
        ),
        (OrbitSpaceSpec("HalfLine"), Representation(phi=math.pi)),
        (OrbitSpaceSpec("HalfLine", boundary_convention="Dirichlet"), Representation(phi=math.pi)),
        (OrbitSpaceSpec("Line"), Representation()),
    ],
    ids=lambda v: f"{v.kind}-{v.L}-{v.boundary_convention}" if isinstance(v, OrbitSpaceSpec) else "",
)
@pytest.mark.parametrize("energy", [0.4 + 0.3j, 0.2 + 0.05j, -0.9 + 0.02j])
def test_closed_form_resolvent_matches_shell_sum(space, D, energy):
    # Points run outside the fundamental domain (restrict_domain=False), on
    # both sides of it; the error is relative to the largest value compared.
    p = KernelParams(energy=energy)
    trunc = ShellPolicy(max_shell=3000)
    pairs = list(itertools.product(range(-3, 9), repeat=2))
    got = [orbit_resolvent(space, D, x, y, p, restrict_domain=False) for x, y in pairs]
    want = [shell_sum_resolvent(space, D, x, y, p, trunc).value for x, y in pairs]
    scale = max(abs(w) for w in want)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * scale


def test_closed_form_resolvent_near_band_edge_matches_direct_solve():
    space = OrbitSpaceSpec("Circle", L=5)
    D = Representation(theta=0.7)
    energy = 0.999 + 1e-4j
    h = oracle.build_hamiltonian(oracle.HamiltonianSpec(5, 1.0, oracle.CircleTwisted(0.7)))
    green = oracle.resolvent_direct(h, energy)
    for x in range(1, 6):
        for y in range(1, 6):
            value = orbit_resolvent(space, D, x, y, KernelParams(energy=energy))
            assert abs(value - green[x - 1, y - 1]) <= 1e-9


@pytest.mark.parametrize("L", [3, 5, 8])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_partition_function_matches_trace(L, beta):
    space = OrbitSpaceSpec("Circle", L=L)
    D = Representation(theta=0.9)
    z = partition_function(space, D, KernelParams(beta=beta))
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(L, 1.0, oracle.CircleTwisted(0.9)))
    )
    assert z == pytest.approx(oracle.partition_direct(dec, beta), rel=1e-11)


def test_partition_function_at_zero_beta_counts_sites():
    space = OrbitSpaceSpec("Circle", L=7)
    assert partition_function(space, Representation(), KernelParams(beta=0.0)) == 7.0
    box = OrbitSpaceSpec("Interval", L=4)
    D = Representation(theta=0.0, phi=math.pi)
    assert partition_function(box, D, KernelParams(beta=0.0)) == 4.0


def test_partition_function_rejects_infinite_domains():
    with pytest.raises(DomainError):
        partition_function(OrbitSpaceSpec("Line"), Representation(), KernelParams(beta=1.0))


def test_a_partition_function_that_cancels_below_zero_is_refused(monkeypatch):
    # One site at theta = pi: the exact Z is e^{-40} = 4.2e-18, but the
    # I-row terms alternate in sign and add to e^{40} in magnitude.
    space = OrbitSpaceSpec("Circle", L=1)
    D = Representation(theta=math.pi)
    p = KernelParams(beta=40.0)
    with pytest.raises(PrecisionError, match="not a positive finite number"):
        partition_function(space, D, p)
    with pytest.raises(PrecisionError):
        orbit_density_matrix(space, D, 1, 1, p)
    for diagonal in (0j, complex(math.nan, 0.0)):  # Z exactly 0, or not a number
        monkeypatch.setattr(KernelPlan, "value", lambda plan, x, y, d=diagonal: d)
        with pytest.raises(PrecisionError):
            partition_function(OrbitSpaceSpec("Circle", L=3), Representation(), p)


def test_heat_plan_refuses_beta_omega_past_the_i_row_range(monkeypatch):
    space = OrbitSpaceSpec("Circle", L=4)
    limit = _core_py.I_Z_MAX
    KernelPlan(space, Representation(), KernelParams(beta=limit), mode="heat")
    with pytest.raises(OverflowError):
        _core_py.i_row(0, math.nextafter(limit, math.inf))

    def refuse(*args, **kwargs):
        raise AssertionError("an I row was computed past the limit")

    monkeypatch.setattr(orbitwalk.orbit, "i_row", refuse)
    for p in (KernelParams(beta=705.0), KernelParams(omega=2.0, beta=0.5 * limit + 0.25)):
        with pytest.raises(DomainError, match="exceeds"):
            KernelPlan(space, Representation(), p, mode="heat")


@pytest.mark.parametrize("kind", ["Circle", "Interval"])
def test_more_fermions_than_sites_are_refused_before_any_sum(monkeypatch, kind):
    # No antisymmetric state exists, so Z = 0 and rho = K / Z is undefined.
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran before the Z = 0 case was refused")

    monkeypatch.setattr(KernelPlan, "value", refuse)
    space = OrbitSpaceSpec(kind, L=2, N=3)
    D = Representation(statistics="Fermion")
    p = KernelParams(beta=1.0)
    with pytest.raises(DomainError, match="no antisymmetric state"):
        partition_function(space, D, p)
    with pytest.raises(DomainError, match="no antisymmetric state"):
        orbit_density_matrix(space, D, (1, 1, 2), (1, 2, 2), p)


def test_density_matrix_has_unit_trace_and_hermiticity():
    space = OrbitSpaceSpec("Circle", L=5)
    D = Representation(theta=1.3)
    p = KernelParams(beta=1.5)
    trace = sum(orbit_density_matrix(space, D, x, x, p).real for x in range(1, 6))
    assert trace == pytest.approx(1.0, abs=1e-12)
    upper = orbit_density_matrix(space, D, 2, 4, p)
    lower = orbit_density_matrix(space, D, 4, 2, p)
    assert upper == pytest.approx(lower.conjugate(), abs=1e-14)


def test_heat_kernel_report_contract():
    # the wrapper returns the plan's entry as a plain complex, and it is the
    # dense oracle's e^{-beta H}[1, 3] at the gate-7 entry tolerance
    space = OrbitSpaceSpec("Interval", L=4)
    D = Representation(theta=0.0, phi=0.0)
    p = KernelParams(beta=1.0)
    value = orbit_heat_kernel(space, D, 1, 3, p)
    assert type(value) is complex
    assert repr(value) == repr(KernelPlan(space, D, p, mode="heat").value((1,), (3,)))
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(4, 1.0, oracle.IntervalPhase(0.0, 0.0)))
    )
    assert abs(value - oracle.gibbs_direct(dec, 1.0)[0, 2]) <= 1e-10


def test_resolvent_and_dos_refuse_several_walkers():
    space = OrbitSpaceSpec("Circle", L=4, N=2)
    with pytest.raises(DomainError):
        orbit_resolvent(space, Representation(), (1, 2), (1, 3), KernelParams(energy=0.4 + 0.9j))
    with pytest.raises(DomainError):
        local_dos(space, Representation(), (1, 2), 0.3, 0.5)


@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("kind", ["Circle", "Interval"])
def test_many_walker_thermal_matches_projected_kron_oracle(kind, N, statistics):
    L, beta = 4, 0.7
    if kind == "Circle":
        D = Representation(theta=0.9, statistics=statistics)
        boundary = oracle.CircleTwisted(0.9)
    else:
        D = Representation(theta=math.pi, phi=0.0, statistics=statistics)
        boundary = oracle.IntervalPhase(math.pi, 0.0)
    space = OrbitSpaceSpec(kind, L=L, N=N)
    h = oracle.build_hamiltonian(oracle.HamiltonianSpec(L, 1.0, boundary))
    z_want, heat_want = many_walker_gibbs(h, N, statistics, beta)
    p = KernelParams(beta=beta)
    z = partition_function(space, D, p)
    assert abs(z / z_want - 1.0) <= 1e-11
    points = fundamental_domain(space)
    for x in points:
        for y in points[::2]:
            rho = orbit_density_matrix(space, D, x, y, p)
            assert abs(rho - heat_want(x, y) / z_want) <= 1e-10


def _symmetric_polynomial(xs, n: int, fermion: bool) -> float:
    """e_n (fermions) or h_n (bosons) of positive xs, by e_k += x e_(k-1).

    Every term is positive, so nothing cancels; the elementary recursion
    takes each x once (k descending), the complete one any number of times
    (k ascending).
    """
    e = [1.0] + [0.0] * n
    for x in xs:
        for k in range(n, 0, -1) if fermion else range(1, n + 1):
            e[k] += x * e[k - 1]
    return e[n]


@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["Circle", "Interval"])
def test_partition_function_is_the_symmetric_polynomial_of_the_spectrum(kind, N, statistics):
    # Z_N of identical free walkers is h_N (bosons) or e_N (fermions) of
    # x_j = e^{-beta eps_j} over the dense single-walker spectrum, at every
    # N the lift reaches; the gate-7 tolerance.
    L, beta = 6, 0.5 * N
    if kind == "Circle":
        D = Representation(theta=0.7, statistics=statistics)
        boundary = oracle.CircleTwisted(0.7)
    else:
        D = Representation(theta=math.pi, phi=0.0, statistics=statistics)
        boundary = oracle.IntervalPhase(math.pi, 0.0)
    eps = np.linalg.eigvalsh(oracle.build_hamiltonian(oracle.HamiltonianSpec(L, 1.0, boundary)))
    want = _symmetric_polynomial(np.exp(-beta * eps).tolist(), N, statistics == "Fermion")
    z = partition_function(OrbitSpaceSpec(kind, L=L, N=N), D, KernelParams(beta=beta))
    assert abs(z / want - 1.0) <= 1e-11


def test_local_dos_matches_direct_resolvent():
    space = OrbitSpaceSpec("Circle", L=5)
    value = local_dos(space, Representation(), 1, 0.3, 0.05)
    h = oracle.build_hamiltonian(oracle.HamiltonianSpec(5, 1.0, oracle.CircleTwisted(0.0)))
    green = oracle.resolvent_direct(h, 0.3 + 0.05j)
    assert value == pytest.approx(-green[0, 0].imag / math.pi, abs=1e-12)


@pytest.mark.parametrize("eta", [0.0, 1e-7, 1.5, -0.1])
def test_local_dos_rejects_bad_broadening(eta):
    space = OrbitSpaceSpec("Circle", L=5)
    with pytest.raises(DomainError):
        local_dos(space, Representation(), 1, 0.0, eta)


# -- discrete-time kernel ----------------------------------------------


def test_coined_kernel_matches_matrix_power():
    coin = hadamard_coin()
    for L, theta in ((4, 0.0), (6, math.pi / 2), (8, 1.1)):
        space = OrbitSpaceSpec("Circle", L=L)
        D = Representation(theta=theta)
        power = oracle.coined_circle_power(L, theta, coin, 9)
        for x in range(1, L + 1):
            for y in range(1, L + 1):
                block = orbit_coined_kernel(space, D, 9, x, y, coin)
                want = oracle.coined_circle_block(power, coin.d, x, y)
                assert np.max(np.abs(block - want)) < 1e-12


@pytest.mark.parametrize("steps", [-7, 0, 9])
def test_coined_shared_blocks_give_identical_kernels(steps):
    space = OrbitSpaceSpec("Circle", L=5)
    D = Representation(theta=0.8)
    coin = hadamard_coin()
    shared = orbit_coined_blocks(space, D, steps, coin, -4, 4)
    assert shared.shape == (9, 2, 2)
    for x in range(1, 6):
        for y in range(1, 6):
            assert np.array_equal(shared[x - y + 4], orbit_coined_kernel(space, D, steps, x, y, coin))


def test_coined_zero_steps_is_identity_block():
    space = OrbitSpaceSpec("Circle", L=5)
    coin = hadamard_coin()
    for x in range(1, 6):
        for y in range(1, 6):
            block = orbit_coined_kernel(space, Representation(theta=0.4), 0, x, y, coin)
            want = np.eye(2) if x == y else np.zeros((2, 2))
            assert np.array_equal(block, want)


def test_coined_translation_identity():
    space = OrbitSpaceSpec("Circle", L=6)
    theta = math.pi / 2
    D = Representation(theta=theta)
    coin = hadamard_coin()
    for y in (1, 3):
        shifted = orbit_coined_kernel(space, D, 7, 1 + 6, y, coin, restrict_domain=False)
        want = 1j * orbit_coined_kernel(space, D, 7, 1, y, coin)
        assert np.max(np.abs(shifted - want)) < 1e-12


def test_coined_column_unitarity_and_inverse():
    space = OrbitSpaceSpec("Circle", L=6)
    D = Representation(theta=1.1)
    coin = hadamard_coin()
    total = np.zeros((2, 2), dtype=complex)
    identity = np.zeros((2, 2), dtype=complex)
    for x in range(1, 7):
        block = orbit_coined_kernel(space, D, 8, x, 2, coin)
        total += block.conj().T @ block
        identity += orbit_coined_kernel(space, D, 8, 1, x, coin) @ orbit_coined_kernel(
            space, D, -8, x, 1, coin
        )
    assert np.max(np.abs(total - np.eye(2))) < 1e-12
    assert np.max(np.abs(identity - np.eye(2))) < 1e-12


def test_coined_kernel_requires_single_walker_circle():
    coin = hadamard_coin()
    with pytest.raises(DomainError):
        orbit_coined_kernel(OrbitSpaceSpec("Line"), Representation(), 3, 1, 1, coin)
    with pytest.raises(DomainError):
        orbit_coined_kernel(OrbitSpaceSpec("Circle", L=4, N=2), Representation(), 3, 1, 1, coin)


# -- state evolution ----------------------------------------------------


def test_evolve_conserves_probability_on_circle():
    space = OrbitSpaceSpec("Circle", L=8)
    state = evolve_state(space, Representation(), {(1,): 1.0}, KernelParams(tau=2.0))
    assert sum(abs(a) ** 2 for a in state.values()) == pytest.approx(1.0, abs=1e-10)
    assert list(state) == fundamental_domain(space)


def test_evolve_on_infinite_spaces_uses_light_cone_window():
    line_state = evolve_state(OrbitSpaceSpec("Line"), Representation(), {(0,): 1.0}, KernelParams(tau=2.0))
    assert sum(abs(a) ** 2 for a in line_state.values()) == pytest.approx(1.0, abs=1e-10)
    half_state = evolve_state(
        OrbitSpaceSpec("HalfLine"), Representation(phi=math.pi), {(2,): 1.0}, KernelParams(tau=2.0)
    )
    assert sum(abs(a) ** 2 for a in half_state.values()) == pytest.approx(1.0, abs=1e-10)
    assert next(iter(half_state)) == (1,)


def test_evolve_zero_time_returns_input_probabilities():
    space = OrbitSpaceSpec("Circle", L=4)
    amp = 1.0 / math.sqrt(2.0)
    state = evolve_state(space, Representation(), {(1,): amp, (3,): amp * 1j}, KernelParams(tau=0.0))
    assert state[(1,)] == pytest.approx(amp)
    assert state[(3,)] == pytest.approx(amp * 1j)
    assert state[(2,)] == 0j


def test_evolve_warns_on_unnormalized_state():
    space = OrbitSpaceSpec("Circle", L=3)
    with pytest.warns(UserWarning, match="norm"):
        evolve_state(space, Representation(), {(1,): 2.0}, KernelParams(tau=1.0))


def test_evolve_rejects_empty_state_and_bad_points():
    space = OrbitSpaceSpec("Circle", L=3)
    with pytest.raises(DomainError):
        evolve_state(space, Representation(), {}, KernelParams(tau=1.0))
    with pytest.raises(DomainError):
        evolve_state(space, Representation(), {(9,): 1.0}, KernelParams(tau=1.0))


def test_probability_matches_kernel_modulus_for_point_source():
    space = OrbitSpaceSpec("Circle", L=5)
    D = Representation()
    p = KernelParams(tau=2.0)
    for x in range(1, 6):
        want = abs(time_value(space, D, x, 1, 2.0)) ** 2
        assert probability(space, D, {(1,): 1.0}, p, x=x) == pytest.approx(want, abs=1e-14)
    total = sum(probability(space, D, {(1,): 1.0}, p, x=x) for x in range(1, 6))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_probability_requires_detection_point():
    space = OrbitSpaceSpec("Circle", L=5)
    with pytest.raises(TypeError):
        probability(space, Representation(), {(1,): 1.0}, KernelParams(tau=1.0))


@pytest.mark.parametrize(
    "psi0", [{}, {(1,): math.inf}, {(1,): math.nan}], ids=["empty", "inf", "nan"]
)
def test_probability_refuses_the_states_evolve_refuses(psi0):
    space = OrbitSpaceSpec("Circle", L=5)
    D, p = Representation(), KernelParams(tau=1.0)
    with pytest.raises(DomainError):
        evolve_state(space, D, psi0, p)
    with pytest.raises(DomainError):
        probability(space, D, psi0, p, x=1)


@pytest.mark.parametrize("psi0", [{1: 0.6, (1,): 0.8}, {(2,): 0.6, 2: 0.8}])
def test_a_point_given_twice_in_two_forms_is_refused(psi0):
    # 1 and (1,) are one point: keeping either amplitude would drop the other unseen
    space = OrbitSpaceSpec("Circle", L=3)
    D, p = Representation(), KernelParams(tau=0.0)
    with pytest.raises(DomainError, match="twice"):
        evolve_state(space, D, psi0, p)
    with pytest.raises(DomainError, match="twice"):
        probability(space, D, psi0, p, x=1)


# -- exact folds ----------------------------------------------------------


def test_finite_group_sum_is_exact():
    # the HalfLine's two images: K(2, 3) = free[1] + e^{i phi} free[|2 + 3 - 1|]
    space = OrbitSpaceSpec("HalfLine")
    p = KernelParams(tau=5.0)
    value = orbit_kernel(space, Representation(phi=math.pi), 2, 3, p)
    free = _free_row(p, heat=False)
    assert value == free[1] - free[4]


def test_shell_caps_are_ignored_and_long_times_stay_exact():
    # about 2R / L + 1 = 84 windings per residue, against the dense kernel at the gate-5
    # tolerance: no shell cap stops the sum
    L, tau = 3, 50.0
    space = OrbitSpaceSpec("Circle", L=L)
    D = Representation(theta=0.8)
    p = KernelParams(tau=tau)
    dec = oracle.diagonalize(
        oracle.build_hamiltonian(oracle.HamiltonianSpec(L, 1.0, oracle.CircleTwisted(0.8)))
    )
    for x in range(1, L + 1):
        for y in range(1, L + 1):
            value = orbit_kernel(space, D, x, y, p)
            assert abs(value - oracle.spectral_kernel(dec, tau, x, y)) <= 1e-10


def test_residues_are_computed_once_each_on_first_use(image_sums):
    plan = KernelPlan(OrbitSpaceSpec("Interval", L=4), Representation(theta=math.pi), KernelParams(tau=2.0))
    plan.value((1,), (1,))
    # x - y = 0 and x + y - c = 1, of period 2L = 8
    assert image_sums.residues == [(8, 0), (8, 1)]
    for x in range(1, 5):
        for y in range(1, 5):
            plan.value((x,), (y,))
    assert sorted(image_sums.residues) == [(8, r) for r in range(8)]


# -- the plan's folds vs the generic group engine ------------------

HALF_PI = math.pi / 2
SINGLE_WALKER_CASES = [
    (OrbitSpaceSpec("Line"), Representation()),
    (OrbitSpaceSpec("Circle", L=5), Representation()),
    (OrbitSpaceSpec("Circle", L=5), Representation(theta=HALF_PI)),
    (OrbitSpaceSpec("Circle", L=5), Representation(theta=3 * HALF_PI)),
    (OrbitSpaceSpec("Circle", L=5), Representation(theta=0.7)),
    (OrbitSpaceSpec("HalfLine"), Representation()),
    (OrbitSpaceSpec("HalfLine"), Representation(phi=math.pi)),
    (OrbitSpaceSpec("HalfLine", boundary_convention="Dirichlet"), Representation(phi=math.pi)),
    (OrbitSpaceSpec("Interval", L=4), Representation()),
    (OrbitSpaceSpec("Interval", L=4), Representation(theta=math.pi)),
    (OrbitSpaceSpec("Interval", L=4), Representation(phi=math.pi)),
    (OrbitSpaceSpec("Interval", L=4), Representation(theta=math.pi, phi=math.pi)),
    (OrbitSpaceSpec("Interval", L=4, boundary_convention="Dirichlet"), Representation(phi=math.pi)),
]


@pytest.mark.parametrize("space, D", SINGLE_WALKER_CASES)
@pytest.mark.parametrize(
    "p, heat",
    [
        (KernelParams(tau=2.0), False),
        (KernelParams(tau=-3.5), False),
        (KernelParams(omega=0.8, tau=9.0), False),
        (KernelParams(beta=1.5), True),
    ],
)
def test_plan_sums_equal_the_generic_engine_exactly(space, D, p, heat):
    # The plan folds whole windings by residue and the engine sums shell by
    # shell until shells fall below 1e-14, so they agree to rounding and the
    # terms the engine leaves out: within 1e-11, the tightest tolerance of
    # the gates that cover these kernels (1 for the circle, 2 and 3 for the
    # half line and interval, 7 for heat).
    plan = KernelPlan(space, D, p, mode="heat" if heat else "time")
    term = _heat_term(p) if heat else _time_term(p)
    trunc = ShellPolicy()
    for x in range(-3, 10):
        for y in range(-3, 10):
            got = plan.value((x,), (y,))
            want = _orbit_sum(space, D, (x,), (y,), term, trunc).value
            assert abs(got - want) <= 1e-11, (x, y)


def test_plan_keeps_circle_sums_by_displacement_and_interval_sums_by_pair():
    p = KernelParams(tau=1.5)
    circle = KernelPlan(OrbitSpaceSpec("Circle", L=6), Representation(theta=0.3), p)
    assert circle.value((1,), (3,)) is circle.value((4,), (6,))
    # theta = pi: the reflected images 1 + 3 - 1 and 4 + 6 - 1 differ by the sign of A
    interval = KernelPlan(OrbitSpaceSpec("Interval", L=6), Representation(theta=math.pi), p)
    assert interval.value((1,), (3,)) != interval.value((4,), (6,))


# -- the plan's resolvent mode vs the per-pair closed form -----------------


def _per_pair_resolvent(space, D, x: int, y: int, p) -> complex:
    """G_E(x, y) in closed form, every constant rebuilt for the one pair.

    The plan keeps each residue once and turns it by its winding and
    reflection weights, which are exact +-1 wherever reflections exist; it
    must still give these values to the last bit.
    """
    q = _momentum(p.energy, p.omega)
    period = space.period
    if period:
        turn = rep_weight(D, translation())
        wrap = cmath.exp(1j * q * period)
        ahead = 1.0 / (1.0 - wrap * turn.conjugate())
        behind = turn / (1.0 - wrap * turn)
    images = [(0, y)]
    if space.has_reflections:
        images.append((1, space.reflection_center - y))
    total = 0j
    for m, image in images:
        d = x - image
        if period:
            n0, d0 = divmod(d, period)
            series = cmath.exp(1j * q * d0) * ahead + cmath.exp(1j * q * (period - d0)) * behind
        else:
            n0, series = 0, cmath.exp(1j * q * abs(d))
        total += rep_weight(D, GroupElement((n0,), (m,), (0,))) * series
    return total / (1j * p.omega * cmath.sin(q))


RESOLVENT_CASES = SINGLE_WALKER_CASES + [
    (OrbitSpaceSpec("Circle", L=1), Representation(theta=2.3)),
    (OrbitSpaceSpec("Circle", L=2), Representation(theta=math.pi)),
    (OrbitSpaceSpec("Circle", L=8), Representation(theta=-1.1, statistics="Fermion")),
    (OrbitSpaceSpec("Interval", L=1), Representation(theta=math.pi)),
    (OrbitSpaceSpec("Interval", L=3, boundary_convention="Dirichlet"), Representation(phi=math.pi)),
]


@pytest.mark.parametrize("space, D", RESOLVENT_CASES)
@pytest.mark.parametrize(
    "p",
    [
        KernelParams(energy=0.4 + 0.05j),
        KernelParams(energy=-0.9 + 0.3j),
        KernelParams(omega=1.5, energy=0.5j),
        KernelParams(omega=0.8, energy=1.3 + 1.0j),
    ],
)
def test_resolvent_plan_equals_the_per_pair_closed_form_exactly(space, D, p):
    plan = KernelPlan(space, D, p, mode="resolvent")
    for x in range(-3, 10):
        for y in range(-3, 10):
            got = plan.value((x,), (y,))
            want = _per_pair_resolvent(space, D, x, y, p)
            assert got == want
            assert repr(got) == repr(want)  # signed zeros too
            assert repr(orbit_resolvent(space, D, x, y, p, restrict_domain=False)) == repr(got)


def test_resolvent_plan_refuses_several_walkers_and_the_lower_half_plane():
    pair = OrbitSpaceSpec("Circle", L=4, N=2)
    with pytest.raises(DomainError, match="one walker only, not N=2"):
        KernelPlan(pair, Representation(), KernelParams(energy=0.4 + 0.3j), mode="resolvent")
    circle = OrbitSpaceSpec("Circle", L=4)
    for energy in (0.4, 0.4 - 0.3j):
        with pytest.raises(DomainError, match="Im\\(energy\\) > 0"):
            KernelPlan(circle, Representation(), KernelParams(energy=energy), mode="resolvent")


@pytest.mark.parametrize(
    "space, D",
    [
        (OrbitSpaceSpec("Circle", L=5), Representation(theta=0.9)),
        (OrbitSpaceSpec("Interval", L=4), Representation(theta=math.pi, phi=0.0)),
        (OrbitSpaceSpec("HalfLine"), Representation(phi=math.pi)),
        (OrbitSpaceSpec("Line"), Representation(theta=2.1)),
    ],
)
def test_resolvent_sweep_equals_a_plan_built_at_each_energy(space, D):
    energies = [0.4 + 0.05j, -0.9 + 0.3j, 0.0 + 1.0j, 0.4 + 0.05j]
    sweep = KernelPlan(
        space, D, KernelParams(omega=1.5, energy=2.0 + 0.5j), mode="resolvent", energies=energies
    )
    points = [(x,) for x in range(1, 5)]
    dos = sweep.dos(points)
    for k, energy in enumerate(energies):
        fresh = KernelPlan(space, D, KernelParams(omega=1.5, energy=energy), mode="resolvent")
        for i, x in enumerate(points):
            want = -fresh.value(x, x).imag / math.pi
            assert repr(dos[i][k]) == repr(want)
            assert repr(local_dos(space, D, x, energy.real, energy.imag, omega=1.5)) == repr(want)


def test_resolvent_sweep_refuses_the_lower_half_plane_before_any_residue(image_sums):
    space = OrbitSpaceSpec("Interval", L=4)
    p = KernelParams(energy=0.4 + 0.3j)
    for bad in (0.4 - 0.3j, 0.4, -1.2 + 0.0j):
        grid = [0.4 + 0.3j, -0.2 + 0.1j, bad, 0.1 + 0.2j]
        with pytest.raises(DomainError, match="Im\\(energy\\) > 0"):
            KernelPlan(space, Representation(), p, mode="resolvent", energies=grid).dos([(1,)])
    assert image_sums.residues == []


def test_resolvent_sweep_refuses_single_kernels_and_other_modes():
    space = OrbitSpaceSpec("Circle", L=4)
    p = KernelParams(beta=1.0, energy=0.4 + 0.3j)
    sweep = KernelPlan(space, Representation(), p, mode="resolvent", energies=[0.1 + 0.2j, 0.3 + 0.2j])
    with pytest.raises(DomainError, match="over 2 energies has no single kernel"):
        sweep.value((1,), (2,))
    with pytest.raises(DomainError, match="only a resolvent plan sweeps"):
        KernelPlan(space, Representation(), p, mode="heat", energies=[0.1 + 0.2j])
    heat = KernelPlan(space, Representation(), p, mode="heat")
    with pytest.raises(DomainError, match="needs a resolvent plan"):
        heat.dos([(1,)])


def test_plan_modes_refuse_the_operations_of_other_modes():
    space = OrbitSpaceSpec("Circle", L=3)
    p = KernelParams(tau=1.0, beta=1.0, energy=0.4 + 0.3j)
    with pytest.raises(DomainError, match="unknown plan mode"):
        KernelPlan(space, Representation(), p, mode="spectral")
    resolvent = KernelPlan(space, Representation(), p, mode="resolvent")
    with pytest.raises(DomainError, match="time-kernel plan"):
        resolvent.evolve({(1,): 1.0})
    with pytest.raises(DomainError, match="heat-kernel plan"):
        resolvent.partition_function()


def test_fermion_entries_with_a_repeated_coordinate_are_exact_zeros(monkeypatch):
    space = OrbitSpaceSpec("Circle", L=4, N=3)
    p = KernelParams(beta=1.0)
    bosons = KernelPlan(space, Representation(theta=0.4), p, mode="heat")
    fermions = KernelPlan(space, Representation(theta=0.4, statistics="Fermion"), p, mode="heat")
    expansion = first_row_expansion

    def refuse(*args, **kwargs):
        raise AssertionError("a determinant was taken where a coordinate repeats")

    def permanents_only(entry, rows, cols, fermion, minors):
        if fermion:
            refuse()
        return expansion(entry, rows, cols, fermion, minors)

    monkeypatch.setattr(orbitwalk.orbit, "lu_determinant", refuse)
    monkeypatch.setattr(orbitwalk.orbit, "first_row_expansion", permanents_only)
    for x, y in [((1, 1, 2), (1, 2, 3)), ((1, 2, 3), (2, 4, 4)), ((3, 3, 3), (3, 3, 3))]:
        assert repr(fermions.value(x, y)) == repr(0j)
        assert bosons.value(x, y) != 0j


def test_fermion_value_with_a_repeated_coordinate_gathers_no_sum(image_sums):
    space = OrbitSpaceSpec("Interval", L=4, N=3)
    plan = KernelPlan(space, Representation(theta=math.pi, statistics="Fermion"), KernelParams(tau=1.0))
    for x, y in [((1, 1, 2), (1, 2, 3)), ((1, 2, 3), (2, 4, 4))]:
        assert repr(plan.value(x, y)) == repr(0j)
    assert image_sums.residues == []


def _written_out(m: list, fermion: bool) -> complex:
    """The 2 x 2 or 3 x 3 permanent/determinant by definition: ad +- bc, or the
    cofactor expansion along the first row."""
    if len(m) == 2:
        (a, b), (c, d) = m
        return a * d - b * c if fermion else a * d + b * c
    (a, b, c), (d, e, f), (g, h, i) = m
    if fermion:
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return a * (e * i + f * h) + b * (d * i + f * g) + c * (d * h + e * g)


@pytest.mark.parametrize("kind", ["Circle", "Interval", "HalfLine"])
@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
@pytest.mark.parametrize("mode", ["time", "heat"])
def test_value_is_the_kernel_reports_value_bit_for_bit(kind, statistics, mode):
    # An N-walker entry is the lift of a one-walker plan's entries: for N <= 3
    # the written-out definition bit for bit, for N = 4 and 5 the sum over
    # all N! permutations or numpy's determinant to 1e-13 of the permanent of
    # |entries|, which bounds both and is the scale of their rounding errors
    # where the value cancels; 0j for fermions whose x or y repeats a
    # coordinate.  (Ryser's formula cancels where rows repeat, (1, 1, 1, 1)
    # against (1, 2, 3, 4), and loses three digits there.)
    theta = math.pi if kind == "Interval" else 0.3
    fermion = statistics == "Fermion"
    D = Representation(theta=theta, phi=0.0, statistics=statistics)
    p = KernelParams(tau=1.3, beta=0.7)
    single = KernelPlan(OrbitSpaceSpec(kind, L=5), D, p, mode=mode)
    for n in range(1, 6):
        space = OrbitSpaceSpec(kind, L=5, N=n)
        plan = KernelPlan(space, D, p, mode=mode)
        rng = np.random.default_rng(10 * n)
        pairs = [(tuple(range(1, n + 1)), tuple(range(2, n + 2)))]  # distinct coordinates
        pairs += [(tuple(sorted(rng.integers(1, 6, n).tolist())),) * 2 for _ in range(3)]
        if n >= 2:  # repeated coordinates
            pairs.append(((1,) * n, tuple(range(1, n + 1))))
            pairs.append((tuple(range(1, n + 1)), (2,) * (n - 1) + (3,)))
        for x, y in pairs:
            got = plan.value(x, y)
            m = [[single.value((a,), (b,)) for b in y] for a in x]
            if fermion and (len(set(x)) < n or len(set(y)) < n):
                assert repr(got) == repr(0j), (n, x, y)
            elif n <= 3:
                want = m[0][0] if n == 1 else _written_out(m, fermion)
                assert repr(got) == repr(want), (n, x, y)
            else:
                want = complex(np.linalg.det(m)) if fermion else _permanent_by_definition(m)
                scale = _permanent_by_definition(np.abs(m))
                assert abs(got - want) <= 1e-13 * scale, (n, x, y)


def test_domain_restriction_is_enforced_by_default():
    space = OrbitSpaceSpec("Circle", L=4)
    with pytest.raises(DomainError):
        orbit_kernel(space, Representation(), 0, 1, KernelParams(tau=1.0))
    with pytest.raises(DomainError):
        orbit_kernel(space, Representation(), (2, 1), (1, 2), KernelParams(tau=1.0))


def test_points_accept_ints_and_tuples():
    space = OrbitSpaceSpec("Circle", L=4)
    a = orbit_kernel(space, Representation(), 2, 3, KernelParams(tau=1.0))
    b = orbit_kernel(space, Representation(), (2,), (3,), KernelParams(tau=1.0))
    assert a == b
