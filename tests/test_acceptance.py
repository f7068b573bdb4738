"""Accuracy gates for the shipped numerics: one printed summary line per gate.

Every test cross-checks the image-sum production code against dense
exact-diagonalization (or an independent quadrature/series oracle) at the
tolerances the package advertises, and prints a PASS/FAIL line with the
worst deviation it measured.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from orbitwalk import oracle
from orbitwalk.group import OrbitSpaceSpec, Representation
from orbitwalk.kernels import KernelParams, hadamard_coin, window_radius
from orbitwalk.orbit import KernelPlan, orbit_coined_blocks
from orbitwalk.verify import (
    check_composition,
    check_equivariance,
    check_initial_condition,
    check_unitarity,
    plan_kernel,
    probe_points,
)

from _oracles import bessel_j_series, coined_circle_block, laplace_transform_j0, many_body_kernel
from _reference_group import direct_kernel

OMEGA = 1.0


def _gate(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num:2d}] {label}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{label}: {detail}"


def _kernel(space, D, x, y, p) -> complex:
    return KernelPlan(space, D, p).value((x,), (y,))


def _circle_dec(L: int, theta: float):
    spec = oracle.HamiltonianSpec(L, OMEGA, oracle.CircleTwisted(theta))
    return oracle.diagonalize(oracle.build_hamiltonian(spec))


def _interval_dec(L: int, theta: float, phi: float):
    spec = oracle.HamiltonianSpec(L, OMEGA, oracle.IntervalPhase(theta, phi))
    return oracle.diagonalize(oracle.build_hamiltonian(spec))


def _open_chain_dec(sites: int):
    spec = oracle.HamiltonianSpec(sites, OMEGA, oracle.Dirichlet())
    return oracle.diagonalize(oracle.build_hamiltonian(spec))


def test_01_circle_kernel_matches_exact_diagonalization():
    worst = 0.0
    for L in range(2, 11):
        space = OrbitSpaceSpec("Circle", L)
        for theta in (0.0, math.pi / 2, 2 * math.pi / 3, math.pi):
            D = Representation(theta=theta)
            dec = _circle_dec(L, theta)
            for tau in (0.5, 1.0, 5.0):
                exact = oracle.spectral_kernel_matrix(dec, tau)
                p = KernelParams(omega=OMEGA, tau=tau)
                for x in range(1, L + 1):
                    for y in range(1, L + 1):
                        got = _kernel(space, D, x, y, p)
                        worst = max(worst, abs(got - exact[x - 1, y - 1]))
    _gate(1, "circle winding sum vs dense diagonalization", worst <= 1e-11,
          f"max deviation {worst:.2e}, tol 1e-11")


def test_02_half_line_kernel_and_dirichlet_zero():
    sites, probe = 400, 40
    worst = 0.0
    configs = [
        (OrbitSpaceSpec("HalfLine"), Representation(phi=0.0), oracle.HalfLinePhase(0.0)),
        (OrbitSpaceSpec("HalfLine"), Representation(phi=math.pi), oracle.HalfLinePhase(math.pi)),
        (OrbitSpaceSpec("HalfLine", boundary_convention="Dirichlet"),
         Representation(phi=math.pi), oracle.Dirichlet()),
    ]
    decs = [oracle.diagonalize(oracle.build_hamiltonian(oracle.HamiltonianSpec(sites, OMEGA, b)))
            for _, _, b in configs]
    for (space, D, _), dec in zip(configs, decs):
        for tau in (0.5, 2.0, 5.0):
            exact = oracle.spectral_kernel_matrix(dec, tau)
            p = KernelParams(omega=OMEGA, tau=tau)
            for x in range(1, probe + 1):
                for y in range(1, probe + 1):
                    got = _kernel(space, D, x, y, p)
                    worst = max(worst, abs(got - exact[x - 1, y - 1]))
    space, D, _ = configs[2]
    zero_worst = 0.0
    for tau in (0.5, 2.0, 5.0):
        p = KernelParams(omega=OMEGA, tau=tau)
        for y in range(1, probe + 1):
            val = _kernel(space, D, 0, y, p)
            zero_worst = max(zero_worst, abs(val))
    _gate(2, "half-line bounce sum vs windowed chain", worst <= 1e-9 and zero_worst <= 1e-12,
          f"interior deviation {worst:.2e} (tol 1e-9), wall value {zero_worst:.2e} (tol 1e-12)")


def test_03_interval_kernel_identities_and_dirichlet_zero():
    worst = 0.0
    for L in range(2, 9):
        space = OrbitSpaceSpec("Interval", L)
        for theta, phi in itertools.product((0.0, math.pi), repeat=2):
            D = Representation(theta=theta, phi=phi)
            dec = _interval_dec(L, theta, phi)
            for tau in (0.5, 2.0, 5.0):
                exact = oracle.spectral_kernel_matrix(dec, tau)
                p = KernelParams(omega=OMEGA, tau=tau)
                for x in range(1, L + 1):
                    for y in range(1, L + 1):
                        got = _kernel(space, D, x, y, p)
                        worst = max(worst, abs(got - exact[x - 1, y - 1]))

    ident_worst = 0.0
    p = KernelParams(omega=OMEGA, tau=2.0)
    for L in (2, 5, 8):
        space = OrbitSpaceSpec("Interval", L)
        for theta, phi in itertools.product((0.0, math.pi), repeat=2):
            D = Representation(theta=theta, phi=phi)

            def k(x, y):
                return _kernel(space, D, x, y, p)

            for y in range(1, L + 1):
                ident_worst = max(
                    ident_worst,
                    abs(k(3 + 2 * L, y) - cmath.exp(1j * theta) * k(3, y)),
                    abs(k(1 - 2, y) - cmath.exp(1j * phi) * k(2, y)),
                    abs(k(0, y) - cmath.exp(1j * phi) * k(1, y)),
                    abs(k(L + 1, y) - cmath.exp(1j * (theta + phi)) * k(L, y)),
                )

    zero_worst = 0.0
    for L in (2, 5, 8):
        space = OrbitSpaceSpec("Interval", L, boundary_convention="Dirichlet")
        D = Representation(phi=math.pi)
        for y in range(1, L + 1):
            for x in (0, L + 1):
                val = _kernel(space, D, x, y, p)
                zero_worst = max(zero_worst, abs(val))
    ok = worst <= 1e-10 and ident_worst <= 1e-12 and zero_worst <= 1e-12
    _gate(3, "interval four-kernel sum vs dense diagonalization", ok,
          f"kernel {worst:.2e} (1e-10), boundary identities {ident_worst:.2e} (1e-12), "
          f"wall values {zero_worst:.2e} (1e-12)")


def test_04_algebraic_properties_on_all_configured_spaces():
    p = KernelParams(omega=OMEGA, tau=5.0)
    configs = []
    for L in range(2, 11):
        for theta in (0.0, math.pi / 2, 2 * math.pi / 3, math.pi):
            configs.append((OrbitSpaceSpec("Circle", L), Representation(theta=theta), None))
    for phi in (0.0, math.pi):
        configs.append((OrbitSpaceSpec("HalfLine"), Representation(phi=phi), (1, 8)))
    configs.append((OrbitSpaceSpec("HalfLine", boundary_convention="Dirichlet"),
                    Representation(phi=math.pi), (1, 8)))
    for L in range(2, 9):
        for theta, phi in itertools.product((0.0, math.pi), repeat=2):
            configs.append((OrbitSpaceSpec("Interval", L),
                            Representation(theta=theta, phi=phi), None))
        configs.append((OrbitSpaceSpec("Interval", L, boundary_convention="Dirichlet"),
                        Representation(phi=math.pi), None))

    deviations = {}
    failed = []
    for space, D, window in configs:
        probes, kernel = probe_points(space, D, window), plan_kernel(space, D)
        results = [
            check_initial_condition(D, probes, kernel),
            check_composition(space, D, p, probes, kernel),
            check_unitarity(p, probes, kernel),
            check_equivariance(space, D, p, probes, kernel),
        ]
        for r in results:
            deviations[r.name] = max(deviations.get(r.name, 0.0), r.deviation)
            if not r.passed:
                failed.append((space.kind, space.L, r.name, r.deviation))
    summary = ", ".join(f"{name} {dev:.2e}" for name, dev in sorted(deviations.items()))
    _gate(4, f"kernel properties on {len(configs)} space/weight pairs", not failed,
          summary if not failed else f"failed: {failed[:4]}")


def test_05_identical_walkers_three_route_agreement():
    tau = 2.0
    p = KernelParams(omega=OMEGA, tau=tau)
    chain_sites, chain_shift = 180, 90
    chain_dec = _open_chain_dec(chain_sites)
    circle_dec = _circle_dec(6, 2 * math.pi / 3)
    interval_dec = _interval_dec(5, math.pi, 0.0)

    cases = {
        "Line": (OrbitSpaceSpec("Line", N=2), OrbitSpaceSpec("Line", N=3),
                 {2: [(0, 1), (-2, 3), (1, 1), (2, 5)],
                  3: [(0, 1, 2), (-2, 0, 3), (1, 2, 4)]},
                 chain_dec, chain_shift),
        "Circle": (OrbitSpaceSpec("Circle", 6, 2), OrbitSpaceSpec("Circle", 6, 3),
                   {2: [(1, 1), (1, 3), (2, 5), (4, 6)],
                    3: [(1, 2, 3), (1, 1, 4), (2, 4, 6)]},
                   circle_dec, 0),
        "Interval": (OrbitSpaceSpec("Interval", 5, 2), OrbitSpaceSpec("Interval", 5, 3),
                     {2: [(1, 1), (1, 3), (2, 4), (3, 5)],
                      3: [(1, 2, 3), (1, 1, 4), (2, 3, 5)]},
                     interval_dec, 0),
    }
    reps = {
        "Line": {"theta": 0.0, "phi": 0.0},
        "Circle": {"theta": 2 * math.pi / 3, "phi": 0.0},
        "Interval": {"theta": math.pi, "phi": 0.0},
    }

    worst = 0.0
    coincident_worst = 0.0
    for kind, (space2, space3, probes, dec, shift) in cases.items():
        for space, n in ((space2, 2), (space3, 3)):
            for statistics in ("Boson", "Fermion"):
                D = Representation(statistics=statistics, **reps[kind])
                for x in probes[n]:
                    for y in probes[n]:
                        direct = direct_kernel(space, D, x, y, p).value
                        fact = KernelPlan(space, D, p).value(x, y)
                        want = many_body_kernel(
                            dec, n, statistics,
                            tuple(c + shift for c in x), tuple(c + shift for c in y), tau)
                        worst = max(worst, abs(direct - fact), abs(direct - want),
                                    abs(fact - want))
                if statistics == "Fermion":
                    x = tuple(sorted((probes[n][0][0],) * 2 + probes[n][0][2:] if n == 3
                                     else (probes[n][0][0],) * 2))
                    for y in probes[n]:
                        val = direct_kernel(space, D, x, y, p).value
                        coincident_worst = max(coincident_worst, abs(val))
    ok = worst <= 1e-10 and coincident_worst <= 1e-13
    _gate(5, "permanent/determinant factorization, three routes", ok,
          f"route spread {worst:.2e} (tol 1e-10), "
          f"coincident fermion {coincident_worst:.2e} (tol 1e-13)")


def test_06_resolvent_vs_direct_inverse_and_laplace_quadrature():
    worst = 0.0
    energies = (0.4 + 0.3j, -0.2 + 0.05j, 1.5 + 1.0j)
    setups = [
        (OrbitSpaceSpec("Circle", 6), Representation(theta=2 * math.pi / 3),
         oracle.CircleTwisted(2 * math.pi / 3), 6),
        (OrbitSpaceSpec("Interval", 5), Representation(theta=math.pi),
         oracle.IntervalPhase(math.pi, 0.0), 5),
    ]
    for space, D, boundary, L in setups:
        h = oracle.build_hamiltonian(oracle.HamiltonianSpec(L, OMEGA, boundary))
        for energy in energies:
            p = KernelParams(omega=OMEGA, energy=energy)
            exact = oracle.resolvent_direct(h, energy)
            plan = KernelPlan(space, D, p, mode="resolvent")
            for x in range(1, L + 1):
                for y in range(1, L + 1):
                    got = plan.value((x,), (y,))
                    worst = max(worst, abs(got - exact[x - 1, y - 1]))

    energy = 0.3 + 0.5j
    p = KernelParams(omega=OMEGA, energy=energy)
    line = KernelPlan(OrbitSpaceSpec("Line"), Representation(), p, mode="resolvent")
    got = line.value((0,), (0,))
    want = -1j * laplace_transform_j0(OMEGA, energy, 40.0)
    laplace_dev = abs(got - want)
    ok = worst <= 1e-9 and laplace_dev <= 1e-6
    _gate(6, "resolvent vs direct inverse and time-integral", ok,
          f"matrix deviation {worst:.2e} (tol 1e-9), quadrature {laplace_dev:.2e} (tol 1e-6)")


def test_07_partition_function_and_density_matrix():
    z_rel_worst = 0.0
    trace_worst = 0.0
    setups = []
    for L in range(3, 9):
        for theta in (0.0, 2 * math.pi / 3):
            setups.append((OrbitSpaceSpec("Circle", L), Representation(theta=theta),
                           oracle.CircleTwisted(theta), L))
    for L in range(2, 7):
        for theta, phi in ((0.0, 0.0), (math.pi, math.pi)):
            setups.append((OrbitSpaceSpec("Interval", L), Representation(theta=theta, phi=phi),
                           oracle.IntervalPhase(theta, phi), L))
    exact_at_zero = True
    for space, D, boundary, L in setups:
        dec = oracle.diagonalize(oracle.build_hamiltonian(oracle.HamiltonianSpec(L, OMEGA, boundary)))
        for beta in (0.5, 1.0, 2.0):
            plan = KernelPlan(space, D, KernelParams(omega=OMEGA, beta=beta), mode="heat")
            z = plan.partition_function()
            want = oracle.partition_direct(dec, beta)
            z_rel_worst = max(z_rel_worst, abs(z - want) / abs(want))
            trace = sum((plan.value((x,), (x,)) / z).real for x in range(1, L + 1))
            trace_worst = max(trace_worst, abs(trace - 1.0))
        at_zero = KernelPlan(space, D, KernelParams(omega=OMEGA, beta=0.0), mode="heat")
        if at_zero.partition_function() != float(L):
            exact_at_zero = False
    ok = z_rel_worst <= 1e-11 and trace_worst <= 1e-12 and exact_at_zero
    _gate(7, "partition function and canonical density matrix", ok,
          f"Z relative {z_rel_worst:.2e} (tol 1e-11), trace {trace_worst:.2e} (tol 1e-12), "
          f"beta=0 exact: {exact_at_zero}")


def test_08_local_dos_vs_broadened_spectrum():
    L, eta = 5, 0.05
    space = OrbitSpaceSpec("Circle", L)
    D = Representation()
    dec = _circle_dec(L, 0.0)
    lo = -(OMEGA + 60.0 * eta)
    energies = np.linspace(lo, -lo, 2000)
    values = np.empty((len(energies), L))
    for row, e in enumerate(energies):
        for col, x in enumerate(range(1, L + 1)):
            p = KernelParams(omega=OMEGA, energy=complex(float(e), eta))
            values[row, col] = KernelPlan(space, D, p, mode="resolvent").dos([(x,)])[0][0]
    broadened = ((eta / math.pi) /
                 ((energies[:, None] - dec.eigenvalues[None, :]) ** 2 + eta ** 2)).sum(axis=1)
    sup_dev = float(np.max(np.abs(values.sum(axis=1) - broadened)))
    steps = np.diff(energies)[:, None]
    integrals = 0.5 * np.sum(steps * (values[1:] + values[:-1]), axis=0)
    integral_dev = float(np.max(np.abs(integrals - 1.0)))
    ok = sup_dev <= 1e-6 and integral_dev <= 0.02
    _gate(8, "local density of states vs broadened spectrum", ok,
          f"sup deviation {sup_dev:.2e} (tol 1e-6), site integrals 1 +- {integral_dev:.3f} "
          f"(tol 0.02)")


def test_09_coined_walk_vs_step_matrix_power():
    coin = hadamard_coin()
    power_worst = 0.0
    shift_worst = 0.0
    prop_worst = 0.0
    for L in (4, 6, 8):
        space = OrbitSpaceSpec("Circle", L)
        for theta in (0.0, math.pi / 2):
            D = Representation(theta=theta)

            def block(steps, x, y):
                return orbit_coined_blocks(space, D, steps, coin, x - y, x - y)[0]

            for steps in (1, 5, 12):
                w = oracle.coined_circle_power(L, theta, coin, steps)
                for x in range(1, L + 1):
                    for y in range(1, L + 1):
                        got = block(steps, x, y)
                        want = coined_circle_block(w, coin.d, x, y)
                        power_worst = max(power_worst, float(np.max(np.abs(got - want))))
                        shifted = block(steps, x + L, y)
                        shift_worst = max(shift_worst, float(np.max(np.abs(
                            shifted - cmath.exp(1j * theta) * got))))
            for x in range(1, L + 1):
                for y in range(1, L + 1):
                    composed = sum(block(3, x, z) @ block(4, z, y) for z in range(1, L + 1))
                    prop_worst = max(prop_worst, float(np.max(np.abs(composed - block(7, x, y)))))
                    adj = block(5, x, y).conj().T
                    prop_worst = max(prop_worst, float(np.max(np.abs(adj - block(-5, y, x)))))
                    ident = block(0, x, y) - (x == y) * np.eye(coin.d)
                    prop_worst = max(prop_worst, float(np.max(np.abs(ident))))
    ok = power_worst <= 1e-12 and shift_worst <= 1e-12 and prop_worst <= 1e-12
    _gate(9, "coined walk winding sum vs matrix power", ok,
          f"power {power_worst:.2e}, winding shift {shift_worst:.2e}, "
          f"group laws {prop_worst:.2e} (tol 1e-12)")


def test_10_uniform_phase_gauge_equivalence():
    worst = 0.0
    for L in (3, 5):
        for theta in (1.1, math.pi):
            worst = max(worst, oracle.gauge_check(L, theta, 2.0, omega=OMEGA))
    _gate(10, "flux-per-bond gauge equivalence", worst <= 1e-10,
          f"max deviation {worst:.2e}, tol 1e-10")


def test_11_bessel_core_vs_series_oracle():
    from orbitwalk.special import j_row

    grid_worst = 0.0
    for z in (0.0, 0.25, 1.0, 2.0, 3.5, 5.0, 8.0, 11.0, 12.5, 17.0, 25.0, 33.0, 41.5, 50.0):
        row = j_row(20, z)
        for n in range(21):
            ref = bessel_j_series(n, z, terms=130)
            grid_worst = max(grid_worst, abs(row[n] - ref))

    norm_worst = 0.0
    for z in (0.5, 1.0, 5.0, 20.0):
        row = j_row(math.ceil(z + 40), z)
        total = row[0] ** 2 + 2.0 * sum(v * v for v in row[1:])
        norm_worst = max(norm_worst, abs(total - 1.0))

    def j_signed(row: list, n: int) -> float:
        return row[abs(n)] if n >= 0 or n % 2 == 0 else -row[-n]

    add_worst = 0.0
    for z1, z2 in ((0.3, 0.3), (0.3, 1.0), (1.0, 1.0)):
        row1, row2, row12 = j_row(70, z1), j_row(70, z2), j_row(10, z1 + z2)
        for n1 in range(-5, 6):
            for n2 in range(-5, 6):
                n = n1 + n2
                total = sum(j_signed(row1, m) * j_signed(row2, n - m) for m in range(-60, 61))
                add_worst = max(add_worst, abs(total - j_signed(row12, n)))
    ok = grid_worst <= 1e-12 and norm_worst <= 1e-12 and add_worst <= 1e-11
    _gate(11, "Bessel evaluation vs independent series", ok,
          f"grid {grid_worst:.2e} (1e-12), normalization {norm_worst:.2e} (1e-12), "
          f"addition {add_worst:.2e} (1e-11)")
