"""The resolvent at the band edges, at extreme energies and at high powers.

The plan's resolvent comes from z = e^{iq} and omega sin q, two square
roots per energy (`kernels._momentum`), and powers of z.  These tests hold
it to a reference in mpmath that shares none of its arithmetic: the same
image sum, the geometric series of every residue, summed in exact
weights at up to 374 digits.  The references need that many: near a band
edge E = +-omega + i eta a folded space's image terms grow like
1 / |sin q| ~ eta^(-1/2), or like 1 / eta where two poles meet, and cancel
to an entry of size 1, so at eta = 5e-324 the sum loses up to 324 digits.
"""

from __future__ import annotations

import math
import random
import sys

import mpmath as mp
import pytest

from orbitwalk.errors import PrecisionError
from orbitwalk.group import OrbitSpaceSpec, Representation
from orbitwalk.kernels import KernelParams, _momentum
from orbitwalk.orbit import KernelPlan


def reference_resolvent(space, D, E: complex, omega: float, pairs) -> dict:
    """G_E(x, y) at each (x, y) of `pairs`, from the image sum at 50 digits
    more than its terms can cancel: they grow at most like 1 / Im E.

    The weights are exact: e^{i phi} and, with reflections, e^{i theta} are
    +-1, as the representation of a reflecting space requires.
    """
    with mp.workdps(50 + max(0, math.ceil(-math.log10(E.imag)))):
        e, om = mp.mpc(E.real, E.imag), mp.mpf(omega)
        v = mp.sqrt(om + e) * mp.sqrt(om - e)  # omega sin q, Re > 0
        z = -om / (e + 1j * v)  # e^{iq}, |z| < 1
        period = space.period
        if space.has_reflections:
            turn, bounce = round(math.cos(D.theta)), round(math.cos(D.phi))
        else:
            turn, bounce = mp.exp(1j * mp.mpf(D.theta)), 0

        def fold(d: int):
            if not period:
                return z ** abs(d)
            n0, r = divmod(d, period)
            wrap = z**period
            series = z**r / (1 - wrap / turn) + turn * z ** (period - r) / (1 - wrap * turn)
            return turn**n0 * series

        out = {}
        for x, y in pairs:
            total = fold(x - y)
            if space.has_reflections:
                total += bounce * fold(x + y - space.reflection_center)
            out[(x, y)] = complex(total / (1j * v))
        return out


EDGE_SPACES = [
    (OrbitSpaceSpec("Line"), Representation(), range(-3, 4)),
    (OrbitSpaceSpec("HalfLine"), Representation(), range(1, 7)),
    (OrbitSpaceSpec("HalfLine"), Representation(phi=math.pi), range(1, 7)),
    (OrbitSpaceSpec("HalfLine", boundary_convention="Dirichlet"), Representation(phi=math.pi), range(1, 7)),
    (OrbitSpaceSpec("Circle", L=5), Representation(theta=0.7), range(1, 6)),
    (OrbitSpaceSpec("Circle", L=4), Representation(theta=math.pi), range(1, 5)),
    (OrbitSpaceSpec("Circle", L=1), Representation(theta=2.0), range(1, 2)),
    (OrbitSpaceSpec("Interval", L=4), Representation(theta=math.pi), range(1, 5)),
    (OrbitSpaceSpec("Interval", L=4), Representation(theta=math.pi, phi=math.pi), range(1, 5)),
    (OrbitSpaceSpec("Interval", L=4, boundary_convention="Dirichlet"), Representation(phi=math.pi), range(1, 5)),
    # theta = 0, phi = pi: E = -omega cancels two poles; E = +omega is an eigenvalue
    (OrbitSpaceSpec("Interval", L=3), Representation(phi=math.pi), range(1, 4)),
]
ETAS = (5e-324, 1e-300, 1e-100, 1e-20, 1e-10, 1e-4)


@pytest.mark.parametrize("space, D, sites", EDGE_SPACES,
                         ids=[f"{s.kind}-{s.boundary_convention}-theta{D.theta:.2f}-phi{D.phi:.2f}"
                              for s, D, _ in EDGE_SPACES])
def test_resolvent_at_the_band_edges_keeps_every_digit(space, D, sites):
    pairs = [(x, y) for x in sites for y in sites]
    # on the Standard Interval with theta = 0, phi = pi, E = +omega is an eigenvalue: G ~ 1 / eta
    pole = space.kind == "Interval" and D.theta == 0.0 and space.boundary_convention == "Standard"
    for omega in (1.0, 1.5):
        for sign in (1, -1):
            for delta in (0.0, 1e-12, 1e-6):
                for eta in ETAS:
                    E = complex(sign * omega * (1.0 + delta), eta)
                    if pole and sign == 1 and eta < 1e-300:
                        continue  # G ~ 1 / (L eta) passes the double range
                    plan = KernelPlan(space, D, KernelParams(omega=omega, energy=E), mode="resolvent")
                    want = reference_resolvent(space, D, E, omega, pairs)
                    largest = max(map(abs, want.values()))
                    worst = max(abs(plan.value((x,), (y,)) - want[(x, y)]) for x, y in pairs)
                    assert worst <= 1e-14 * largest, (omega, E, worst / largest)


def test_the_line_resolvent_at_the_upper_band_edge():
    # sin(acos(w)) at w = -1 - 1e-300i read 6.7e-119 - 8.2e15i here
    plan = KernelPlan(OrbitSpaceSpec("Line"), Representation(), KernelParams(energy=1 + 1e-300j), mode="resolvent")
    got = plan.value((0,), (0,))
    assert abs(got - (5e149 - 5e149j)) <= 1e-15 * abs(got)


def test_every_finite_energy_above_the_axis_is_accepted():
    rng = random.Random(20)
    draws = [complex(x, y) for x in (0.0, 1.0, -1.0, 1e308, -1.7976931348623157e308)
             for y in (5e-324, 1e-310, 1.0, 1e308, 1.7976931348623157e308)]
    while len(draws) < 4000:
        re = rng.choice((1, -1)) * 10.0 ** rng.uniform(-320, 308)
        im = 10.0 ** rng.uniform(-323.3, 308) if rng.random() < 0.8 else rng.choice((5e-324, 1e-320, 2.5e-308))
        draws.append(complex(re, im))
    for omega in (1.0, 0.25, 3.0):
        for E in draws:
            z, v = _momentum(E, omega)  # |z| < 1 up to its rounding as Im E -> 0
            assert abs(z) <= 1.0 + 4 * sys.float_info.epsilon and v.real >= 0.0, (E, omega, z, v)
            assert math.isfinite(abs(z)) and math.isfinite(v.real) and math.isfinite(v.imag), (E, omega)


def test_powers_of_z_past_repeated_squaring_match_mpmath():
    # `**` squares up to exponent 100 and takes libm's polar form past it; a HalfLine
    # table on sites 1..60 reaches z^119.  The phase error grows like k, as exp(i q k)'s did.
    rng = random.Random(7)
    for _ in range(100):
        E = complex(rng.uniform(-2.5, 2.5), 10.0 ** rng.uniform(-4, 0.5))
        z, _ = _momentum(E, 1.0)
        for k in (1, 2, 59, 99, 100, 101, 119, 240):
            got = z**k
            with mp.workdps(50):
                want = mp.mpc(z.real, z.imag) ** k
                if abs(want) < 1e-290:
                    continue  # subnormal: no relative precision left
                err = abs(mp.mpc(got.real, got.imag) - want) / abs(want)
            assert err <= 1e-15 * k, (E, k, float(err))


def test_an_energy_on_an_eigenvalue_to_double_precision_is_refused():
    # Circle L=4, theta=0 has eigenvalue 0: at E = 1e-320 i, z = i and z^4 = 1 exactly
    circle = OrbitSpaceSpec("Circle", L=4)
    with pytest.raises(PrecisionError, match="lies on an eigenvalue of the Circle to double precision"):
        KernelPlan(circle, Representation(), KernelParams(energy=1e-320j), mode="resolvent")
    # a hair off the axis the same energy is an ordinary one
    assert abs(KernelPlan(circle, Representation(), KernelParams(energy=0.1j), mode="resolvent").value((1,), (1,))) < 10
