"""Group tests: the reference group algebra (action, composition, weights,
shells), representation validation and fundamental domains."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from orbitwalk.errors import DomainError, RepresentationError
from orbitwalk.group import (
    OrbitSpaceSpec,
    Representation,
    domain_size,
    fundamental_domain,
    in_fundamental_domain,
    validate_representation,
)

from _reference_group import (
    GroupElement,
    act,
    compose,
    enumerate_shell,
    identity,
    inverse,
    perm_parity,
    reflection,
    rep_value,
    translation,
    transposition,
)

SPACES = [
    OrbitSpaceSpec("Circle", L=4),
    OrbitSpaceSpec("Circle", L=7, N=2),
    OrbitSpaceSpec("HalfLine"),
    OrbitSpaceSpec("HalfLine", boundary_convention="Dirichlet"),
    OrbitSpaceSpec("Interval", L=3),
    OrbitSpaceSpec("Interval", L=5, N=3),
    OrbitSpaceSpec("Interval", L=4, boundary_convention="Dirichlet"),
    OrbitSpaceSpec("Line", N=3),
]


def rep_for(space: OrbitSpaceSpec) -> Representation:
    if space.boundary_convention == "Dirichlet":
        return Representation(theta=0.0, phi=math.pi, statistics="Fermion")
    if space.kind == "Circle":
        return Representation(theta=2.0 * math.pi / 3.0)
    if space.kind == "Line":
        return Representation(statistics="Fermion")
    return Representation(theta=math.pi, phi=math.pi)


def element_strategy(space: OrbitSpaceSpec):
    n = space.N
    w_entry = st.integers(-3, 3) if space.has_translations else st.just(0)
    m_entry = st.integers(0, 1) if space.has_reflections else st.just(0)
    return st.builds(
        GroupElement,
        st.tuples(*[w_entry] * n),
        st.tuples(*[m_entry] * n),
        st.permutations(range(n)).map(tuple),
    )


def point_strategy(space: OrbitSpaceSpec):
    return st.tuples(*[st.integers(-9, 9)] * space.N)


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_compatibility_action_vs_composition(space):
    @settings(max_examples=60, deadline=None)
    @given(element_strategy(space), element_strategy(space), point_strategy(space))
    def check(g1, g2, x):
        assert act(compose(g1, g2, space), x, space) == act(g1, act(g2, x, space), space)

    check()


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_inverse_roundtrip(space):
    @settings(max_examples=60, deadline=None)
    @given(element_strategy(space))
    def check(g):
        assert compose(g, inverse(g), space).is_identity()
        assert compose(inverse(g), g, space).is_identity()

    check()


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_associativity(space):
    @settings(max_examples=40, deadline=None)
    @given(element_strategy(space), element_strategy(space), element_strategy(space))
    def check(a, b, c):
        assert compose(compose(a, b, space), c, space) == compose(a, compose(b, c, space), space)

    check()


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_rep_homomorphism(space):
    D = rep_for(space)

    @settings(max_examples=60, deadline=None)
    @given(element_strategy(space), element_strategy(space))
    def check(g1, g2):
        lhs = rep_value(D, g1, space) * rep_value(D, g2, space)
        rhs = rep_value(D, compose(g1, g2, space), space)
        assert abs(lhs - rhs) <= 1e-15

    check()


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_rep_unitarity(space):
    D = rep_for(space)

    @settings(max_examples=60, deadline=None)
    @given(element_strategy(space))
    def check(g):
        assert abs(rep_value(D, g, space).conjugate() - rep_value(D, inverse(g), space)) <= 1e-15
        assert abs(abs(rep_value(D, g, space)) - 1.0) <= 1e-15

    check()


def test_rep_exact_quarter_phases():
    circle = OrbitSpaceSpec("Circle", L=4)
    D = Representation(theta=math.pi / 2)
    assert rep_value(D, translation(power=3), circle) == -1j  # exactly
    assert rep_value(D, translation(power=2), circle) == -1 + 0j
    interval = OrbitSpaceSpec("Interval", L=3)
    Dpi = Representation(theta=math.pi, phi=math.pi)
    assert rep_value(Dpi, compose(translation(), reflection(), interval), interval) == 1 + 0j


def test_rep_identity_element():
    for space in SPACES:
        assert rep_value(rep_for(space), identity(space.N), space) == 1 + 0j


def test_fermion_sign_on_transpositions():
    line3 = OrbitSpaceSpec("Line", N=3)
    D = Representation(statistics="Fermion")
    s1 = transposition(0, 3)
    s2 = transposition(1, 3)
    assert rep_value(D, s1, line3) == -1.0
    assert rep_value(D, compose(s1, s2, line3), line3) == 1.0  # even permutation


def test_spec_action_examples():
    assert act(translation(), (2,), OrbitSpaceSpec("Circle", L=4)) == (6,)
    assert act(reflection(), (3,), OrbitSpaceSpec("HalfLine")) == (-2,)
    assert act(transposition(0, 3), (5, 7, 9), OrbitSpaceSpec("Line", N=3)) == (7, 5, 9)
    # Dirichlet variants flip around 0 and translate by 2(L+1)
    assert act(reflection(), (3,), OrbitSpaceSpec("HalfLine", boundary_convention="Dirichlet")) == (-3,)
    assert act(translation(), (1,), OrbitSpaceSpec("Interval", L=3, boundary_convention="Dirichlet")) == (9,)


def test_spec_composition_examples():
    interval = OrbitSpaceSpec("Interval", L=3)
    r, t = reflection(), translation()
    assert compose(r, r, interval).is_identity()
    assert compose(r, compose(t, r, interval), interval) == translation(power=-1)
    g = GroupElement((2,), (1,), (0,))
    assert compose(identity(1), g, interval) == g


def test_shell_partition_counts():
    circle = OrbitSpaceSpec("Circle", L=5)
    interval = OrbitSpaceSpec("Interval", L=4)
    D = Representation()
    assert [len(enumerate_shell(circle, D, s)) for s in range(4)] == [1, 2, 2, 2]
    assert [len(enumerate_shell(interval, D, s)) for s in range(4)] == [2, 4, 4, 4]
    half = OrbitSpaceSpec("HalfLine")
    assert [len(enumerate_shell(half, D, s)) for s in range(3)] == [2, 0, 0]
    line2 = OrbitSpaceSpec("Line", N=2)
    shell0 = enumerate_shell(line2, D, 0)
    assert len(shell0) == 2 and [g.perm for g in shell0] == [(0, 1), (1, 0)]


def test_shells_are_disjoint_and_cover():
    space = OrbitSpaceSpec("Interval", L=2, N=2)
    D = Representation()
    seen = set()
    for s in range(3):
        for g in enumerate_shell(space, D, s):
            assert g not in seen
            assert max(abs(v) for v in g.winding) == s or (s == 0 and g.winding == (0, 0))
            seen.add(g)
    # every small word lands in exactly one shell
    assert identity(2) in seen


def test_representation_validation():
    interval = OrbitSpaceSpec("Interval", L=3)
    with pytest.raises(RepresentationError):
        validate_representation(interval, Representation(theta=math.pi / 3))
    with pytest.raises(RepresentationError):
        validate_representation(OrbitSpaceSpec("HalfLine"), Representation(phi=0.4))
    # Dirichlet pins the stabilizer weights
    with pytest.raises(RepresentationError):
        validate_representation(
            OrbitSpaceSpec("HalfLine", boundary_convention="Dirichlet"), Representation(phi=0.0)
        )
    with pytest.raises(RepresentationError):
        validate_representation(
            OrbitSpaceSpec("Interval", L=3, boundary_convention="Dirichlet"),
            Representation(theta=math.pi, phi=math.pi),
        )
    validate_representation(
        OrbitSpaceSpec("Interval", L=3, boundary_convention="Dirichlet"),
        Representation(theta=0.0, phi=math.pi),
    )
    # circle theta is unconstrained
    validate_representation(OrbitSpaceSpec("Circle", L=3), Representation(theta=1.234))


def test_dimension_mismatch_errors():
    circle = OrbitSpaceSpec("Circle", L=4, N=2)
    with pytest.raises(DomainError):
        act(translation(0, 2), (1,), circle)
    with pytest.raises(DomainError):
        compose(translation(), translation(0, 2), circle)


def test_perm_parity():
    assert perm_parity((0, 1, 2)) == 0
    assert perm_parity((1, 0, 2)) == 1
    assert perm_parity((2, 0, 1)) == 0


def test_fundamental_domain():
    circle = OrbitSpaceSpec("Circle", L=3)
    assert fundamental_domain(circle) == [(1,), (2,), (3,)]
    two = OrbitSpaceSpec("Interval", L=2, N=2)
    assert fundamental_domain(two) == [(1, 1), (1, 2), (2, 2)]
    assert in_fundamental_domain(two, (1, 2)) and not in_fundamental_domain(two, (2, 1))
    half = OrbitSpaceSpec("HalfLine")
    assert fundamental_domain(half, window=(1, 4)) == [(1,), (2,), (3,), (4,)]
    with pytest.raises(DomainError):
        fundamental_domain(half)
    assert not in_fundamental_domain(half, (0,))


def test_finite_spaces_ignore_the_window_and_the_half_line_clips_it():
    for space in (OrbitSpaceSpec("Circle", L=3), OrbitSpaceSpec("Interval", L=2, N=2)):
        for window in ((2, 9), (-5, 0), (7, 8)):
            assert fundamental_domain(space, window) == fundamental_domain(space)
            assert domain_size(space, window) == domain_size(space)
    half = OrbitSpaceSpec("HalfLine", N=2)
    assert fundamental_domain(half, (-3, 2)) == [(1, 1), (1, 2), (2, 2)]
    assert domain_size(half, (-3, 2)) == 3
    assert fundamental_domain(OrbitSpaceSpec("Line"), (-1, 1)) == [(-1,), (0,), (1,)]
