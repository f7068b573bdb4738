"""Special-function tests: frozen series-oracle values, identities, domain errors.

A Bessel value of one order is an entry of a row (`j_row`/`i_row`), the one
evaluation the kernels use.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from orbitwalk import _core_py
from orbitwalk.errors import DomainError
from orbitwalk.kernels import window_radius
from orbitwalk.special import N_MAX, Z_MAX, i_row, j_row, quarter_phase

from _oracles import bessel_i_exact, bessel_i_series, bessel_j_exact, bessel_j_series

# Values frozen from the 30-term power-series oracle (tests/_oracles.py).
J0_AT_2 = 0.22389077914123567
J1_AT_1 = 0.4400505857449335
J2_AT_1 = 0.11490348493190047
I1_AT_1 = 0.565159103992485


def test_frozen_oracle_values_are_current():
    # Guard: the literals above must stay in sync with the oracle itself.
    assert bessel_j_series(0, 2.0) == pytest.approx(J0_AT_2, abs=1e-15)
    assert bessel_j_series(1, 1.0) == pytest.approx(J1_AT_1, abs=1e-15)
    assert bessel_j_series(2, 1.0) == pytest.approx(J2_AT_1, abs=1e-15)
    assert bessel_i_series(1, 1.0) == pytest.approx(I1_AT_1, abs=1e-15)


def test_bessel_j_at_zero_argument():
    assert j_row(3, 0.0) == [1.0, 0.0, 0.0, 0.0]


def test_bessel_at_subnormal_argument():
    # 0.5 * z underflows to exactly zero here; the series must not see log(0).
    for row in (j_row, i_row):
        assert row(3, 5e-324) == [1.0, 0.0, 0.0, 0.0]
    assert _core_py.j_row(0, 5e-324) == [1.0]
    assert _core_py.i_row(1, 5e-324) == [1.0, 0.0]


def test_bessel_j_oracle_examples():
    assert abs(j_row(0, 2.0)[0] - J0_AT_2) <= 1e-13
    assert abs(j_row(2, 1.0)[1] - J1_AT_1) <= 1e-13
    assert abs(j_row(2, 1.0)[2] - J2_AT_1) <= 1e-13


def test_bessel_i_at_zero_argument():
    assert i_row(2, 0.0) == [1.0, 0.0, 0.0]


def test_bessel_i_oracle_example():
    assert abs(i_row(1, 1.0)[1] - I1_AT_1) <= 1e-13


def test_bessel_j_against_series_oracle_grid():
    # 0 <= n <= 20, 0 <= z <= 50: absolute deviation from the series oracle.
    worst = 0.0
    for z in [0.0, 0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 6.5, 8.0, 11.0, 17.0, 25.0, 33.0, 41.5, 50.0]:
        row = j_row(20, z)
        for n in range(21):
            ref = bessel_j_series(n, z, terms=130)
            worst = max(worst, abs(row[n] - ref))
    assert worst <= 1e-12


def test_bessel_j_absolute_error_to_z_100():
    worst = 0.0
    for z in [55.0, 63.0, 77.5, 88.0, 100.0]:
        row = j_row(20, z)
        for n in range(0, 21, 2):
            ref = bessel_j_series(n, z, terms=220)
            worst = max(worst, abs(row[n] - ref))
    assert worst <= 1e-13


def _orders(nmax: int) -> list:
    """About 40 orders from 0 to the row's end nmax, both ends included."""
    return sorted({*range(0, nmax, max(1, nmax // 40)), nmax})


@pytest.mark.parametrize("z", [100.0, 1000.0])
def test_j_rows_the_plans_build_match_mpmath(z):
    # a time plan's row at omega |tau| = z ends at window_radius
    nmax = window_radius(1.0, z)
    row = j_row(nmax, z)
    for n in _orders(nmax):
        assert abs(row[n] - bessel_j_exact(n, z)) <= 1e-13, n


@pytest.mark.parametrize("z", [100.0, 700.0])
def test_i_rows_the_plans_build_match_mpmath(z):
    # a heat plan's row at beta omega = z; I_n(700) spans 1e302 down to 1e103
    nmax = window_radius(1.0, z)
    row = i_row(nmax, z)
    for n in _orders(nmax):
        want = bessel_i_exact(n, z)
        assert abs(row[n] - want) <= 1e-13 * want, n


def test_bessel_i_against_series_oracle():
    for z in [0.0, 0.5, 1.0, 2.0, 7.0, 15.0]:
        row = i_row(15, z)
        for n in range(0, 16, 3):
            ref = bessel_i_series(n, z, terms=80)
            assert abs(row[n] - ref) <= 1e-12 * max(1.0, ref)


@pytest.mark.parametrize("z", [0.5, 1.0, 5.0, 20.0])
def test_j_normalization_identity(z):
    # J_0(z)^2 + 2 sum_n J_n(z)^2 = 1
    m = math.ceil(z + 40)
    row = j_row(m, z)
    total = row[0] ** 2 + 2.0 * sum(v * v for v in row[1:])
    assert abs(total - 1.0) <= 1e-12


@pytest.mark.parametrize("z1,z2", [(0.3, 0.3), (0.3, 1.0), (1.0, 1.0)])
def test_j_addition_theorem(z1, z2):
    # J_n(z1 + z2) = sum_m J_m(z1) J_{n-m}(z2), window |m| <= 60.
    def j_signed(row: list, n: int) -> float:
        return row[abs(n)] if n >= 0 or n % 2 == 0 else -row[-n]

    row1, row2, row12 = j_row(70, z1), j_row(70, z2), j_row(10, z1 + z2)
    for n1 in range(-5, 6):
        for n2 in range(-5, 6):
            n = n1 + n2
            total = sum(j_signed(row1, m) * j_signed(row2, n - m) for m in range(-60, 61))
            assert abs(total - j_signed(row12, n)) <= 1e-11


@pytest.mark.parametrize("z", [1e-6, 1e-3, 0.05, 0.5, 1.0, 2.0, 4.0, 6.4])
def test_rows_match_the_series_oracle_to_the_last_bits(z):
    # A row is one backward recurrence above a tiny z; below it, the series.
    nmax = window_radius(1.0, z)
    for n, (j, i) in enumerate(zip(j_row(nmax, z), i_row(nmax, z))):
        assert abs(j - bessel_j_series(n, z)) <= 1e-15, n
        want = bessel_i_series(n, z)
        # I_0(6.4) is about 116, where one ulp is 1.4e-14: relative above 1
        assert abs(i - want) <= 1e-15 * max(1.0, want), n
    assert j_row(2, 5e-324) == [1.0, 0.0, 0.0]


def test_domain_errors():
    with pytest.raises(DomainError):
        j_row(-1, 1.0)
    with pytest.raises(DomainError):
        j_row(0, -0.5)
    with pytest.raises(DomainError):
        j_row(N_MAX + 1, 1.0)
    with pytest.raises(DomainError):
        j_row(0, Z_MAX * 1.5)
    with pytest.raises(DomainError):
        i_row(2, math.inf)


def test_bessel_i_overflow():
    with pytest.raises(OverflowError):
        i_row(0, 800.0)
    with pytest.raises(OverflowError):
        i_row(4, 750.0)


def test_quarter_phase_values():
    assert quarter_phase(0) == 1 + 0j
    assert quarter_phase(2) == -1 + 0j
    assert quarter_phase(5) == 1j
    assert quarter_phase(-1) == -1j


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_quarter_phase_multiplicative(k1, k2):
    assert quarter_phase(k1) * quarter_phase(k2) == quarter_phase(k1 + k2)


@given(st.integers(-1000, 1000))
def test_quarter_phase_unit_modulus(k):
    assert abs(quarter_phase(k)) == 1.0
