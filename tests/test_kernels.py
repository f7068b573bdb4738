"""Free-lattice kernel tests: frozen values, conservation laws, coin blocks.

A kernel on the line is the orbit-space kernel on the one-image Line, so
these tests run the production route (`KernelPlan` over one Bessel row, the
closed-form resolvent, the light-cone coin blocks).
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from orbitwalk.errors import DomainError
from orbitwalk.group import OrbitSpaceSpec, Representation
from orbitwalk.kernels import (
    CoinSpec,
    KernelParams,
    _momentum,
    coined_line_blocks,
    coined_price,
    hadamard_coin,
    window_radius,
)
from orbitwalk.orbit import KernelPlan

from _oracles import laplace_transform_j0

J1_AT_1 = 0.4400505857449335
J2_AT_1 = 0.11490348493190047
I1_AT_1 = 0.565159103992485

LINE = OrbitSpaceSpec("Line")
FREE = Representation()


def line_kernel(x: int, y: int, p: KernelParams) -> complex:
    return KernelPlan(LINE, FREE, p).value((x,), (y,))


def line_heat_kernel(x: int, y: int, p: KernelParams) -> complex:
    return KernelPlan(LINE, FREE, p, mode="heat").value((x,), (y,))


def line_resolvent(x: int, y: int, p: KernelParams) -> complex:
    return KernelPlan(LINE, FREE, p, mode="resolvent").value((x,), (y,))


def coined_line_kernel(steps: int, x: int, y: int, c: CoinSpec) -> np.ndarray:
    """The (x, y) block of the coined walk on the line; zero outside the light cone."""
    first, stack = coined_line_blocks(steps, c)
    k = x - y - first
    return stack[k] if 0 <= k < len(stack) else np.zeros((c.d, c.d), dtype=complex)


def test_line_kernel_initial_condition():
    p = KernelParams(tau=0.0)
    assert line_kernel(3, 3, p) == 1 + 0j
    assert line_kernel(3, 4, p) == 0j


def test_line_kernel_oracle_values():
    p = KernelParams(omega=1.0, tau=1.0)
    assert abs(line_kernel(1, 0, p) - 1j * J1_AT_1) <= 1e-13
    assert abs(line_kernel(0, 2, p) - (-J2_AT_1)) <= 1e-13


def test_line_kernel_unitarity_grid():
    p_fwd = KernelParams(tau=1.7)
    p_bwd = KernelParams(tau=-1.7)
    for x in range(-10, 10):
        for y in range(-10, 10):
            assert line_kernel(x, y, p_fwd).conjugate() == line_kernel(y, x, p_bwd)


@pytest.mark.parametrize("t1,t2", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)])
def test_line_kernel_composition(t1, t2):
    w = math.ceil(t1 + t2) + 40
    p1, p2, p12 = KernelParams(tau=t1), KernelParams(tau=t2), KernelParams(tau=t1 + t2)
    for x, y in [(0, 0), (0, 1), (2, -1)]:
        total = sum(line_kernel(x, z, p1) * line_kernel(z, y, p2) for z in range(-w, w + 1))
        assert abs(total - line_kernel(x, y, p12)) <= 1e-10


@pytest.mark.parametrize("tau", [1.0, 5.0, 20.0])
def test_line_kernel_probability_conservation(tau):
    p = KernelParams(tau=tau)
    r = window_radius(1.0, tau)
    total = sum(abs(line_kernel(x, 0, p)) ** 2 for x in range(-r, r + 1))
    assert abs(total - 1.0) <= 1e-10


def test_line_kernel_shift_and_reflection_invariance():
    p = KernelParams(tau=2.3)
    for x, y, z in [(0, 1, 5), (-2, 4, -3)]:
        assert line_kernel(x, y, p) == line_kernel(x + z, y + z, p)
        assert line_kernel(x, y, p) == line_kernel(z - x, z - y, p)


def test_line_heat_kernel_values():
    assert line_heat_kernel(4, 4, KernelParams(beta=0.0)) == 1.0
    p = KernelParams(omega=1.0, beta=1.0)
    assert abs(line_heat_kernel(0, 1, p) - I1_AT_1) <= 1e-13
    assert line_heat_kernel(0, -1, p) == line_heat_kernel(0, 1, p)


def test_resolvent_momentum_branch():
    # E = i: q = pi/2 + i asinh(1), so z = e^{iq} = i e^{-asinh(1)} and omega sin q = cosh(asinh(1))
    z, v = _momentum(1j, 1.0)
    assert abs(z - 1j * math.exp(-math.asinh(1.0))) <= 1e-15
    assert abs(v - math.sqrt(2.0)) <= 1e-15
    for omega in (1.0, 0.8):
        for e in [0.4 + 0.3j, -0.2 + 0.05j, 1.5 + 1j, -3.0 + 2.0j, 1e9 + 1.0j, -1e300 + 1e-300j]:
            z, v = _momentum(e, omega)
            q = -1j * cmath.log(z)  # the branch the closed form takes: Im q > 0, |z| < 1
            assert abs(z) < 1.0 and v.real > 0.0
            assert abs(e + omega * cmath.cos(q)) <= 1e-12 * max(1.0, abs(e))
            assert abs(v - omega * cmath.sin(q)) <= 1e-12 * max(1.0, abs(v))
    for e in (0.5 - 0.1j, 0.5, 0.5 + 0j):
        with pytest.raises(DomainError, match="resolvent energy must have positive imaginary part"):
            _momentum(e, 1.0)


def test_line_resolvent_geometric_decay_and_symmetry():
    p = KernelParams(energy=1j)
    vals = [abs(line_resolvent(x, 0, p)) for x in range(6)]
    ratios = [vals[i + 1] / vals[i] for i in range(5)]
    assert all(abs(r - ratios[0]) <= 1e-12 for r in ratios)  # exactly geometric
    assert ratios[0] < 1.0
    assert line_resolvent(2, 5, p) == line_resolvent(5, 2, p)


def test_line_resolvent_vs_truncated_inverse():
    # interior entries of a 401-site open chain: the boundary is invisible
    # once the resolvent has decayed below tolerance
    n = 401
    omega = 1.0
    e = 1j
    h = np.zeros((n, n))
    for i in range(n - 1):
        h[i, i + 1] = h[i + 1, i] = -omega / 2.0
    g = np.linalg.solve(e * np.eye(n) - h, np.eye(n))
    c = n // 2
    p = KernelParams(omega=omega, energy=e)
    for dx in range(0, 6):
        assert abs(line_resolvent(c + dx, c, p) - g[c + dx, c]) <= 1e-8


def test_line_resolvent_laplace_transform():
    # quadrature of J_0(omega tau) e^{iE tau} against i * G_E(0,0)
    e = 0.3 + 0.5j
    p = KernelParams(energy=e)
    integral = laplace_transform_j0(1.0, e, 200.0)
    assert abs(integral - 1j * line_resolvent(0, 0, p)) <= 1e-6


def test_kernel_params_validation():
    with pytest.raises(DomainError):
        KernelParams(omega=0.0)
    with pytest.raises(DomainError):
        KernelParams(omega=-1.0)
    with pytest.raises(DomainError):
        KernelParams(beta=-0.1)
    with pytest.raises(DomainError):
        KernelParams(tau=math.inf)


def test_coin_spec_validation():
    with pytest.raises(DomainError):
        CoinSpec(2, np.array([[1.0, 0.0], [1.0, 0.0]]), (1, -1))  # not unitary
    with pytest.raises(DomainError):
        CoinSpec(9, np.eye(9), tuple(range(9)))  # too big
    with pytest.raises(DomainError):
        CoinSpec(2, np.eye(2), (1,))  # wrong shift count
    coin = hadamard_coin()
    assert coin.d == 2 and coin.shifts == (1, -1)
    assert np.max(np.abs(coin.coin @ coin.coin.conj().T - np.eye(2))) <= 1e-15


def test_coined_step_zero_and_one():
    c = hadamard_coin()
    assert np.array_equal(coined_line_kernel(0, 4, 4, c), np.eye(2))
    assert np.array_equal(coined_line_kernel(0, 4, 5, c), np.zeros((2, 2)))
    # one step: row i of the coin, placed at x - y = shift_i
    s = 1.0 / math.sqrt(2.0)
    up = coined_line_kernel(1, 1, 0, c)
    down = coined_line_kernel(1, -1, 0, c)
    assert np.allclose(up, [[s, s], [0, 0]], atol=1e-15)
    assert np.allclose(down, [[0, 0], [s, -s]], atol=1e-15)
    assert np.array_equal(coined_line_kernel(1, 0, 0, c), np.zeros((2, 2)))


def test_coined_translation_invariance():
    c = hadamard_coin()
    for n in (1, 3, 6):
        for d in range(-n, n + 1):
            assert np.array_equal(
                coined_line_kernel(n, d, 0, c), coined_line_kernel(n, d + 7, 7, c)
            )


def test_coined_column_unitarity():
    c = hadamard_coin()
    for n in (1, 2, 5, 9):
        acc = np.zeros((2, 2), dtype=complex)
        for x in range(-n - 1, n + 2):
            blk = coined_line_kernel(n, x, 0, c)
            acc += blk.conj().T @ blk
        assert np.max(np.abs(acc - np.eye(2))) <= 1e-14


def test_a_long_coined_walk_keeps_unitarity_and_its_parity():
    first, stack = coined_line_blocks(2000, hadamard_coin())
    gram = np.einsum("kij,kil->jl", stack.conj(), stack)  # sum over delta of B^H B
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
    # two steps of +-1 keep the parity of x - y: every block at an odd displacement is exactly zero
    assert first == -2000 and not stack[1::2].any()


def test_coined_negative_steps_unitarity_relation():
    c = hadamard_coin()
    for d in range(-4, 5):
        fwd = coined_line_kernel(4, d, 0, c)
        bwd = coined_line_kernel(-4, 0, d, c)
        assert np.allclose(bwd, fwd.conj().T, atol=1e-15)


def test_coined_composition():
    c = hadamard_coin()
    for x in range(-5, 6):
        direct = coined_line_kernel(5, x, 0, c)
        total = np.zeros((2, 2), dtype=complex)
        for z in range(-3, 4):
            total += coined_line_kernel(2, x, z, c) @ coined_line_kernel(3, z, 0, c)
        assert np.max(np.abs(direct - total)) <= 1e-14


def test_coined_light_cone_is_strict():
    c = hadamard_coin()
    assert np.array_equal(coined_line_kernel(3, 4, 0, c), np.zeros((2, 2)))
    assert np.array_equal(coined_line_kernel(3, -4, 0, c), np.zeros((2, 2)))


def _blocks_one_at_a_time(steps: int, c: CoinSpec) -> dict:
    """W^steps on the line block by block, one dict entry per reached displacement.

    A step's coin products are one product of the coin with the blocks of
    the window reached so far side by side, zeros where the walk has not
    been, as the walk forms them: BLAS may round one d x (k d) product
    differently from k products `c.coin @ blk` for a complex coin.  Then
    one row add per reached block and shift.
    """
    low, high = min(c.shifts), max(c.shifts)
    blocks, zero = {0: np.eye(c.d, dtype=complex)}, np.zeros((c.d, c.d), dtype=complex)
    for n in range(steps):
        window = range(n * low, n * high + 1)
        rows = c.coin @ np.hstack([blocks.get(delta, zero) for delta in window])
        new = {}
        for k, delta in enumerate(window):
            if delta in blocks:
                for i, s in enumerate(c.shifts):
                    new.setdefault(delta + s, np.zeros((c.d, c.d), dtype=complex))[i, :] += (
                        rows[i, k * c.d:(k + 1) * c.d])
        blocks = new
    return blocks


def _random_coin(rng, d: int, shifts: tuple) -> CoinSpec:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return CoinSpec(d, q * (np.diag(r) / np.abs(np.diag(r))), shifts)


def test_coined_blocks_equal_the_block_by_block_walk_bit_for_bit():
    rng = np.random.default_rng(7)
    coins = [
        hadamard_coin(),
        _random_coin(rng, 3, (2, -1, 0)),
        _random_coin(rng, 4, (-2, 1, 1, -1)),
        _random_coin(rng, 1, (1,)),
        # shifts of one sign: the window never holds displacement 0 after a step
        _random_coin(rng, 2, (2, 5)),
        _random_coin(rng, 1, (3,)),
        _random_coin(rng, 3, (-4, -1, -2)),
    ]
    for c in coins:
        low, high = min(c.shifts), max(c.shifts)
        for steps in range(0, 13):
            (first, got), want = coined_line_blocks(steps, c), _blocks_one_at_a_time(steps, c)
            # the window runs from steps * min(shifts) to steps * max(shifts)
            assert (first, len(got)) == (steps * low, steps * (high - low) + 1)
            for k, blk in enumerate(got):
                if first + k in want:
                    assert blk.tobytes() == want[first + k].tobytes(), (steps, first + k)
                else:  # unreached displacements are exact zeros
                    assert not blk.any(), (steps, first + k)
        (first, back), forward = coined_line_blocks(-5, c), _blocks_one_at_a_time(5, c)
        assert (first, len(back)) == (-5 * high, 5 * (high - low) + 1)
        for k, blk in enumerate(back):
            if -(first + k) in forward:
                assert blk.tobytes() == forward[-(first + k)].conj().T.tobytes()
            else:
                assert not blk.any()


@pytest.mark.parametrize("shifts", [(1, -1), (2, 5), (3,), (-4, -1, -2)])
def test_coined_stack_is_the_final_window_and_its_bytes_are_priced(shifts):
    rng = np.random.default_rng(11)
    c = _random_coin(rng, len(shifts), shifts)
    width = max(shifts) - min(shifts)
    for steps in (0, 1, 9, -5):
        first, stack = coined_line_blocks(steps, c)
        blocks = abs(steps) * width + 1
        assert len(stack) == blocks
        # the allocation is the window: nothing of it lies outside
        memory = stack if stack.base is None else stack.base
        assert memory.nbytes == stack.nbytes == 16 * c.d**2 * blocks
        assert memory.base is None
        # the stack and one step's product, at most as large again
        assert coined_price(steps, c)[1] == 2 * 16 * c.d**2 * blocks


@pytest.mark.parametrize("shifts", [(1, -1), (2, 5), (3,), (-4, -1, -2)])
def test_coined_block_products_count_the_blocks_each_step_multiplies(monkeypatch, shifts):
    rng = np.random.default_rng(12)
    c = _random_coin(rng, len(shifts), shifts)
    real, multiplied = np.matmul, []

    def counted(a, b, *args, **kwargs):
        multiplied.append(b.shape[-1] // c.d)  # the blocks lie side by side, d columns each
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    for steps in (0, 1, 9, -5):
        multiplied.clear()
        coined_line_blocks(steps, c)
        assert len(multiplied) == abs(steps)
        # each block product is priced at d + 1 lift steps
        assert coined_price(steps, c)[0] == (c.d + 1) * sum(multiplied)


def test_step_cap():
    with pytest.raises(DomainError):
        coined_line_blocks(10_001, hadamard_coin())
