"""Faults put into the production route: `verify` must notice each one.

Each fault is monkeypatched in-process into the single-walker fold or the
N-walker lift, and `orbitwalk verify` on a named config must exit 4 (a
failed check).  A fault no config catches is a gap in `verify`, not a fault
to drop.
"""

from __future__ import annotations

import pytest

import orbitwalk.orbit
from orbitwalk.cli import main

EXPANSION = orbitwalk.orbit.first_row_expansion
LU = orbitwalk.orbit.lu_determinant
PLAN = orbitwalk.orbit.KernelPlan
INIT, WEIGHT, RESIDUE = PLAN.__init__, PLAN._weight, PLAN._residue
FREE_ROW = orbitwalk.orbit._free_row


def conjugated_winding_weight(plan, n, m):
    return WEIGHT(plan, n, m).conjugate()


def dropped_winding_sign(plan, n, m):
    """Winding n weighed as winding |n|: e^{i |n| theta} where e^{i n theta} belongs."""
    return WEIGHT(plan, abs(n), m)


def dropped_reflection_phase(plan, *args, **kwargs):
    INIT(plan, *args, **kwargs)
    if plan._center is not None:
        plan._bounce = 1


def reflection_center_off_by_one(plan, *args, **kwargs):
    INIT(plan, *args, **kwargs)
    if plan._center is not None:
        plan._center += 1


def residue_read_one_off(plan, r):
    """`_fold` turns the residue of r + 1 (mod P) where the residue of r belongs."""
    return RESIDUE(plan, (r + 1) % plan._period if plan._period else r + 1)


def odd_orders_flipped(p, heat):
    """A time row i^d J_d whose odd orders have the wrong sign: the row of -tau."""
    row = FREE_ROW(p, heat)
    return row if heat else [-v if d & 1 else v for d, v in enumerate(row)]


def swapped_statistics(entry, rows, cols, fermion, minors):
    """Permanents where determinants belong, and the other way round."""
    return EXPANSION(entry, rows, cols, not fermion, minors)


def dropped_column_term(entry, rows, cols, fermion, minors):
    """A boson expansion of 3 or more rows without its last column's term.

    The expansion recurses through the module name, so its kept minors come
    from this fault too.
    """
    value = EXPANSION(entry, rows, cols, fermion, minors)
    if len(rows) < 3:
        return value
    return value - entry(rows[0], cols[-1]) * EXPANSION(entry, rows[1:], cols[:-1], fermion, {})


def doubled_determinant(m):
    """Twice the LU determinant of a fermion entry from 4 walkers on."""
    return 2 * LU(m)


def _exits_4_with(capsys, monkeypatch, owner, attribute, fault, sets):
    assert main(["verify", *sets]) == 0  # the config passes without the fault
    monkeypatch.setattr(owner, attribute, fault)
    assert main(["verify", *sets]) == 4
    capsys.readouterr()


FERMIONS_ON_8 = ["--set", "space.L=8", "--set", "representation.theta=0.7",
                 "--set", "representation.statistics=Fermion"]

# name -> (owner, attribute, fault, verify config).  On 8 sites every one of
# the first 8 sorted 4- and 5-walker points repeats a coordinate, so only
# fermion probes with distinct coordinates see a doubled determinant.
LIFT_FAULTS = {
    "swapped-statistics": (
        orbitwalk.orbit, "first_row_expansion", swapped_statistics,
        ["--set", "space.L=4", "--set", "space.N=2", "--set", "representation.theta=0.4",
         "--set", "representation.statistics=Fermion"],
    ),
    "dropped-column-term": (
        orbitwalk.orbit, "first_row_expansion", dropped_column_term,
        ["--set", "space.L=5", "--set", "space.N=4"],
    ),
    "doubled-fermion-determinant-N4": (
        orbitwalk.orbit, "lu_determinant", doubled_determinant, FERMIONS_ON_8 + ["--set", "space.N=4"],
    ),
    "doubled-fermion-determinant-N5": (
        orbitwalk.orbit, "lu_determinant", doubled_determinant, FERMIONS_ON_8 + ["--set", "space.N=5"],
    ),
}


@pytest.mark.parametrize("fault", LIFT_FAULTS)
def test_verify_catches_a_fault_in_the_lift(capsys, monkeypatch, fault):
    _exits_4_with(capsys, monkeypatch, *LIFT_FAULTS[fault])


CIRCLE = ["--set", "space.L=5", "--set", "representation.theta=0.7"]
INTERVAL = ["--set", "space.kind=Interval", "--set", "space.L=4",
            "--set", "representation.phi=3.141592653589793"]

# name -> (owner, attribute, fault, verify config); one walker each
FOLD_FAULTS = {
    "conjugated-winding-weight": (PLAN, "_weight", conjugated_winding_weight, CIRCLE),
    "dropped-winding-sign": (PLAN, "_weight", dropped_winding_sign, CIRCLE),
    "dropped-reflection-phase": (PLAN, "__init__", dropped_reflection_phase, INTERVAL),
    "reflection-center-off-by-one": (PLAN, "__init__", reflection_center_off_by_one, INTERVAL),
    "residue-read-one-off": (PLAN, "_residue", residue_read_one_off, CIRCLE),
    "odd-orders-flipped": (orbitwalk.orbit, "_free_row", odd_orders_flipped, CIRCLE),
}


@pytest.mark.parametrize("fault", FOLD_FAULTS)
def test_verify_catches_a_fault_in_the_single_walker_sums(capsys, monkeypatch, fault):
    owner, attribute, patch, sets = FOLD_FAULTS[fault]
    _exits_4_with(capsys, monkeypatch, owner, attribute, patch, sets)
