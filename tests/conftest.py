"""Shared fixtures."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import _reference_group
import orbitwalk.orbit


@pytest.fixture
def image_sums(monkeypatch) -> SimpleNamespace:
    """The image sums run during the test.

    `residues` holds the (period, r) of every residue A(r) the plans
    compute (`KernelPlan._residue`; with no period r is |d| and A(r) the
    free term), `grids` the energy-grid length of each (None for a time or
    heat residue, which is one complex), `direct` the walker count of every
    sum of the group reference `_reference_group._orbit_sum`.
    """
    sums = SimpleNamespace(residues=[], grids=[], direct=[])
    residue = orbitwalk.orbit.KernelPlan._residue
    direct = _reference_group._orbit_sum

    def counted_residue(plan, r):
        sums.residues.append((plan._period, r))
        sums.grids.append(None if plan._grid is None else len(plan._grid))
        return residue(plan, r)

    def counted_direct(space, *args):
        sums.direct.append(space.N)
        return direct(space, *args)

    monkeypatch.setattr(orbitwalk.orbit.KernelPlan, "_residue", counted_residue)
    monkeypatch.setattr(_reference_group, "_orbit_sum", counted_direct)
    return sums
