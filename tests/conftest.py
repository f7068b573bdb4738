"""Shared fixtures."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import _reference_group
import orbitwalk.orbit


@pytest.fixture
def image_sums(monkeypatch) -> SimpleNamespace:
    """The image sums run during the test.

    `winding` holds the (x, y) of every single-walker sum `orbit._winding_sum`
    runs, `direct` the walker count of every sum of the group reference
    `_reference_group._orbit_sum`.
    """
    sums = SimpleNamespace(winding=[], direct=[])
    winding = orbitwalk.orbit._winding_sum
    direct = _reference_group._orbit_sum

    def counted_winding(space, weight, free, x, y, trunc):
        sums.winding.append((x, y))
        return winding(space, weight, free, x, y, trunc)

    def counted_direct(space, *args):
        sums.direct.append(space.N)
        return direct(space, *args)

    monkeypatch.setattr(orbitwalk.orbit, "_winding_sum", counted_winding)
    monkeypatch.setattr(_reference_group, "_orbit_sum", counted_direct)
    return sums
