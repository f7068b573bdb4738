"""Shared fixtures."""

from __future__ import annotations

import pytest

import orbitwalk.orbit


@pytest.fixture
def orbit_sum_walkers(monkeypatch) -> list:
    """The walker count of every image sum `orbit._orbit_sum` runs during the test."""
    walkers = []
    real = orbitwalk.orbit._orbit_sum

    def counted(space, *args):
        walkers.append(space.N)
        return real(space, *args)

    monkeypatch.setattr(orbitwalk.orbit, "_orbit_sum", counted)
    return walkers
