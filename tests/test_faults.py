"""Faults put into the production route: `verify` must notice each one.

Each fault is monkeypatched into the N-walker lift in-process, and
`orbitwalk verify` on a named config must exit 4 (a failed check).  A fault
no config catches is a gap in `verify`, not a fault to drop.
"""

from __future__ import annotations

import pytest

import orbitwalk.orbit
from orbitwalk.cli import main

EXPANSION = orbitwalk.orbit.first_row_expansion


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


FAULTS = {
    "swapped-statistics": (
        swapped_statistics,
        ["--set", "space.L=4", "--set", "space.N=2", "--set", "representation.theta=0.4",
         "--set", "representation.statistics=Fermion"],
    ),
    "dropped-column-term": (
        dropped_column_term,
        ["--set", "space.L=5", "--set", "space.N=4"],
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_verify_catches_a_fault_in_the_lift(capsys, monkeypatch, fault):
    patch, sets = FAULTS[fault]
    assert main(["verify", *sets]) == 0  # the config passes without the fault
    monkeypatch.setattr(orbitwalk.orbit, "first_row_expansion", patch)
    assert main(["verify", *sets]) == 4
    capsys.readouterr()
