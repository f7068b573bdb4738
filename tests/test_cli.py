"""Command-line behavior: table shapes, exit codes, overrides, determinism."""

from __future__ import annotations

import cmath
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitwalk.cli
import orbitwalk.group
import orbitwalk.kernels
import orbitwalk.oracle
import orbitwalk.orbit
from orbitwalk.cli import (
    COMMANDS,
    DEFAULT_CONFIG,
    MAX_LIFT_BYTES,
    MAX_LIFT_WORK,
    MAX_TABLE_ROWS,
    ResolvedRun,
    _fmt,
    _formatter,
    apply_set,
    emit,
    load_config,
    main,
)
from orbitwalk.errors import ConfigError
from orbitwalk.group import OrbitSpaceSpec, Representation
from orbitwalk.kernels import CoinSpec, hadamard_coin

from _oracles import coined_table_reference, many_walker_gibbs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# -- config plumbing ------------------------------------------------------


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_runs_on_the_default_config(capsys, command):
    code, out, err = run_cli(capsys, command)
    assert code == 0, err
    header, rows = parse_csv(out)
    assert header and rows


def test_default_config_loads_without_file():
    cfg = load_config(None)
    assert cfg == DEFAULT_CONFIG
    assert cfg is not DEFAULT_CONFIG


def test_config_file_merges_over_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"space": {"kind": "Interval", "L": 3}}))
    cfg = load_config(str(path))
    assert cfg["space"]["kind"] == "Interval"
    assert cfg["space"]["L"] == 3
    assert cfg["space"]["N"] == 1  # default preserved
    assert cfg["params"]["omega"] == 1.0


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"spaec": {"kind": "Circle"}}))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_apply_set_parses_json_values():
    cfg = load_config(None)
    apply_set(cfg, "params.energy=[0.1,0.7]")
    assert cfg["params"]["energy"] == [0.1, 0.7]
    apply_set(cfg, "representation.statistics=Fermion")
    assert cfg["representation"]["statistics"] == "Fermion"
    with pytest.raises(ConfigError):
        apply_set(cfg, "no.such.key=1")
    with pytest.raises(ConfigError):
        apply_set(cfg, "params")


def _scribble(node) -> None:
    """Overwrite every leaf of a config tree in place, depth first, and grow each container."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        if isinstance(node[key], (dict, list)):
            _scribble(node[key])
        else:
            node[key] = "scribbled"
    if isinstance(node, dict):
        node["extra"] = True
    else:
        node.append("extra")


def test_runs_and_loaded_configs_leave_the_defaults_unchanged(capsys, tmp_path):
    frozen = copy.deepcopy(DEFAULT_CONFIG)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "space": {"L": 5}, "params": {"tau": 2.0}, "initial_state": [[2, 1.0, 0.0]],
    }))
    for argv in (
        ("evolve", "--config", str(path), "--set", "params.energy=[0.2,0.1]",
         "--set", "initial_state=[[3,0.0,1.0]]", "--precision", "9"),
        ("coined", "--set", "space.L=6", "--set", "representation.theta=0.3",
         "--set", "coined.steps=3", "--format", "json"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
    for _ in range(2):
        _scribble(load_config(None))
    _scribble(load_config(str(path)))
    assert DEFAULT_CONFIG == frozen


# -- evolve ---------------------------------------------------------------


def test_evolve_zero_time_delta(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--set", "space.L=8", "--set", "params.tau=0"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["site", "re_amplitude", "im_amplitude", "probability"]
    assert rows[0][0] == "1" and float(rows[0][3]) == 1.0
    for row in rows[1:8]:
        assert float(row[3]) == 0.0
    assert rows[-1][0] == "total"
    assert float(rows[-1][3]) == 1.0


def test_evolve_half_line_conserves_probability(capsys):
    code, out, _ = run_cli(
        capsys,
        "evolve",
        "--set", "space.kind=HalfLine",
        "--set", "space.boundary_convention=Dirichlet",
        "--set", f"representation.phi={math.pi}",
        "--set", "params.tau=2",
        "--window", "1:60",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[-1][0] == "total"
    assert float(rows[-1][3]) == pytest.approx(1.0, abs=1e-9)


def test_evolve_fermion_pair_emits_sorted_tuples_only(capsys):
    code, out, _ = run_cli(
        capsys,
        "evolve",
        "--set", "space.kind=Interval",
        "--set", "space.L=5",
        "--set", "space.N=2",
        "--set", "representation.statistics=Fermion",
        "--set", "initial_state=[[[1,2],1.0,0.0]]",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:2] == ["site_1", "site_2"]
    for row in rows[:-1]:
        assert int(row[0]) <= int(row[1])
    probs = [float(r[4]) for r in rows[:-1]]
    assert all(-1e-12 <= p <= 1 + 1e-12 for p in probs)
    assert float(rows[-1][4]) == pytest.approx(1.0, abs=1e-10)


def test_evolve_warns_on_unnormalized_state(capsys):
    code, _, err = run_cli(
        capsys, "evolve", "--set", "initial_state=[[1,2.0,0.0]]"
    )
    assert code == 0
    assert "norm" in err


def test_many_walker_evolve_repeats_byte_for_byte(capsys):
    argv = ("evolve", "--set", "space.N=3", "--set", "initial_state=[[[1,2,4],1.0,0.0]]")
    first = run_cli(capsys, *argv)
    assert first[0] == 0
    assert run_cli(capsys, *argv) == first


# -- thermal, resolvent, dos ----------------------------------------------


def test_thermal_infinite_temperature(capsys):
    code, out, _ = run_cli(
        capsys, "thermal", "--set", "space.L=5", "--set", "params.beta=0"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "y", "re_density", "im_density"]
    assert rows[-1][0] == "Z"
    assert float(rows[-1][2]) == 5.0
    for row in rows[:-1]:
        want = 0.2 if row[0] == row[1] else 0.0
        assert float(row[2]) == pytest.approx(want, abs=1e-13)
        assert float(row[3]) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("N", [1, 2])
def test_thermal_computes_each_single_walker_sum_once(capsys, image_sums, N):
    code, _, _ = run_cli(capsys, "thermal", "--set", "space.L=5", "--set", f"space.N={N}")
    assert code == 0
    assert image_sums.direct == []
    # one winding sum per residue of x - y mod 5: the displacements -4..-1
    # are residues 1..4 turned by e^{-i theta}, not sums of their own
    assert sorted(image_sums.residues) == [(5, r) for r in range(5)]


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--set", "space.L=5"],
        ["evolve", "--set", "space.kind=HalfLine", "--window=1:12"],
        ["evolve", "--set", "space.N=2", "--set", "initial_state=[[[1, 3], 1, 0]]"],
        ["thermal", "--set", "space.kind=Interval", "--set", "space.L=4"],
        ["thermal", "--set", "space.N=2", "--set", "representation.statistics=Fermion"],
        ["verify", "--set", "space.kind=Interval", "--set", "space.L=3"],
        ["verify", "--set", "space.N=2"],
    ],
)
def test_production_commands_never_run_the_generic_group_sum(capsys, image_sums, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    # a HalfLine has no period: its residues are free-row entries, with no winding sum
    assert image_sums.residues
    assert image_sums.direct == []


@pytest.mark.parametrize("command", ["resolvent", "dos"])
def test_many_walker_resolvent_and_dos_are_refused(capsys, command):
    code, out, err = run_cli(capsys, command, "--set", "space.N=2", "--max-shell", "600")
    assert code == 2
    assert out == ""
    assert "one walker" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("resolvent", "--set", "space.N=2"),
         "the resolvent is implemented for one walker only, not N=2"),
        (("dos", "--set", "space.N=3"),
         "the resolvent is implemented for one walker only, not N=3"),
        (("resolvent", "--set", "params.energy=[0.4, 0.0]"),
         "resolvent energy must have positive imaginary part"),
        (("resolvent", "--set", "params.energy=[0.4, -0.2]"),
         "resolvent energy must have positive imaginary part"),
    ],
)
def test_resolvent_refusals_keep_their_exit_code_and_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize("kind, period", [("Circle", 8), ("Interval", 16)])
def test_resolvent_evaluates_each_residue_once(capsys, image_sums, kind, period):
    L = 8
    code, out, err = run_cli(
        capsys, "resolvent", "--set", f"space.kind={kind}", "--set", f"space.L={L}"
    )
    assert code == 0, err
    assert len(parse_csv(out)[1]) == L * L
    # the L^2 entries take one closed form per residue of the period, at the one energy
    assert sorted(image_sums.residues) == [(period, r) for r in range(period)]
    assert image_sums.grids == [1] * period


def test_half_line_resolvent_evaluates_each_free_term_once(capsys, image_sums):
    code, out, err = run_cli(capsys, "resolvent", "--set", "space.kind=HalfLine", "--window=1:6")
    assert code == 0, err
    assert len(parse_csv(out)[1]) == 6 * 6
    # |x - y| takes 0..5 and |x + y - 1| takes 1..11: each distance's free term once
    assert sorted(image_sums.residues) == [(0, r) for r in range(12)]
    assert image_sums.grids == [1] * 12


def test_dos_builds_one_resolvent_plan_and_validates_once_per_sweep(capsys, monkeypatch):
    modes, validations = [], []
    plan = orbitwalk.cli.KernelPlan
    validate = orbitwalk.orbit.validate_representation

    def built(*args, **kwargs):
        modes.append(kwargs.get("mode"))
        return plan(*args, **kwargs)

    def validated(*args):
        validations.append(args)
        return validate(*args)

    monkeypatch.setattr(orbitwalk.cli, "KernelPlan", built)
    monkeypatch.setattr(orbitwalk.orbit, "validate_representation", validated)
    code, out, err = run_cli(capsys, "dos", "--set", "space.kind=Interval", "--set", "dos.points=7")
    assert code == 0, err
    assert len(parse_csv(out)[1]) == 7 + 1
    assert modes == ["resolvent"]
    assert len(validations) == 1


def test_circle_dos_evaluates_one_closed_form_per_energy(capsys, image_sums):
    code, out, err = run_cli(capsys, "dos")
    assert code == 0, err
    energies = DEFAULT_CONFIG["dos"]["points"]
    assert len(parse_csv(out)[1]) == energies + 1  # plus the totals row
    assert image_sums.residues == [(DEFAULT_CONFIG["space"]["L"], 0)]
    assert image_sums.grids == [energies]


def test_interval_dos_evaluates_each_residue_once_over_the_grid(capsys, image_sums):
    L, energies = 8, 9
    code, out, err = run_cli(
        capsys, "dos", "--set", "space.kind=Interval", "--set", f"space.L={L}",
        "--set", f"dos.points={energies}",
    )
    assert code == 0, err
    assert len(parse_csv(out)[1]) == energies + 1
    # the diagonal's direct residue 0, then the reflected residue 2x - 1 of each site x
    assert image_sums.residues == [(2 * L, 0)] + [(2 * L, 2 * x - 1) for x in range(1, L + 1)]
    assert image_sums.grids == [energies] * (L + 1)


def test_resolvent_emits_full_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "resolvent", "--set", "space.L=3", "--max-shell", "300"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "y", "re", "im"]
    assert len(rows) == 9


def test_dos_totals_row_integrates_to_site_count(capsys):
    code, out, _ = run_cli(
        capsys,
        "dos",
        "--set", "space.L=3",
        "--set", "dos.eta=0.3",
        "--set", "dos.points=201",
        "--max-shell", "400",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["energy", "dos_1", "dos_2", "dos_3"]
    assert rows[-1][0] == "total"
    total = sum(float(v) for v in rows[-1][1:])
    # a Lorentzian this wide leaks outside the sweep window; stay coarse
    assert total == pytest.approx(3.0, abs=0.7)
    for row in rows[:-1]:
        assert all(float(v) >= 0.0 for v in row[1:])


# -- coined -----------------------------------------------------------------


def test_coined_blocks_match_oracle_and_distribution_sums_to_one(capsys):
    code, out, _ = run_cli(
        capsys, "coined", "--set", "space.L=6", "--set", "coined.steps=4"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "y", "i", "j", "re", "im", "deviation", "probability"]
    block_rows = [r for r in rows if r[6] != ""]
    assert len(block_rows) == 6 * 6 * 4
    assert max(float(r[6]) for r in block_rows) <= 1e-12
    dist_rows = [r for r in rows if r[7] != "" and r[0] != "total"]
    assert len(dist_rows) == 6
    assert float(rows[-1][7]) == pytest.approx(1.0, abs=1e-12)


def test_coined_builds_line_blocks_once(capsys, monkeypatch):
    steps = []
    real = orbitwalk.kernels._coined_blocks

    def counted(n, coin):
        steps.append(n)
        return real(n, coin)

    monkeypatch.setattr(orbitwalk.kernels, "_coined_blocks", counted)
    code, _, _ = run_cli(capsys, "coined", "--set", "space.L=8", "--set", "coined.steps=6")
    assert code == 0
    assert steps == [6]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--set", "space.L=500", "--set", "coined.steps=1000000"), "|steps| exceeds STEP_MAX = 10000"),
        (("--set", "space.L=400", "--set", "coined.steps=-20000"), "|steps| exceeds STEP_MAX = 10000"),
        (("--set", "space.L=500", "--set", "coined.source=501"), "coined.source must lie in 1..500"),
        (("--set", "space.L=1", "--set", "coined.steps=10000"),
         "a coined walk of 10000 steps would do 100000000 block products, "
         f"the work of 3e+08 lift steps, more than {MAX_LIFT_WORK}"),
    ],
)
def test_coined_refusals_come_before_the_dense_oracle(capsys, monkeypatch, argv, message):
    def oracle_ran(*args):
        raise AssertionError("the dense oracle ran for a refused walk")

    monkeypatch.setattr(orbitwalk.oracle, "coined_circle_power", oracle_ran)
    code, out, err = run_cli(capsys, "coined", *argv)
    assert (code, out, err) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize(
    "command, settings",
    [
        ("evolve", ("dos.eta=5", "dos.points=abc", "dos.e_min=2", "dos.e_max=1")),
        ("evolve", ("coined.steps=2.5", "coined.source=0", "coined.coin=butterfly")),
        ("dos", ("coined.steps=1000000", "coined.source=abc")),
    ],
)
def test_each_command_reads_only_its_own_section(capsys, command, settings):
    argv = [arg for setting in settings for arg in ("--set", setting)]
    code, _, err = run_cli(capsys, command, *argv)
    assert code == 0, err


def test_coined_computes_one_circle_kernel_per_displacement(capsys, monkeypatch):
    L, steps, source = 7, 9, 3
    argv = ("coined", "--set", f"space.L={L}", "--set", f"coined.steps={steps}",
            "--set", f"coined.source={source}", "--set", "representation.theta=0.6")
    ranges = []
    route = orbitwalk.cli.orbit_coined_blocks
    real = orbitwalk.orbit.orbit_coined_kernel

    def counted(space, D, n, coin, lo, hi):
        ranges.append((lo, hi))
        return route(space, D, n, coin, lo, hi)

    monkeypatch.setattr(orbitwalk.cli, "orbit_coined_blocks", counted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert ranges == [(1 - L, L - 1)]  # one call, all 2L - 1 displacements

    # every block row and the distribution equal a one-pair kernel
    space = OrbitSpaceSpec("Circle", L=L)
    D = Representation(theta=0.6)
    coin = hadamard_coin()
    _, rows = parse_csv(out)
    blocks = [r for r in rows if r[6] != ""]
    assert len(blocks) == L * L * 4
    for x, y, i, j, re_cell, im_cell, _, _ in blocks:
        want = real(space, D, steps, int(x), int(y), coin)[int(i), int(j)]
        assert (re_cell, im_cell) == (f"{want.real:.12e}", f"{want.imag:.12e}")
    dist = [r for r in rows if r[7] != "" and r[0] != "total"]
    for x, *_, prob in dist:
        block = real(space, D, steps, int(x), source, coin)
        assert prob == f"{float(np.sum(np.abs(block @ np.array([1, 0])) ** 2)):.12e}"


# a unitary 3-state coin (the discrete Fourier transform) with unequal shifts
_DFT3 = [[[math.cos(2 * math.pi * j * k / 3) / math.sqrt(3),
           math.sin(2 * math.pi * j * k / 3) / math.sqrt(3)] for k in range(3)] for j in range(3)]
_COINS = {
    "hadamard": ("hadamard", hadamard_coin()),
    "dft3": (
        {"matrix": _DFT3, "shifts": [2, -1, 0]},
        CoinSpec(3, np.array([[complex(*c) for c in row] for row in _DFT3]), (2, -1, 0)),
    ),
}


@pytest.mark.parametrize("precision", [12, 17])
@pytest.mark.parametrize("coin_name", sorted(_COINS))
def test_coined_table_equals_the_per_pair_reference_byte_for_byte(capsys, coin_name, precision):
    raw, coin = _COINS[coin_name]
    for theta in (0.0, 0.7):
        for L in (1, 2, 3, 16):
            for steps in (0, -3, 5, 20):
                source = L if theta else 1
                code, out, err = run_cli(
                    capsys, "coined", "--set", f"space.L={L}", "--set", f"coined.steps={steps}",
                    "--set", f"coined.source={source}", "--set", f"representation.theta={theta}",
                    "--set", f"coined.coin={json.dumps(raw)}", "--precision", str(precision),
                )
                assert code == 0, err
                want = coined_table_reference(L, theta, steps, coin, source, precision)
                assert out.split("\n", 2)[2] == want, (L, theta, steps)


# -- verify ------------------------------------------------------------------


def test_verify_passes_on_default_circle(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--set", f"representation.theta={math.pi / 2}"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == [
        "initial_condition",
        "composition",
        "unitarity",
        "equivariance",
        "orbit_vs_oracle",
        "gauge_equivalence",
    ]
    assert all(r[1] == "pass" for r in rows)


def test_verify_interval_all_phase_pairs(capsys):
    for theta in (0.0, math.pi):
        for phi in (0.0, math.pi):
            code, out, _ = run_cli(
                capsys,
                "verify",
                "--set", "space.kind=Interval",
                "--set", "space.L=3",
                "--set", f"representation.theta={theta}",
                "--set", f"representation.phi={phi}",
            )
            assert code == 0, (theta, phi, out)


@pytest.mark.parametrize(
    "sets",
    [
        ("representation.theta=0",),
        ("representation.theta=0.7",),
        ("representation.theta=2", "params.tau=40"),
        ("space.kind=Interval", f"representation.theta={math.pi}", f"representation.phi={math.pi}"),
        ("space.kind=Interval", "space.boundary_convention=Dirichlet", f"representation.phi={math.pi}"),
        ("space.N=2",),
    ],
    ids=["circle", "circle-twisted", "circle-long-tau", "interval-pi-pi", "interval-dirichlet",
         "circle-two-walkers"],
)
def test_verify_passes_on_one_site_spaces(capsys, sets):
    # One site: the oracle's chain is its 1 x 1 boundary term.
    argv = ["verify", "--set", "space.L=1"]
    for s in sets:
        argv += ["--set", s]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert rows and all(r[1] == "pass" for r in rows)


def test_verify_shares_single_walker_sums_across_checks(capsys, image_sums):
    code, _, _ = run_cli(
        capsys, "verify", "--set", "space.L=5", "--set", "space.N=2",
        "--set", "representation.theta=0.7",
    )
    assert code == 0
    assert image_sums.direct == []
    # four plans (tau, tau/2, -tau, 0) of L residues each; displacement 5 of
    # the equivariance image t(1, 1) = (6, 1) is residue 0 turned by e^{i theta}
    assert sorted(image_sums.residues) == sorted([(5, r) for r in range(5)] * 4)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--set", "space.L=2", "--set", "space.N=9",
          "--set", "representation.statistics=Fermion"), "at most 6 walkers"),
        (("verify", "--set", "space.L=4000"), "4000 sites"),
        (("verify", "--set", "space.kind=HalfLine", "--window=1:2100"), "2140 sites"),
    ],
)
def test_verify_refuses_what_the_oracle_cannot_check_before_any_kernel(
    capsys, monkeypatch, argv, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran before the oracle limits were checked")

    monkeypatch.setattr(orbitwalk.orbit.KernelPlan, "value", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_verify_on_a_window_without_domain_points_is_refused_before_any_kernel(
    capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran on an empty window")

    monkeypatch.setattr(orbitwalk.orbit.KernelPlan, "value", refuse)
    code, out, err = run_cli(capsys, "verify", "--set", "space.kind=HalfLine", "--window=-3:0")
    assert (code, out) == (2, "")
    assert err.startswith("config error: verification window (-3, 0) holds no point")


@pytest.mark.parametrize(
    "space", [("--set", "space.L=2"), ("--set", "space.kind=HalfLine", "--window=-4:2")],
    ids=["circle", "half-line"],
)
def test_fermion_verify_with_more_walkers_than_sites_is_refused_before_any_kernel(
    capsys, monkeypatch, space
):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran with no antisymmetric state to probe")

    monkeypatch.setattr(orbitwalk.orbit.KernelPlan, "value", refuse)
    code, out, err = run_cli(
        capsys, "verify", *space, "--set", "space.N=3", "--set", "representation.statistics=Fermion"
    )
    assert (code, out) == (2, "")
    assert err == "config error: 3 fermions on 2 sites have no antisymmetric state\n"


def test_verify_inaccurate_sum_exits_4(capsys, monkeypatch):
    free_row = orbitwalk.orbit._free_row
    # a free row cut to 3 terms: the sums at tau = 5 miss most of their weight
    monkeypatch.setattr(orbitwalk.orbit, "_free_row", lambda p, heat: free_row(p, heat)[:3])
    code, out, _ = run_cli(capsys, "verify", "--set", "params.tau=5")
    assert code == 4
    _, rows = parse_csv(out)
    assert any(r[1] == "fail" for r in rows)


# -- exit codes and validation ----------------------------------------------


@pytest.mark.parametrize("argv", [[], ["bogus"], ["evolve", "--bogus"], ["--max-shell", "3"]])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: orbitwalk" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_lists_commands_and_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: orbitwalk COMMAND [options]")
    for text in (*COMMANDS, "--config", "--set", "--max-shell", "--window", "--precision"):
        assert text in out


@pytest.mark.parametrize(
    "argv",
    [
        ("evolve", "--set", "space.kind=HalfLine"),
        ("evolve", "--set", "bogus.key=1"),
        ("evolve", "--window", "17"),
        ("evolve", "--set", "space.L=0"),
        ("evolve", "--set", "initial_state=[]"),
        ("evolve", "--set", "initial_state=[[1,0.5]]"),
        ("evolve", "--set", "representation.statistics=Spinor"),
        ("evolve", "--precision", "0"),
        ("resolvent", "--set", "params.energy=[0.4,-0.3]"),
        ("resolvent", "--set", "params.energy=[0.4]"),
        ("thermal", "--set", "space.kind=Line"),
        ("coined", "--set", "space.kind=Interval"),
        ("coined", "--set", "space.N=2"),
        ("coined", "--set", "coined.source=9"),
        ("coined", "--set", "coined.coin=butterfly"),
        ("dos", "--set", "dos.eta=5.0"),
        ("dos", "--set", "dos.points=1"),
        ("dos", "--set", "dos.e_min=1", "--set", "dos.e_max=0"),
        ("verify", "--set", "params.tau=0"),
        ("verify", "--set", "representation.phi=0", "--set", "space.kind=HalfLine",
         "--set", "space.boundary_convention=Dirichlet", "--window", "1:10"),
    ],
)
def test_config_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "command, integral, exact",
    [
        ("dos", "dos.points=4.0", "dos.points=4"),
        ("coined", "coined.steps=2.0", "coined.steps=2"),
        ("coined", "coined.source=3.0", "coined.source=3"),
        ("evolve", "window=[0.0,3.0]", "window=[0,3]"),
        ("evolve", "initial_state=[[2.0,1,0]]", "initial_state=[[2,1,0]]"),
        ("thermal", "space.L=3.0", "space.L=3"),
        ("evolve", "space.N=1.0", "space.N=1"),
    ],
)
def test_integral_floats_in_integer_settings_run_as_their_integers(capsys, command, integral, exact):
    line = ("--set", "space.kind=Line") if integral.startswith("window") else ()
    tables = []
    for setting in (integral, exact):
        code, out, err = run_cli(capsys, command, *line, "--set", setting)
        assert code == 0, err
        tables.append(parse_csv(out))
    assert tables[0] == tables[1]


@pytest.mark.parametrize(
    "walkers, state, point",
    [
        (1, "[[1,0.6,0],[1,0.8,0]]", "(1,)"),
        (1, "[[2,0.6,0],[[2],0.8,0]]", "(2,)"),
        (2, "[[[1,3],0.6,0],[[2,3],0.6,0],[[1,3],0.5,0.1]]", "(1, 3)"),
    ],
)
def test_initial_state_listing_a_point_twice_exits_2_before_any_kernel(
    capsys, monkeypatch, walkers, state, point
):
    def no_plan(*args, **kwargs):
        raise AssertionError("a kernel plan was built")

    monkeypatch.setattr(orbitwalk.cli, "KernelPlan", no_plan)
    code, out, err = run_cli(
        capsys, "evolve", "--set", f"space.N={walkers}", "--set", f"initial_state={state}"
    )
    assert (code, out) == (2, "")
    assert err == f"config error: initial_state lists point {point} twice\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("dos", "--set", 'dos.eta="x"'),
        ("dos", "--set", 'dos.e_min="x"'),
        ("dos", "--set", 'dos.e_max="x"'),
        ("coined", "--set", 'coined.steps="x"'),
        ("coined", "--set", 'coined.source="x"'),
    ],
)
def test_non_numeric_section_values_exit_2_naming_the_key(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    key = argv[2].partition("=")[0]
    assert code == 2
    assert out == ""
    assert f"config error: {key} must be" in err


def test_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "evolve", "--config", "/no/such/file.json")
    assert code == 2
    assert "config" in err


# The kernel tolerance of acceptance gate 5, and the Z and density-matrix
# entry tolerances of gate 7.
KERNEL_TOL = 1e-10
Z_REL_TOL = 1e-11
RHO_TOL = 1e-10


@pytest.mark.parametrize(
    "L, tau, theta",
    [(1, 40.0, 0.3), (2, 200.0, 1.1), (3, 500.0, 2.0)],
    ids=["L1-tau40", "L2-tau200", "L3-tau500"],
)
def test_small_circles_at_long_times_evolve_exactly(capsys, L, tau, theta):
    # The fold takes every winding the free row reaches, about 2 tau / L of
    # them, far past any shell cap; --max-shell is accepted and ignored.
    code, out, err = run_cli(
        capsys, "evolve", "--set", f"space.L={L}", "--set", f"params.tau={tau}",
        "--set", f"representation.theta={theta}", "--max-shell", "2",
    )
    assert code == 0, err
    _, rows = parse_csv(out)
    if L == 1:  # the closed form e^{i omega tau cos theta}; the dense oracle needs two sites
        kernel = {1: cmath.exp(1j * tau * math.cos(theta))}
    else:
        dec = orbitwalk.oracle.diagonalize(orbitwalk.oracle.build_hamiltonian(
            orbitwalk.oracle.HamiltonianSpec(L, 1.0, orbitwalk.oracle.CircleTwisted(theta))
        ))
        kernel = {x: orbitwalk.oracle.spectral_kernel(dec, tau, x, 1) for x in range(1, L + 1)}
    assert len(rows) == L + 1
    for row in rows[:-1]:
        got = complex(float(row[1]), float(row[2]))
        assert abs(got - kernel[int(row[0])]) <= KERNEL_TOL, row


def test_one_site_circle_at_large_beta_is_exact(capsys):
    code, out, err = run_cli(
        capsys, "thermal", "--set", "space.L=1", "--set", "params.beta=40",
        "--set", "representation.theta=0.3", "--max-shell", "2",
    )
    assert code == 0, err
    _, rows = parse_csv(out)
    z = float(rows[-1][2])
    assert abs(z / math.exp(40.0 * math.cos(0.3)) - 1.0) <= Z_REL_TOL
    assert abs(complex(float(rows[0][2]), float(rows[0][3])) - 1.0) <= RHO_TOL  # rho = K / Z


PI = repr(math.pi)


@pytest.mark.parametrize(
    "sets",
    [
        ("space.L=2", f"representation.theta={PI}", "params.beta=60"),
        ("space.L=1", f"representation.theta={PI}", "params.beta=40"),
        ("space.L=4", "space.N=2", "representation.statistics=Fermion", "params.beta=40"),
        ("space.kind=Interval", "space.L=4", f"representation.phi={PI}", "params.beta=200"),
        ("space.N=2", "params.beta=400"),
    ],
    ids=["circle-L2-beta60", "circle-L1-beta40", "fermions-beta40", "interval-beta200", "N2-beta400"],
)
def test_thermal_with_an_impossible_partition_function_exits_3(capsys, sets):
    # The true Z is positive; these sums cancel to Z < 0 or overflow to inf.
    argv = ["thermal"]
    for setting in sets:
        argv += ["--set", setting]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "precision loss" in err


@pytest.mark.parametrize("beta, expected", [("700", 0), ("705", 2), ("720", 2)])
def test_thermal_past_the_i_row_range_exits_2(capsys, beta, expected):
    code, out, err = run_cli(capsys, "thermal", "--set", f"params.beta={beta}")
    assert code == expected, err
    if expected == 2:
        assert out == ""
        assert "config error" in err and "exceeds" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("thermal", "--set", "space.N=10", "--set", "space.L=20"),
        ("dos", "--set", "dos.points=100000000"),
        ("evolve", "--set", "space.kind=Line", "--window=-2000000:2000000"),
        ("coined", "--set", "space.L=600"),
    ],
)
def test_oversized_tables_are_refused_before_the_domain_is_built(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the work bound was checked")

    for module in (orbitwalk.cli, orbitwalk.group, orbitwalk.orbit):
        monkeypatch.setattr(module, "fundamental_domain", refuse)
    monkeypatch.setattr(orbitwalk.oracle, "coined_circle_power", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "table rows" in err


@pytest.mark.parametrize(
    "argv, bound",
    [
        # past 64 walkers a boson run is refused outright
        (("thermal", "--set", "space.L=2", "--set", "space.N=65"), "lift steps"),
        # the minors of 12-site 8-walker targets against one source: 2.8e8 bytes
        (("evolve", "--set", "space.L=12", "--set", "space.N=8",
          "--set", "initial_state=[[[1,2,3,4,5,6,7,8], 1, 0]]"), "bytes of minors"),
        # composition through C(45, 6) = 8,145,060 six-walker middles: 1.2e10 steps
        (("verify", "--set", "space.L=40", "--set", "space.N=6"), "lift steps"),
        (("thermal", "--set", "space.L=4", "--set", "space.N=12"), "lift steps"),
    ],
    ids=["argv0", "argv1", "argv2", "argv3"],
)
def test_large_boson_lifts_are_refused_before_any_permanent(capsys, monkeypatch, argv, bound):
    def refuse(*args, **kwargs):
        raise AssertionError("a permanent ran before the lift bound was checked")

    monkeypatch.setattr(orbitwalk.orbit, "first_row_expansion", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert bound in err


def _thermal_run(L: int, N: int, statistics: str = "Boson") -> ResolvedRun:
    config = load_config(None)
    apply_set(config, f"space.L={L}")
    apply_set(config, f"space.N={N}")
    apply_set(config, f"representation.statistics={statistics}")
    return ResolvedRun("thermal", config)


def test_lift_work_prices_thermal_entries_and_kept_minors():
    points = 11  # sorted 10-walker points on two sites
    entries = points * points + points  # the table plus Z's diagonal
    # per entry: 32 N for gathering and using it, plus its 10-row expansion;
    # each k-row minor, k = 3..9, is a k-multiset of the two sites (k + 1 of
    # them) on either side, (k + 1)^2 in all, priced k (6 + k // 8) steps
    # and 200 + 16 k bytes
    minors = {k: (k + 1) ** 2 for k in range(3, 10)}
    work = entries * (32 * 10 + 10 * 7) + sum(m * k * (6 + k // 8) for k, m in minors.items())
    memory = sum(m * (200 + 16 * k) for k, m in minors.items())
    assert _thermal_run(2, 10)._lift_work() == (work, memory)
    # fermions: the same per-entry term plus N^3 / 3 for the LU's multiply-adds; no minors.
    # Only the C(6, 4) = 15 points with distinct coordinates are lifted.
    entries = 15 * 15 + 15
    assert _thermal_run(6, 4, "Fermion")._lift_work() == (entries * (32 * 4 + 4**3 // 3), 0)
    assert _thermal_run(2, 10, "Fermion")._lift_work() == (0, 0)  # no antisymmetric state
    # below 4 walkers both statistics are the written-out N^3 / 3 and keep nothing:
    # 4 points each, the boson 3-multisets of 2 sites and the fermion 3-sets of 4
    for L, statistics in ((2, "Boson"), (4, "Fermion")):
        assert _thermal_run(L, 3, statistics)._lift_work() == (20 * (32 * 3 + 9), 0)


@pytest.mark.parametrize(
    "argv, entries",
    [
        # 7 antisymmetric states, though the table prints all C(12, 6) = 924 sorted points
        (("thermal", "--set", "space.L=7", "--set", "space.N=6"), 7 * 7 + 7),
        (("evolve", "--set", "space.L=34", "--set", "space.N=5",
          "--set", "initial_state=[[[1,2,3,4,5],1,0],[[1,1,2,3,4],0,0]]"), math.comb(34, 5)),
    ],
    ids=["thermal-L7-N6", "evolve-L34-N5"],
)
def test_fermion_lifts_are_priced_at_distinct_coordinates_only(argv, entries):
    config = load_config(None)
    for assignment in (*argv[2::2], "representation.statistics=Fermion"):
        apply_set(config, assignment)
    n = config["space"]["N"]
    assert ResolvedRun(argv[0], config)._lift_work() == (entries * (32 * n + n**3 // 3), 0)


def test_lift_prices_the_minors_a_thermal_table_keeps(capsys, monkeypatch):
    plans = []
    init = orbitwalk.orbit.KernelPlan.__init__

    def kept(plan, *args, **kwargs):
        init(plan, *args, **kwargs)
        plans.append(plan)

    monkeypatch.setattr(orbitwalk.orbit.KernelPlan, "__init__", kept)
    # every 3-multiset of 4 sites is a row suffix and a column sub-multiset: 20^2 minors
    assert _thermal_run(4, 4)._lift_work()[1] == 20**2 * (200 + 16 * 3)
    code, _, _ = run_cli(capsys, "thermal", "--set", "space.L=4", "--set", "space.N=4")
    assert code == 0
    (plan,) = plans
    assert len(plan._minors) == 20**2
    assert {(len(rows), len(cols)) for rows, cols in plan._minors} == {(3, 3)}


@pytest.mark.parametrize(
    "L, N, minors",
    [(8, 4, {3: 120**2}), (6, 6, {3: 56**2, 4: 126**2, 5: 252**2})],
    ids=["L8-N4-14400-minors", "L6-N6-82516-minors"],
)
def test_boson_thermal_tables_with_shared_minors_run(L, N, minors):
    # every k-multiset of the L sites is a row suffix and a column sub-multiset
    work, memory = _thermal_run(L, N)._lift_work()  # no refusal
    assert work < MAX_LIFT_WORK
    assert memory == sum(m * (200 + 16 * k) for k, m in minors.items()) < MAX_LIFT_BYTES


@pytest.mark.parametrize(
    "argv",
    [
        # 64 walkers are priced (0.63 x MAX_LIFT_WORK); 65 are refused outright
        ("thermal", "--set", "space.L=2", "--set", "space.N=64"),
        # 0.93 x MAX_LIFT_BYTES; the L=12, N=8 evolve refused above keeps 1.05 x
        ("evolve", "--set", "space.L=9", "--set", "space.N=9",
         "--set", "initial_state=[[[1,2,3,4,5,6,7,8,9], 1, 0]]"),
    ],
)
def test_boson_runs_just_inside_the_lift_bounds_are_admitted(argv):
    config = load_config(None)
    for assignment in argv[2::2]:
        apply_set(config, assignment)
    work, memory = ResolvedRun(argv[0], config)._lift_work()
    assert work <= MAX_LIFT_WORK
    assert memory <= MAX_LIFT_BYTES


def test_fermion_run_just_past_the_lift_bound_exits_2_before_any_kernel(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran before the lift bound was checked")

    monkeypatch.setattr(orbitwalk.orbit.KernelPlan, "value", refuse)
    monkeypatch.setattr(orbitwalk.orbit, "lu_determinant", refuse)
    argv = (
        "evolve", "--set", "space.L=38", "--set", "space.N=5",
        "--set", "representation.statistics=Fermion", "--set", "initial_state=[[[1,2,3,4,5],1,0]]",
    )
    points = math.comb(38, 5)  # 5-walker points with distinct coordinates on 38 sites
    work = points * (32 * 5 + 5**3 // 3)
    assert MAX_LIFT_WORK < work < 1.01 * MAX_LIFT_WORK
    # the lift bound refuses it, not the row bound on all sorted points
    assert math.comb(38 + 5 - 1, 5) < MAX_TABLE_ROWS
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"fermion evolve at N=5 would do the work of {work:.3g} lift steps" in err


@pytest.mark.parametrize("statistics", ["Boson", "Fermion"])
def test_large_line_verify_is_refused_before_any_kernel(capsys, monkeypatch, statistics):
    # Composition glues through C(sites + 2, 3) middles of the window +- the
    # light cone: 3.7 million lifted entries, minutes of work for either statistics.
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran before the lift bound was checked")

    monkeypatch.setattr(orbitwalk.orbit.KernelPlan, "value", refuse)
    code, out, err = run_cli(
        capsys, "verify", "--set", "space.kind=Line", "--set", "space.N=3",
        "--set", f"representation.statistics={statistics}", "--window=0:3",
    )
    assert code == 2
    assert out == ""
    assert f"{statistics.lower()} verify at N=3" in err
    assert "lift steps" in err


@pytest.mark.parametrize(
    "space, window",
    [(("--set", "space.kind=HalfLine", "--set", "space.N=3"), "--window=1:60"),
     (("--set", "space.kind=Line", "--set", "space.N=2"), "--window=-1000000000:1000000000")],
    ids=["half-line-N3-1:60", "line-N2-2e9-sites"],
)
def test_wide_window_verify_is_priced_at_what_it_asks(capsys, space, window):
    # The probes sit on the window's first sites, so HalfLine 1:60 glues through
    # the same 35,990 middles as 1:30, though the window +- the light cone holds
    # 234,136, and no run enumerates more of the window than its probes use.
    code, out, err = run_cli(capsys, "verify", *space, window)
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["pass"] * 5


def test_thermal_with_more_fermions_than_sites_exits_2(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran before the Z = 0 case was refused")

    monkeypatch.setattr(orbitwalk.orbit.KernelPlan, "value", refuse)
    code, out, err = run_cli(
        capsys, "thermal", "--set", "space.L=2", "--set", "space.N=3",
        "--set", "representation.statistics=Fermion",
    )
    assert code == 2
    assert out == ""
    assert "no antisymmetric state" in err


def test_thermal_with_as_many_fermions_as_sites_matches_the_kron_oracle(capsys):
    code, out, err = run_cli(
        capsys, "thermal", "--set", "space.L=2", "--set", "space.N=2",
        "--set", "representation.statistics=Fermion", "--precision", "17",
    )
    assert code == 0, err
    h = orbitwalk.oracle.build_hamiltonian(
        orbitwalk.oracle.HamiltonianSpec(2, 1.0, orbitwalk.oracle.CircleTwisted(0.0))
    )
    z_want, heat_want = many_walker_gibbs(h, 2, "Fermion", 1.0)
    _, rows = parse_csv(out)
    assert rows[-1][0] == "Z"
    assert abs(float(rows[-1][4]) / z_want - 1.0) <= 1e-11
    for row in rows[:-1]:
        x, y = (int(row[0]), int(row[1])), (int(row[2]), int(row[3]))
        rho = complex(float(row[4]), float(row[5]))
        assert abs(rho - heat_want(x, y) / z_want) <= 1e-10


def test_fermion_entries_at_coincident_points_are_exact_zeros(capsys):
    code, out, err = run_cli(
        capsys, "thermal", "--set", "space.L=2", "--set", "space.N=2",
        "--set", "representation.statistics=Fermion",
    )
    assert code == 0, err
    zero = "0.000000000000e+00"
    _, rows = parse_csv(out)
    coincident = [row for row in rows[:-1] if row[0] == row[1] or row[2] == row[3]]
    assert len(coincident) == 8
    assert all(row[4:] == [zero, zero] for row in coincident)
    assert "1,1,2,2,0.000000000000e+00,0.000000000000e+00" in out.splitlines()


# -- import graph -------------------------------------------------------------

_SRC = Path(__file__).resolve().parents[1] / "src"
_LAZY_MODULES = ("numpy", "orbitwalk.oracle", "orbitwalk.verify")
_PAIR = ("--set", "space.N=2", "--set", "initial_state=[[[1,2],1,0]]")


def _modules_after_main(*argv):
    """Exit code, stdout and the lazily imported modules loaded by one fresh run."""
    script = (
        "import contextlib, io, json, sys\n"
        "from orbitwalk.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(sys.argv[1:])\n"
        f"print(json.dumps([code, [m for m in {_LAZY_MODULES!r} if m in sys.modules]]))\n"
        "print(out.getvalue(), end='')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    status, _, table = proc.stdout.partition("\n")
    code, loaded = json.loads(status)
    return code, table, set(loaded)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("evolve",), set()),
        (("thermal",), set()),
        (("resolvent",), set()),
        (("evolve", *_PAIR), set()),
        (("evolve", *_PAIR, "--set", "representation.statistics=Fermion"), set()),
        (("thermal", "--set", "space.N=2", "--set", "representation.statistics=Fermion"), set()),
        (("thermal", "--set", "space.N=3", "--set", "representation.statistics=Fermion"), set()),
        (("dos",), set()),
        (("coined",), {"numpy", "orbitwalk.oracle"}),
        (("verify",), {"numpy", "orbitwalk.oracle", "orbitwalk.verify"}),
    ],
)
def test_commands_load_numpy_oracle_and_verify_only_when_used(argv, expected):
    code, table, loaded = _modules_after_main(*argv)
    assert code == 0
    assert table.startswith(f"# orbitwalk {argv[0]}\n")
    assert parse_csv(table)[1]
    assert loaded == expected


# -- emission ------------------------------------------------------------------


@pytest.mark.parametrize("precision", [1, 12, 17])
def test_formatter_prints_every_value_as_fmt_does(precision):
    subnormal = 5e-324
    values = [
        0.0, -0.0, 0.0, np.float64(-0.0), -0.0, 0.0, 0, np.float64(0.0),
        math.nan, float("nan"), math.nan, -math.nan,
        math.inf, -math.inf, math.inf, -math.inf,
        subnormal, -subnormal, subnormal, 2.5e-310, -2.5e-310,
        0.1, 0.1, np.float64(0.1), -0.1, 1 / 3, 1 / 3, 1e300, -1e-300, 7, 7.0,
    ]
    fmt = _formatter(precision)
    for value in values:
        assert fmt(value) == _fmt(value, precision) == format(value, f".{precision}e"), value


def test_consecutive_runs_share_no_parser_state(capsys):
    fresh = subprocess.run(
        [sys.executable, "-m", "orbitwalk.cli", "evolve"], capture_output=True, text=True
    )
    assert fresh.returncode == 0
    code, _, _ = run_cli(
        capsys, "evolve", "--set", "space.L=6", "--set", "params.tau=2",
        "--set", "representation.theta=0.4", "--max-shell", "9",
        "--precision", "5", "--format", "json",
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "evolve")
    assert code == 0
    assert out == fresh.stdout
    assert orbitwalk.cli._parser() is orbitwalk.cli._parser()


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_output_path_is_echoed_as_null_and_stays_in_the_run_config(
    tmp_path, capsys, monkeypatch, output_format
):
    path = tmp_path / f"out.{output_format}"
    runs = []
    emit = orbitwalk.cli.emit

    def recorded(run, columns, rows, meta, out):
        runs.append(run)
        emit(run, columns, rows, meta, out)

    monkeypatch.setattr(orbitwalk.cli, "emit", recorded)
    code, out, _ = run_cli(capsys, "thermal", "--format", output_format, "--output", str(path))
    assert (code, out) == (0, "")
    text = path.read_text()
    if output_format == "csv":
        header = next(ln for ln in text.splitlines() if ln.startswith("# config "))
        echoed = json.loads(header.removeprefix("# config "))
    else:
        echoed = json.loads(text)["meta"]["config"]
    assert echoed["output"] == {"format": output_format, "path": None, "precision": 12}
    [run] = runs
    assert run.config["output"]["path"] == str(path)


# -- output handling -----------------------------------------------------------


def test_output_files_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "evolve", "--set", "space.L=6", "--set", "params.tau=2",
            "--output", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_output_mirrors_columns_and_meta(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--set", "space.L=4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "evolve"
    assert payload["meta"]["config"]["space"]["L"] == 4
    assert payload["meta"]["config"]["output"]["path"] is None
    assert set(payload["meta"]) == {"config", "total_probability"}
    columns = payload["columns"]
    lengths = {len(v) for v in columns.values()}
    assert len(lengths) == 1
    assert set(columns) == {"site", "re_amplitude", "im_amplitude", "probability"}


def test_json_cells_parse_once_per_distinct_text(monkeypatch):
    calls = []
    loads = json.loads

    def counted(text, *args, **kwargs):
        calls.append(text)
        return loads(text, *args, **kwargs)

    run = ResolvedRun("evolve", load_config(None))
    run.output_format = "json"
    rows = iter([("1.5e+00", ""), ("nan", "total"), ("1.5e+00", "-inf"), ("nan", "")])
    out = io.StringIO()
    monkeypatch.setattr(json, "loads", counted)
    emit(run, ["a", "b"], rows, {}, out)
    columns = loads(out.getvalue())["columns"]
    assert sorted(calls) == sorted(["1.5e+00", "nan", "total", "-inf"])
    assert columns == {"a": [1.5, "nan", 1.5, "nan"], "b": [None, "total", "-inf", None]}


def test_csv_rows_reach_the_output_before_the_last_entry_is_computed(monkeypatch):
    # 4,900 rows: the first batch is written while the rest are still computed.
    positions = []
    value = orbitwalk.orbit.KernelPlan.value

    def spied(plan, x, y):
        positions.append(out.tell())
        return value(plan, x, y)

    monkeypatch.setattr(orbitwalk.orbit.KernelPlan, "value", spied)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["thermal", "--set", "space.L=70"])
    assert code == 0
    assert positions[0] == 0  # Z, before the header
    header = 4  # command, config, partition_function, columns
    assert out.getvalue()[:positions[-1]].count("\n") == header + orbitwalk.cli._BATCH_ROWS
    assert out.getvalue().count("\n") == header + 70 * 70 + 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["thermal", "--set", "space.kind=Line"], 2),
        (["thermal", "--set", "space.L=1", "--set", f"representation.theta={PI}",
          "--set", "params.beta=40"], 3),
    ],
    ids=["config", "precision"],
)
def test_a_refused_run_creates_no_output_file(tmp_path, capsys, argv, expected):
    path = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, *argv, "--output", str(path))
    assert (code, out) == (expected, "")
    assert not path.exists()


def test_flag_overrides_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"output": {"precision": 6}, "space": {"L": 5}}))
    code, out, _ = run_cli(
        capsys, "evolve", "--config", str(path), "--precision", "3",
        "--set", "params.tau=0",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][3] == "1.000e+00"  # three digits, not six


def test_flags_override_set_whatever_their_order(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--precision", "3", "--set", "output.precision=6",
        "--set", "params.tau=0",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][3] == "1.000e+00"


@pytest.mark.parametrize(
    "assignment, user, message",
    [
        ("dos=5", {"dos": 5}, "config key 'dos' must be an object"),
        ("coined=5", {"coined": 5}, "config key 'coined' must be an object"),
        ("output=5", {"output": 5}, "config key 'output' must be an object"),
        ("params=[1]", {"params": [1]}, "config key 'params' must be an object"),
        ("space.size=3", {"space": {"size": 3}}, "unknown config key 'space.size'"),
        ("no.such.key=1", {"no": {"such": {"key": 1}}}, "unknown config key 'no'"),
    ],
)
def test_set_and_a_config_file_refuse_alike(tmp_path, capsys, assignment, user, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(user))
    for argv in (("--set", assignment), ("--config", str(path))):
        code, out, err = run_cli(capsys, "evolve", *argv)
        assert (code, out, err) == (2, "", f"config error: {message}\n")


def test_set_replaces_every_value_below_a_section_whole():
    cfg = load_config(None)
    apply_set(cfg, 'coined.coin={"matrix":[[[1,0]]],"shifts":[1]}')
    apply_set(cfg, "coined.coin.shifts=[2]")
    apply_set(cfg, "params.energy=[0.1,0.7]")
    apply_set(cfg, "space.L.x=1")
    assert cfg["coined"] == {"steps": 4, "coin": {"shifts": [2]}, "source": 1}
    assert cfg["params"]["energy"] == [0.1, 0.7]
    assert cfg["space"]["L"] == {"x": 1}
    with pytest.raises(ConfigError, match="space.L must be an integer"):
        ResolvedRun("evolve", cfg)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_output_that_cannot_be_opened_exits_2_and_creates_nothing(tmp_path, capsys, where):
    path = tmp_path / "missing" / "out.csv" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, "evolve", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("config error: cannot write output: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path", ["", "[1]", "{}", "2.5"])
def test_output_path_must_be_null_or_a_non_empty_string(tmp_path, capsys, monkeypatch, path):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "evolve", "--set", f"output.path={path}")
    assert (code, out) == (2, "")
    assert "output path must be null or a non-empty string" in err
    assert list(tmp_path.iterdir()) == []


def test_an_integer_output_path_leaves_open_descriptors_alone(tmp_path, capsys):
    with open(tmp_path / "held.txt", "w", encoding="utf-8") as held:
        fd = held.fileno()
        assert fd > 2  # never the process's own stdin, stdout or stderr
        code, out, err = run_cli(capsys, "evolve", "--set", f"output.path={fd}")
        assert (code, out) == (2, "")
        assert "output path must be null or a non-empty string" in err
        os.fstat(fd)
        held.write("still open")
    assert (tmp_path / "held.txt").read_text(encoding="utf-8") == "still open"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("old_truncation", [False, True], ids=["echo", "echo-with-truncation"])
def test_config_echo_reproduces_its_table(tmp_path, capsys, command, old_truncation):
    code, out, err = run_cli(capsys, command)
    assert code == 0, err
    header = next(ln for ln in out.splitlines() if ln.startswith("# config "))
    echoed = json.loads(header.removeprefix("# config "))
    if old_truncation:  # the section earlier versions echoed
        echoed["truncation"] = {"consecutive_quiet_shells": 2, "max_shell": 64, "tol": 1e-14}
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echoed))
    code, again, err = run_cli(capsys, command, "--config", str(path))
    assert code == 0, err
    assert again == out


@pytest.mark.parametrize("command", ["resolvent", "dos"])
def test_max_shell_changes_no_output(capsys, command):
    code, out, err = run_cli(capsys, command)
    assert code == 0, err
    assert run_cli(capsys, command, "--max-shell", "600") == (0, out, "")


def test_truncation_keys_are_unknown_to_set(capsys):
    code, out, err = run_cli(capsys, "evolve", "--set", "truncation.max_shell=64")
    assert code == 2
    assert out == ""
    assert "unknown config key" in err


def test_csv_header_echoes_resolved_defaults(capsys):
    _, out, _ = run_cli(capsys, "evolve", "--set", "params.tau=0")
    header_line = next(ln for ln in out.splitlines() if ln.startswith("# config"))
    echoed = json.loads(header_line.removeprefix("# config "))
    assert "truncation" not in echoed
    assert echoed["output"]["format"] == "csv"
    assert echoed["space"]["boundary_convention"] == "Standard"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orbitwalk.cli", "thermal", "--set", "space.L=3",
         "--set", "params.beta=0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Z" in proc.stdout
