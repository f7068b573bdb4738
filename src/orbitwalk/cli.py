"""Command-line surface: JSON-configured runs emitting CSV or JSON tables.

Every run starts from the same default config and merges over it, by one
rule (`_merge`), the user's JSON file, each `--set key=value` as a one-key
file, then `--window` and the output flags.  The fully resolved config is
echoed in the output header so any emitted table can be reproduced from its
own file.  Exit codes: 0 success, 1 standard output closed by its reader
before the table ended, 2 config error (an output file that cannot be
opened too), 3 precision loss (a `thermal` Z that is not positive and
finite, or a resolvent energy on an eigenvalue to double precision), 4
verification failure.  Time and heat sums are exact and the
resolvent is closed-form, so no setting truncates a sum: `--max-shell` is
accepted and read by no command, and a config file's `truncation` section,
echoed by older versions, is dropped on load.

A run imports only what its command uses: numpy and the dense `oracle`
for `coined` and `verify`, and the `verify` suite for `verify`; N-walker
lifts of both statistics are pure Python.  Lazy imports bind the module and
look its functions up at call time, so patched or traced functions are seen.

Rows go to the output as they are made, JSON as it is encoded.  Every
refusal comes before the first row, made once: `ResolvedRun` parses,
counts rows and lifted entries and prices them (`orbit.lift_price` a lift,
`kernels.coined_price` a coined walk) against one pair of bounds, and the
library refuses what it computes, in that count or as a handler builds its
plan, Z, amplitudes, arrays or checks, before any entry.  Rows only ask the
plan for entries and format each distinct value once (`_formatter`).  So a
run that exits 2 or 3 writes nothing.  The command line is read in one pass
against the option table `OPTIONS` (`parse_args`), which also prints the
help and words the usage errors as `argparse` did, without importing it.
The config echo copies only what it changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import sys
import warnings
from types import SimpleNamespace

from .errors import ConfigError, DomainError, PrecisionError, RepresentationError
from .group import OrbitSpaceSpec, Representation, domain_size, fundamental_domain
from .kernels import CoinSpec, KernelParams, coined_price, hadamard_coin
from .orbit import KernelPlan, check_partition_space, lift_price, orbit_coined_blocks

COMMANDS = ("evolve", "resolvent", "thermal", "dos", "coined", "verify")

# Largest table a run may emit; larger requests are refused before any compute.
MAX_TABLE_ROWS = 10**6

# The most work, in lift steps (about 0.3 us each: 10^8 is half a minute), and memory, in
# bytes, that `orbit.lift_price` or `kernels.coined_price` may charge a run; see `ResolvedRun`.
MAX_LIFT_WORK = 10**8
MAX_LIFT_BYTES = 2**28

# CSV rows or JSON chunks per `write` call; a call per row writes 10^6 rows about a third slower.
_BATCH_ROWS = 4096

DEFAULT_CONFIG = {
    "space": {"kind": "Circle", "L": 4, "N": 1, "boundary_convention": "Standard"},
    "representation": {"theta": 0.0, "phi": 0.0, "statistics": "Boson"},
    "params": {"omega": 1.0, "tau": 1.0, "beta": 1.0, "energy": [0.4, 0.3]},
    "initial_state": [[1, 1.0, 0.0]],
    "window": None,
    "dos": {"eta": 0.05, "e_min": None, "e_max": None, "points": 201},
    "coined": {"steps": 4, "coin": "hadamard", "source": 1},
    "output": {"format": "csv", "path": None, "precision": 12},
}


def _merge(config: dict, user: dict) -> dict:
    """`config` with the parsed JSON `user` written over it in place.  A key where
    `DEFAULT_CONFIG` holds an object is a section, taking an object of keys it
    has; any other value, a list or an object too, replaces the old one whole."""
    for key, value in user.items():
        if key not in config:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(DEFAULT_CONFIG[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key!r} must be an object")
            for name in value:
                if name not in config[key]:
                    raise ConfigError(f"unknown config key '{key}.{name}'")
            value = {**config[key], **value}
        config[key] = value
    return config


def load_config(path: str | None) -> dict:
    # the defaults with what a run may change copied: the sections and list leaves
    config = {key: dict(value) if isinstance(value, dict) else value
              for key, value in DEFAULT_CONFIG.items()}
    config["params"]["energy"] = list(config["params"]["energy"])
    config["initial_state"] = [list(entry) for entry in config["initial_state"]]
    if path is None:
        return config
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    user.pop("command", None)  # the subcommand on the command line wins
    user.pop("truncation", None)  # echoed by older versions; no sum is truncated
    return _merge(config, user)


def apply_set(config: dict, assignment: str) -> None:
    """Merge `--set key=value` as the one-key config file {"a": {"b": value}} of
    key `a.b`.  The value is parsed as JSON, or else kept as its raw text."""
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(key.split(".")):
        value = {part: value}
    _merge(config, value)


def apply_flags(config: dict, args: SimpleNamespace) -> None:
    for assignment in args.set or []:
        apply_set(config, assignment)
    flags = {"path": args.output, "format": args.format, "precision": args.precision}
    user = {"output": {key: value for key, value in flags.items() if value is not None}}
    if args.window is not None:
        lo, sep, hi = args.window.partition(":")
        if not sep:
            raise ConfigError("--window needs the form lo:hi")
        try:
            user["window"] = [int(lo), int(hi)]
        except ValueError as exc:
            raise ConfigError(f"--window bounds must be integers: {args.window!r}") from exc
    _merge(config, user)


class ResolvedRun:
    """Typed view of a fully merged config; `coined` adds `steps` and `source`, `dos` `dos_points`."""

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        try:
            self.space = OrbitSpaceSpec(**_with_numbers(config["space"], "space", ("L", "N")))
            self.representation = Representation(
                **_with_numbers(config["representation"], "representation", reals=("theta", "phi"))
            )
            raw = config["params"]
            energy = raw["energy"]
            if not (isinstance(energy, (list, tuple)) and len(energy) == 2):
                raise ConfigError("params.energy must be [re, im]")
            self.params = KernelParams(
                omega=_real(raw["omega"], "params.omega"),
                tau=_real(raw["tau"], "params.tau"),
                beta=_real(raw["beta"], "params.beta"),
                energy=complex(*(_real(part, "params.energy") for part in energy)),
            )
        except (DomainError, RepresentationError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        self.window = self._resolve_window(config["window"])
        self.output_format = config["output"]["format"]
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, got {self.output_format!r}")
        self.precision = config["output"]["precision"]
        # type(), not isinstance(): a bool is an int to isinstance and breaks the format spec
        if type(self.precision) is not int or not 1 <= self.precision <= 17:
            raise ConfigError("output precision must be an integer in 1..17")
        self.path = config["output"]["path"]
        if self.path is not None and not (isinstance(self.path, str) and self.path):
            raise ConfigError(f"output path must be null or a non-empty string, got {self.path!r}")
        # read by `evolve` alone, so no other command refuses a state it ignores
        self.initial_state = self._resolve_state(config["initial_state"]) if command == "evolve" else {}
        self._validate_for_command()

    def _resolve_window(self, raw):
        if raw is None:
            return None
        if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
            raise ConfigError("window must be [lo, hi]")
        lo, hi = (_integer(bound, "window bound") for bound in raw)
        if lo > hi:
            raise ConfigError(f"window {raw} is empty")
        return lo, hi

    def _resolve_state(self, raw) -> dict:
        if not isinstance(raw, list) or not raw:
            raise ConfigError("initial_state must be a non-empty list of [point, re, im]")
        state = {}
        for entry in raw:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ConfigError(f"initial_state entry {entry!r} is not [point, re, im]")
            point, re_part, im_part = entry
            if isinstance(point, list):
                point = tuple(_integer(c, "initial_state coordinate") for c in point)
            else:
                point = (_integer(point, "initial_state coordinate"),)
            if point in state:
                raise ConfigError(f"initial_state lists point {point} twice")
            try:
                state[point] = complex(*(_real(part, "amplitude") for part in (re_part, im_part)))
            except ConfigError as exc:
                raise ConfigError(f"initial_state entry {entry!r} has a bad amplitude") from exc
        return state

    def _validate_for_command(self):
        if self.command == "dos":
            self.dos_points = _integer(self.config["dos"]["points"], "dos.points")
        rows, families, window = self._work()
        if rows > MAX_TABLE_ROWS:
            raise ConfigError(f"{self.command} would emit {rows} table rows, more than {MAX_TABLE_ROWS}")
        if self.command == "coined":
            self.steps, self.source = self._coined_walk()
            work, memory = coined_price(self.steps, self.coin)
            what, kept = f"a coined walk of {self.steps} steps", "line blocks"
        else:
            work, memory = lift_price(self.space, self.representation, families, window)
            what, kept = f"{self.representation.statistics.lower()} {self.command} at N={self.space.N}", "minors"
        if work > MAX_LIFT_WORK:
            raise ConfigError(f"{what} would do the work of {work} lift steps, more than {MAX_LIFT_WORK}")
        if memory > MAX_LIFT_BYTES:
            raise ConfigError(f"{what} would keep {memory} bytes of {kept}, more than {MAX_LIFT_BYTES}")

    def _coined_walk(self) -> tuple:
        """(steps, source) of a `coined` run; `kernels.coined_price` prices the walk."""
        steps = _integer(self.config["coined"]["steps"], "coined.steps")
        source = _integer(self.config["coined"]["source"], "coined.source")
        if not 1 <= source <= self.space.L:
            raise ConfigError(f"coined.source must lie in 1..{self.space.L}")
        return steps, source

    def _work(self) -> tuple:
        """(table rows, lifted-entry families, their window) for `orbit.lift_price`, counted
        without building the domain.  `evolve` lifts each point against each source of
        nonzero amplitude (`plan.evolve` skips the rest), `thermal` against each point (the
        table and Z's diagonal), and for fermions only points with distinct coordinates count:
        any other entry is 0j before any lift.  `verify` asks `verify.lifted_entries`."""
        space, window, command = self.space, self.window, self.command
        if command == "coined":
            return (space.L * self.coin.d) ** 2, [], window
        if command == "verify":
            from . import verify  # loaded by every verify run anyway
            return (0, *verify.lifted_entries(space, self.representation, self.params, window))
        if command == "thermal":
            check_partition_space(space)  # before the count, which asks an infinite space for a window
        points = domain_size(space, window)
        if command in ("resolvent", "dos"):
            return points * (self.dos_points if command == "dos" else points), [], window
        fermion = self.representation.statistics == "Fermion"
        lifted = domain_size(space, window, fermion)
        if command == "evolve":
            sources = [pt for pt, a in self.initial_state.items() if a]
            return points, [(lifted, len(sources), lifted * len(sources))], window
        return points * points, [(lifted, lifted, lifted * lifted + lifted)], window

    @functools.cached_property
    def coin(self) -> CoinSpec:
        """The configured coin, built and checked for unitarity once per run."""
        raw = self.config["coined"]["coin"]
        if raw == "hadamard":
            return hadamard_coin()
        if isinstance(raw, dict):
            import numpy as np

            try:
                matrix = np.array(
                    [[complex(c[0], c[1]) for c in row] for row in raw["matrix"]]
                )
                shifts = tuple(_integer(s, "coin shift") for s in raw["shifts"])
                return CoinSpec(matrix.shape[0], matrix, shifts)
            except (KeyError, TypeError, ValueError, DomainError) as exc:
                raise ConfigError(f"bad custom coin: {exc}") from exc
        raise ConfigError(f"unknown coin {raw!r}")


def _integer(value, name: str) -> int:
    """`value` as an int, refusing what int() would truncate or misread.

    An integral float such as 4.0 is accepted; 2.7, true and null are not.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be an integer: {exc}") from exc


def _real(value, name: str) -> float:
    """`value` as a float, refusing a bool, which float() would read as 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number: {exc}") from exc


def _with_numbers(section, name: str, integers: tuple = (), reals: tuple = ()) -> dict:
    """A copy of the config object `section` whose `integers` hold ints (see
    `_integer`) and whose `reals` hold floats (see `_real`)."""
    out = {}
    for key, value in section.items():
        if key in integers:
            value = _integer(value, f"{name}.{key}")
        elif key in reals:
            value = _real(value, f"{name}.{key}")
        out[key] = value
    return out


def _fmt(value: float, precision: int) -> str:
    return f"%.{precision}e" % value


def _formatter(precision: int):
    """`_fmt` at `precision` for one table, formatting each distinct value once.

    The pattern is built once per table; `%` and a format spec share one
    float-to-string routine, so the texts are those of f"{value:.{precision}e}".
    A kernel on a translation-invariant space repeats a few values across
    its table.  Zeros stay out of the dict, where 0.0 and -0.0 would share a
    key though they print differently: each sign's text is made up front.
    NaN never equals itself, so it misses the dict, which is harmless.
    """
    pattern = f"%.{precision}e"
    texts: dict = {}
    zero, negative_zero = pattern % 0.0, pattern % -0.0

    def fmt(value: float) -> str:
        if not value:
            return negative_zero if math.copysign(1.0, value) < 0.0 else zero
        text = texts.get(value)
        if text is None:
            text = texts[value] = pattern % value
        return text

    return fmt


def _site_columns(prefix: str, n: int) -> list[str]:
    return [prefix] if n == 1 else [f"{prefix}_{i + 1}" for i in range(n)]


def _echoed_config(config: dict) -> dict:
    """The config as echoed into output: the destination path is not content.

    Only the top level and the `output` section are copied; the echo is
    serialized, never changed, so the sections it shares with `config` stay
    as they are.
    """
    return {**config, "output": {**config["output"], "path": None}}


def emit(run: ResolvedRun, columns: list, rows, meta: dict, out) -> None:
    """Write a table to `out`: CSV in batches as `rows` yields its tuples of cell
    texts, JSON (column-major) in batches as it is encoded once every column is filled."""
    if run.output_format == "csv":
        config = json.dumps(_echoed_config(run.config), sort_keys=True, separators=(",", ":"))
        head = [f"# orbitwalk {run.command}", f"# config {config}"]
        head += [f"# {key} {json.dumps(meta[key], sort_keys=True)}" for key in sorted(meta)]
        head.append(",".join(columns))
        out.write("\n".join(head) + "\n")
        lines = map(",".join, rows)
        while batch := list(itertools.islice(lines, _BATCH_ROWS)):
            out.write("\n".join(batch) + "\n")
        return

    @functools.cache  # json.loads per distinct cell text; a non-JSON text stays a string
    def value(cell: str):
        try:
            return json.loads(cell) if cell else None
        except json.JSONDecodeError:
            return cell

    values = {name: [] for name in columns}
    appends = [values[name].append for name in columns]
    for row in rows:
        for append, cell in zip(appends, row):
            append(value(cell))
    payload = {"command": run.command, "meta": {"config": _echoed_config(run.config), **meta},
               "columns": values}
    # with an indent, json.dumps and iterencode are one pure-Python encoder: the same text
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    while batch := list(itertools.islice(chunks, _BATCH_ROWS)):
        out.write("".join(batch))
    out.write("\n")


# -- command handlers: each returns (columns, rows, meta, exit code) --------


def run_evolve(run: ResolvedRun) -> tuple:
    columns = _site_columns("site", run.space.N) + ["re_amplitude", "im_amplitude", "probability"]
    plan = KernelPlan(run.space, run.representation, run.params)
    amplitudes = plan.evolve(run.initial_state, run.window)
    fmt = _formatter(run.precision)
    total = functools.reduce(float.__add__, (abs(amp) ** 2 for amp in amplitudes.values()), 0.0)
    rows = itertools.chain(
        ((*map(str, target), fmt(amp.real), fmt(amp.imag), fmt(abs(amp) ** 2))
         for target, amp in amplitudes.items()),
        [("total", *[""] * (run.space.N + 1), fmt(total))],
    )
    return columns, rows, {"total_probability": total}, 0


def _pair_rows(points: list, entry, fmt):
    """One row per pair (x, y) of `points`: their sites, then Re and Im of entry(x, y)."""
    labels = [tuple(map(str, pt)) for pt in points]
    for x, x_sites in zip(points, labels):
        for y, y_sites in zip(points, labels):
            value = entry(x, y)
            yield x_sites + y_sites + (fmt(value.real), fmt(value.imag))


def run_resolvent(run: ResolvedRun) -> tuple:
    columns = _site_columns("x", run.space.N) + _site_columns("y", run.space.N) + ["re", "im"]
    plan = KernelPlan(run.space, run.representation, run.params, mode="resolvent")
    points = fundamental_domain(run.space, run.window)
    return columns, _pair_rows(points, plan.value, _formatter(run.precision)), {}, 0


def run_thermal(run: ResolvedRun) -> tuple:
    plan = KernelPlan(run.space, run.representation, run.params, mode="heat")
    z = plan.partition_function()
    n, fmt = run.space.N, _formatter(run.precision)
    rows = itertools.chain(
        _pair_rows(fundamental_domain(run.space, run.window), lambda x, y: plan.value(x, y) / z, fmt),
        [("Z", *[""] * (2 * n - 1), fmt(z), "")],
    )
    columns = _site_columns("x", n) + _site_columns("y", n) + ["re_density", "im_density"]
    return columns, rows, {"partition_function": z}, 0


def _trapezoid(xs: list, ys) -> float:
    """Trapezoid rule, accumulated step by step from the left.

    An explicit loop rather than `sum`, whose float rounding differs between
    Python versions, so a table's digits depend on its config alone.
    """
    area = 0.0
    for k in range(len(xs) - 1):
        area += (xs[k + 1] - xs[k]) * (ys[k + 1] + ys[k])
    return 0.5 * area


def run_dos(run: ResolvedRun) -> tuple:
    section = run.config["dos"]
    eta = _real(section["eta"], "dos.eta")
    if not 1e-6 <= eta <= 1.0:
        raise ConfigError(f"dos.eta must lie in [1e-6, 1], got {eta}")
    # Default sweep: band [-omega, omega] plus 60*eta of margin so the
    # Lorentzian tails carry < 1% of the weight per edge state.
    reach = run.params.omega + 60.0 * eta
    e_min = -reach if section["e_min"] is None else _real(section["e_min"], "dos.e_min")
    e_max = reach if section["e_max"] is None else _real(section["e_max"], "dos.e_max")
    points = run.dos_points
    if points < 2 or e_max <= e_min:
        raise ConfigError("dos sweep needs points >= 2 and e_max > e_min")
    sites = fundamental_domain(run.space, run.window)
    energies = [e_min + (e_max - e_min) * k / (points - 1) for k in range(points)]
    plan = KernelPlan(
        run.space, run.representation, run.params,
        mode="resolvent", energies=[complex(e_real, eta) for e_real in energies],
    )
    dos = plan.dos(sites)
    fmt = _formatter(run.precision)
    # Sites that share a column (every site of a circle) share its texts and integral.
    shared = {id(column): column for column in dos}
    texts = {key: list(map(fmt, column)) for key, column in shared.items()}
    areas = {key: _trapezoid(energies, column) for key, column in shared.items()}
    cells = zip(*(texts[id(column)] for column in dos)) if dos else [()] * points
    integrals = [areas[id(column)] for column in dos]
    rows = itertools.chain(
        ((fmt(e_real), *row) for e_real, row in zip(energies, cells)),
        [("total", *map(fmt, integrals))],
    )
    columns = ["energy"] + ["dos_" + "_".join(map(str, pt)) for pt in sites]
    return columns, rows, {"integrals": [float(_fmt(v, 10)) for v in integrals]}, 0


def run_coined(run: ResolvedRun) -> tuple:
    import numpy as np

    from . import oracle

    steps, source, coin, L = run.steps, run.source, run.coin, run.space.L
    # on the circle a block depends on x - y alone: circ[x - y + L - 1]; built first, so
    # the route refuses a walk before the dense oracle builds its matrix power
    circ = orbit_coined_blocks(run.space, run.representation, steps, coin, 1 - L, L - 1)
    power = oracle.coined_circle_power(L, run.representation.theta, coin, abs(steps))
    if steps < 0:
        power = power.conj().T
    d, cells = coin.d, coin.d**2  # cells per block
    fmt = _formatter(run.precision)
    label = [str(k) for k in range(max(L, d) + 1)]
    # each block's cells in (i, j) order, the blocks in descending displacement: row x
    # reads y = 1..L, displacements x - 1 down to x - L, as one slice
    falling = circ[::-1].reshape(-1)
    re, im = (list(map(fmt, part.tolist())) for part in (falling.real, falling.imag))
    pairs = circ[np.subtract.outer(range(L), range(L)) + L - 1]  # [x - 1, y - 1, i, j]
    diff = pairs - power.reshape(L, d, L, d).transpose(0, 2, 1, 3)
    # np.hypot is abs() of each Python complex to the bit (both are the C
    # library's hypot); np.abs of a complex array is not
    dev = np.hypot(diff.real, diff.imag)
    # the distribution's last bits are those of numpy's complex abs
    dist = np.sum(np.abs(circ[L - source:2 * L - source, :, 0]) ** 2, axis=1).tolist()
    total = functools.reduce(float.__add__, dist, 0.0)
    chain, repeat, sites = itertools.chain.from_iterable, itertools.repeat, range(1, L + 1)
    block_rows = zip(
        chain(repeat(label[x], L * cells) for x in sites),
        [label[y] for y in sites for _ in range(cells)] * L,
        [label[i] for i in range(d) for _ in range(d)] * (L * L),
        label[:d] * (L * L * d),
        chain(re[(L - x) * cells:(2 * L - x) * cells] for x in sites),
        chain(im[(L - x) * cells:(2 * L - x) * cells] for x in sites),
        map(fmt, dev.ravel().tolist()),
        repeat("", L * L * cells),
    )
    rows = itertools.chain(
        block_rows,
        ((label[x], "", "", "", "", "", "", fmt(prob)) for x, prob in enumerate(dist, 1)),
        [("total", "", "", "", "", "", "", fmt(total))],
    )
    columns = ["x", "y", "i", "j", "re", "im", "deviation", "probability"]
    return columns, rows, {"deviations": {"max_vs_matrix_power": float(_fmt(dev.max(), 10))}}, 0


def run_verify(run: ResolvedRun) -> tuple:
    from . import verify

    results = verify.run_checks(run.space, run.representation, run.params, window=run.window)
    rows = [(r.name, "pass" if r.passed else "fail", _fmt(r.deviation, run.precision),
             _fmt(r.tolerance, 2), r.detail) for r in results]
    deviations = {r.name: float(_fmt(r.deviation, 10)) for r in results}
    ok = verify.all_passed(results)
    columns = ["check", "passed", "deviation", "tolerance", "detail"]
    return columns, rows, {"deviations": deviations, "all_passed": ok}, 0 if ok else 4


HANDLERS = {
    "evolve": run_evolve,
    "resolvent": run_resolvent,
    "thermal": run_thermal,
    "dos": run_dos,
    "coined": run_coined,
    "verify": run_verify,
}


_USAGE = "usage: orbitwalk COMMAND [options]"

_DESCRIPTION = """\
Lattice walk kernels on quotient spaces: evolve states, compute resolvents,
thermal states, densities of states, coined steps, and run the self-check
suite."""


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _choice(*choices: str):
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
        return text

    return convert


# The options, in --help order: (name, metavar, help, converter).  Each takes one
# value; a converter returns it or raises ValueError worded for the usage error.
OPTIONS = (
    ("--config", "CONFIG", "JSON config file", str),
    ("--set", "KEY=VALUE", "override one config field (dotted path, JSON value)", str),
    ("--max-shell", "MAX_SHELL", "accepted, unused", _int),
    ("--window", "LO:HI", "site window for infinite spaces", str),
    ("--output", "OUTPUT", "write to this path instead of stdout", str),
    ("--format", "{csv,json}", "", _choice("csv", "json")),
    ("--precision", "PRECISION", "significant digits", _int),
)
_LONG = ("--help", *(option[0] for option in OPTIONS))
_CONVERTERS = {option[0]: option[3] for option in OPTIONS}
_COMMAND = _choice(*COMMANDS)
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}\norbitwalk: error: {message}\n")
    raise SystemExit(2)


def _help_row(invocation: str, text: str) -> str:
    """One help entry as argparse lays it out at 80 columns: the text from column 24."""
    if len(invocation) > 20:
        return f"  {invocation}\n{'':24}{text}"
    return f"  {invocation:<20}  {text}".rstrip()


def _help(arg: str, value) -> None:
    """Print the help and exit 0, or refuse the value given to `arg`: -h takes none,
    but runs on as -hh... (a usage error names what is left)."""
    if value is not None:
        rest = value.lstrip("h") if arg[1] != "-" else value
        if rest or not value:
            _usage_error(f"argument -h/--help: ignored explicit argument {rest!r}")
    rows = [_help_row("-h, --help", "show this help message and exit")]
    rows += [_help_row(f"{name} {metavar}", text) for name, metavar, text, _ in OPTIONS]
    sys.stdout.write(
        f"{_USAGE}\n\n{_DESCRIPTION}\n\npositional arguments:\n"
        f"{_help_row('COMMAND', 'one of ' + ', '.join(COMMANDS))}\n\noptions:\n"
        + "\n".join(rows) + "\n"
    )
    raise SystemExit(0)


def _option(arg: str):
    """None where `arg` is a positional, else (option name, value given with
    it or None); the name is None for an unknown option.  A unique prefix names
    its long option, -h runs on as -hh..., and a negative number or a text with
    a space that names no option is a positional."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg[1] == "-":
        prefix, equals, value = arg.partition("=")
        for name in _LONG:
            if name.startswith(prefix):
                return name, value if equals else None
    elif arg[1] == "h":
        return "--help", arg[3:] if arg[2:3] == "=" else arg[2:] or None
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, None


def _converted(name: str, convert, text: str):
    try:
        return convert(text)
    except ValueError as exc:
        _usage_error(f"argument {name}: {exc}")


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """COMMAND and the `OPTIONS` of `argv` (default sys.argv[1:]), read in one pass.

    COMMAND may stand anywhere among the options.  An option takes its value
    as `--name value` or `--name=value`; a separate value may start with "-"
    only as a negative number.  `--set` keeps every value in order, any other
    option its last.  After "--" every argument is positional.  -h prints the
    help and exits 0; a usage error prints the usage line and an
    `orbitwalk: error:` line to stderr and exits 2.  The language and the
    messages are those of the `argparse` parser this replaces.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    for arg in args:  # "--" alone prefixes every option: refused before anything is read
        if arg == "--":
            break
        if arg.startswith("--="):
            _usage_error(f"ambiguous option: {arg} could match {', '.join(_LONG)}")
    parsed = SimpleNamespace(command=None, config=None, set=None, max_shell=None, window=None,
                             output=None, format=None, precision=None)
    extras = []
    i, count, command_at = 0, len(args), None
    while i < count:
        arg = args[i]
        i += 1
        if arg == "--":  # every later argument is positional; "--" next to COMMAND is dropped
            if parsed.command is None and i < count:
                parsed.command = _converted("COMMAND", _COMMAND, args[i])
                i += 1
            elif command_at != i - 2:
                extras.append(arg)
            extras += args[i:]
            break
        option = _option(arg)
        if option is None:
            if parsed.command is None:
                parsed.command, command_at = _converted("COMMAND", _COMMAND, arg), i - 1
            else:
                extras.append(arg)
            continue
        name, value = option
        if name is None:
            extras.append(arg)
            continue
        if name == "--help":
            _help(arg, value)
        if value is None:
            if i == count or args[i] == "--" or _option(args[i]) is not None:
                _usage_error(f"argument {name}: expected one argument")
            value = args[i]
            i += 1
        value = _converted(name, _CONVERTERS[name], value)
        if name == "--set":
            parsed.set = parsed.set or []
            parsed.set.append(value)
        else:
            setattr(parsed, name[2:].replace("-", "_"), value)
    if parsed.command is None:
        _usage_error("the following arguments are required: COMMAND")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return parsed


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        config = load_config(args.config)
        apply_flags(config, args)
        run = ResolvedRun(args.command, config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            columns, rows, meta, code = HANDLERS[args.command](run)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
    except (ConfigError, RepresentationError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision loss: {exc}", file=sys.stderr)
        return 3
    if run.path is None:
        try:  # flushed here, so a closed pipe cannot first show at interpreter exit
            emit(run, columns, rows, meta, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader stopped early, as `| head` does
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())  # so the exit's own flush writes nowhere
            os.close(devnull)
            return 1
        return code
    try:  # opened only now, so a refused run creates no file
        fh = open(run.path, "w", encoding="utf-8")
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    with fh:
        emit(run, columns, rows, meta, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
