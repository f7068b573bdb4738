"""Command-line surface: JSON-configured runs emitting CSV or JSON tables.

Every run starts from the same default config and merges over it, by one
rule (`_merge`), the user's JSON file, each `--set key=value` as a one-key
file, then `--window` and the output flags.  The fully resolved config is
echoed in the output header so any emitted table can be reproduced from its
own file.  Exit codes: 0 success, 2 config error (an output file that cannot
be opened too), 3 precision loss (a `thermal` Z that is not positive and
finite), 4 verification failure.  Time and heat sums are exact and the
resolvent is closed-form, so no setting truncates a sum: `--max-shell` is
accepted and read by no command, and a config file's `truncation` section,
echoed by older versions, is dropped on load.

A run imports only what its command uses: numpy and the dense `oracle`
for `coined` and `verify`, and the `verify` suite for `verify`; N-walker
lifts of both statistics are pure Python.  Lazy imports bind the module and
look its functions up at call time, so patched or traced functions are seen.

Rows go to the output as they are made.  Every refusal comes before the
first row: `ResolvedRun` refuses what the config decides, a handler the
rest (the plan, Z, the `evolve` amplitudes, the `dos` and `coined` arrays,
the `verify` checks), and rows only ask the plan for entries and format each
distinct value once (`_formatter`).  So a run that exits 2 or 3 writes
nothing.  The argument parser is built once per process, and the config
echo copies only what it changes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
import warnings

from .errors import ConfigError, DomainError, PrecisionError, RepresentationError
from .group import OrbitSpaceSpec, Representation, domain_size, fundamental_domain
from .kernels import STEP_MAX, CoinSpec, KernelParams, coined_block_products, coined_stack_bytes, hadamard_coin
from .orbit import KernelPlan, orbit_coined_blocks

COMMANDS = ("evolve", "resolvent", "thermal", "dos", "coined", "verify")

# Largest table a run may emit; larger requests are refused before any compute.
MAX_TABLE_ROWS = 10**6

# Largest N-walker lift or coined walk a run may do, in lift steps (about 0.3 us
# each in pure Python, so 10^8 is about half a minute), and the most memory its
# kept minors or a coined walk's line blocks may take, in bytes; see `ResolvedRun`.
MAX_LIFT_WORK = 10**8
MAX_LIFT_BYTES = 2**28

# CSV rows per `write` call; a call per row writes 10^6 rows about a third slower.
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


def apply_flags(config: dict, args: argparse.Namespace) -> None:
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
        self.initial_state = self._resolve_state(config["initial_state"])
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
        infinite = self.space.kind in ("Line", "HalfLine")
        if infinite and self.window is None and self.command in ("evolve", "resolvent", "dos", "verify"):
            raise ConfigError(f"{self.space.kind} runs need an explicit window (lo:hi)")
        if self.command == "thermal" and infinite:
            raise ConfigError("thermal runs need a finite space")
        if self.command == "coined" and (self.space.kind != "Circle" or self.space.N != 1):
            raise ConfigError("coined runs need a single-walker Circle space")
        if self.command == "resolvent" and self.params.energy.imag <= 0.0:
            raise ConfigError("resolvent energy must have positive imaginary part")
        if self.command in ("evolve",):
            for point in self.initial_state:
                if len(point) != self.space.N:
                    raise ConfigError(f"initial-state point {point} has wrong walker count")
        if self.command == "dos":
            self.dos_points = _integer(self.config["dos"]["points"], "dos.points")
        rows = self._table_rows()
        if rows > MAX_TABLE_ROWS:
            raise ConfigError(
                f"{self.command} would emit {rows} table rows, more than {MAX_TABLE_ROWS}"
            )
        work, memory = self._lift_work()
        lift = f"{self.representation.statistics.lower()} {self.command} at N={self.space.N}"
        if work > MAX_LIFT_WORK:
            raise ConfigError(
                f"{lift} would do the work of {work:.3g} lift steps, more than {MAX_LIFT_WORK}"
            )
        if memory > MAX_LIFT_BYTES:
            raise ConfigError(
                f"{lift} would keep {memory:.3g} bytes of minors, more than {MAX_LIFT_BYTES}"
            )
        if self.command == "coined":
            self.steps, self.source = self._coined_walk()

    def _table_rows(self) -> int:
        """Rows of the command's main table, counted without building the domain."""
        if self.command == "verify":
            return 0
        if self.command == "coined":
            return (self.space.L * self.coin.d) ** 2
        points = domain_size(self.space, self.window)
        if self.command == "evolve":
            return points
        if self.command == "dos":
            return self.dos_points * points
        return points * points

    def _coined_walk(self) -> tuple:
        """(steps, source) of a `coined` run.  A block product is priced at d + 1 lift steps,
        above each price timed at d = 2, 4 and 8 (0.33-0.70, 0.52-0.89, 0.83-1.97 us); a
        step's fixed 3-8 us is not, as STEP_MAX steps keep it under 0.3% of the bound."""
        steps = _integer(self.config["coined"]["steps"], "coined.steps")
        stack = coined_stack_bytes(steps, self.coin)
        if stack > MAX_LIFT_BYTES:
            raise ConfigError(
                f"a coined walk of {steps} steps would stack {stack} bytes of line blocks, "
                f"more than {MAX_LIFT_BYTES}"
            )
        source = _integer(self.config["coined"]["source"], "coined.source")
        if not 1 <= source <= self.space.L:
            raise ConfigError(f"coined.source must lie in 1..{self.space.L}")
        if abs(steps) > STEP_MAX:
            raise ConfigError(f"|steps| exceeds STEP_MAX = {STEP_MAX}")
        products = coined_block_products(steps, self.coin)
        work = products * (self.coin.d + 1)
        if work > MAX_LIFT_WORK:
            raise ConfigError(
                f"a coined walk of {steps} steps would do {products} block products, "
                f"the work of {work:.3g} lift steps, more than {MAX_LIFT_WORK}"
            )
        return steps, source

    def _lift_work(self) -> tuple:
        """(lift steps, bytes of kept minors) of an N >= 2 run's lifted entries.

        A lift step is one complex multiply-add of a pure-Python loop, about
        0.3 us.  Each entry costs 32 N steps for gathering its single-walker
        sums and using it (a table row, a composition product), plus its
        lift: N^3 / 3 below 4 walkers (the written-out expansion) and for
        fermions from 4 on (an LU determinant).  A boson entry from 4
        walkers on is a `first_row_expansion` over kept minors.  For each
        k = 3..N-1, a family of entries (`_lifted_pairs`, or for `verify`
        `verify.lifted_entries`, with the window it lifts through) keeps at
        most its distinct k-row suffixes times its distinct k-column
        sub-multisets, each at most the k-multisets of the sites, and at
        most its entries x C(N, k) minors.  Expanding k rows costs
        k (6 + k / 8) steps, a term per column that slices and hashes k-long
        tuples, once per kept minor and once per entry; a kept minor holds
        about 200 + 16 k bytes until the run ends.  Past 64 walkers a boson
        run is refused outright: the expansion recurses one level per walker.

        Timed on a shared 2-core VM, boson thermal, evolve and verify runs
        with N = 4..64 took 0.03 to 0.44 times work x 0.3 us, one boson
        entry with nothing shared 0.2 to 0.6 times its share at N = 4..10,
        and fermion runs with N = 2..10 0.07 to 0.6 times it (the most:
        verify at N = 5 and 6).  Kept minors measured 250 to 300 bytes each
        at k = 3..7, about 850 near k = 47.
        """
        n = self.space.N
        if n == 1 or self.command not in ("evolve", "thermal", "verify"):
            return 0, 0
        if self.command == "verify":
            from . import verify  # loaded by every verify run anyway
            families, window = verify.lifted_entries(self.space, self.representation, self.params, self.window)
        else:
            families, window = self._lifted_pairs(), self.window
        entries = sum(pairs for _, _, pairs in families)
        if entries == 0:
            return 0, 0
        if n <= 3 or self.representation.statistics == "Fermion":
            return entries * (32 * n + n**3 // 3), 0
        if n > 64:
            return math.inf, math.inf
        sites = domain_size(dataclasses.replace(self.space, N=1), window)
        work = entries * (32 * n + n * (6 + n // 8))
        memory = 0
        for k in range(3, n):
            multisets, subsets = math.comb(sites + k - 1, k), math.comb(n, k)
            for rows, columns, pairs in families:
                minors = pairs * subsets
                if rows:
                    minors = min(minors, min(rows, multisets) * min(columns * subsets, multisets))
                work += minors * k * (6 + k // 8)
                memory += minors * (200 + 16 * k)
        return work, memory

    def _lifted_pairs(self) -> list:
        """An `evolve` or `thermal` run's lifted entries as (row points, column points,
        entries) families: `evolve` pairs every domain point with its initial
        state, `thermal` every domain point with every other (the table plus
        Z's diagonal).  A fermion entry whose x or y repeats a coordinate is
        0j before any lift: only the C(sites, N) points with distinct
        coordinates count."""
        fermion = self.representation.statistics == "Fermion"
        points = domain_size(self.space, self.window, fermion)
        if self.command == "evolve":
            sources = [pt for pt in self.initial_state if not fermion or len(set(pt)) == len(pt)]
            return [(points, len(sources), points * len(sources))]
        return [(points, points, points * points + points)]

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
    texts, JSON (column-major) as one text once every column is filled."""
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
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


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
    power = oracle.coined_circle_power(L, run.representation.theta, coin, abs(steps))
    if steps < 0:
        power = power.conj().T
    d = coin.d
    # on the circle a block depends on x - y alone: circ[x - y + L - 1]
    circ = orbit_coined_blocks(run.space, run.representation, steps, coin, 1 - L, L - 1)
    fmt = _formatter(run.precision)
    label = [str(k) for k in range(max(L, d) + 1)]
    cells = [[(label[i], label[j], fmt(v.real), fmt(v.imag)) for i, row in enumerate(block)
              for j, v in enumerate(row)] for block in circ.tolist()]
    pairs = circ[np.subtract.outer(range(L), range(L)) + L - 1]  # [x - 1, y - 1, i, j]
    diff = pairs - power.reshape(L, d, L, d).transpose(0, 2, 1, 3)
    # np.hypot is abs() of each Python complex to the bit (both are the C
    # library's hypot); np.abs of a complex array is not
    dev = np.hypot(diff.real, diff.imag)
    devs = map(fmt, dev.ravel().tolist())
    # the distribution's last bits are those of numpy's complex abs
    dist = np.sum(np.abs(circ[L - source:2 * L - source, :, 0]) ** 2, axis=1).tolist()
    total = functools.reduce(float.__add__, dist, 0.0)
    rows = itertools.chain(
        ((label[x], label[y], li, lj, re, im, next(devs), "")
         for x in range(1, L + 1) for y in range(1, L + 1)
         for li, lj, re, im in cells[x - y + L - 1]),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitwalk",
        description="Lattice walk kernels on quotient spaces: evolve states, "
        "compute resolvents, thermal states, densities of states, coined steps, "
        "and run the self-check suite.",
        usage="%(prog)s COMMAND [options]",
    )
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                        help="one of " + ", ".join(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config field (dotted path, JSON value)")
    parser.add_argument("--max-shell", type=int, default=None, help="accepted, unused")
    parser.add_argument("--window", default=None, metavar="LO:HI",
                        help="site window for infinite spaces")
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--precision", type=int, default=None, help="significant digits")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
        emit(run, columns, rows, meta, sys.stdout)
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
