"""Weighted image sums over the symmetry group: kernels on the orbit space.

A kernel on the orbit space is a sum of free-lattice kernels over the images
of the initial point, each weighted by the representation.  For one walker
the images of y are the integers (c - y if m else y) + n P (winding n,
reflection bit m), and the weight is e^{i n theta} e^{i m phi}.  One plan
type, `KernelPlan`, serves every command (`evolve`, `thermal`, `resolvent`,
`dos` and `verify`) and computes each single-walker sum once per run; with
`orbit_coined_blocks`, `lift_price` (what an N-walker lift costs) and
`check_partition_space` (which spaces have a Z) it is the library's whole
surface.  Every kernel is the same fold, K(x, y) =
A(x - y) + e^{i phi} A(x + y - c) with A(d) = sum_n e^{i n theta}
free(|d - n P|).  A(d + P) = e^{i theta} A(d), so P residues cover a space,
each computed on first use; the three modes differ only in the free term
and so in how a residue is summed:

- Time and heat: the free term is a Bessel row (one recurrence,
  `special.j_row`/`i_row`) that ends at `window_radius`, so a residue takes
  every winding the row reaches: there is no tolerance and no shell cap.  A
  heat plan refuses beta omega above `special.I_Z_MAX`, where e^(beta omega)
  overflows, and a partition function that cancels to Z <= 0 or overflows
  raises `PrecisionError`: the true Z is positive.
- Resolvent: the free term is z^|d| / (i omega sin q) with z = e^{iq}, so a
  residue is two geometric series in closed form, kept as a column over the
  whole energy grid (a DOS sweep is one plan).  z and sin q cost two square
  roots per energy (`kernels._momentum`), and every residue is a sum of
  powers z^k: no exp, sin, cos or acos.

Time and heat kernels of N identical walkers are permanents or determinants
of single-walker sums, in pure Python: every boson entry, and every fermion
entry below 4 walkers, is the expansion along the first row
(`first_row_expansion`), whose minors of 3 or more rows a plan keeps for the
entries that share them; a fermion entry from `LU_FROM` (4) walkers on is
a partial-pivot LU (`lu_determinant`), because the expansion loses digits
to cancellation there.  `KernelPlan.value` returns an entry as a plain
complex.  numpy is imported only where arrays are built (coined blocks).
"""

from __future__ import annotations

import bisect
import math
import warnings

from .errors import DomainError, PrecisionError
from .group import (
    OrbitSpaceSpec,
    Representation,
    check_in_domain,
    fundamental_domain,
    site_range,
    validate_representation,
    weight_from_sums,
    winding_weights,
)
from .kernels import CoinSpec, KernelParams, _momentum, coined_line_blocks, window_radius
from .special import I_Z_MAX, N_MAX, i_row, j_row, quarter_phase


def _free_row(p: KernelParams, heat: bool) -> list:
    """The single-walker free term at distances 0..radius; past radius it is 0j.

    Time: i^d J_d(omega |tau|), i^-d for tau < 0, refused for omega |tau|
    > 9713.956, where the row would pass order `N_MAX`; heat: I_d(beta omega),
    refused for beta omega > `I_Z_MAX`, where e^(beta omega) overflows.
    """
    if heat:
        z = p.beta * p.omega
        if z > I_Z_MAX:
            raise DomainError(f"beta * omega = {z} exceeds {I_Z_MAX}: e^(beta omega) overflows")
        return [complex(v) for v in i_row(window_radius(p.omega, p.beta), z)]
    z, radius = p.omega * abs(p.tau), window_radius(p.omega, p.tau)
    if radius > N_MAX:
        # the largest omega |tau|, in thousandths, whose row ends by N_MAX
        limit = bisect.bisect(range(1000 * N_MAX), N_MAX, key=lambda k: window_radius(1.0, k / 1000)) - 1
        raise DomainError(f"omega * |tau| = {z} exceeds {limit / 1000}: its Bessel row would pass order N_MAX = {N_MAX}")
    row = j_row(radius, z)
    sign = 1 if p.tau >= 0.0 else -1
    return [quarter_phase(sign * d) * v for d, v in enumerate(row)]


def _initial_state(space: OrbitSpaceSpec, psi0: dict, fermion: bool) -> dict:
    """A finitely supported state as {point: complex amplitude}, checked.

    Every point must lie in the fundamental domain and appear once (1 and
    (1,) are one point), a fermion point with distinct coordinates (only
    those have an antisymmetric state); the state must have an amplitude and
    a finite norm; a norm away from 1 warns.  A bool or non-integral
    coordinate is refused.
    """
    state = {}
    for pt, a in psi0.items():
        pt = pt if isinstance(pt, tuple) else (pt,)
        if any(isinstance(c, bool) or int(c) != c for c in pt):
            raise DomainError(f"point {pt} has a coordinate that is not an integer")
        pt = tuple(map(int, pt))
        if len(pt) != space.N:
            raise DomainError(f"point {pt} has {len(pt)} coordinates, space has N={space.N}")
        if fermion and len(set(pt)) < len(pt):
            raise DomainError(f"fermion initial-state point {pt} repeats a coordinate: "
                              "no antisymmetric state exists there")
        if pt in state:
            raise DomainError(f"initial state lists point {pt} twice")
        state[pt] = complex(a)
    if not state:
        raise DomainError("initial state must have at least one amplitude")
    for pt in state:
        check_in_domain(space, pt, "initial-state point")
    try:
        norm = sum(abs(a) ** 2 for a in state.values())
    except OverflowError:  # an |a|^2 past the double range
        norm = math.inf
    if not math.isfinite(norm):
        raise DomainError(f"initial state norm {norm} is not finite")
    if abs(norm - 1.0) > 1e-12:
        warnings.warn(f"initial state norm {norm:.6f} differs from 1", stacklevel=3)
    return state


def _gluing_weight(z: tuple) -> float:
    """1 / prod(multiplicity!): symmetrized kernels overcount coincident points."""
    weight = 1.0
    run = 1
    for a, b in zip(z, z[1:]):
        run = run + 1 if a == b else 1
        weight /= run
    return weight


def lu_determinant(m) -> complex:
    """Determinant of a square matrix by LU with partial pivoting, O(n^3).

    Each column's pivot is the remaining row whose entry in it has the
    largest |re| + |im| (LAPACK's pivot measure; the first such row on a
    tie).  A swap flips the sign and the determinant is the product of the
    pivots, so an exactly zero pivot column gives exactly 0j.  About n^3 / 3
    complex multiply-adds.
    """
    rows = [[complex(v) for v in row] for row in m]
    det = 1 + 0j
    while rows:  # rows holds the block still to eliminate, one column fewer per step
        sizes = [abs(row[0].real) + abs(row[0].imag) for row in rows]
        best = sizes.index(max(sizes))
        if sizes[best] == 0.0:
            return 0j
        if best:
            rows[0], rows[best] = rows[best], rows[0]
            det = -det
        pivot = rows[0][0]
        det *= pivot
        tail = rows[0][1:]
        reduced = []
        for row in rows[1:]:
            factor = row[0] / pivot
            reduced.append([a - factor * b for a, b in zip(row[1:], tail)])
        rows = reduced
    return det


# Walkers from which a fermion entry is an LU determinant, not the first-row expansion.
LU_FROM = 4


def lift_price(space: OrbitSpaceSpec, D: Representation, families: list, window) -> tuple:
    """(lift steps, bytes of kept minors) of the N-walker entries of `families`.

    A lift step is one complex multiply-add of a pure-Python loop, about
    0.3 us.  Each entry costs 32 N steps for gathering its single-walker
    sums and using it (a table row, a composition product), plus its lift:
    N^3 / 3 below `LU_FROM` walkers (the written-out expansion) and for
    fermions from there on (an LU determinant).  A boson entry from
    `LU_FROM` walkers on is a `first_row_expansion` over kept minors.  For
    each k = 3..N-1, a family of (row points, column points, entries), with
    the sites of `window`, keeps at most its distinct k-row suffixes times
    its distinct k-column sub-multisets, each at most the k-multisets of the
    sites, and at most its entries x C(N, k) minors (None rows: no point
    count bounds them).  Expanding k rows costs k (6 + k / 8) steps, a term
    per column that slices and hashes k-long tuples, once per kept minor and
    once per entry; a kept minor holds about 200 + 16 k bytes until the run
    ends.  Past 64 walkers a boson lift is priced at infinity: the expansion
    recurses one level per walker.

    Timed on a shared 2-core VM, boson thermal, evolve and verify runs
    with N = 4..64 took 0.03 to 0.44 times work x 0.3 us, one boson
    entry with nothing shared 0.2 to 0.6 times its share at N = 4..10,
    and fermion runs with N = 2..10 0.07 to 0.6 times it (the most:
    verify at N = 5 and 6).  Kept minors measured 250 to 300 bytes each
    at k = 3..7, about 850 near k = 47.
    """
    n = space.N
    entries = sum(pairs for _, _, pairs in families)
    if n == 1 or entries == 0:
        return 0, 0
    if n < LU_FROM or D.statistics == "Fermion":
        return entries * (32 * n + n**3 // 3), 0
    if n > 64:
        return math.inf, math.inf
    lo, hi = site_range(space, window)  # entries lie there, so hi >= lo
    work = entries * (32 * n + n * (6 + n // 8))
    memory = 0
    for k in range(3, n):
        multisets, subsets = math.comb(hi - lo + k, k), math.comb(n, k)
        for rows, columns, pairs in families:
            minors = pairs * subsets
            if rows:
                minors = min(minors, min(rows, multisets) * min(columns * subsets, multisets))
            work += minors * k * (6 + k // 8)
            memory += minors * (200 + 16 * k)
    return work, memory


def first_row_expansion(entry, rows: tuple, cols: tuple, fermion: bool, minors: dict) -> complex:
    """Permanent (bosons) or determinant (fermions) of [[entry(a, b) for b in cols] for a in rows].

    The expansion along the first row over the column positions: term j is
    entry(rows[0], cols[j]) times the minor of rows[1:] without position j.
    The terms are summed in order starting from the first (not from 0j), a
    fermion's odd terms subtracted, so 2 and 3 rows give the written-out
    definition to the bit, signed zeros included.  A 2-row minor is written
    out, ad +- bc.  Every minor of 3 or more rows below the top is kept in
    `minors` by (rows, columns), so a caller that passes one dict to many
    entries computes each minor they share once; the value asked for is not
    kept.  With nothing shared an n-row value takes n 2^(n-1) terms.  The
    recursion, one level per row, calls the function by its module name.
    """
    head = rows[0]
    if len(rows) == 1:
        return entry(head, cols[0])
    rest = rows[1:]
    if len(rest) == 1:
        (row,) = rest
        a, b = cols
        first, second = entry(head, a) * entry(row, b), entry(head, b) * entry(row, a)
        return first - second if fermion else first + second
    keep = len(rest) > 2
    for j, col in enumerate(cols):
        others = cols[:j] + cols[j + 1:]
        if keep:
            key = rest, others
            minor = minors.get(key)
            if minor is None:
                minor = minors[key] = first_row_expansion(entry, rest, others, fermion, minors)
        else:
            minor = first_row_expansion(entry, rest, others, fermion, minors)
        term = entry(head, col) * minor
        if not j:
            total = term
        elif fermion and j & 1:
            total -= term
        else:
            total += term
    return total


def check_partition_space(space: OrbitSpaceSpec) -> None:
    """Refuse a space with no finite domain: Z(beta) sums over all of it."""
    if space.kind not in ("Circle", "Interval"):
        raise DomainError(f"partition function needs a finite domain, not {space.kind}")


MODES = ("time", "heat", "resolvent")


class KernelPlan:
    """Kernels of one run, built from single-walker image sums computed once.

    A plan is built for one space, representation and parameter set, in one
    of three modes:
    - "time": the time-evolution kernel; its free-lattice row (one Bessel
      row) is built once;
    - "heat": the Gibbs kernel, likewise from one Bessel row;
    - "resolvent": the single-walker resolvent G_E(x, y) (Im E > 0) over an
      energy grid, by default p.energy alone.  N >= 2 walkers are refused:
      the resolvent of a sum of commuting walker Hamiltonians is not a
      product of single-walker resolvents, so no permanent/determinant lift
      gives it.

    Each single-walker sum is computed on first use and kept, so a windowed
    run computes only the sums it touches: a plain complex for time and
    heat, a column over the energy grid for the resolvent.  On the Line and
    Circle a sum depends on x - y alone and is kept by that displacement;
    with reflections it is kept by (x, y).  Every sum is the fold
    A(x - y) + e^{i phi} A(x + y - c) (`_fold`).  On a period P,
    A(n0 P + r) = e^{i n0 theta} A(r), and each residue A(r), 0 <= r < P, is
    computed on first use (`_residue`): L residues cover a circle, 2L or
    2(L + 1) an interval.  With no period the residue of d is the free term
    at |d|.  A time or heat residue sums its windings over the Bessel row;
    a resolvent residue is two geometric series in closed form at every
    grid energy, in powers of z = e^{iq}, whose constants (z, i omega sin q
    and the series factors from z^P) the plan computes in one pass at
    construction.  So a DOS sweep (`dos`) takes one residue on a circle and
    L + 1 on an interval.  A time or heat plan takes the weight e^{i n theta}
    of every winding its residues reach from one `winding_weights` call; any
    other D(t^n r^m) is computed once by `weight_from_sums`.
    An N-walker entry is the determinant (fermions) or permanent (bosons) of
    the N x N matrix of single-walker sums; a fermion entry whose x or y
    repeats a coordinate is exactly 0.  A boson entry, and a fermion entry
    below 4 walkers, is `first_row_expansion` over `_sum`: the plan keeps
    each minor of 3 to N - 1 rows by (row suffix of x, columns of y), so a
    table's entries share them; 2-row minors and entries are not kept.  A
    fermion entry from 4 walkers on is `lu_determinant` of the gathered
    sums.  Nothing is shared between plans: a caller builds one per run
    (one per sweep) and drops it with the run.
    """

    def __init__(
        self,
        space: OrbitSpaceSpec,
        D: Representation,
        p: KernelParams,
        *,
        mode: str = "time",
        energies=None,
    ):
        if mode not in MODES:
            raise DomainError(f"unknown plan mode {mode!r}; expected one of {MODES}")
        if mode == "resolvent" and space.N != 1:
            raise DomainError(f"the resolvent is implemented for one walker only, not N={space.N}")
        if energies is not None and mode != "resolvent":
            raise DomainError("only a resolvent plan sweeps an energy grid")
        validate_representation(space, D)
        self._space = space
        self._params = p
        self._mode = mode
        self._D = D
        self._fermion = D.statistics == "Fermion"
        self._period = space.period
        self._center = space.reflection_center if space.has_reflections else None
        self._by_displacement = not space.has_reflections
        self._weights: dict = {}
        self._sums: dict = {}
        self._residues: dict = {}  # r -> A(r)
        self._minors: dict = {}  # (row suffix, columns) -> N-walker minor
        if self._center is not None:
            self._bounce = self._weight(0, 1)  # e^{i phi}
        self._grid = self._denominators = None  # a resolvent plan's energy grid
        if mode == "resolvent":
            self._init_resolvent([p.energy] if energies is None else energies)
        else:
            self._init_row(_free_row(p, mode == "heat"))

    def _init_row(self, free: list) -> None:
        """The free row, and on a period P the weight of every winding a residue reaches."""
        self._free = free
        period = self._period
        if period:
            reach = len(free) - 1
            self._first = -(reach // period)  # the lowest winding, reached by residue 0
            self._turns = winding_weights(self._D, self._first, (period - 1 + reach) // period)

    def _init_resolvent(self, energies) -> None:
        """Each grid energy's constants, in one pass (see `_residue`).

        Per energy: z = e^{iq} and the denominator i omega sin q from
        `_momentum` (which refuses Im E <= 0 anywhere in the grid before any
        residue), and on a period P the series factors 1 / (1 - r-) and
        e^{i theta} / (1 - r+) from wrap = z^P: two square roots and one
        power per energy.  On a folded space (a period or a reflection) an
        energy near a band edge, |E + sigma omega| < omega / 2 max(P, 2)^2 for
        sigma = +-1 (so sigma z = 1 + g with |g| max(P, 2) about 1 or less),
        keeps sigma and g, formed without cancellation, and its series
        factors come from `_rise`.  An energy whose r- or r+ rounds to 1 lies
        on an eigenvalue to double precision, where the resolvent is not
        finite: `PrecisionError`.  omega was validated with p.
        """
        omega, period = self._params.omega, self._period
        energies = list(energies)
        self._grid = []  # z per energy
        self._denominators = []  # i omega sin q per energy
        for energy in energies:
            z, v = _momentum(energy, omega)
            self._grid.append(z)
            self._denominators.append(1j * v)
        self._powers = {0: [1 + 0j] * len(self._grid)}  # k -> the column of z^k
        self._near = {}  # grid index -> (sigma, g) of an energy near a band edge
        self._rises = {}  # (grid index, k) -> (sigma z)^k - 1
        if period or self._center is not None:
            # |g|^2 ~ 2 |E + sigma omega| / omega, so this is |g| max(P, 2) < 1, to a factor 2^(1/4)
            limit = omega / (2 * max(period, 2) ** 2)
            for i in [i for i, e in enumerate(energies) if abs(abs(e.real) - omega) + e.imag < limit]:
                e, z = complex(energies[i]), self._grid[i]
                sigma = -1 if e.real > 0.0 else 1
                # sigma z - 1 = (sigma omega + E + i omega sin q) z / omega, formed without cancellation
                self._near[i] = sigma, (sigma * omega + e + self._denominators[i]) * z / omega
        if not period:
            return
        self._turn = turn = self._weight(1, 0)  # e^{i theta}
        back = turn.conjugate()
        self._series = []
        for i, (energy, wrap) in enumerate(zip(energies, self._power(period))):
            if i in self._near:  # wrap = a (1 + R_P), a = sigma^P
                a = self._near[i][0] ** period
                rise = self._rise(i, period)
                first, second = (1.0 - back * a) - back * a * rise, (1.0 - turn * a) - turn * a * rise
            else:
                first, second = 1.0 - wrap * back, 1.0 - wrap * turn
            if not (first and second):
                raise PrecisionError(
                    f"energy {energy} lies on an eigenvalue of the {self._space.kind} "
                    "to double precision: its resolvent is not finite"
                )
            self._series.append((1.0 / first, turn / second))

    def _power(self, k: int) -> list:
        """The column of z^k over the grid, built on first use.  `**` is exact at
        k = 0, repeated squaring to k = 100 and libm's polar form past it."""
        column = self._powers.get(k)
        if column is None:
            column = self._powers[k] = [z**k for z in self._grid]
        return column

    def _rise(self, i: int, k: int) -> complex:
        """R_k = (sigma z)^k - 1 at the near-edge grid energy i, k >= 0, kept.

        (1 + g)^k - 1 by binary powers that never form (1 + g)^k:
        (1 + a)(1 + b) - 1 = a + b + ab and (1 + b)^2 - 1 = b (2 + b).  So
        R_k keeps its digits however small g is, where z^k - sigma^k would
        cancel them.
        """
        key = i, k
        total = self._rises.get(key)
        if total is None:
            total, g = 0j, self._near[i][1]
            while k:
                if k & 1:
                    total += g + total * g
                g *= 2.0 + g
                k >>= 1
            self._rises[key] = total
        return total

    def _weight(self, n: int, m: int) -> complex:
        w = self._weights.get((n, m))
        if w is None:
            w = self._weights[(n, m)] = weight_from_sums(self._D, n, m)
        return w

    def _sum(self, xi: int, yj: int):
        """The single-walker kernel between sites xi and yj, computed once per key.

        A time or heat sum is a complex.  A resolvent sum is its column over
        the energy grid: the folds summed from 0j, over i omega sin q.
        """
        key = xi - yj if self._by_displacement else (xi, yj)
        value = self._sums.get(key)
        if value is None:
            if self._grid is not None:
                direct, dens = self._fold(xi - yj), self._denominators
                if self._center is None:
                    value = [(0j + g) / den for g, den in zip(direct, dens)]
                else:
                    d, image = xi - yj, xi + yj - self._center
                    bounce, reflected = self._bounce, self._fold(image)
                    value = [
                        (0j + g + bounce * h) / den for g, h, den in zip(direct, reflected, dens)
                    ]
                    for i in self._near:
                        pair = self._edge_pair(i, d, image)
                        if pair is not None:
                            value[i] = pair / dens[i]
            elif self._center is None:
                value = self._fold(xi - yj)
            else:
                value = self._fold(xi - yj) + self._bounce * self._fold(xi + yj - self._center)
            self._sums[key] = value
        return value

    def _fold(self, d: int):
        """A(d) = sum_n e^{i n theta} free(|d - n P|), turned from its residue.

        With no period the residue of d is |d|, and A(d) is the free term there.
        """
        period = self._period
        n0, r = divmod(d, period) if period else (0, abs(d))
        value = self._residues.get(r)
        if value is None:
            value = self._residues[r] = self._residue(r)
        if not n0:
            return value
        turn = self._weight(n0, 0)
        return turn * value if self._grid is None else [turn * v for v in value]

    def _residue(self, r: int):
        """A(r), 0 <= r < P, or the free term at r >= 0 when there is no period.

        Time and heat: the windings n with |r - n P| <= R of the free row,
        ascending; the row is 0j past its end R.  Resolvent: at every grid
        energy, with z = e^{iq} and r± = e^{±i theta} z^P,

            A(r) = z^r / (1 - r-) + e^{i theta} z^(P - r) / (1 - r+),

        the two geometric series of the windings, which converge because
        |r±| = |z|^P < 1; with no period, z^r.  The columns of z^r and
        z^(P - r) are built once per plan (`_power`), so residues r and P - r
        share them.  `_sum` divides by i omega sin q.
        """
        period = self._period
        if self._grid is not None:
            if not period:
                return self._power(r)
            column = [
                near * ahead + far * behind
                for near, far, (ahead, behind) in zip(self._power(r), self._power(period - r), self._series)
            ]
            mix = self._turn.conjugate()
            for i, (sigma, _) in self._near.items():
                # the two series' leading terms cancel: with z^k = sigma^k (1 + R_k), a = sigma^P,
                # A(r) = sigma^r (R_r ahead + a R_(P-r) behind - (e^{-i theta} + a) R_P ahead behind)
                ahead, behind = self._series[i]
                a, rise = sigma**period, self._rise
                column[i] = sigma**r * (
                    rise(i, r) * ahead + a * rise(i, period - r) * behind
                    - (mix + a) * rise(i, period) * ahead * behind
                )
            return column
        free = self._free
        if not period:
            return free[r] if r < len(free) else 0j
        turns, first = self._turns, self._first
        reach = len(free) - 1
        total = 0j
        for n in range(-((reach - r) // period), (r + reach) // period + 1):
            total += turns[n - first] * free[abs(r - n * period)]
        return total

    def _edge_pair(self, i: int, d: int, image: int):
        """i omega sin q G at near-edge grid energy i for the folds at d and at the
        reflected image, where their leading terms cancel; None where the folds'
        own residues are exact enough.

        No period (HalfLine): z^|d| + e^{i phi} z^|image|, written as
        c z^m ((1 + u) + u R_D) with m the smaller exponent, D the gap and
        u = +-1, which keeps every digit of each entry.  A period with
        theta = 0 (an Interval) whose two folds cancel, sigma^(r1 + r2)
        e^{i phi} = -1 for the residues r1 of d and r2 of the image: both
        residues hold a pole 1 / (1 - z^P) at the band edge, and their sum is
        sigma^r1 (z'^r1 - z'^r2)(1 - z'^(P - r1 - r2)) / (1 - z'^P) in
        z' = sigma z.
        """
        sigma, period, rise = self._near[i][0], self._period, self._rise
        if not period:
            (low, c_low), (high, c_high) = sorted([(abs(d), 1), (abs(image), self._bounce.real)])
            u = c_low * c_high * sigma ** (high - low)
            return c_low * self._power(low)[i] * ((1.0 + u) + u * rise(i, high - low))
        r1, r2 = d % period, image % period
        if self._turn != 1 or self._bounce * sigma ** (r1 + r2) != -1:
            return None
        m = period - r1 - r2
        tail = -rise(i, m) if m >= 0 else rise(i, -m) / (1.0 + rise(i, -m))  # 1 - z'^m
        # the ratio first: a product of two R's near 1e-162 would be subnormal
        return sigma**r1 * (rise(i, r1) - rise(i, r2)) * (tail / -rise(i, period))

    def dos(self, sites) -> list:
        """The local DOS -(1/pi) Im G_E(x, x) at every grid energy, one column per site.

        Sites with the same sum key (every site of a circle) share one
        column, the same list.  No domain check.
        """
        if self._mode != "resolvent":
            raise DomainError("the density of states needs a resolvent plan")
        shared: dict = {}
        out = []
        for (x,) in sites:
            key = 0 if self._by_displacement else x
            column = shared.get(key)
            if column is None:
                column = shared[key] = [-g.imag / math.pi for g in self._sum(x, x)]
            out.append(column)
        return out

    def value(self, x: tuple, y: tuple) -> complex:
        """The kernel between N-walker lattice points x and y (no domain check).

        A fermion entry whose x or y repeats a coordinate is 0j before any
        sum is gathered.  A resolvent plan has an entry at one energy only.
        """
        if self._grid is not None:
            if len(self._grid) != 1:
                raise DomainError(
                    f"a resolvent plan over {len(self._grid)} energies has no single kernel; "
                    "use dos()"
                )
            return self._sum(x[0], y[0])[0]
        if len(x) == 1:
            return self._sum(x[0], y[0])
        if self._fermion and (len(set(x)) < len(x) or len(set(y)) < len(y)):
            return 0j
        if self._fermion and len(x) >= LU_FROM:
            s = self._sum
            return lu_determinant([[s(xi, yj) for yj in y] for xi in x])
        return first_row_expansion(self._sum, x, y, self._fermion, self._minors)

    def partition_function(self) -> float:
        """Z(beta): the weighted trace of the Gibbs kernel over the finite domain.

        Sorted points with coincident walkers carry 1/prod(multiplicity!),
        the norm of their symmetrized state; fermion diagonals vanish there.
        More fermions than sites have no antisymmetric state (Z = 0): refused.
        The true Z is positive; a sum that cancels to Z <= 0 or overflows
        raises `PrecisionError` instead of returning it.
        """
        space = self._space
        if self._mode != "heat":
            raise DomainError("the partition function needs a heat-kernel plan")
        check_partition_space(space)
        if self._fermion and space.N > space.L:
            raise DomainError(
                f"{space.N} fermions on {space.L} sites have no antisymmetric state (Z = 0)"
            )
        total = 0.0
        for point in fundamental_domain(space):
            total += _gluing_weight(point) * self.value(point, point).real
        if not 0.0 < total < math.inf:
            raise PrecisionError(f"Z(beta) = {total} is not a positive finite number")
        return total

    def evolve(self, psi0: dict, window=None) -> dict:
        """U_tau applied to a finitely supported state; returns amplitudes by point.

        psi0 is checked by `_initial_state`.  Finite spaces evolve onto the
        whole fundamental domain; the Line and HalfLine onto the given
        (lo, hi) site window or, by default, the light cone around the
        initial support.
        """
        if self._mode != "time":
            raise DomainError("state evolution needs a time-kernel plan")
        space = self._space
        state = _initial_state(space, psi0, self._fermion)
        if not window:  # the light cone around the initial support; finite spaces ignore it
            coords = [c for pt in state for c in pt]
            radius = window_radius(self._params.omega, self._params.tau)
            window = min(coords) - radius, max(coords) + radius
        points = fundamental_domain(space, window)
        sources = [(source, a) for source, a in state.items() if a != 0j]
        value = self.value
        out = {}
        for target in points:
            amp = 0j
            for source, a in sources:
                amp += value(target, source) * a
            out[target] = amp
        return out


def orbit_coined_blocks(
    space: OrbitSpaceSpec,
    D: Representation,
    steps: int,
    c: CoinSpec,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Circle blocks at displacements lo..hi: out[k] = sum_n e^{i n theta} B_steps(lo + k - nL).

    The line blocks have a strict light cone, so the sum is finite and exact.
    Each winding n, in ascending order, adds the part of the
    `coined_line_blocks` stack it reaches to every displacement in one array
    sum.
    """
    import numpy as np

    if space.kind != "Circle" or space.N != 1:
        raise DomainError("coined walks run on the single-walker Circle, "
                          f"not on the {space.kind} with N={space.N}")
    validate_representation(space, D)
    L = space.L
    first, line = coined_line_blocks(steps, c)  # line[k] is the block at first + k
    last = first + len(line) - 1
    out = np.zeros((hi - lo + 1, c.d, c.d), dtype=complex)
    for n in range(math.ceil((lo - last) / L), math.floor((hi - first) / L) + 1):
        a, b = max(lo, n * L + first), min(hi, n * L + last) + 1
        out[a - lo:b - lo] += weight_from_sums(D, n, 0) * line[a - n * L - first:b - n * L - first]
    return out

