"""Affine translations along symmetry axes and the point arrays they make.

A translation of exact length lambda along an axis family turns into the
full set of translated copies {x + t_i} because the start configuration is
invariant under the group: closing one translated copy under the group is
the same as translating along every axis direction at once.  Depth-k
arrays therefore collect sums of up to k translation vectors without
building an exponential word tree.

Translation steps are lambda times the golden base vector of each axis
((0,1,tau), (1,1,1), (tau,0,0)), not lambda times a unit vector: only the
base-vector steps land back in the golden lattice the start points live
in, so only they can produce coinciding points at all.

Every start vertex and every such step lies in Q(tau)^3, so arrays are
generated on an integer point kernel: each point is a row of six
integers (a, b per coordinate, value (a + b*tau)/den) over one shared
denominator.  An array is the Minkowski sum X + lambda*S_k of the start X
and the sums S_k of at most k directions, and S_k does not depend on
lambda: the group keeps it per (fold, depth), with its distinct
coordinate values V, as the start keeps its own values U.  A length
lambda = (p + q*tau)/e enters only as the integer matrix [[p, q],
[q, p+q]] applied to those small value tables, so every coordinate of
the array is one of the |U|*|V| pair sums u + lambda*v, and each
candidate row is three indexes into that pair table.  The table's values
are reduced, turned into floats and ranked once; one sort of one integer
per row, its exact squared radius (an integer pair) and its coordinates'
ranks, orders the rows, brings duplicates together and cuts shells
where the radius changes.  The array is int64 when a bound computed up
front proves every product exact, and dtype=object (Python ints)
otherwise, through the same numpy calls.  Shells carry float
coordinates for the cage searches and build exact Vec3E points, golden
vectors like every other 3D point, only when asked.

A scan row (classify_length with with_cage=False) is read off the
start's pair table where it can be: the orbits of the pairs X x S_k
under the start's group, the classes of orbits that share a shell at
every lambda, and the lengths at which two pairs of one class meet.  At
any other length where no two classes share a radius, no two points of
the array meet, so its shells are the classes and their counts the
classes' sizes.  The outer band's trivalence gap is refuted from one
row per orbit, each squared distance a quadratic in lambda whose
coefficients the table keeps, when it fails by more than a stated
bound on the float error.  Every other row is read off the array.

Shells partition an array by exact squared radius; bands cluster shells
whose float radii sit within a relative gap.  The cage surfaces the bands
approximate are detected separately (cages.detect_cage) because no single
gap value reproduces every known surface.
"""

from __future__ import annotations

import math
from functools import cached_property
from math import gcd, lcm

import numpy as np

from . import cages
from .cages import PointBudgetError
from .configs import DEFAULT_POINT_CAP, StartConfig
from .geometry import Vec3E, _distinct_sums, row_vectors
from .golden import (_TAU_FLOAT, GoldenNumber, _gmul, _gsigns,
                     format_golden)
from .groups import Orbits, PointGroup

__all__ = [
    "PointBudgetError",
    "EmptyScanError",
    "AffineTranslation",
    "PointArray",
    "Shell",
    "Band",
    "make_translation",
    "generate_array",
    "bands",
    "outer_cage",
    "generic_cardinality",
    "ScanSpec",
    "parse_scan_spec",
    "DEFAULT_SCAN_SPEC",
    "classify_length",
    "classify_scan",
    "DEFAULT_BAND_GAP",
    "DEFAULT_POINT_CAP",
]

# Calibrated so the outermost band of every depth-1 table row that has a
# cage matches that cage's shell span where possible (the c60 rows allow
# 0.1057..0.1186, the fold-3 dodecahedron rows 0.0964..0.2023).  No value
# covers every row at once -- the 80-point row needs >= 0.186 -- which is
# why cage detection does not reuse the band split.
DEFAULT_BAND_GAP = 0.11
# Point rows whose entries B and denominator stay below this run in int64:
# the larger squared-radius key, sum (2a+b)b, is at most 9*B^2 < 2^63, and
# every entry converts to float exactly.
_INT64_BOUND = 2 ** 29
# A pair table refutes an outer band only when its gap misses by more
# than this times the band's squared magnitude (_PairTable.refutes).
_REFUTE_ERROR = 345 * 2.0 ** -53


class EmptyScanError(ValueError):
    """A scan spec yields no positive length under its cutoff."""


class AffineTranslation:
    """A translation length attached to every axis direction of one fold.

    `group` is the group whose axes the directions are; it keeps their
    sums (PointGroup.direction_sums), which every length shares.
    """

    def __init__(self, fold: int, length: GoldenNumber,
                 group: PointGroup) -> None:
        self.fold = fold
        self.length = length
        self.group = group
        self.directions = group.translation_orbit(fold)

    def __repr__(self) -> str:
        return (f"AffineTranslation(fold={self.fold}, "
                f"length={format_golden(self.length)}, "
                f"{len(self.directions)} vectors)")


def make_translation(group: PointGroup, fold: int,
                     length: GoldenNumber) -> AffineTranslation:
    """Attach a positive exact length to the base-vector orbit of a fold."""
    if fold not in (2, 3, 5):
        raise ValueError(f"unsupported fold {fold}; expected 2, 3, or 5")
    if length.sign() <= 0:
        raise ValueError("translation length must be positive")
    return AffineTranslation(fold, length, group)


class Shell:
    """All array points at one exact squared radius.

    `rows` is an (n, 6) numpy array of integer rows
    (a_x, b_x, a_y, b_y, a_z, b_z) over the shared denominator `den`,
    coordinate c being (a_c + b_c*tau)/den; its dtype is int64, or object
    (Python ints) for entries too large for int64.  `coords` holds the
    points' floats, bit-identical to `as_coords(points)`; the exact
    `points` are built on first access.
    """

    def __init__(self, radius2: GoldenNumber, rows: np.ndarray, den: int,
                 coords: np.ndarray) -> None:
        self.radius2 = radius2
        self.rows = rows
        self.den = den
        self.coords = coords

    @cached_property
    def points(self) -> tuple[Vec3E, ...]:
        return row_vectors(self.den, self.rows)

    @cached_property
    def radius(self) -> float:
        return math.sqrt(float(self.radius2))

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Shell(r2={self.radius2}, {len(self.rows)} points)"


class Band:
    """Consecutive shells whose float radii cluster within the gap."""

    def __init__(self, shell_group: tuple[Shell, ...]) -> None:
        self.shells = shell_group

    @property
    def rmin(self) -> float:
        return self.shells[0].radius

    @property
    def rmax(self) -> float:
        return self.shells[-1].radius

    def __len__(self) -> int:
        return sum(len(shell) for shell in self.shells)

    def __repr__(self) -> str:
        return (f"Band(r={self.rmin:.4f}..{self.rmax:.4f}, "
                f"{len(self)} points)")


class PointArray:
    """A deduplicated, exactly symmetric point set with shell structure."""

    def __init__(self, start: StartConfig, translation: AffineTranslation,
                 depth: int, shell_list: tuple[Shell, ...]) -> None:
        self.start = start
        self.translation = translation
        self.depth = depth
        self.shells = shell_list

    @cached_property
    def points(self) -> tuple[Vec3E, ...]:
        return tuple(p for shell in self.shells for p in shell.points)

    def __len__(self) -> int:
        return sum(len(shell) for shell in self.shells)

    def __repr__(self) -> str:
        return (f"PointArray({self.start.name}, fold {self.translation.fold}, "
                f"depth {self.depth}, {len(self)} points)")


def _value_floats(a: np.ndarray, b: np.ndarray, den: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(floats, a', b', den'): the values (a + b*tau)/den in lowest terms
    (a' + b'*tau)/den' and their floats, by GoldenNumber.__float__'s
    arithmetic."""
    g = np.gcd(np.gcd(a, b), den)
    a, b, den = a // g, b // g, den // g
    return np.asarray((a + b * _TAU_FLOAT) / den, dtype=float), a, b, den


def _exact_order(floats: np.ndarray, k0: np.ndarray, k1: np.ndarray,
                 slack: float) -> np.ndarray:
    """The ascending order of exact values (k0 + k1*tau)/den from their
    floats, when floats more than `slack` apart are in exact order.

    Float order stands unless two neighbours within `slack` are out of
    exact order; then each run of such neighbours is ranked by the
    golden._gsigns of all its differences.
    """
    by = np.argsort(floats)
    floats = floats.take(by)
    near = ~(floats[1:] - floats[:-1] > slack)
    if near.any():
        a, b = by[:-1][near], by[1:][near]
        if (_gsigns(k0[b] - k0[a], k1[b] - k1[a]) < 0).any():
            # near neighbours out of order: rank each run of near values
            # by the exact signs of all its differences
            run = np.concatenate(([0], np.cumsum(~near)))
            i, j = np.nonzero(run[:, None] == run)
            below = _gsigns(k0[by[j]] - k0[by[i]],
                            k1[by[j]] - k1[by[i]]) < 0
            by = by[np.lexsort((np.bincount(i, below, len(by)), run))]
    return by


def build_shells(den: int, va: np.ndarray, vb: np.ndarray,
                 index: np.ndarray, dtype) -> tuple[Shell, ...]:
    """Group rows by exact squared radius, ascending, dropping duplicates:
    the rows whose coordinates are the distinct values (va + vb*tau)/den,
    row i's at index[:, i] of the (3, N) `index`, as rows of `dtype`
    (int64 or object).

    The squared radius of (a + b*tau)/den per coordinate is
    (sum a^2+b^2 + (sum (2a+b)b)*tau)/den^2.  Points inside a shell are
    ordered by float coordinates, exact reduced triples breaking ties: the
    order of (Vec3E.as_floats(), Vec3E.key()), so output is deterministic.

    Only the values are reduced, turned into floats by
    GoldenNumber.__float__'s arithmetic and ranked.  One argsort of one
    int64 per row, of its radius keys and its three ranks, orders the
    rows and brings duplicates together; np.lexsort takes the same keys,
    the radius keys in the values' dtype, when floats tie or a bound
    checked first says they do not fit.  The shells go by float radius,
    and golden._gsigns decides exactly between neighbours whose floats
    lie too close to tell apart.
    """
    vfloat, ra, rb, d = _value_floats(va, vb, den)
    # each value's rank by float, then by (an, bn, den) as Vec3E.key()
    n = len(va)
    by_value = np.lexsort((d, rb, ra, vfloat))
    rank, ranked = np.argsort(by_value), vfloat[by_value]
    tied = bool((ranked[1:] == ranked[:-1]).any())
    s0, s1 = va * va + vb * vb, (2 * va + vb) * vb
    low1 = int(s1.min())
    w1 = 3 * (int(s1.max()) - low1) + 1
    top0 = int(s0.max())
    if not tied and (3 * top0 + 1) * w1 * n ** 3 < 2 ** 63:
        # one int64 per row: its radius keys as key0*w1 + key1 - 3*low1,
        # summed from its values' shares, then its three ranks base n
        table = np.asarray(
            (s0 * w1 + s1 - low1) * n ** 3
            + rank * np.array([[n * n], [n], [1]]), dtype=np.int64)
        key = sum(t.take(c) for t, c in zip(table, index))
        order = np.argsort(key)
        key = key.take(order)
        fresh = np.concatenate(([True], key[1:] != key[:-1]))
        radius = key[fresh] // n ** 3
        firsts = np.concatenate(([True], radius[1:] != radius[:-1]))
        firsts = firsts.nonzero()[0]
        k0, k1 = np.divmod(radius.take(firsts), w1)
        k1 += 3 * low1
    else:
        # tied floats share a float rank, and exact ranks follow all three
        ranks = [rank, np.searchsorted(ranked, vfloat)] if tied else [rank]
        k0, k1 = s0[index].sum(axis=0), s1[index].sum(axis=0)
        order = np.lexsort((*(t[c] for t in ranks for c in index[::-1]),
                            k1, k0))
        fresh = np.concatenate(([True], np.diff(index[:, order]).any(0)))
        k0, k1 = k0[order[fresh]], k1[order[fresh]]
        firsts = np.concatenate(
            ([True], (k0[1:] != k0[:-1]) | (k1[1:] != k1[:-1]))).nonzero()[0]
        k0, k1 = k0.take(firsts), k1.take(firsts)
    kept = np.ascontiguousarray(index.take(order[fresh], 1).T)
    pair = np.empty((n, 2), dtype=dtype)
    pair[:, 0], pair[:, 1] = va, vb
    rows, floats = pair.take(kept, 0).reshape(-1, 6), vfloat.take(kept)
    # Each radius (k0 + k1*tau)/den^2 as the sum of its first row's float
    # squares.  A value's float is within 5u|m| of it, u = 2^-53 and
    # m = (|va| + |vb|*tau)/den, where m^2 <= (1 + tau^2)(va^2 + vb^2)/den^2;
    # so a radius is within 150u * top0/den^2 < 2^-45 * top0/den^2, and
    # radii whose floats lie 2^-40 * top0/den^2 apart are in float order.
    by = _exact_order(np.square(floats.take(firsts, 0)).sum(1), k0, k1,
                      2.0 ** -40 * top0 / (den * den))
    ends, den2 = [*firsts[1:].tolist(), len(rows)], den * den
    firsts, k0, k1 = firsts.tolist(), k0.tolist(), k1.tolist()
    return tuple(
        Shell(GoldenNumber._make(k0[s], k1[s], den2),
              rows[firsts[s]:ends[s]], den, floats[firsts[s]:ends[s]])
        for s in by.tolist()
    )


def _times(va: list[int], vb: list[int], p: int, q: int,
           scale: int) -> tuple[list[int], list[int]]:
    """(p + q*tau)*scale times every value va[k] + vb[k]*tau.

    (a + b*tau)(p + q*tau) = (ap + bq) + (aq + b(p+q))*tau: the length
    acts on values as the integer matrix [[p, q], [q, p+q]].
    """
    return ([(a * p + b * q) * scale for a, b in zip(va, vb)],
            [(a * q + b * (p + q)) * scale for a, b in zip(va, vb)])


def _scaled_values(x_values: tuple, sums, length: GoldenNumber
                   ) -> tuple[int, list[int], list[int], list[int],
                              list[int]]:
    """(den, xa, xb, sa, sb): the values of a start's value_table and
    `length` times the values of the direction sums `sums`, over one
    denominator, in Python ints; a coordinate of x + lambda*s is
    (xa[i] + sa[j] + (xb[i] + sb[j])*tau)/den, i and j its indexes into
    the two tables."""
    den_x, ua, ub, _ = x_values
    den = lcm(den_x, sums.den * length.den)
    return (den, *_times(ua, ub, 1, 0, den // den_x),
            *_times(sums.va, sums.vb, length.an, length.bn,
                    den // (sums.den * length.den)))


def _array_values(start: StartConfig, translation: AffineTranslation,
                  depth: int) -> tuple[int, np.ndarray, np.ndarray,
                                       np.ndarray, type]:
    """(den, va, vb, index, dtype): the value table of the candidate rows
    {x + lambda*s}, x a start row and s a sum of at most `depth`
    directions (PointGroup.direction_sums), with the (3, N) index of
    each row's coordinates into it, and the rows' dtype.

    Every coordinate of x + lambda*s is u + lambda*v, u a value of the
    start's and v one of the sums', so the array's distinct values are
    among the |U|*|V| pair sums, and a row's index is its two tables'
    indexes looked up in the pair table.  The shared denominator and the
    lowest terms come from the start's values and the single steps'
    (the depth-1 sums), as they would from every row, in Python ints;
    the rows are int64 when max|x| + depth*max|step| and the denominator
    stay below 2^29, and Python ints (dtype=object) otherwise.
    """
    group, fold, length = (translation.group, translation.fold,
                           translation.length)
    sums, steps = (group.direction_sums(fold, k) for k in (depth, 1))
    den, xa, xb, sa, sb = _scaled_values(start.value_table, sums, length)
    # the single steps share the sums' denominator
    da, db = _times(steps.va, steps.vb, length.an, length.bn,
                    den // (steps.den * length.den))
    g = gcd(den, *xa, *xb, *da, *db)
    den //= g
    bound = (max(map(abs, xa + xb)) + depth * max(map(abs, da + db))) // g
    dtype = np.int64 if max(bound, den) < _INT64_BOUND else object
    va, vb, pairs = _distinct_sums(
        *([v // g for v in table] for table in (sa, sb, xa, xb)), dtype)
    index = pairs.take(sums.index[:, :, None] * len(xa)
                       + start.value_table[3][:, None]).reshape(3, -1)
    return den, va, vb, index, dtype


def _check_point_budget(start: StartConfig, translation: AffineTranslation,
                        depth: int) -> None:
    """Refuse |start| * |sums| candidate points over DEFAULT_POINT_CAP at
    every level of the sums, before the next level is built."""
    for level in range(depth + 1):
        sums = translation.group.direction_sums(translation.fold, level)
        budget = len(start) * len(sums.rows)
        if budget > DEFAULT_POINT_CAP:
            raise PointBudgetError(f"{budget} candidate points exceed the "
                                   f"cap of {DEFAULT_POINT_CAP}")


def generate_array(start: StartConfig, translation: AffineTranslation,
                   depth: int) -> PointArray:
    """Collect {x + (sum of at most `depth` translation vectors)} exactly.

    Every start vertex and translation vector lies in Q(tau)^3, so the
    work runs on integer rows over one shared denominator, built from
    the distinct coordinate values (see _array_values): int64 when no
    entry can reach 2^29 and Python ints otherwise.  The point budget
    |start| * |sums| is checked at every level of the sums before the
    next is built, so an oversized request stops before its last level.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    _check_point_budget(start, translation, depth)
    shells = (build_shells(*_array_values(start, translation, depth))
              if len(start) else ())
    return PointArray(start, translation, depth, shells)


def _band_ends(radii: list[float]) -> list[int]:
    """The end of each band of ascending shell radii: a band ends where
    the next radius lies over DEFAULT_BAND_GAP above it, relatively."""
    cuts = [i for i in range(1, len(radii))
            if radii[i] > 0
            and (radii[i] - radii[i - 1]) / radii[i] > DEFAULT_BAND_GAP]
    return [*cuts, len(radii)]


def bands(array: PointArray) -> tuple[Band, ...]:
    """Split the ascending shells at relative radius gaps over 0.11."""
    shell_list = array.shells
    if not shell_list:
        return ()
    ends = _band_ends([shell.radius for shell in shell_list])
    return tuple(Band(shell_list[a:b]) for a, b in zip([0, *ends], ends))


def outer_cage(array: PointArray) -> cages.CageFinding | None:
    """Detect the outermost cage surface of an array, if there is one.

    The search runs on the shells' float coordinates, and on their exact
    rows under the start's symmetry, so an invariant union is searched
    from one row per orbit.  The graph's `rows` are the winning union's
    shell rows in union order, from which `CageGraph.points` is built on
    first read.
    """
    shells = array.shells
    den = shells[0].den if shells else 1
    return cages._detect_cage(
        [shell.coords for shell in shells],
        (array.start.symmetry, den, [shell.rows for shell in shells]))


def _multiset_count(n_directions: int, depth: int) -> int:
    return sum(math.comb(n_directions + j - 1, j) for j in range(depth + 1))


def generic_cardinality(start: StartConfig, translation: AffineTranslation,
                        depth: int = 1) -> int:
    """Array size when no points coincide: |X| * (1 + #directions) at depth 1."""
    return (len(start)
            * _multiset_count(len(translation.directions), depth))


class ScanSpec:
    """Grid of candidate lengths (a + b*tau)/c with a float cutoff."""

    def __init__(self, a_range=(-7, 7), b_range=(-6, 6),
                 c_values=(1, 2, 3, 4, 5), cutoff: float | None = None) -> None:
        self.a_range = (int(a_range[0]), int(a_range[1]))
        self.b_range = (int(b_range[0]), int(b_range[1]))
        self.c_values = tuple(sorted(set(int(c) for c in c_values)))
        if any(c <= 0 for c in self.c_values):
            raise ValueError("denominators must be positive")
        self.cutoff = cutoff  # None: 2x the start's outer radius

    def lengths(self, cutoff: float) -> list[GoldenNumber]:
        """Distinct positive candidate lengths with float value <= cutoff,
        in exact ascending order."""
        seen: dict[tuple, GoldenNumber] = {}
        a_lo, a_hi = self.a_range
        b_lo, b_hi = self.b_range
        _check_grid(self.a_range, self.b_range, len(self.c_values))
        for c in self.c_values:
            for a in range(a_lo, a_hi + 1):
                for b in range(b_lo, b_hi + 1):
                    value = GoldenNumber._make(a, b, c)
                    if value.sign() <= 0 or float(value) > cutoff:
                        continue
                    seen.setdefault(value.key(), value)
        # GoldenNumber's order is exact, and the keys are distinct
        return sorted(seen.values())


def _check_grid(a_range, b_range, c_count: int) -> None:
    """Refuse a grid of over DEFAULT_POINT_CAP lengths before it is built."""
    cells = ((a_range[1] - a_range[0] + 1) * (b_range[1] - b_range[0] + 1)
             * c_count)
    if cells > DEFAULT_POINT_CAP:
        raise PointBudgetError(f"scan grid of {cells} lengths is too big")


def parse_scan_spec(text: str) -> ScanSpec:
    """Parse "a=-6..6,b=-6..6,c=1..5,max=3.5" (c also accepts 1;2;5)."""

    def int_range(value: str) -> tuple[int, int]:
        lo, _, hi = value.partition("..")
        if not _:
            n = int(lo)
            return (n, n)
        if int(lo) > int(hi):
            raise ValueError(f"range {value} is empty")
        return (int(lo), int(hi))

    spec = ScanSpec()
    seen = set()
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, value = part.partition("=")
            if not _:
                raise ValueError(f"expected name=value, got '{part}'")
            name = name.strip()
            value = value.strip()
            if name in seen:
                raise ValueError(f"field '{name}' is given twice")
            seen.add(name)
            if name == "a":
                spec.a_range = int_range(value)
            elif name == "b":
                spec.b_range = int_range(value)
            elif name == "c":
                if ".." in value:
                    lo, hi = int_range(value)
                    _check_grid(spec.a_range, spec.b_range, hi - lo + 1)
                    spec.c_values = tuple(range(lo, hi + 1))
                else:
                    spec.c_values = tuple(
                        sorted(set(int(v) for v in value.split(";")))
                    )
                if any(c <= 0 for c in spec.c_values):
                    raise ValueError("denominators must be positive")
            elif name == "max":
                spec.cutoff = float(value)
                if not spec.cutoff > 0:
                    raise ValueError("max must be positive")
            else:
                raise ValueError(f"unknown scan field '{name}'")
    except ValueError as exc:
        raise ValueError(f"bad scan spec '{text}': {exc}") from exc
    return spec


# The stock grid: (a + b*tau)/c for a in -7..7, b in -6..6, c in 1..5,
# capped at twice the start radius.  The rational part reaches 7 so the
# grid covers every catalogued length, (7+tau)/5 included.
DEFAULT_SCAN_SPEC = ScanSpec()


def _band_entry(rmin: float, rmax: float, count: int) -> dict:
    return {
        "rmin": round(rmin, 9),
        "rmax": round(rmax, 9),
        "count": count,
        "trivalent": False,
    }


def _band_report(band: Band, is_outer: bool) -> dict:
    """Describe one band; the trivalence flag is asked of the outer band.

    A translation "results in" a three-coordinated shell when the new
    outer surface of its array bonds trivalently, so only the outermost
    band carries the flag.  Interior bands routinely contain 3-regular
    sub-orbits (scaled dodecahedra and the like) that say nothing about
    the extension, so they report trivalent: false by definition.
    """
    entry = _band_entry(band.rmin, band.rmax, len(band))
    cage = None
    if is_outer:
        cage = cages.trivalence_threshold_search(
            *(shell.coords for shell in band.shells))
    if cage is not None:
        entry["trivalent"] = True
        entry["edge_ratio"] = round(cage.edge_ratio, 9)
        try:
            census = cages.face_census(cage)
        except cages.EulerError:
            entry["faces"] = None
        else:
            entry["faces"] = census.as_dict()
    return entry


def cage_report(finding: cages.CageFinding | None,
                array: PointArray) -> dict | None:
    """JSON-ready summary of a cage finding against its source array."""
    if finding is None:
        return None
    used = [array.shells[i] for i in finding.shell_indices]
    dropped = finding.dropped_index
    return {
        "count": finding.vertex_count,
        "rmin": round(used[0].radius, 9),
        "rmax": round(used[-1].radius, 9),
        "shells": len(used),
        "dropped_shell_radius": (
            round(array.shells[dropped].radius, 9)
            if dropped is not None else None
        ),
        "edges": finding.graph.edge_count,
        "edge_ratio": round(finding.graph.edge_ratio, 9),
        "faces": finding.census.as_dict(),
        "pentagon_contact": cages.pentagon_contact_signature(finding.census),
    }


def _dots(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The golden dot products (a, b) of two integer row arrays of shape
    (..., 6), row by row."""
    a, b = _gmul(u[..., 0::2], u[..., 1::2], v[..., 0::2], v[..., 1::2])
    return a.sum(axis=-1), b.sum(axis=-1)


def _magnitudes(den: int, rows: np.ndarray) -> np.ndarray:
    """The (n, 3) component magnitudes (|a| + |b|*tau)/den of the
    coordinates of (n, 6) integer rows over `den`, as floats."""
    rows = abs(rows)
    return np.asarray((rows[:, 0::2] + rows[:, 1::2] * _TAU_FLOAT) / den,
                      dtype=float)


def _meeting_lengths(u: np.ndarray, v: np.ndarray, du: int,
                     dv: int) -> set[tuple[int, int, int]]:
    """The keys of every lambda > 0 with u = lambda*v, over the rows of two
    (n, 6) arrays of Python ints over `du` and `dv`.

    Nonzero u and v are parallel exactly when their three 2x2 minors
    u_c*v_d - u_d*v_c vanish, taken in int64 when 6*max|u|*max|v| fits
    and in Python ints otherwise.  Then lambda = (u_c/v_c)*(dv/du) for
    the first coordinate with v_c != 0, divided through the conjugate:
    (a + b*tau)/(c + d*tau) = ((a(c+d) - bd) + (bc - ad)*tau)/N, with
    N = c^2 + cd - d^2 the norm of c + d*tau.
    """
    top = int(abs(u).max(initial=0)) * int(abs(v).max(initial=0))
    if 6 * top < 2 ** 63:
        u, v = u.astype(np.int64), v.astype(np.int64)
    parallel = u.any(axis=1) & v.any(axis=1)
    for c, d in ((0, 1), (0, 2), (1, 2)):
        left = _gmul(u[:, 2 * c], u[:, 2 * c + 1],
                     v[:, 2 * d], v[:, 2 * d + 1])
        right = _gmul(u[:, 2 * d], u[:, 2 * d + 1],
                      v[:, 2 * c], v[:, 2 * c + 1])
        parallel &= (left[0] == right[0]) & (left[1] == right[1])
    found = set()
    for u_row, v_row in zip(u[parallel].tolist(), v[parallel].tolist()):
        k = next(k for k in (0, 2, 4) if v_row[k] or v_row[k + 1])
        (a, b), (c, d) = u_row[k:k + 2], v_row[k:k + 2]
        length = GoldenNumber._make((a * (c + d) - b * d) * dv,
                                    (b * c - a * d) * dv,
                                    (c * c + c * d - d * d) * du)
        if length.sign() > 0:
            found.add(length.key())
    return found


class _PairTable:
    """The points x_i + lambda*s_j of a start X and the direction sums S of
    one fold and depth, as pairs (i, j), for every lambda at once.

    A group that keeps X and S maps x + lambda*s to gx + lambda*gs, so its
    generators permute the pairs; the start's and the sums' orbit
    permutations (PointGroup.orbits) compose into the pairs' groups.Orbits.
    The squared radius of x + lambda*s is |x|^2 + 2*lambda*x.s +
    lambda^2*|s|^2, so orbits whose representatives share (|x|^2, x.s,
    |s|^2) share a shell at every lambda: they form a class.  `quad`
    holds each class's coefficients as integers: with lambda = (p +
    q*tau)/e its radius is quad @ (e^2, ep, eq, p^2 + q^2, 2pq + q^2)
    over (dx*ds*e)^2, dx and ds the rows' denominators; `sizes` holds
    its number of pairs, and `pairs` every pair's (i, j) as two index
    arrays, class by class from `firsts` on, each class's `n_reps`
    representatives first.

    Two pairs can only meet at a lambda that puts them on one shell.
    Pairs of two classes do so only where the classes share a radius.
    Two pairs of one class meet only where one of its representatives
    meets a pair of the class, since a group element maps any meeting
    onto one: `coincidences` holds those lambdas > 0, as GoldenNumber keys.

    The squared distance from a representative x_a + lambda*s_b to a pair
    x_i + lambda*s_j is A + lambda*(B + lambda*C), with A = |x_a - x_i|^2,
    B = 2(x_a - x_i).(s_b - s_j) and C = |s_b - s_j|^2 free of lambda:
    `refutes` reads a band's trivalence gap from their floats (`_rows`),
    and bounds its error by `magnitudes`, each class's largest sums over
    its pairs of m(x_c)^2, m(x_c)*m(s_c) and m(s_c)^2, m the component
    magnitude (`_magnitudes`).
    """

    def __init__(self, start: StartConfig, sums, x_orbits: Orbits,
                 s_orbits: Orbits) -> None:
        self.dx, x_rows = start.integer_rows
        self.ds, s_rows = sums.den, sums.rows
        n_s = len(s_rows)
        orbits = Orbits((x_orbits.permutations[:, :, None] * n_s
                         + s_orbits.permutations[:, None]).reshape(
                             len(x_orbits.permutations), -1))
        label, reps = orbits.label, orbits.reps
        x_rows, s_rows = x_rows.astype(object), s_rows.astype(object)
        x, s = x_rows[reps // n_s], s_rows[reps % n_s]
        dx, ds = self.dx, self.ds
        a0, a1 = (t * ds * ds for t in _dots(x, x))
        b0, b1 = (t * 2 * dx * ds for t in _dots(x, s))
        c0, c1 = (t * dx * dx for t in _dots(s, s))
        quad = np.stack([np.stack([a0, b0, b1, c0, c1], axis=1),
                         np.stack([a1, b1, b0 + b1, c1, c0 + c1], axis=1)])
        classes: dict[tuple, int] = {}
        orbit_class = np.array(
            [classes.setdefault(key, len(classes))
             for key in map(tuple, np.concatenate(quad, axis=1).tolist())],
            dtype=np.intp)
        first = np.unique(orbit_class, return_index=True)[1]
        self.quad = quad[:, first]
        self.qmax = int(abs(self.quad).max())
        if self.qmax < 2 ** 62:
            self.quad = self.quad.astype(np.int64)
        pair_class = orbit_class[np.searchsorted(reps, label)]
        self.sizes = np.bincount(pair_class)
        self.n_reps = np.bincount(orbit_class).tolist()
        self.n_pairs = len(label)
        # each class's pairs, its representatives first
        columns = np.lexsort((label != np.arange(len(label)), pair_class))
        self.firsts = np.concatenate(([0], np.cumsum(self.sizes)[:-1]))
        members = np.split(columns, self.firsts[1:])
        left = np.concatenate([np.repeat(m[:r], len(m))
                               for m, r in zip(members, self.n_reps)])
        right = np.concatenate([np.tile(m, r)
                                for m, r in zip(members, self.n_reps)])
        self.coincidences = frozenset(_meeting_lengths(
            x_rows[left // n_s] - x_rows[right // n_s],
            s_rows[right % n_s] - s_rows[left % n_s], dx, ds))
        self.pairs = i, j = np.divmod(columns, n_s)
        mx, ms = _magnitudes(dx, x_rows)[i], _magnitudes(ds, s_rows)[j]
        self.magnitudes = np.maximum.reduceat(
            [np.square(mx).sum(1), (mx * ms).sum(1), np.square(ms).sum(1)],
            self.firsts, axis=1)
        # A, B/2 and C sum three golden products of differences up to
        # 2*top, each part at most 3*(2*top)^2: int64 while that fits
        top = max(int(abs(x_rows).max()), int(abs(s_rows).max()))
        dtype = np.int64 if 36 * top * top < 2 ** 63 else object
        self._x, self._s = x_rows.astype(dtype), s_rows.astype(dtype)
        self._blocks: dict[int, np.ndarray] = {}

    def shells(self, length: GoldenNumber
               ) -> tuple[np.ndarray, list[float]] | None:
        """(classes, radii): the classes in ascending exact radius at
        `length` and their float radii, as Shell.radius gives them; None
        when two classes share a radius.

        The radii are integer pairs over one denominator, in int64 under
        a checked bound and in Python ints above it; each is reduced to
        lowest terms before its float is taken, as GoldenNumber's is.
        """
        p, q, e = length.an, length.bn, length.den
        weights = [e * e, e * p, e * q, p * p + q * q, 2 * p * q + q * q]
        den2 = (self.dx * self.ds * e) ** 2
        quad = self.quad
        if (quad.dtype == object or den2 >= 2 ** 63
                or 5 * self.qmax * max(map(abs, weights)) >= 2 ** 63):
            quad, weights = quad.astype(object), np.array(weights, object)
        else:
            weights = np.array(weights, dtype=np.int64)
        k0, k1 = quad @ weights
        floats = _value_floats(k0, k1, den2)[0]
        # a float lies within 5u*(|k0| + |k1|*tau)/den2 of its radius,
        # u = 2^-53, so floats further apart than this are in exact order
        top = int(abs(k0).max()) + 2 * int(abs(k1).max())
        order = _exact_order(floats, k0, k1, 2.0 ** -40 * (top / den2))
        # in exact order, two equal radii leave two equal neighbours
        a, b = order[:-1], order[1:]
        if ((k0[a] == k0[b]) & (k1[a] == k1[b])).any():
            return None
        return order, np.sqrt(floats.take(order)).tolist()

    def _rows(self, k: int) -> np.ndarray:
        """(3, n_reps[k], n_pairs): the floats of A, B and C from class k's
        representatives to every pair, in `pairs` order, with A = inf at
        a representative's own column.  Built on first use: c80's fold-2
        depth-2 table holds 274 representatives against 28,880 pairs,
        190 MB of floats, and a scan reads only the bands it meets."""
        block = self._blocks.get(k)
        if block is None:
            first, (i, j) = self.firsts[k], self.pairs
            own = np.arange(self.n_reps[k])
            u = self._x[i[first + own]][:, None] - self._x[i]
            v = self._s[j[first + own]][:, None] - self._s[j]
            dx, ds = self.dx, self.ds
            (a0, a1), (b0, b1), (c0, c1) = (_dots(u, u), _dots(u, v),
                                            _dots(v, v))
            block = np.array([(a0 + a1 * _TAU_FLOAT) / float(dx * dx),
                              2 * (b0 + b1 * _TAU_FLOAT) / float(dx * ds),
                              (c0 + c1 * _TAU_FLOAT) / float(ds * ds)],
                             dtype=float)
            block[0, own, first + own] = np.inf
            self._blocks[k] = block
        return block

    def refutes(self, length: GoldenNumber, band: np.ndarray) -> bool:
        """Whether the points of the classes `band` fail the gap test on
        their representatives' rows, so that the array's threshold search
        of the band fails it too.  A representative's row holds its
        squared distances to every point of the band but itself, each
        A + lambda*(B + lambda*C) from the floats of `_rows`.  The band
        is invariant, so its other rows repeat these distances, and a
        failed gap fails the whole search.

        The bound.  Let u = 2^-53 and m(v) = (|a| + |b|*tau)/den for a
        value v = (a + b*tau)/den: m(v) >= |v|, m is subadditive and
        submultiplicative, and a float (a + b*fl(tau))/den lies within
        6u*m(v) of v however large a, b and den are; golden components
        can cancel, so m(v) may be far above |v|.  Let
        R^2 = max sum_c (m(x_c) + m(lambda)*m(s_c))^2 over the band's
        pairs x + lambda*s (`magnitude2`), and for two points p
        and q let W = sum_c (m(p_c) + m(q_c))^2 <= 4R^2.  An entry
        evaluated here lies within 22u*W of the exact squared distance,
        and the entry the array's search takes by cages._pairwise_squared
        from the points' coordinate floats within 17u*W, both to first
        order in u; so the two lie within e = 41u*W <= 164u*R^2 of each
        other outright.  The third- and fourth-smallest entries move by
        e at most, so the gap by 2e.  A band is refuted only when its
        gap misses by more than _REFUTE_ERROR * R^2 = 345u*R^2, which
        covers (2 + 10^-9)*e and the test's own rounding; then the
        array's rows miss it too.  Any other band takes the array path.

        The probe.  The row of the first representative of the band's
        outermost class is tested alone first, and the whole block only
        when that row holds the gap.  Its entries are the block's, bit
        for bit, and fewer rows can only lower the largest third-smallest
        entry and raise the smallest fourth-smallest: the probe's gap is
        no smaller than the block's and its float-noise floor no larger,
        so a band the probe refutes the block refutes too.  On the
        default icosidodecahedron scan the probe settles 772 of the 864
        bands.
        """
        inside = np.zeros(len(self.sizes), dtype=bool)
        inside[band] = True
        columns = np.repeat(inside, self.sizes).nonzero()[0]
        lam = float(length)
        error = _REFUTE_ERROR * self.magnitude2(length, band)

        def refuted(block: np.ndarray) -> bool:
            a, b, c = block.take(columns, axis=2)
            return cages._gap(a + lam * (b + lam * c), error) is None

        return (refuted(self._rows(band[-1])[:, :1])
                or refuted(np.concatenate([self._rows(k) for k in band],
                                          axis=1)))

    def magnitude2(self, length: GoldenNumber, band: np.ndarray) -> float:
        """The R^2 of `refutes`: the largest sum_c (m(x_c) +
        m(lambda)*m(s_c))^2 over the pairs x + lambda*s of the classes
        `band`, from `magnitudes`."""
        m = (abs(length.an) + abs(length.bn) * _TAU_FLOAT) / length.den
        x2, xs, s2 = self.magnitudes[:, band]
        return float((x2 + m * (2 * xs + m * s2)).max())


def _pair_table(start: StartConfig, fold: int,
                depth: int) -> _PairTable | None:
    """The start's pair table for a fold and depth under its symmetry,
    built on first use and kept on the start; None when the group does
    not keep the start's rows or the sums' rows."""
    tables = start._pair_tables
    if (fold, depth) not in tables:
        group = start.symmetry
        sums = group.direction_sums(fold, depth)
        x_orbits = group.orbits(*start.integer_rows)
        s_orbits = group.orbits(sums.den, sums.rows)
        tables[fold, depth] = (
            None if x_orbits is None or s_orbits is None
            else _PairTable(start, sums, x_orbits, s_orbits))
    return tables[fold, depth]


def _row(start: StartConfig, translation: AffineTranslation, depth: int,
         actual: int, band_entries: list[dict]) -> dict:
    """A classification row of `actual` points and these bands."""
    generic = generic_cardinality(start, translation, depth)
    return {
        "start": start.name,
        "fold": translation.fold,
        "length": format_golden(translation.length),
        "length_float": round(float(translation.length), 9),
        "depth": depth,
        "generic": generic,
        "actual": actual,
        "nontrivial": actual < generic,
        "bands": band_entries,
    }


def _table_row(start: StartConfig, translation: AffineTranslation,
               depth: int) -> dict | None:
    """The `with_cage=False` row from the pair table, or None for a row
    the array must decide: a coincidence length, two classes on one
    shell, an outer band whose representatives hold a gap, a translation
    whose group is not the start's symmetry, a length that is not
    positive (the table holds the positive coincidence lengths only), or
    an empty start.

    With no two points meeting, the array holds every pair once: shells
    are classes and counts sums of class sizes.
    """
    if (depth < 0 or not len(start) or translation.length.sign() <= 0
            or translation.group is not start.symmetry):
        return None
    _check_point_budget(start, translation, depth)
    table = _pair_table(start, translation.fold, depth)
    length = translation.length
    if table is None or length.key() in table.coincidences:
        return None
    shells = table.shells(length)
    if shells is None:
        return None
    order, radii = shells
    ends = _band_ends(radii)
    firsts = [0, *ends[:-1]]
    sizes = table.sizes.take(order).tolist()
    counts = [sum(sizes[a:b]) for a, b in zip(firsts, ends)]
    cages._check_search_budget(counts[-1])
    if counts[-1] >= 4 and not table.refutes(length, order[firsts[-1]:]):
        return None
    return _row(start, translation, depth, table.n_pairs, [
        _band_entry(radii[a], radii[b - 1], n)
        for a, b, n in zip(firsts, ends, counts)])


def classify_length(start: StartConfig, translation: AffineTranslation,
                    depth: int = 1, with_cage: bool = True) -> dict:
    """One classification row: cardinalities plus band and cage findings.

    `with_cage=False` skips the cage search (scans over hundreds of
    lengths use the cheaper per-band trivalence flags instead), and
    answers from the start's pair table (_PairTable) where no two points
    of the array meet and the outer band's representatives refute the
    trivalence gap; every other row is read off the array.
    """
    row = None if with_cage else _table_row(start, translation, depth)
    if row is not None:
        return row
    array = generate_array(start, translation, depth)
    split = bands(array)
    row = _row(start, translation, depth, len(array), [
        _band_report(band, i == len(split) - 1)
        for i, band in enumerate(split)
    ])
    if with_cage:
        row["cage"] = cage_report(outer_cage(array), array)
    return row


def classify_scan(start: StartConfig, folds, spec: ScanSpec) -> list[dict]:
    """Classify every scan length along every requested fold.

    Rows are ordered by (fold, float length, exact key), so a fixed spec
    always produces the same rows in the same order.
    """
    cutoff = spec.cutoff
    if cutoff is None:
        cutoff = 2.0 * math.sqrt(float(start.radius2))
    lengths = spec.lengths(cutoff)
    if not lengths:
        raise EmptyScanError("scan produced no candidate lengths")
    return [
        classify_length(start, make_translation(start.symmetry, fold, length),
                        1, with_cage=False)
        for fold in sorted(folds) for length in lengths
    ]
