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
generated on an integer point kernel: each point is six Python ints
(a, b per coordinate, value (a + b*tau)/den) over one shared denominator.
Translation is integer addition, dedup is a set of integer rows, and the
exact squared radius is an integer pair.  Shells carry float coordinates
for the cage searches and build exact Vec3E points only when asked.

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
from .configs import StartConfig
from .geometry import Vec3E
from .golden import (_TAU_FLOAT, ExtNumber, GoldenNumber,
                     RadicandMismatchError, format_golden)
from .groups import FOLD_RADICANDS, PointGroup

__all__ = [
    "PointBudgetError",
    "AffineTranslation",
    "PointArray",
    "Shell",
    "Band",
    "make_translation",
    "generate_array",
    "bands",
    "outer_cage",
    "generic_cardinality",
    "is_nontrivial",
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
DEFAULT_POINT_CAP = 10 ** 6
# The outer band's threshold search holds an N x N x 3 float64 difference
# tensor plus the N x N squared distances, 32*N^2 bytes.  256 MiB allows
# N up to 2896 points; the largest outer band that `verify`, the test
# suite and the benchmark reach has 930 points (27.7 MB).
_BAND_PAIR_BYTES_CAP = 2 ** 28


class PointBudgetError(RuntimeError):
    """Array generation would exceed the configured point cap."""


class AffineTranslation:
    """A translation length attached to every axis direction of one fold."""

    def __init__(self, fold: int, length: GoldenNumber,
                 directions: tuple[Vec3E, ...]) -> None:
        self.fold = fold
        self.length = length
        self.directions = directions
        self.vectors: tuple[Vec3E, ...] = tuple(
            d.scale(length) for d in directions
        )

    @property
    def radicand(self) -> GoldenNumber:
        return self.directions[0].radicand

    def __repr__(self) -> str:
        return (f"AffineTranslation(fold={self.fold}, "
                f"length={format_golden(self.length)}, "
                f"{len(self.vectors)} vectors)")


def make_translation(group: PointGroup, fold: int,
                     length: GoldenNumber) -> AffineTranslation:
    """Attach a positive exact length to the base-vector orbit of a fold."""
    if fold not in FOLD_RADICANDS:
        raise ValueError(f"unsupported fold {fold}; expected 2, 3, or 5")
    if length.sign() <= 0:
        raise ValueError("translation length must be positive")
    return AffineTranslation(fold, length, group.translation_orbit(fold))


class Shell:
    """All array points at one exact squared radius.

    Points are integer rows (a_x, b_x, a_y, b_y, a_z, b_z) over the shared
    denominator `den`, coordinate c being (a_c + b_c*tau)/den.  `coords`
    holds their floats, bit-identical to `as_coords(points)`; the exact
    `points` are built in the radius' workspace on first access.
    """

    def __init__(self, radius2: ExtNumber, rows: tuple[tuple[int, ...], ...],
                 den: int, coords: np.ndarray) -> None:
        self.radius2 = radius2
        self.rows = rows
        self.den = den
        self.coords = coords

    @cached_property
    def points(self) -> tuple[Vec3E, ...]:
        k, den = self.radius2.k, self.den
        return tuple(
            Vec3E(ExtNumber._make(ax, bx, 0, 0, den, k),
                  ExtNumber._make(ay, by, 0, 0, den, k),
                  ExtNumber._make(az, bz, 0, 0, den, k))
            for ax, bx, ay, by, az, bz in self.rows
        )

    @property
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

    @cached_property
    def points(self) -> tuple[Vec3E, ...]:
        return tuple(p for shell in self.shells for p in shell.points)

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate([shell.coords for shell in self.shells])

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


def _integer_rows(*vector_sets) -> tuple[int, list[list[tuple[int, ...]]]]:
    """One shared denominator and each vector's six numerators over it.

    A coordinate with a radical part raises RadicandMismatchError, as
    moving it into another workspace would.
    """
    den = 1
    for vectors in vector_sets:
        for v in vectors:
            for c in v:
                if not c.is_golden():
                    raise RadicandMismatchError(
                        "cannot change the radicand of a value with a "
                        "radical part"
                    )
                den = lcm(den, c.den)
    out = []
    for vectors in vector_sets:
        rows = []
        for v in vectors:
            row: list[int] = []
            for c in v:
                scale = den // c.den
                row += (c.pa * scale, c.pb * scale)
            rows.append(tuple(row))
        out.append(rows)
    return den, out


def build_shells(rows, den: int, radicand: GoldenNumber) -> tuple[Shell, ...]:
    """Group integer point rows over `den` by exact squared radius, ascending.

    The squared radius of (a + b*tau)/den per coordinate is
    (sum a^2+b^2 + (sum (2a+b)b)*tau)/den^2.  Points inside a shell are
    ordered by float coordinates, exact reduced triples breaking ties: the
    order of (Vec3E.as_floats(), Vec3E.key()), so output is deterministic.
    """
    # (float, reduced (a, b, den) triple) per coordinate numerator pair,
    # the float by ExtNumber.__float__'s own arithmetic on the triple
    values: dict[tuple[int, int], tuple[float, tuple[int, int, int]]] = {}

    def value(a: int, b: int) -> tuple[float, tuple[int, int, int]]:
        g = gcd(a, b, den)
        ra, rb, d = a // g, b // g, den // g
        out = values[a, b] = ((ra + rb * _TAU_FLOAT) / d, (ra, rb, d))
        return out

    by_radius: dict[tuple[int, int], list] = {}
    for row in rows:
        ax, bx, ay, by, az, bz = row
        key = (ax * ax + bx * bx + ay * ay + by * by + az * az + bz * bz,
               (2 * ax + bx) * bx + (2 * ay + by) * by + (2 * az + bz) * bz)
        fx, tx = values.get((ax, bx)) or value(ax, bx)
        fy, ty = values.get((ay, by)) or value(ay, by)
        fz, tz = values.get((az, bz)) or value(az, bz)
        by_radius.setdefault(key, []).append(
            ((fx, fy, fz, tx, ty, tz), row))
    den2 = den * den
    radii = {key: ExtNumber._make(key[0], key[1], 0, 0, den2, radicand)
             for key in by_radius}
    out = []
    for key in sorted(radii, key=radii.__getitem__):
        ordered = sorted(by_radius[key])
        coords = np.array([sort_key[:3] for sort_key, _ in ordered],
                          dtype=float)
        out.append(Shell(radii[key], tuple(row for _, row in ordered), den,
                         coords))
    return tuple(out)


def _offsets(steps: list[tuple[int, ...]], depth: int, n_start: int,
             cap: int) -> set[tuple[int, ...]]:
    """All sums of at most `depth` steps, level by level.

    S_0 = {0} and S_j = S_{j-1} | (S_{j-1} + steps); only the sums new at
    level j-1 need extending.  The point budget n_start * |S_j| is checked
    at every level, so an oversized request stops before its last level.
    """
    zero = (0,) * 6
    seen = {zero}
    frontier = [zero]
    for j in range(depth + 1):
        if j:
            fresh = []
            for s0, s1, s2, s3, s4, s5 in frontier:
                for v0, v1, v2, v3, v4, v5 in steps:
                    total = (s0 + v0, s1 + v1, s2 + v2, s3 + v3, s4 + v4,
                             s5 + v5)
                    if total not in seen:
                        seen.add(total)
                        fresh.append(total)
            frontier = fresh
        budget = n_start * len(seen)
        if budget > cap:
            raise PointBudgetError(
                f"{budget} candidate points exceed the cap of {cap}"
            )
    return seen


def generate_array(start: StartConfig, translation: AffineTranslation,
                   depth: int, cap: int = DEFAULT_POINT_CAP) -> PointArray:
    """Collect {x + (sum of at most `depth` translation vectors)} exactly.

    Every start vertex and translation vector lies in Q(tau)^3, so the
    work runs on six Python ints per point over one shared denominator:
    translation is integer addition and dedup is a set of integer rows.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    den, (base, steps) = _integer_rows(start.vertices, translation.vectors)
    offsets = _offsets(steps, depth, len(base), cap)
    rows = {
        (x0 + s0, x1 + s1, x2 + s2, x3 + s3, x4 + s4, x5 + s5)
        for s0, s1, s2, s3, s4, s5 in offsets
        for x0, x1, x2, x3, x4, x5 in base
    }
    return PointArray(start, translation, depth,
                      build_shells(rows, den, translation.radicand))


def bands(array_or_shells, gap: float = DEFAULT_BAND_GAP) -> tuple[Band, ...]:
    """Split the ascending shell sequence at relative radius gaps > gap."""
    if not 0 < gap < 0.5:
        raise ValueError("band gap must lie in (0, 0.5)")
    shell_list = (
        array_or_shells.shells
        if isinstance(array_or_shells, PointArray)
        else tuple(array_or_shells)
    )
    if not shell_list:
        return ()
    groups: list[list[Shell]] = [[shell_list[0]]]
    previous = shell_list[0].radius
    for shell in shell_list[1:]:
        radius = shell.radius
        if radius > 0 and (radius - previous) / radius > gap:
            groups.append([])
        groups[-1].append(shell)
        previous = radius
    return tuple(Band(tuple(group)) for group in groups)


def outer_cage(array: PointArray) -> cages.CageFinding | None:
    """Detect the outermost cage surface of an array, if there is one.

    The search runs on the shells' float coordinates; only the winning
    union's exact points are built, for `CageGraph.points`.
    """
    finding = cages.detect_cage([shell.coords for shell in array.shells])
    if finding is not None:
        finding.graph.points = tuple(
            p for i in finding.shell_indices for p in array.shells[i].points
        )
    return finding


def _multiset_count(n_directions: int, depth: int) -> int:
    return sum(math.comb(n_directions + j - 1, j) for j in range(depth + 1))


def generic_cardinality(start: StartConfig, translation: AffineTranslation,
                        depth: int = 1) -> int:
    """Array size when no points coincide: |X| * (1 + #directions) at depth 1."""
    return len(start.vertices) * _multiset_count(len(translation.vectors), depth)


def is_nontrivial(start: StartConfig, translation: AffineTranslation,
                  cap: int = DEFAULT_POINT_CAP) -> bool:
    """True when the depth-1 array has coinciding points."""
    actual = len(generate_array(start, translation, 1, cap=cap))
    return actual < generic_cardinality(start, translation)


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
        """Distinct positive candidate lengths with float value <= cutoff."""
        from fractions import Fraction

        seen: dict[tuple, GoldenNumber] = {}
        a_lo, a_hi = self.a_range
        b_lo, b_hi = self.b_range
        for c in self.c_values:
            for a in range(a_lo, a_hi + 1):
                for b in range(b_lo, b_hi + 1):
                    value = GoldenNumber(Fraction(a, c), Fraction(b, c))
                    if value.sign() <= 0 or float(value) > cutoff:
                        continue
                    seen.setdefault(value.key(), value)
        return sorted(seen.values())


def parse_scan_spec(text: str) -> ScanSpec:
    """Parse "a=-6..6,b=-6..6,c=1..5,max=3.5" (c also accepts 1;2;5)."""

    def int_range(value: str) -> tuple[int, int]:
        lo, _, hi = value.partition("..")
        if not _:
            n = int(lo)
            return (n, n)
        return (int(lo), int(hi))

    spec = ScanSpec()
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
            if name == "a":
                spec.a_range = int_range(value)
            elif name == "b":
                spec.b_range = int_range(value)
            elif name == "c":
                if ".." in value:
                    lo, hi = int_range(value)
                    spec.c_values = tuple(range(lo, hi + 1))
                else:
                    spec.c_values = tuple(
                        sorted(set(int(v) for v in value.split(";")))
                    )
                if any(c <= 0 for c in spec.c_values):
                    raise ValueError("denominators must be positive")
            elif name == "max":
                spec.cutoff = float(value)
            else:
                raise ValueError(f"unknown scan field '{name}'")
    except ValueError as exc:
        raise ValueError(f"bad scan spec '{text}': {exc}") from exc
    return spec


# The stock grid: (a + b*tau)/c for a in -7..7, b in -6..6, c in 1..5,
# capped at twice the start radius.  The rational part reaches 7 so the
# grid covers every catalogued length, (7+tau)/5 included.
DEFAULT_SCAN_SPEC = ScanSpec()


def _band_report(band: Band, is_outer: bool) -> dict:
    """Describe one band; the trivalence flag is asked of the outer band.

    A translation "results in" a three-coordinated shell when the new
    outer surface of its array bonds trivalently, so only the outermost
    band carries the flag.  Interior bands routinely contain 3-regular
    sub-orbits (scaled dodecahedra and the like) that say nothing about
    the extension, so they report trivalent: false by definition.
    """
    entry = {
        "rmin": round(band.rmin, 9),
        "rmax": round(band.rmax, 9),
        "count": len(band),
        "trivalent": False,
    }
    cage = None
    if is_outer:
        pair_bytes = 32 * len(band) ** 2
        if pair_bytes > _BAND_PAIR_BYTES_CAP:
            raise PointBudgetError(
                f"outer band of {len(band)} points needs {pair_bytes} bytes "
                f"of pairwise distances, over the cap of "
                f"{_BAND_PAIR_BYTES_CAP}"
            )
        cage = cages.trivalence_threshold_search(band.coords)
    if cage is not None:
        entry["trivalent"] = True
        entry["edge_ratio"] = round(cage.edge_ratio, 9)
        try:
            census = cages.face_census(cage)
        except cages.EulerError:
            entry["faces"] = None
        else:
            entry["faces"] = {
                "5": census.counts.get(5, 0),
                "6": census.counts.get(6, 0),
                "other": census.other_count,
            }
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
        "faces": {
            "5": finding.census.pentagons,
            "6": finding.census.hexagons,
            "other": finding.census.other_count,
        },
        "pentagon_contact": cages.pentagon_contact_signature(finding.census),
    }


def classify_length(start: StartConfig, translation: AffineTranslation,
                    depth: int = 1, band_gap: float = DEFAULT_BAND_GAP,
                    cap: int = DEFAULT_POINT_CAP,
                    with_cage: bool = True) -> dict:
    """One classification row: cardinalities plus band and cage findings.

    `with_cage=False` skips the cage search (scans over hundreds of
    lengths use the cheaper per-band trivalence flags instead).
    """
    array = generate_array(start, translation, depth, cap=cap)
    generic = generic_cardinality(start, translation, depth)
    actual = len(array)
    split = bands(array, band_gap)
    row = {
        "start": start.name,
        "fold": translation.fold,
        "length": format_golden(translation.length),
        "length_float": round(float(translation.length), 9),
        "depth": depth,
        "generic": generic,
        "actual": actual,
        "nontrivial": actual < generic,
        "bands": [
            _band_report(band, i == len(split) - 1)
            for i, band in enumerate(split)
        ],
    }
    if with_cage:
        row["cage"] = cage_report(outer_cage(array), array)
    return row


def classify_scan(start: StartConfig, folds, spec: ScanSpec,
                  band_gap: float = DEFAULT_BAND_GAP,
                  cap: int = DEFAULT_POINT_CAP, threads: int = 1) -> list[dict]:
    """Classify every scan length along every requested fold.

    Rows are ordered by (fold, float length, exact key): deterministic for
    a fixed spec regardless of how the work is scheduled, so any worker
    count produces identical output.
    """
    cutoff = spec.cutoff
    if cutoff is None:
        cutoff = 2.0 * math.sqrt(float(start.radius2))
    lengths = spec.lengths(cutoff)
    if not lengths:
        raise ValueError("scan produced no candidate lengths")
    tasks = [(fold, length) for fold in sorted(folds) for length in lengths]

    def one_row(task) -> dict:
        fold, length = task
        translation = make_translation(start.symmetry, fold, length)
        return classify_length(start, translation, 1, band_gap, cap,
                               with_cage=False)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one_row, tasks))
    return [one_row(task) for task in tasks]
