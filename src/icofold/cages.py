"""Trivalent cage detection, face censuses, and cage comparison.

Bonds are defined by a global distance cutoff found by a parameter-free
search: candidate cutoffs are the pairwise distances in ascending order,
and a point set is a trivalent cage exactly when some cutoff gives every
vertex degree 3 before any vertex reaches degree 4.  Equivalently, the
largest third-nearest-neighbor distance must fall strictly below the
smallest fourth-nearest-neighbor distance, which is how the search is
evaluated (one vectorized pass instead of a cutoff loop).

One search makes that decision and gives the bonds, for a single point
set as for the many unions of shells cage detection tries.  A union is
first held to a cheap test on each group's first point (the exact
shells, or the one point set): a probe table keeps that point's four
smallest squared distances into each group, and a union's probe rows
are its members' entries.  Taking fewer rows only lowers the largest
third-nearest distance and raises the smallest fourth-nearest, so a
union fails any gap its probe rows fail.  Cage detection tests each
window of shells in one call: its trailing union from the window's
rows as they are, its unions less one interior shell together, from
each probe row's eight smallest entries over the window.  A single
point set's probe rows are its groups' first points against all of
its points, taken only for a set of more than 64 points.  A union that
passes has its points stacked, and one search takes its
representatives' four nearest against all N points, 64
representatives at a time, by four argmin passes over each chunk that
mask each pick with inf in place; the four come out ascending, so once
the gap between the third and fourth holds, each representative's
first three are exactly its bonds, and no search holds an N x N
matrix.  When the union's exact rows are known and
groups.PointGroup.orbits finds them invariant, the representatives are
one point per orbit and Orbits.carry takes their bonds to the rest;
otherwise every point is its own representative.

A bond graph keeps its bonds as one sorted (E, 2) integer array from
the search on; the tuple of pairs is built only when read.

Faces are traced from the rotation system: neighbors ordered by angle in
each vertex's tangent plane, measured in a frame set by its first
neighbor, with the Euler characteristic as the guard
against a band that is not a topological sphere.  The faces are the
cycles of one permutation of the directed edges, found by pointer
doubling over arrays, not by a walk; the census keeps them flat, and
builds the per-face tuples only when read.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, compress, islice

import numpy as np

from .geometry import row_vectors

__all__ = [
    "PointBudgetError",
    "EulerError",
    "CageGraph",
    "FaceCensus",
    "CageFinding",
    "trivalence_threshold_search",
    "face_census",
    "detect_cage",
    "kustov_allowable",
    "similar_up_to_scale",
    "pentagon_contact_signature",
]

# relative separation two float distances need before they count as
# different candidate cutoffs; exact-equal distances land ~1e-13 apart
_RESOLUTION = 1e-9
# rows of squared distances a search holds at once: 16 * 64 * N bytes for
# N points (more rows per chunk only raise the peak)
_CHUNK_ROWS = 64
# Bounds the distance work of one point set's search: when its probe rows
# do not refute the gap, it takes all N^2 squared distances of its N
# points, a fixed number of rows at a time, so its memory grows as N but
# its work as N^2.  The guard refuses a set when 32*N^2 passes the cap,
# so 2^28 allows N up to 2896, about 8.4 million distances.
_PAIR_BYTES_CAP = 2 ** 28


class PointBudgetError(RuntimeError):
    """A request would pass a resource cap on points or on distance work."""


class EulerError(ValueError):
    """Face tracing did not close into a sphere (V - E + F != 2)."""


def as_coords(points) -> np.ndarray:
    """Float (N,3) coordinates from Vec3E sequences or array-likes."""
    if isinstance(points, np.ndarray):
        return np.asarray(points, dtype=float).reshape(-1, 3)
    rows = [
        p.as_floats() if hasattr(p, "as_floats") else tuple(p)
        for p in points
    ]
    return np.array(rows, dtype=float) if rows else np.empty((0, 3))


class CageGraph:
    """An undirected bond graph over a point set at a distance cutoff.

    `pairs` is the bonds as an (E, 2) integer array, or any sequence of
    index pairs; `edges` is the same bonds as a tuple of pairs, built on
    first read.  `points` are the exact points, built on first read from
    `rows`, their (den, integer rows) when known; None for floats only.
    `edge_min` and `edge_max` are the shortest and longest bond (0.0 with
    no bonds).
    """

    def __init__(self, coords: np.ndarray, pairs, cutoff: float) -> None:
        self.coords = coords
        self.pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        self.cutoff = cutoff
        self.rows: tuple[int, np.ndarray] | None = None
        # the group the search found mapping the points onto themselves
        self._symmetry = None
        pairs = self.pairs
        self.degrees = np.bincount(pairs.ravel(), minlength=len(coords))
        lengths = _lengths(coords.take(pairs[:, 0], axis=0)
                           - coords.take(pairs[:, 1], axis=0))
        self.edge_min = float(lengths.min()) if len(lengths) else 0.0
        self.edge_max = float(lengths.max()) if len(lengths) else 0.0

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.pairs.T.tolist()))

    @cached_property
    def points(self):
        return None if self.rows is None else row_vectors(*self.rows)

    @property
    def vertex_count(self) -> int:
        return len(self.coords)

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    @property
    def trivalent(self) -> bool:
        return len(self.degrees) > 0 and bool((self.degrees == 3).all())

    @property
    def edge_ratio(self) -> float:
        return self.edge_max / self.edge_min if self.edge_min else math.inf

    def __repr__(self) -> str:
        return (f"CageGraph({self.vertex_count} vertices, "
                f"{self.edge_count} edges, cutoff={self.cutoff:.6f})")


def _pairwise_squared(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances from every point of `a` to every point of `b`.

    dx*dx + dy*dy + dz*dz, summed in place one axis at a time into
    the (n, m) result through one (n, m) buffer: 16*n*m bytes at its
    peak.  b - a is exactly -(a - b), so swapping the arguments gives the
    transpose bit for bit.
    """
    d2 = a[:, None, 0] - b[:, 0]
    d2 *= d2
    diff = np.empty_like(d2)
    for k in (1, 2):
        np.subtract(a[:, None, k], b[:, k], out=diff)
        diff *= diff
        d2 += diff
    return d2


def _distance_chunks(coords: np.ndarray, rows=None):
    """(place in `rows` of a chunk's first row, squared distances from
    that row and the next ones to every point of `coords`), `_CHUNK_ROWS`
    rows at a time, with each row's distance to itself set to `inf`.
    `rows` are point indices, every point in order when None."""
    rows = np.arange(len(coords)) if rows is None else rows
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        d2 = _pairwise_squared(coords[chunk], coords)
        d2[np.arange(len(chunk)), chunk] = np.inf
        yield start, d2


def _gap(rows: np.ndarray, error: float = 0.0) -> tuple[float, float] | None:
    """The rows' largest third- and smallest fourth-smallest entries, or
    None when they hold no gap; given an `error`, None only when they miss
    the gap by more than it (`_gap_between`)."""
    # each row's three smallest entries come before its fourth-smallest
    merged = np.partition(rows, 3, axis=1)
    return _gap_between(merged[:, :3].max(), merged[:, 3].min(), error)


def _gap_between(c2, floor4, error: float = 0.0
                 ) -> tuple[float, float] | None:
    """(c2, floor4) as floats when the largest third-nearest squared
    distance c2 lies strictly below the smallest fourth-nearest floor4 by
    more than float noise, less `error`; else None.  The search and every
    `_gap` of rows make this one decision."""
    c2, floor4 = float(c2), float(floor4)
    if not floor4 - c2 > _RESOLUTION * max(1.0, c2) - error:
        return None
    return c2, floor4


def _edges(source: np.ndarray, target: np.ndarray, n: int) -> np.ndarray:
    """The bonds (source, target) among n points kept from their lower
    end, as a sorted (E, 2) array; a bond shows at both of its ends.  One
    stable argsort of source*n + target orders them."""
    lower = source < target
    source, target = source[lower], target[lower]
    order = (source * n + target).argsort(kind="stable")
    return np.stack([source[order], target[order]], axis=1)


def _four_nearest(coords: np.ndarray, rows=None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per point of `rows` (every point when None), its four smallest
    squared distances to the other points of `coords`, ascending, and
    their columns, one chunk of `_distance_chunks` at a time.

    Four argmin passes over each chunk: each takes every row's smallest
    entry left and sets it to `inf` in place, on the chunk that
    `_distance_chunks` has just built.  The four values are the same
    multiset as any selection's of the four smallest; among equal
    entries the lowest column comes first.  A row with fewer than four
    other points takes `inf` for the rest, at columns that may repeat;
    such an entry never bonds.
    """
    count = len(coords) if rows is None else len(rows)
    values = np.empty((4, count))
    targets = np.empty((4, count), dtype=np.intp)
    for start, d2 in _distance_chunks(coords, rows):
        stop = start + len(d2)
        flat = d2.reshape(-1)  # a view: the chunk is C-contiguous
        offsets = np.arange(0, d2.size, d2.shape[1])
        for k in range(4):
            column = d2.argmin(axis=1)
            targets[k, start:stop] = column
            column += offsets
            values[k, start:stop] = flat[column]
            flat[column] = np.inf
    return values.T, targets.T


def _bond_search(coords: np.ndarray, orbits=None
                 ) -> tuple[float, np.ndarray] | None:
    """(c2, bond pairs) of the point set, or None when it has no gap, from
    its representatives' four nearest against all points (`_four_nearest`).
    Given the points' groups.Orbits under a group that keeps the set, the
    representatives are one point per orbit and `orbits.carry` takes
    their bonds to every point, since an isometry that keeps the set
    carries bonds to bonds; else every point is its own representative.

    The rows ascend, so their third and fourth columns hold the gap, and
    once it holds each row's first three targets are its bonds: the
    cutoff (c2 + min(floor4, 4*c2))/2 lies at or above c2 and below
    floor4, so exactly those entries fall within it."""
    n = len(coords)
    values, targets = _four_nearest(
        coords, None if orbits is None else orbits.reps)
    gap = _gap_between(values[:, 2].max(), values[:, 3].min())
    if gap is None:
        return None
    neighbors = targets[:, :3]
    if orbits is not None:
        neighbors = orbits.carry(neighbors)
    return gap[0], _edges(np.repeat(np.arange(n), 3), neighbors.ravel(), n)


class _NearestTable:
    """The trivalence search over unions of point groups.

    A group is one exact shell, or one group of floats handed to
    `detect_cage`, which builds the table from the lowest group any union
    reaches.  The probe table refutes a union before its points are
    searched.  Row a is group a's first point and holds, in column b,
    that point's four smallest squared distances into group b, with the
    point's distance to itself left out and `inf` filling in when there
    are fewer than four.  A window reads the columns from its lowest
    group on, so the filled columns are those from one frontier on.  A
    union's probe rows are its members' rows over its members' columns,
    and `verdicts` tests the unions of one window of groups together,
    with one drop each or none.

    `exact`, when given, is (group, den, rows): each group's distinct
    integer rows over one `den`, in the order of its coordinates, and a
    PointGroup.  A union that passes its probe is searched from one row
    per orbit when `group.orbits` finds it invariant, and from all of
    its points otherwise or when the table holds floats alone.
    """

    # _KEPT_AT[p]: where a row's third- and fourth-smallest kept entries
    # sit among its eight smallest, ascending, when p's bits mark those out
    _KEPT_AT = np.array([([j for j in range(8) if not p >> j & 1]
                          + [0] * 4)[2:4] for p in range(256)])

    def __init__(self, groups, exact=None) -> None:
        self.coords = [as_coords(g) for g in groups]
        self._exact = exact
        # an empty group's probe lies at infinity and its own column holds
        # three -inf, so its row moves no gap
        self._probe_coords = np.array([c[0] if len(c) else [np.inf] * 3
                                       for c in self.coords]).reshape(-1, 3)
        n = len(self.coords)
        self._probe_table = np.full((n, n, 4), np.inf)
        empty = [a for a, c in enumerate(self.coords) if not len(c)]
        self._probe_table[empty, empty, :3] = -np.inf
        self._frontier = n  # the first filled column

    def _fill(self, low: int) -> None:
        """Fill the probe columns from `low` up to the frontier, if any."""
        for b in range(low, self._frontier):
            d2 = _pairwise_squared(self._probe_coords, self.coords[b])
            d2[b, :1] = np.inf  # the probe itself
            if d2.shape[1] > 4:
                d2.partition(3, axis=1)
            self._probe_table[:, b, :d2.shape[1]] = d2[:, :4]
        self._frontier = min(low, self._frontier)

    def verdicts(self, low: int, drops: list) -> list[bool]:
        """Whether each union of the window of groups `low`.. less one of
        the `drops` (nothing, for a None) passes its probe: the gap test
        on its probe rows, its non-empty members' rows over its members'
        columns.  An empty group's column holds only `inf`, and its row
        has three `-inf` and then `inf`, so it raises no third-smallest
        entry and lowers no fourth.

        With nothing dropped, that is `_gap` of the window's rows.  Else a
        column holds four entries of a row, so a row's eight smallest
        entries over the window hold its third- and fourth-smallest
        outside any one column.  One sort serves every drop: which of the
        eight lie in the dropped column, as the bits of a byte, tells where
        the row's third- and fourth-smallest kept entries sit (`_KEPT_AT`).
        """
        self._fill(low)
        k = len(self.coords) - low
        block = self._probe_table[low:, low:].reshape(k, 4 * k)
        if drops == [None]:
            return [_gap(block) is not None]
        rows = np.arange(k)[:, None, None]
        nearest = block.argsort(axis=1)[:, :8]
        drop = np.array(drops) - low
        dropped = np.packbits((nearest >> 2)[:, :, None] == drop, axis=1,
                              bitorder="little")[:, 0]
        # (k, drops, 2): each row's third and fourth kept entry per drop
        at = block[rows, nearest[rows, self._KEPT_AT[dropped]]]
        at[drop, np.arange(len(drop))] = -np.inf, np.inf  # dropped rows
        c2, floor4 = at[..., 0].max(axis=0), at[..., 1].min(axis=0)
        return (floor4 - c2 > _RESOLUTION * np.maximum(1.0, c2)).tolist()

    def search(self, chosen) -> CageGraph | None:
        """The bond graph of a union that passed its probe, or None; its
        indices follow the points of `chosen`'s groups in order.  From
        exact rows it keeps the union's (den, rows), and the group when
        the union is invariant."""
        coords = np.vstack([self.coords[i] for i in chosen])
        if self._exact is None:
            return _trivalent_graph(coords, _bond_search(coords))
        group, den, shell_rows = self._exact
        rows = np.concatenate([shell_rows[i] for i in chosen])
        orbits = group.orbits(den, rows)
        graph = _trivalent_graph(coords, _bond_search(coords, orbits))
        if graph is not None:
            graph.rows = (den, rows)
            graph._symmetry = None if orbits is None else group
        return graph


def _trivalent_graph(coords: np.ndarray,
                     found: tuple[float, np.ndarray] | None
                     ) -> CageGraph | None:
    """The graph of a search's (c2, bond pairs) when every degree is 3."""
    if found is None:
        return None
    graph = CageGraph(coords, found[1], math.sqrt(found[0]))
    return graph if graph.trivalent else None


def trivalence_threshold_search(*groups) -> CageGraph | None:
    """Find the cutoff making every degree exactly 3, if one exists.

    The point set is the concatenation of `groups`, each a point
    sequence or float (N, 3) array; a caller that knows its exact shells
    passes them as separate groups, so each shell's first point probes
    the gap.  Returns the graph at the smallest such cutoff, or None when
    degrees cannot all reach 3 before one of them passes 3.  The graph
    holds float coordinates only: its `points` is None.  Raises
    PointBudgetError, before any distance is taken, for a set of N points
    whose 32*N^2 passes `_PAIR_BYTES_CAP`.

    The probe rows are the groups' first points against every point: a
    point's third and fourth nearest in the set are among the four
    nearest it has in each group, so this is the probe `detect_cage`'s
    table makes of the same groups.  It runs only on sets of more than
    `_CHUNK_ROWS` points.  Its rows are rows of the search, whose gap
    test fails whenever theirs does, so skipping it changes no result;
    on at most `_CHUNK_ROWS` points the search costs little more than
    the probe, while a larger set that fails the gap, as most of the
    default scan's outer bands of 80 and more points do, is refuted
    from a few rows.
    """
    _check_search_budget(sum(map(len, groups)))
    groups = [c for c in map(as_coords, groups) if len(c)]
    if sum(map(len, groups)) < 4:
        return None
    coords = np.vstack(groups)
    if len(coords) > _CHUNK_ROWS:
        probes = np.cumsum([0] + [len(c) for c in groups[:-1]])
        probe_rows = [d2 for _, d2 in _distance_chunks(coords, probes)]
        if _gap(np.vstack(probe_rows)) is None:
            return None
    return _trivalent_graph(coords, _bond_search(coords))


def _check_search_budget(n: int) -> None:
    """Refuse a bond search of n points whose 32*n^2 passes the cap; a
    caller that holds only a count checks it before building points."""
    if 32 * n * n > _PAIR_BYTES_CAP:
        raise PointBudgetError(
            f"bond search of {n} points needs {n * n} pairwise distances, "
            f"over the limit of {_PAIR_BYTES_CAP // 32}")


class FaceCensus:
    """Face sizes of a traced spherical embedding.

    The census holds its faces flat: `sizes[f]` is face f's edge count,
    and face f takes the next `sizes[f]` entries of `corners`, its
    vertices in walk order, and of `far`, the face across each of its
    edges.  `faces` and `across` are the same as tuples per face, built
    on first read: `across[f][i]` is the face on the other side of edge
    i of face f, the edge from `faces[f][i]` to the vertex after it.
    """

    def __init__(self, sizes, corners, far) -> None:
        self.sizes = np.asarray(sizes, dtype=np.intp)
        self.corners = np.asarray(corners, dtype=np.intp)
        self.far = np.asarray(far, dtype=np.intp)
        counts = np.bincount(self.sizes)
        present = np.flatnonzero(counts)
        self.counts = dict(zip(present.tolist(), counts[present].tolist()))

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        return self._split(self.corners)

    @cached_property
    def across(self) -> tuple[tuple[int, ...], ...]:
        return self._split(self.far)

    def _split(self, flat: np.ndarray) -> tuple[tuple[int, ...], ...]:
        entries = iter(flat.tolist())
        return tuple(tuple(islice(entries, size))
                     for size in self.sizes.tolist())

    @property
    def pentagons(self) -> int:
        return self.counts.get(5, 0)

    @property
    def hexagons(self) -> int:
        return self.counts.get(6, 0)

    @property
    def other_count(self) -> int:
        return sum(c for size, c in self.counts.items() if size not in (5, 6))

    def as_dict(self) -> dict[str, int]:
        """Pentagon, hexagon and other face counts, as reports print them."""
        return {"5": self.pentagons, "6": self.hexagons,
                "other": self.other_count}

    def __repr__(self) -> str:
        return f"FaceCensus({self.counts})"


def _lengths(rows: np.ndarray) -> np.ndarray:
    """Row-wise lengths of an (N, 3) array, by np.linalg.norm's own
    formula without its argument checks."""
    return np.sqrt((rows * rows).sum(axis=1))


def _cross(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a x b for two vectors each given as its three coordinate arrays,
    by np.cross's own formula, as three coordinate arrays."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _dot(a, b) -> np.ndarray:
    """a . b for two vectors each given as its three coordinate arrays."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _rotation_system(
        cage: CageGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cage's rotation system over every directed edge: its
    `source`, and for each edge `after`, the next edge out of its source,
    and `twin`, the edge reversed.

    An edge's id is its place in ascending (source, target) order.  A
    vertex's neighbors run counterclockwise in its tangent plane, viewed
    from outside the sphere (radial direction as plane normal), ties by
    neighbor index.  The tangent frame of a vertex at n comes from the
    edge f to its first neighbor: e2 = n x f and e1 = e2 x n.  Neither
    is normalized; (e1, e2, n) is right-handed, and scaling the two axes
    by positive factors keeps every angle in its place around the
    circle, so the rings' cyclic order is the one a unit frame gives.
    Frames and angles are computed per edge, one coordinate array at a
    time, so a vertex without edges needs no frame.
    """
    coords, pairs = cage.coords, cage.pairs
    if not np.einsum("ij,ij->i", coords, coords).all():
        raise EulerError("vertex at the origin has no tangent plane")
    # bond k runs both ways: as edge k and, reversed, as edge k + E
    source = np.concatenate([pairs[:, 0], pairs[:, 1]])
    target = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = (source * len(coords) + target).argsort(kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    # order - E is the twin's index into the concatenation, from its end
    # when negative
    twin = place.take(order - len(pairs))
    source, target = source.take(order), target.take(order)
    # each vertex's edges fill the places first..stop-1, in both the
    # (source, target) order and the ring order
    stop = cage.degrees.cumsum().take(source)
    first = stop - cage.degrees.take(source)
    # (3, 2E): each edge's source and its vector w, one row per axis;
    # take() gathers as [] does, in a third of its time
    normal = coords.T.take(source, axis=1)
    w = coords.T.take(target, axis=1) - normal
    e2 = _cross(normal, w.take(first, axis=1))
    e1 = _cross(e2, normal)
    angle = np.arctan2(_dot(w, e2), _dot(w, e1))
    # ring order sorts by (source, angle) as complex numbers, which sort
    # lexicographically on finite parts; a stable sort, so equal angles
    # keep the target order.  The edges are in source order already, which
    # the sort finds in runs: 25 us for C960, against 210 us for lexsort.
    key = np.empty(len(source), dtype=complex)
    key.real = source
    key.imag = angle
    ring = key.argsort(kind="stable")
    step = np.arange(1, len(ring) + 1)
    step = np.where(step < stop, step, first)
    after = np.empty_like(ring)
    after[ring] = ring.take(step)
    return source, after, twin


def face_census(cage: CageGraph) -> FaceCensus:
    """Trace faces via the rotation system and count their sizes.

    Requires vertices on a topological sphere around the origin; raises
    EulerError when V - E + F != 2.  Faces start at their smallest
    directed edge (u, v), in ascending order of it, and run clockwise
    as seen from outside.

    The faces are the cycles of one permutation of the directed edges,
    found by pointer doubling with no walk: each edge takes the smallest
    id on its next 2, 4, 8, ... edges until every edge holds its
    successor's value, its face's start, and then its distance to its
    face's last edge by pointer jumping.  Both take log2 of the largest
    face's size in rounds, three for a fullerene.
    """
    source, after, twin = _rotation_system(cage)
    # a face entering v along u -> v leaves along the neighbor after u in
    # v's ring
    successor = after.take(twin)
    edge = np.arange(len(source))
    start, jump, rounds = edge, successor, 1
    while True:
        start = np.minimum(start, start.take(jump))
        if (start.take(successor) == start).all():
            break
        jump = jump.take(jump)
        rounds += 1
    head = start == edge
    count = int(np.count_nonzero(head))
    euler = cage.vertex_count - cage.edge_count + count
    if euler != 2:
        raise EulerError(
            f"V-E+F = {cage.vertex_count}-{cage.edge_count}+{count} "
            f"= {euler}, expected 2"
        )
    # each edge's distance to its face's last edge, the one whose
    # successor is the head; as many jumps as doubling rounds reach past
    # every face's length
    tail = head.take(successor)
    jump = np.where(tail, edge, successor)
    to_tail = np.where(tail, 0, 1)
    for _ in range(rounds):
        to_tail += to_tail.take(jump)
        jump = jump.take(jump)
    # face ids in order of start, and each edge's place in the flat walk
    face = head.cumsum().take(start) - 1
    sizes = np.bincount(face, minlength=count)
    walk = np.empty_like(edge)
    walk[sizes.cumsum().take(face) - 1 - to_tail] = edge
    return FaceCensus(sizes, source.take(walk), face.take(twin.take(walk)))


class CageFinding:
    """A detected cage: which shells form it and how they bond."""

    __slots__ = ("graph", "census", "shell_indices", "dropped_index")

    def __init__(self, graph: CageGraph, census: FaceCensus,
                 shell_indices: tuple[int, ...],
                 dropped_index: int | None) -> None:
        self.graph = graph
        self.census = census
        self.shell_indices = shell_indices
        self.dropped_index = dropped_index

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    def __repr__(self) -> str:
        return (f"CageFinding({self.vertex_count} vertices, "
                f"shells {self.shell_indices[0]}..{self.shell_indices[-1]}"
                + (f" minus {self.dropped_index}" if self.dropped_index
                   is not None else "") + ")")


# a cage must join at least two shells (one exact radius alone is never a
# curved fullerene surface here) and hold at least the dodecahedron's 20
# points, bond lengths may not spread past 3:2 (wider spreads only ever
# showed up on accidental unions), and unions larger than the cap are not
# searched
_CAGE_MIN_SHELLS = 2
_CAGE_MIN_POINTS = 20
_CAGE_MAX_EDGE_RATIO = 1.5
_CAGE_POINT_CAP = 2000


def _candidate_windows(sizes: list[int]):
    """(low, drops) of every window of shells low.. to try, in order: its
    trailing union when `drops` is [None], else its unions less one of
    the interior shells `drops`; every union holds `_CAGE_MIN_POINTS` to
    `_CAGE_POINT_CAP` points."""
    n = len(sizes)
    # tail[low] is the point total of the shells low..
    tail = list(accumulate(reversed(sizes), initial=0))[::-1]
    for low in range(n - _CAGE_MIN_SHELLS, -1, -1):
        if tail[low] > _CAGE_POINT_CAP:
            break
        if tail[low] >= _CAGE_MIN_POINTS:
            yield low, [None]
    interior = 0  # the largest interior shell of the window
    for low in range(n - _CAGE_MIN_SHELLS - 1, -1, -1):
        interior = max(interior, sizes[low + 1])
        if tail[low] - interior > _CAGE_POINT_CAP:
            break
        drops = [d for d in range(low + 1, n - 1) if _CAGE_MIN_POINTS
                 <= tail[low] - sizes[d] <= _CAGE_POINT_CAP]
        if drops:
            yield low, drops


def detect_cage(shell_groups) -> CageFinding | None:
    """Find the outermost cage in a radius-ascending list of shells.

    The cage surface spans several exact radii, so candidates are unions
    of trailing shells, smallest union first.  Past the second iteration
    of a translation, leftover interior points can share a radius range
    with the true surface; when no pure trailing union closes into a
    sphere, windows with exactly one interior shell removed are tried as
    a fallback, again smallest first.

    Each candidate of `_CAGE_MIN_POINTS` to `_CAGE_POINT_CAP` points
    takes its bond graph from a `_NearestTable` of the shells any
    candidate reaches: its probe rows first, a window's unions all in
    one gate, then, if they pass, a search of its stacked points in O(N)
    memory.  A union whose graph is trivalent is then held to the
    edge-ratio check and face tracing.

    `shell_groups` is a sequence of point sequences (or float (N, 3)
    coordinate arrays) ordered by ascending radius.  Returns the first
    union that is trivalent at a global cutoff, has edge ratio below
    `_CAGE_MAX_EDGE_RATIO`, and traces into a valid sphere
    (V - E + F = 2); None when no candidate qualifies.
    """
    return _detect_cage(list(shell_groups))


def _detect_cage(shell_groups: list, exact=None) -> CageFinding | None:
    """`detect_cage` on a list of shells, `exact` as the table's for all."""
    n = len(shell_groups)
    windows = list(_candidate_windows([len(g) for g in shell_groups]))
    reach = min((low for low, _ in windows), default=n)
    if exact is not None:
        exact = *exact[:2], exact[2][reach:]
    table = _NearestTable(shell_groups[reach:], exact)
    for low, drops in windows:
        passed = table.verdicts(
            low - reach, [d if d is None else d - reach for d in drops])
        for dropped in compress(drops, passed):
            chosen = tuple(i for i in range(low, n) if i != dropped)
            graph = table.search([i - reach for i in chosen])
            if graph is None or graph.edge_ratio >= _CAGE_MAX_EDGE_RATIO:
                continue
            try:
                census = face_census(graph)
            except EulerError:
                continue
            return CageFinding(graph, census, chosen, dropped)
    return None


def kustov_allowable(n: int) -> bool:
    """Whether n is an allowable icosahedral fullerene size."""
    if n < 20:
        raise ValueError("fullerene cages need at least 20 vertices")
    return n % 60 in (0, 20)


def _radius_signature(coords: np.ndarray) -> np.ndarray:
    radii = np.sort(np.linalg.norm(coords, axis=1))
    if len(radii) == 0 or radii[-1] == 0:
        return radii
    return radii / radii[-1]


def similar_up_to_scale(a_points, b_points) -> bool:
    """Same shape up to one global scale factor (spectra + cage census)."""
    a = as_coords(a_points)
    b = as_coords(b_points)
    if len(a) != len(b):
        return False
    if not np.allclose(_radius_signature(a), _radius_signature(b),
                       atol=1e-9):
        return False
    cage_a = trivalence_threshold_search(a)
    cage_b = trivalence_threshold_search(b)
    if (cage_a is None) != (cage_b is None):
        return False
    if cage_a is None:
        return True

    def census_marker(cage):
        try:
            return face_census(cage).counts
        except EulerError:
            return None

    return census_marker(cage_a) == census_marker(cage_b)


# _TURNS[d - 1][i] is edge i + d of a hexagon, d = 1, 2, 3
_TURNS = tuple(tuple((i + d) % 6 for i in range(6)) for d in (1, 2, 3))


def pentagon_contact_signature(census: FaceCensus) -> str | None:
    """How pentagon pairs meet across a shared hexagon.

    "vertex": every pentagon pair bordering one hexagon touches it on
    edges two steps apart (the pentagons point at each other);
    "edge": three steps apart (opposite edges, pentagons edge-on);
    "mixed" when both occur, None when no hexagon borders two pentagons.
    A hexagon's pentagon edges are one row of a (hexagons, 6) mask, and
    edges d steps apart are the row against itself turned by d; one AND
    against the row turned by 1, 2 and 3 tests all three.
    """
    hexagon = census.sizes == 6
    if not hexagon.any():
        return None
    first = census.sizes.cumsum() - census.sizes
    pentagon = census.sizes.take(census.far.take(
        first[hexagon][:, None] + np.arange(6))) == 5
    met = (pentagon[:, None] & pentagon.take(_TURNS, axis=1)).any(axis=(0, 2))
    separations = {d for d, seen in zip((1, 2, 3), met.tolist()) if seen}
    if not separations:
        return None
    if separations == {2}:
        return "vertex"
    if separations == {3}:
        return "edge"
    return "mixed"
