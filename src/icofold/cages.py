"""Trivalent cage detection, face censuses, and cage comparison.

Bonds are defined by a global distance cutoff found by a parameter-free
search: candidate cutoffs are the pairwise distances in ascending order,
and a point set is a trivalent cage exactly when some cutoff gives every
vertex degree 3 before any vertex reaches degree 4.  Equivalently, the
largest third-nearest-neighbor distance must fall strictly below the
smallest fourth-nearest-neighbor distance, which is how the search is
evaluated (one vectorized pass instead of a cutoff loop).

Cage detection tests many unions of shells, and most of them fail that
gap test.  It therefore keeps, per call, a table of the four smallest
squared distances from every point of one shell into another, filled in
lazily for the shell pairs that some union reaches.  A union's third- and
fourth-nearest distances are merged from its shells' rows, bit-identical
to the dense search's, and only a union whose merged rows pass the gap
test goes on to the full search and face tracing.

Faces are traced from the rotation system: neighbors ordered by angle in
each vertex's tangent plane, with the Euler characteristic as the guard
against a band that is not a topological sphere.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
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


class EulerError(ValueError):
    """Face tracing did not close into a sphere (V - E + F != 2)."""


def as_coords(points) -> np.ndarray:
    """Float (N,3) coordinates from Vec3E sequences or array-likes."""
    if isinstance(points, np.ndarray):
        return np.asarray(points, dtype=float)
    rows = [
        p.as_floats() if hasattr(p, "as_floats") else tuple(p)
        for p in points
    ]
    return np.array(rows, dtype=float)


class CageGraph:
    """An undirected bond graph over a point set at a distance cutoff."""

    def __init__(self, coords: np.ndarray, edges: tuple[tuple[int, int], ...],
                 cutoff: float, points=None) -> None:
        self.coords = coords
        self.edges = edges
        self.cutoff = cutoff
        self.points = tuple(points) if points is not None else None
        degrees = np.zeros(len(coords), dtype=int)
        for i, j in edges:
            degrees[i] += 1
            degrees[j] += 1
        self.degrees = degrees
        lengths = np.linalg.norm(
            coords[[i for i, _ in edges]] - coords[[j for _, j in edges]],
            axis=1,
        ) if edges else np.zeros(0)
        self.edge_min = float(lengths.min()) if len(lengths) else 0.0
        self.edge_max = float(lengths.max()) if len(lengths) else 0.0

    @property
    def vertex_count(self) -> int:
        return len(self.coords)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def trivalent(self) -> bool:
        return len(self.degrees) > 0 and bool(np.all(self.degrees == 3))

    @property
    def edge_ratio(self) -> float:
        return self.edge_max / self.edge_min if self.edge_min else math.inf

    def degree_histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.degrees, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def adjacency(self) -> list[list[int]]:
        neighbors: list[list[int]] = [[] for _ in range(len(self.coords))]
        for i, j in self.edges:
            neighbors[i].append(j)
            neighbors[j].append(i)
        return neighbors

    def __repr__(self) -> str:
        return (f"CageGraph({self.vertex_count} vertices, "
                f"{self.edge_count} edges, cutoff={self.cutoff:.6f})")


def _pairwise_squared(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances from every point of `a` to every point of `b`."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _separated(c2: float, floor4: float) -> bool:
    # the largest third-nearest distance lies strictly below the smallest
    # fourth-nearest, by more than float noise
    return floor4 - c2 > _RESOLUTION * max(1.0, c2)


def trivalence_threshold_search(points) -> CageGraph | None:
    """Find the cutoff making every degree exactly 3, if one exists.

    Returns the graph at the smallest such cutoff, or None when degrees
    cannot all reach 3 before one of them passes 3.
    """
    coords = as_coords(points)
    n = len(coords)
    if n < 4:
        return None
    d2 = _pairwise_squared(coords, coords)
    np.fill_diagonal(d2, np.inf)
    third = np.partition(d2, 2, axis=1)[:, 2]
    if n >= 5:
        fourth = np.partition(d2, 3, axis=1)[:, 3]
    else:
        fourth = np.full(n, np.inf)
    c2 = float(third.max())
    floor4 = float(fourth.min())
    if not _separated(c2, floor4):
        return None
    threshold = (c2 + min(floor4, 4.0 * c2)) / 2.0
    pairs = np.argwhere(np.triu(d2 <= threshold, k=1))
    edges = tuple(sorted((int(i), int(j)) for i, j in pairs))
    graph = CageGraph(
        coords, edges, math.sqrt(c2),
        points=points if not isinstance(points, np.ndarray) else None,
    )
    return graph if graph.trivalent else None


class FaceCensus:
    """Face sizes of a traced spherical embedding."""

    def __init__(self, faces: tuple[tuple[int, ...], ...]) -> None:
        self.faces = faces
        counts: dict[int, int] = {}
        for face in faces:
            counts[len(face)] = counts.get(len(face), 0) + 1
        self.counts = dict(sorted(counts.items()))

    @property
    def pentagons(self) -> int:
        return self.counts.get(5, 0)

    @property
    def hexagons(self) -> int:
        return self.counts.get(6, 0)

    @property
    def other_count(self) -> int:
        return sum(c for size, c in self.counts.items() if size not in (5, 6))

    def __repr__(self) -> str:
        return f"FaceCensus({self.counts})"


def _tangent_order(coords: np.ndarray, v: int, neighbors: list[int]) -> list[int]:
    # neighbors of v sorted counterclockwise in v's tangent plane, viewed
    # from outside the sphere (radial direction as plane normal)
    normal = coords[v]
    length = np.linalg.norm(normal)
    if length == 0:
        raise EulerError("vertex at the origin has no tangent plane")
    normal = normal / length
    reference = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        reference = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(reference, normal)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    angles = []
    for u in neighbors:
        w = coords[u] - coords[v]
        angles.append(math.atan2(float(w @ e2), float(w @ e1)))
    return [u for _, u in sorted(zip(angles, neighbors))]


def face_census(cage: CageGraph) -> FaceCensus:
    """Trace faces via the rotation system and count their sizes.

    Requires vertices on a topological sphere around the origin; raises
    EulerError when V - E + F != 2.
    """
    coords = cage.coords
    ordered = [
        _tangent_order(coords, v, nbrs)
        for v, nbrs in enumerate(cage.adjacency())
    ]
    successor: dict[tuple[int, int], tuple[int, int]] = {}
    for v, ring in enumerate(ordered):
        degree = len(ring)
        for idx, u in enumerate(ring):
            # arriving along u -> v, leave along the neighbor after u
            w = ring[(idx + 1) % degree]
            successor[(u, v)] = (v, w)
    faces: list[tuple[int, ...]] = []
    remaining = set(successor)
    while remaining:
        start = min(remaining)
        walk = [start]
        remaining.discard(start)
        step = successor[start]
        while step != start:
            walk.append(step)
            remaining.discard(step)
            step = successor[step]
        faces.append(tuple(edge[0] for edge in walk))
    euler = cage.vertex_count - cage.edge_count + len(faces)
    if euler != 2:
        raise EulerError(
            f"V-E+F = {cage.vertex_count}-{cage.edge_count}+{len(faces)} "
            f"= {euler}, expected 2"
        )
    return FaceCensus(tuple(faces))


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
# curved fullerene surface here), bond lengths may not spread past 3:2
# (wider spreads only ever showed up on accidental unions), and unions
# larger than the cap are not searched
_CAGE_MIN_SHELLS = 2
_CAGE_MAX_EDGE_RATIO = 1.5
_CAGE_POINT_CAP = 2000


def _validate_union(shell_groups, chosen: tuple[int, ...],
                    dropped: int | None, max_ratio: float):
    points: list = []
    for index in chosen:
        points.extend(shell_groups[index])
    if not 20 <= len(points) <= _CAGE_POINT_CAP:
        return None
    graph = trivalence_threshold_search(tuple(points))
    if graph is None or graph.edge_ratio >= max_ratio:
        return None
    try:
        census = face_census(graph)
    except EulerError:
        return None
    return CageFinding(graph, census, chosen, dropped)


class _NearestTable:
    """The four smallest squared distances from each shell into each shell.

    Row i of `rows(a, b)` holds the four smallest squared distances from
    point i of shell a to the points of shell b, with a point's distance
    to itself left out and `inf` filling in when there are fewer than
    four.  Every union's four nearest neighbours of a point lie among its
    shells' rows, and the values come from `_pairwise_squared`, so the
    gap test on merged rows sees exactly the floats of the dense search.
    """

    def __init__(self, groups) -> None:
        self.groups = groups
        self._coords: dict[int, np.ndarray] = {}
        self._rows: dict[tuple[int, int], np.ndarray] = {}

    def _coords_of(self, index: int) -> np.ndarray:
        if index not in self._coords:
            self._coords[index] = as_coords(self.groups[index])
        return self._coords[index]

    def rows(self, a: int, b: int) -> np.ndarray:
        if (a, b) not in self._rows:
            d2 = _pairwise_squared(self._coords_of(a), self._coords_of(b))
            if a == b:
                np.fill_diagonal(d2, np.inf)
            if d2.shape[1] < 4:
                d2 = np.hstack([d2, np.full((len(d2), 4 - d2.shape[1]),
                                            np.inf)])
            self._rows[(a, b)] = np.partition(d2, 3, axis=1)[:, :4]
        return self._rows[(a, b)]

    def separated(self, chosen: tuple[int, ...]) -> bool:
        """The union's gap test, as `trivalence_threshold_search` makes it."""
        members = [i for i in chosen if len(self.groups[i])]
        c2, floor4 = -math.inf, math.inf
        for a in members:
            merged = np.partition(
                np.hstack([self.rows(a, b) for b in members]), (2, 3),
                axis=1)
            c2 = max(c2, float(merged[:, 2].max()))
            floor4 = min(floor4, float(merged[:, 3].min()))
        return _separated(c2, floor4)


def _candidate_unions(sizes: list[int]):
    """(shell indices, dropped index) of every union to try, in order."""
    n = len(sizes)
    for k in range(_CAGE_MIN_SHELLS, n + 1):
        chosen = tuple(range(n - k, n))
        if sum(sizes[i] for i in chosen) > _CAGE_POINT_CAP:
            break
        yield chosen, None
    for k in range(_CAGE_MIN_SHELLS + 1, n + 1):
        window = list(range(n - k, n))
        if (sum(sizes[i] for i in window)
                - max(sizes[i] for i in window[1:-1])) > _CAGE_POINT_CAP:
            break
        for drop in window[1:-1]:
            yield tuple(i for i in window if i != drop), drop


def detect_cage(shell_groups,
                max_ratio: float = _CAGE_MAX_EDGE_RATIO) -> CageFinding | None:
    """Find the outermost cage in a radius-ascending list of shells.

    The cage surface spans several exact radii, so candidates are unions
    of trailing shells, smallest union first.  Past the second iteration
    of a translation, leftover interior points can share a radius range
    with the true surface; when no pure trailing union closes into a
    sphere, windows with exactly one interior shell removed are tried as
    a fallback, again smallest first.

    Each candidate of 20 to `_CAGE_POINT_CAP` points first takes the gap
    test on a `_NearestTable` shared by all candidates of this call, at
    O(4kN) for a union of k shells instead of an N x N matrix.  Only a union
    that passes is confirmed by the full threshold search, the edge-ratio
    check and face tracing.

    `shell_groups` is a sequence of point sequences (or float (N, 3)
    coordinate arrays) ordered by ascending radius.  Returns the first
    union that is trivalent at a global cutoff, has edge ratio below
    `max_ratio`, and traces into a valid sphere (V - E + F = 2); None when
    no candidate qualifies.
    """
    groups = [g if isinstance(g, np.ndarray) else tuple(g)
              for g in shell_groups]
    sizes = [len(g) for g in groups]
    table = _NearestTable(groups)
    for chosen, dropped in _candidate_unions(sizes):
        if not 20 <= sum(sizes[i] for i in chosen) <= _CAGE_POINT_CAP:
            continue
        if not table.separated(chosen):
            continue
        finding = _validate_union(groups, chosen, dropped, max_ratio)
        if finding is not None:
            return finding
    return None


def kustov_allowable(n: int) -> bool:
    """Whether n is an allowable icosahedral fullerene size."""
    if n < 20:
        raise ValueError("fullerene cages need at least 20 vertices")
    return n % 60 in (0, 20)


def _radius_signature(coords: np.ndarray) -> np.ndarray:
    radii = np.sort(np.linalg.norm(coords, axis=1))
    outer = radii[-1]
    if outer == 0:
        return radii
    return radii / outer


def similar_up_to_scale(a_points, b_points, tol: float = 1e-9) -> bool:
    """Same shape up to one global scale factor (spectra + cage census)."""
    a = as_coords(a_points)
    b = as_coords(b_points)
    if len(a) != len(b):
        return False
    if not np.allclose(_radius_signature(a), _radius_signature(b), atol=tol):
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


def pentagon_contact_signature(census: FaceCensus) -> str | None:
    """How pentagon pairs meet across a shared hexagon.

    "vertex": every pentagon pair bordering one hexagon touches it on
    edges two steps apart (the pentagons point at each other);
    "edge": three steps apart (opposite edges, pentagons edge-on);
    "mixed" when both occur, None when no hexagon borders two pentagons.
    """
    owner: dict[tuple[int, int], int] = {}
    for f, face in enumerate(census.faces):
        size = len(face)
        for i in range(size):
            owner[(face[i], face[(i + 1) % size])] = f
    separations: set[int] = set()
    for face in census.faces:
        if len(face) != 6:
            continue
        positions = []
        for i in range(6):
            a, b = face[i], face[(i + 1) % 6]
            neighbor = owner.get((b, a))
            if neighbor is not None and len(census.faces[neighbor]) == 5:
                positions.append(i)
        for x in range(len(positions)):
            for y in range(x + 1, len(positions)):
                gap = abs(positions[x] - positions[y])
                separations.add(min(gap, 6 - gap))
    if not separations:
        return None
    if separations == {2}:
        return "vertex"
    if separations == {3}:
        return "edge"
    return "mixed"
