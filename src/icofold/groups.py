"""Icosahedral point groups as exact matrix sets.

The rotation group I (order 60) is generated by a cyclic coordinate
permutation R3 and a 5-fold rotation B5 whose entries lie in (1/2)Q(tau);
adjoining -identity gives the full group I_h (order 120).  Closure is a
breadth-first product walk with exact dedup, so group order, axis counts,
orbits, and stabilizers are all certified in integer arithmetic.

Axes are found by orbiting one golden base vector per fold (an
icosahedron vertex (0,1,tau) for fold 5, a dodecahedron vertex (1,1,1)
for fold 3, an icosidodecahedron vertex (tau,0,0) for fold 2) rather than
by eigendecomposition; the same orbits are the translation steps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from typing import NamedTuple

import numpy as np

from .geometry import (Mat3G, Vec3E, _value_table, action_table,
                       distinct_vectors, integer_rows, mat_mul)
from .golden import GoldenNumber, TAU

__all__ = [
    "ClosureBoundError",
    "NonOrthogonalGeneratorError",
    "PointGroup",
    "Orbits",
    "DirectionSums",
    "generate_closure",
    "rotation_group",
    "full_group",
    "GEN_R3",
    "GEN_B5",
    "BASE_VECTORS",
]

HALF = Fraction(1, 2)
# PointGroup._apply maps rows this many at a time: one chunk's images are
# |G| * _CHUNK * 6 entries, 2.9 MB of int64 or object pointers for I_h.
_CHUNK = 512

# Cyclic coordinate permutation (x,y,z) -> (z,x,y): a 3-fold rotation.
GEN_R3 = Mat3G([[0, 0, 1], [1, 0, 0], [0, 1, 0]])

# 5-fold rotation, trace tau = 1 + 2*cos(72 deg), determinant 1.
GEN_B5 = Mat3G([
    [GoldenNumber(-HALF, HALF), GoldenNumber(0, -HALF), GoldenNumber(HALF, 0)],
    [GoldenNumber(0, HALF), GoldenNumber(HALF, 0), GoldenNumber(-HALF, HALF)],
    [GoldenNumber(-HALF, 0), GoldenNumber(-HALF, HALF), GoldenNumber(0, HALF)],
])


class ClosureBoundError(ValueError):
    """Closure exceeded its element bound (wrong generators, most likely)."""


class NonOrthogonalGeneratorError(ValueError):
    """A generator fails the exact orthogonality check."""


# Canonical golden-integer vector along one axis of each fold: an
# icosahedron vertex (0,1,tau) for fold 5, a dodecahedron vertex (1,1,1)
# for fold 3, an icosidodecahedron vertex (tau,0,0) for fold 2.
# Translation steps stay inside the golden lattice of the start
# configurations only with these base lengths (|w|^2 = 2+tau, 3, tau^2):
# a unit-length step would add pure-radical coordinates that no golden
# start point can ever cancel.
BASE_VECTORS = {
    5: Vec3E.from_golden(0, 1, TAU),
    3: Vec3E.from_golden(1, 1, 1),
    2: Vec3E.from_golden(TAU, 0, 0),
}


class DirectionSums(NamedTuple):
    """The sums of at most `depth` translation directions of one fold,
    without the length: (n, 6) int64 `rows` over `den`, distinct, and
    their value table, the distinct coordinate values
    (va[k] + vb[k]*tau)/den in Python ints with the (3, n) `index` of
    each row's coordinates into them.  `fresh` holds the rows first
    reached at this depth."""

    den: int
    rows: np.ndarray
    fresh: np.ndarray
    va: list[int]
    vb: list[int]
    index: np.ndarray


class Orbits:
    """Orbits of n distinct rows that the generators map onto themselves
    (PointGroup.orbits): `permutations[g, i]` is the row generator g takes
    row i to; `label`, each row's orbit as its least index, and `reps`,
    the rows that are their own label, ascending, are built when read."""

    def __init__(self, permutations: np.ndarray) -> None:
        self.permutations = permutations

    @cached_property
    def label(self) -> np.ndarray:
        # least label of each row and its images, then that label's label
        label = np.arange(self.permutations.shape[1])
        while True:
            least = np.minimum(label, label[self.permutations].min(axis=0))
            least = least[least]
            if np.array_equal(least, label):
                return label
            label = least

    @cached_property
    def reps(self) -> np.ndarray:
        return np.flatnonzero(self.label == np.arange(len(self.label)))

    def carry(self, targets: np.ndarray) -> np.ndarray:
        """Every row's k row indices: `targets` holds the representatives',
        in `reps` order, and a generator taking row r to s maps r's to s's."""
        reached = self.label == np.arange(len(self.label))
        carried = np.empty((len(reached), targets.shape[1]), targets.dtype)
        frontier = self.reps
        carried[frontier] = targets
        while not reached.all():
            fresh = []
            for perm in self.permutations:
                image = perm[frontier]
                new = ~reached[image]
                carried[image[new]] = perm[carried[frontier[new]]]
                reached[image[new]] = True
                fresh.append(image[new])
            frontier = np.concatenate(fresh)
        return carried


def _positive_representative(v: Vec3E) -> Vec3E:
    for component in v:
        s = component.sign()
        if s < 0:
            return -v
        if s > 0:
            return v
    return v


class PointGroup:
    """An immutable, exactly closed matrix group with axis bookkeeping.

    `generators` is a set of elements the group is closed from; a finite
    point set they map into itself is invariant under the whole group.
    A group built from its elements alone takes all of them.

    The group acts on points only through a (|G|, 6, 6) table of
    integer blocks built on first use (geometry.action_table): on rows
    in `_apply`, which `orbits` and `orbit_of_set` call, and on one
    point in `_point_images`, which `orbit` and `stabilizer_order` call.
    """

    def __init__(self, name: str, elements: tuple[Mat3G, ...],
                 generators: tuple[Mat3G, ...] | None = None) -> None:
        self.name = name
        self.elements = elements
        self.generators = elements if generators is None else generators

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cache
    def translation_orbit(self, fold: int) -> tuple[Vec3E, ...]:
        """Golden base vectors along every axis of this fold.

        The orbit of (0,1,tau), (1,1,1), or (tau,0,0): 12, 20, or 30
        vectors of squared length 2+tau, 3, or tau^2.  A translation of
        length lambda steps by lambda times these.
        """
        if fold not in BASE_VECTORS:
            raise ValueError(f"unsupported fold {fold}; expected 2, 3, or 5")
        return self.orbit(BASE_VECTORS[fold])

    @cache
    def translation_rows(self, fold: int) -> tuple[int, np.ndarray]:
        """translation_orbit(fold) as integer rows over one denominator
        (see geometry.integer_rows)."""
        return integer_rows(self.translation_orbit(fold))

    @cache
    def direction_sums(self, fold: int, depth: int) -> DirectionSums:
        """All sums of at most `depth` rows of translation_rows(fold).

        S_0 = {0} and S_j = S_{j-1} | (S_{j-1} + directions); only the
        sums new at level j-1 need extending.  Each level is built from
        the one below it, so a caller that asks for the levels in turn
        can stop before one it must not build.  A translation of length
        lambda steps by lambda times each direction, and multiplying by
        lambda != 0 is one-to-one, so the sums serve every length.
        """
        den, steps = self.translation_rows(fold)
        if not depth:
            rows = fresh = np.zeros((1, 6), dtype=np.int64)
        else:
            below = self.direction_sums(fold, depth - 1)
            reached = below.fresh[:, None] + steps.astype(np.int64)[None]
            both = np.concatenate([below.rows, reached.reshape(-1, 6)])
            # a stable sort puts a sum already below first among its equals
            order = np.lexsort(both.T)
            both = both[order]
            first = np.ones(len(both), dtype=bool)
            first[1:] = (both[1:] != both[:-1]).any(axis=1)
            rows = both[first]
            fresh = both[first & (order >= len(below.rows))]
        return DirectionSums(den, rows, fresh, *_value_table(rows))

    @cache
    def axes(self, fold: int) -> tuple[Vec3E, ...]:
        """One base vector per axis, antipodal pairs merged.

        The positive representatives of translation_orbit(fold): 6, 10,
        or 15 axes for fold 5, 3, or 2.
        """
        seen: dict[tuple, Vec3E] = {}
        for v in self.translation_orbit(fold):
            rep = _positive_representative(v)
            seen.setdefault(rep.key(), rep)
        return tuple(sorted(seen.values(), key=Vec3E.key))

    @cached_property
    def _action(self) -> tuple[int, np.ndarray, int]:
        """(D, table, max|T|): the action table and its largest entry."""
        d, table = action_table(self.elements)
        return d, table, int(abs(table).max(initial=0))

    @cached_property
    def _generator_indices(self) -> list[int]:
        return [self.elements.index(g) for g in self.generators]

    def _apply(self, den: int, rows: np.ndarray, elements=slice(None)):
        """Images of (n, 6) integer rows over `den` under every element,
        or under those `elements` indexes, as (d, own, chunks): `own` is
        the rows themselves over d, and each chunk holds the (k, m, 6)
        image rows over d of the next m <= _CHUNK rows (at least one
        chunk).  int64 when 6 * max|T| * max|row| < 2^63 bounds every sum
        (the identity's block D*I keeps `own` in bound too), Python ints
        (dtype=object) otherwise; max|T| is the whole table's, which no
        subset of its elements passes.
        """
        d, table, most = self._action
        table = table[elements]
        bound = 6 * most * int(abs(rows).max(initial=0))
        dtype = np.int64 if bound < 2 ** 63 else object
        table, rows = (a.astype(dtype, copy=False) for a in (table, rows))
        chunks = (rows[i:i + _CHUNK] @ table
                  for i in range(0, max(len(rows), 1), _CHUNK))
        return d * den, rows * d, chunks

    def orbits(self, den: int, rows: np.ndarray) -> Orbits | None:
        """The orbits of the distinct (n, 6) integer rows over `den` under
        the generators, or None when some image is not one of the rows.

        The rows are sorted once and each generator's images once: the
        images of distinct rows are distinct, so they are the rows exactly
        when both sorts agree, and then the i-th image in sorted order is
        the image of the i-th row.  Rows whose six entries fit as digits
        of one int64 are sorted by that number.  Non-None is exactly
        invariance: a finite set each generator maps into itself is
        closed under every product of them.
        """
        _, own, chunks = self._apply(den, rows, self._generator_indices)
        images = np.concatenate(list(chunks), axis=1)
        bound = int(abs(own).max(initial=0))
        if int(abs(images).max(initial=0)) > bound:
            return None
        base = 2 * bound + 1
        if base ** 6 < 2 ** 63:
            # one sort key per row: its entries as six base-`base` digits
            weights = base ** np.arange(6, dtype=np.int64)[:, None]
            own, images = ((a + bound).astype(np.int64) @ weights
                           for a in (own, images))
        order = np.lexsort(own.T)
        ordered = own[order]
        found = np.empty((len(self.generators), len(own)), dtype=np.intp)
        for g, image in enumerate(images):
            by_image = np.lexsort(image.T)
            if not np.array_equal(image[by_image], ordered):
                return None
            found[g, by_image] = order
        return Orbits(found)

    def _point_images(self, v: Vec3E) -> tuple[int, np.ndarray, np.ndarray]:
        """(d, own, images) of one point, as `_apply` gives them for its
        one integer row: the row over d as a (6,) array and its image
        under every element as (|G|, 6) rows over d, under the same int64
        or Python-int rule.  The row is read off v's coordinates without
        integer_rows' object array, and the images are one matmul."""
        d, table, most = self._action
        x, y, z = v.x, v.y, v.z
        den = lcm(x.den, y.den, z.den)
        row = [n * (den // c.den) for c in (x, y, z) for n in (c.an, c.bn)]
        dtype = (np.int64 if 6 * most * max(map(abs, row)) < 2 ** 63
                 else object)
        row = np.array(row, dtype=dtype)
        return d * den, row * d, row @ table.astype(dtype, copy=False)

    def orbit(self, v: Vec3E) -> tuple[Vec3E, ...]:
        """The exact orbit of v, deduplicated, in a deterministic order:
        orbit_of_set((v,))."""
        d, _, images = self._point_images(v)
        return distinct_vectors(d, images)

    def orbit_of_set(self, points) -> tuple[Vec3E, ...]:
        """Union of the orbits of several points, ordered by Vec3E.key."""
        d, _, chunks = self._apply(*integer_rows(points))
        return distinct_vectors(
            d, np.concatenate([chunk.reshape(-1, 6) for chunk in chunks]))

    def stabilizer_order(self, v: Vec3E) -> int:
        """The number of elements that fix v."""
        _, own, images = self._point_images(v)
        return int(np.count_nonzero((images == own).all(axis=1)))

    def element_order(self, m: Mat3G) -> int:
        identity = Mat3G.identity()
        power = m
        n = 1
        while power != identity:
            power = mat_mul(power, m)
            n += 1
            if n > self.order:
                raise ValueError("element order exceeds group order")
        return n

    def order_histogram(self) -> dict[int, int]:
        histogram: dict[int, int] = {}
        for m in self.elements:
            n = self.element_order(m)
            histogram[n] = histogram.get(n, 0) + 1
        return dict(sorted(histogram.items()))


def generate_closure(
    generators: list[Mat3G], bound: int = 200, name: str = ""
) -> PointGroup:
    """Breadth-first closure of the generators under multiplication.

    Deterministic: elements appear in generation (level) order, each level
    sorted by canonical matrix key.  Raises ClosureBoundError once more
    than `bound` elements appear, and NonOrthogonalGeneratorError for a
    generator with M^T M != identity.
    """
    for g in generators:
        if not g.is_orthogonal():
            raise NonOrthogonalGeneratorError(f"generator is not orthogonal: {g!r}")
    identity = Mat3G.identity()
    elements: dict[tuple, Mat3G] = {identity.key(): identity}
    ordered: list[Mat3G] = [identity]
    frontier: list[Mat3G] = [identity]
    while frontier:
        discovered: dict[tuple, Mat3G] = {}
        for m in frontier:
            for g in generators:
                product = mat_mul(m, g)
                key = product.key()
                if key not in elements and key not in discovered:
                    discovered[key] = product
        frontier = [discovered[key] for key in sorted(discovered)]
        for m in frontier:
            elements[m.key()] = m
            ordered.append(m)
        if len(ordered) > bound:
            raise ClosureBoundError(
                f"closure exceeded bound {bound}; check the generators"
            )
    return PointGroup(name, tuple(ordered), tuple(generators))


@cache
def rotation_group() -> PointGroup:
    """The 60 icosahedral rotations I."""
    return generate_closure([GEN_R3, GEN_B5], name="I")


@cache
def full_group() -> PointGroup:
    """The full icosahedral group I_h of order 120 (adds -identity)."""
    return generate_closure([GEN_R3, GEN_B5, -Mat3G.identity()], name="I_h")
