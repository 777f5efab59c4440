"""Reference group action: the per-element loops that
`PointGroup.orbit_of_set`, `PointGroup.stabilizer_order` and the
`StartConfig` invariance check ran before they became one batched
product on integer rows, and the generator permutations of a point set
looked up one image at a time, with its orbits found by a breadth-first
search over them (`orbit_labels`).

Kept function for function on `mat_apply`, one element and one point at
a time, so the differential tests compare keys, order, counts and
verdicts with code that shares none of the action table.

`row_vectors` and `distinct_vectors` are the per-row builders that
`geometry.row_vectors` and `orbit_of_set` ran before points were built
from their distinct coordinate values: three reductions per row, then a
set of row tuples sorted by key.  `BUILDERS` names every module global
through which the program builds points from integer rows, for spies.
`mat_det` is the cofactor determinant that `geometry` exported while no
program path called it.
"""

from icofold import cages, configs, engine, geometry, groups
from icofold.geometry import Vec3E, integer_rows, mat_apply
from icofold.golden import GoldenNumber

BUILDERS = ((geometry, "row_vectors"), (geometry, "distinct_vectors"),
            (groups, "distinct_vectors"), (configs, "distinct_vectors"),
            (engine, "row_vectors"), (cages, "row_vectors"))


def spy_on_builders(monkeypatch, built):
    """Patch every name in `BUILDERS` so that each call appends its row
    count to `built` before it builds; a name that is gone fails the
    patch."""
    for module, name in BUILDERS:
        real = getattr(geometry, name)
        monkeypatch.setattr(module, name, lambda den, rows, real=real: (
            built.append(len(rows)) or real(den, rows)))


def row_vectors(den, rows):
    """The vectors of integer rows over `den`, one row at a time."""
    make = GoldenNumber._make
    return tuple(
        Vec3E(make(ax, bx, den), make(ay, by, den), make(az, bz, den))
        for ax, bx, ay, by, az, bz in rows
    )


def distinct_vectors(den, rows):
    """The distinct vectors of integer rows, through a set of row tuples
    and a sort by key."""
    return tuple(sorted(row_vectors(den, {tuple(row) for row in rows}),
                        key=Vec3E.key))


def batched_orbit_of_set(group, points):
    """`orbit_of_set` on the batched action with the set-and-sort build."""
    d, _, chunks = group._apply(*integer_rows(points))
    return distinct_vectors(
        d, [row for chunk in chunks for row in chunk.reshape(-1, 6).tolist()])


def orbit_of_set(group, points):
    """Union of the orbits of several points, sorted by key."""
    seen = {}
    for v in points:
        for g in group.elements:
            image = mat_apply(g, v)
            seen.setdefault(image.key(), image)
    return tuple(sorted(seen.values(), key=Vec3E.key))


def stabilizer_order(group, v):
    key = v.key()
    return sum(1 for g in group.elements if mat_apply(g, v).key() == key)


def is_invariant(vertices, group):
    """Whether every generator maps the vertex set into itself."""
    keys = {v.key() for v in vertices}
    return all(mat_apply(g, v).key() in keys
               for g in group.generators for v in vertices)


def generator_permutations(group, points):
    """Per generator, the index of each point's image among `points`, or
    None when some image is not one of them."""
    index = {v.key(): i for i, v in enumerate(points)}
    table = [[index.get(mat_apply(g, v).key()) for v in points]
             for g in group.generators]
    if any(i is None for row in table for i in row):
        return None
    return table


def orbit_labels(table):
    """(label, reps) of the points a `generator_permutations` table maps:
    each point's orbit as its least index, and the points that are their
    own label, ascending.  Each point not yet reached, in index order,
    starts a breadth-first search over the table."""
    label = [None] * len(table[0])
    for i in range(len(label)):
        if label[i] is not None:
            continue
        label[i] = i
        frontier = [i]
        while frontier:
            fresh = []
            for j in frontier:
                for row in table:
                    if label[row[j]] is None:
                        label[row[j]] = i
                        fresh.append(row[j])
            frontier = fresh
    return label, [i for i, own in enumerate(label) if own == i]


def mat_det(m):
    """The determinant of a Mat3G by cofactors."""
    r = m.rows
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )
