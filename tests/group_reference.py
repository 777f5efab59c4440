"""Reference group action: the per-element loops that
`PointGroup.orbit_of_set`, `PointGroup.stabilizer_order` and the
`StartConfig` invariance check ran before they became one batched
product on integer rows, and the generator permutations of a point set
looked up one image at a time.

Kept function for function on `mat_apply`, one element and one point at
a time, so the differential tests compare keys, order, counts and
verdicts with code that shares none of the action table.
"""

from icofold.geometry import Vec3E, mat_apply


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
