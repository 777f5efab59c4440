"""Reference per-union probe gate: one union's probe rows gathered from
the table with `np.ix_` and held to `_gap`, then the table's search, as
cage detection ran it on each trailing union and one-drop window before
one gate call per window took its place.  And the four-nearest
selection the bond search made before `cages._four_nearest`: one
`np.argpartition` per chunk and `np.take_along_axis` for its values
(`union_rows`).  And the all-points bond search: every point's four
nearest, chunk by chunk, then its bonds, as floats-only sets and unions
that are not invariant were searched before one search from orbit
representatives served every set.  And that search as it ran before
orbits moved to `groups`: least-label propagation over the generators'
permutations, then a breadth-first carry of the representatives'
bonds, both inside the search.

And the squared-distance chunks as every search took them before small
sets came in one chunk: 64 rows at a time whatever the set's size
(`distance_chunks`); the references below read theirs from it.

And the bond mask the search took from those unsorted rows (`bonds`):
`_gap` partitions the rows again and every entry within the cutoff is
a bond, where `_bond_search` now reads the gap and the bonds from the
columns of its ascending rows.  And the threshold search that probed
every point set before its search, one chunk or more
(`trivalence_threshold_search`).

Kept as they were so the differential tests can hold
`_NearestTable.verdicts` to each union's own probe, compare the table's
graph of any union, not only those detection tries, against the dense
search, hold `_bond_search` and its selection to the argpartition
selection, the all-points search and its own loops over the
permutations (`bond_search`), and hold the threshold search to its
probe-first form.
"""

import numpy as np

from icofold import cages


def probe_rows(table, members):
    """The union's probe rows, four entries per member group, in the
    order of `members`; the table fills its columns from the lowest
    member on, as a window gate from there does."""
    table._fill(min(members))
    rows = table._probe_table[np.ix_(members, members)]
    return rows.reshape(len(members), -1)


def passes_probe(table, chosen):
    """Whether the union's non-empty members' probe rows hold a gap."""
    members = [i for i in chosen if len(table.coords[i])]
    return cages._gap(probe_rows(table, members)) is not None


def graph(table, chosen):
    """The union's probe gate, then its `search`."""
    members = [i for i in chosen if len(table.coords[i])]
    if (sum(len(table.coords[i]) for i in members) < 4
            or not passes_probe(table, members)):
        return None
    return table.search(members)


def orbits(table, members):
    """The groups.Orbits of the union's points, or None when the table
    holds no exact rows or the union is not invariant."""
    if table._exact is None:
        return None
    group, den, rows = table._exact
    return group.orbits(den, np.concatenate([rows[i] for i in members]))


def distance_chunks(coords, rows=None):
    """(place in `rows` of a chunk's first row, squared distances from
    that row and the next ones to every point of `coords`), 64 rows at a
    time, with each row's distance to itself set to `inf`."""
    rows = np.arange(len(coords)) if rows is None else rows
    for start in range(0, len(rows), 64):
        chunk = rows[start:start + 64]
        d2 = cages._pairwise_squared(coords[chunk], coords)
        d2[np.arange(len(chunk)), chunk] = np.inf
        yield start, d2


def union_rows(coords, rows=None):
    """Per point of `rows` (every point when None), its four smallest
    squared distances to the other points of `coords` (at least four)
    and their indices, chunk by chunk, from one `np.argpartition` per
    chunk: the selection `cages._four_nearest` replaced."""
    count = len(coords) if rows is None else len(rows)
    values = np.empty((count, 4))
    targets = np.empty((count, 4), dtype=np.intp)
    for start, d2 in distance_chunks(coords, rows):
        index = np.argpartition(d2, 3, axis=1)[:, :4]
        values[start:start + len(d2)] = np.take_along_axis(d2, index, axis=1)
        targets[start:start + len(d2)] = index
    return values, targets


def bonds(values):
    """(c2, which of the rows' entries are bonds) when the rows hold a
    gap, else None.  The threshold lies below every fourth-nearest
    distance, so each row's entries within it are exactly that point's
    three bonds."""
    gap = cages._gap(values)
    if gap is None:
        return None
    c2, floor4 = gap
    return c2, values <= (c2 + min(floor4, 4.0 * c2)) / 2.0


def union_bonds(coords):
    """(c2, bond pairs) of the point set from every point's four nearest,
    or None when it has no gap."""
    values, targets = union_rows(coords)
    found = bonds(values)
    if found is None:
        return None
    c2, mask = found
    source, column = np.nonzero(mask)
    return c2, cages._edges(source, targets[source, column], len(coords))


def bond_search(coords, permutations=None):
    """(c2, bond pairs) of the point set from its representatives' four
    nearest, or None when it has no gap.

    `permutations`, when given, are the generators' index permutations of
    the points, which map the set onto itself.  Every point is a group
    image of its orbit's lowest index, its representative, and an
    isometry that keeps the set carries bonds to bonds.  So only the
    representatives' four nearest are taken, against all points, by
    `union_rows`, and their bonds are carried
    out along the generators, one breadth-first level at a time.  With
    no generators every point is its own representative.
    """
    n = len(coords)
    reps = label = np.arange(n)
    if permutations is not None:
        # each point takes the least label among it and its images, then
        # its label's label; labels stay inside the orbit and reach its
        # lowest index
        while True:
            least = np.minimum(label, label[permutations].min(axis=0))
            least = least[least]
            if np.array_equal(least, label):
                break
            label = least
        reps = np.flatnonzero(label == reps)
    values, targets = union_rows(coords, reps)
    found = bonds(values)
    if found is None:
        return None
    c2, mask = found
    neighbors = np.empty((n, 3), dtype=np.intp)
    neighbors[reps] = targets[mask].reshape(-1, 3)
    reached = np.zeros(n, dtype=bool)
    reached[reps] = True
    frontier = reps
    # with every point its own representative, there is nothing to carry
    while not reached.all():
        fresh = []
        for perm in permutations:
            image = perm[frontier]
            new = ~reached[image]
            neighbors[image[new]] = perm[neighbors[frontier[new]]]
            reached[image[new]] = True
            fresh.append(image[new])
        frontier = np.concatenate(fresh)
    return c2, cages._edges(np.repeat(np.arange(n), 3), neighbors.ravel(), n)


def trivalence_threshold_search(*groups):
    """`cages.trivalence_threshold_search` with its probe on every point
    set: the groups' first points against every point, held to `_gap`
    before the search, however few the points."""
    cages._check_search_budget(sum(map(len, groups)))
    coords = [c for c in map(cages.as_coords, groups) if len(c)]
    if sum(map(len, coords)) < 4:
        return None
    probes = np.cumsum([0] + [len(c) for c in coords[:-1]])
    coords = np.vstack(coords)
    probe_rows = [d2 for _, d2 in distance_chunks(coords, probes)]
    if cages._gap(np.vstack(probe_rows)) is None:
        return None
    return cages._trivalent_graph(coords, cages._bond_search(coords))
