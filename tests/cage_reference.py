"""Reference per-union probe gate: one union's probe rows gathered from
the table with `np.ix_` and held to `_gap`, then the table's search, as
cage detection ran it on each trailing union and one-drop window before
one gate call per window took its place.  And the all-points bond
search: every point's four nearest, chunk by chunk, then its bonds, as
floats-only sets and unions that are not invariant were searched before
one search from orbit representatives served every set.

Kept as they were so the differential tests can hold
`_NearestTable.verdicts` to each union's own probe, compare the table's
graph of any union, not only those detection tries, against the dense
search, and hold `_bond_search` to the all-points search.
"""

import numpy as np

from icofold import cages


def probe_rows(table, members):
    """The union's probe rows, four entries per member group, in the
    order of `members`."""
    table._fill_columns(members)
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


def permutations(table, members):
    """The generators' index permutations of the union's points, or None
    when the table holds no exact rows or the union is not invariant."""
    if table._exact is None:
        return None
    group, den, rows = table._exact
    return group.generator_permutations(
        den, np.concatenate([rows[i] for i in members]))


def union_rows(coords):
    """Per point, its four smallest squared distances to the other points
    of `coords` (at least four) and their indices, chunk by chunk."""
    values = np.empty((len(coords), 4))
    targets = np.empty((len(coords), 4), dtype=np.intp)
    for start, d2 in cages._distance_chunks(coords):
        index = np.argpartition(d2, 3, axis=1)[:, :4]
        values[start:start + len(d2)] = np.take_along_axis(d2, index, axis=1)
        targets[start:start + len(d2)] = index
    return values, targets


def union_bonds(coords):
    """(c2, bond pairs) of the point set from every point's four nearest,
    or None when it has no gap."""
    values, targets = union_rows(coords)
    found = cages._bonds(values)
    if found is None:
        return None
    c2, bonds = found
    source, column = np.nonzero(bonds)
    return c2, cages._edges(source, targets[source, column], len(coords))
