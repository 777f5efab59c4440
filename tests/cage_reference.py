"""Reference per-union probe gate: one union's probe rows gathered from
the table with `np.ix_` and held to `_gap`, then the table's search, as
cage detection ran it on each trailing union and one-drop window before
one gate call per window took its place.

Kept as it was so the differential tests can hold
`_NearestTable.verdicts` to each union's own probe, and compare the
table's graph of any union, not only those detection tries, against the
dense search.
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
