"""The point builders against the per-row loops they replaced.

`geometry.row_vectors` and `geometry.distinct_vectors` reduce each
distinct coordinate value of their rows once and share its one
GoldenNumber.  `group_reference` keeps the per-row loop and the
set-and-sort build; every case must give the same keys in the same
order, each coordinate a canonical triple (gcd 1, den > 0), on int64
rows that pack into one key, int64 rows that do not (at, just past and
well past the 2^63 bound of the packing), Python-int rows, mixed
denominators, duplicate rows and empty input, on the orbits of
`test_group_action`'s cases (some pack near that bound), and on the
points of every built-in, its arrays and the onion arrays.
"""

import random
from math import gcd

import numpy as np
import pytest

import group_reference as ref
from icofold import (cages, configs, engine, export, geometry, groups, onion,
                     verify)
from icofold.configs import BUILTIN_NAMES, StartConfig, builtin
from icofold.engine import generate_array, make_translation, outer_cage
from icofold.geometry import (_coordinate_values, distinct_vectors,
                              integer_rows, row_vectors)
from icofold.golden import GoldenNumber, parse_field_expr
from icofold.groups import full_group
from test_group_action import CASES, GROUPS


def keys(points):
    return [p.key() for p in points]


def assert_canonical(points):
    for p in points:
        for c in p:
            assert c.den > 0 and gcd(c.an, c.bn, c.den) == 1


def duplicated(rng, distinct, count, dtype):
    """`count` rows drawn with repeats from the `distinct` rows."""
    return np.array([rng.choice(distinct) for _ in range(count)],
                    dtype=dtype).reshape(-1, 6)


def row_cases():
    """name: (den, rows, packing dtype, unique): the dtype the rows'
    values pack into, one int64 each or Python ints, and whether their
    packed span is too wide for the lookup table."""
    rng = random.Random(2401)

    def draw(n, lo, hi):
        return [[rng.randint(lo, hi) for _ in range(6)] for _ in range(n)]

    def box(n, a_bound, b_bound):
        """n rows with a in [-a_bound, a_bound] and b in [-b_bound,
        b_bound], two of them at the box's corners."""
        rows = [[rng.randint(-bound, bound) for bound in (a_bound, b_bound)
                 * 3] for _ in range(n - 2)]
        return rows + [[-a_bound, -b_bound] * 3, [a_bound, b_bound] * 3]

    # den 12 gives reduced denominators 1, 2, 3, 4, 6 and 12
    return {
        "dense": (12, duplicated(rng, draw(60, -6, 6), 200, np.int64),
                  np.int64, False),
        "sparse": (10, duplicated(rng, draw(20, -10 ** 6, 10 ** 6), 50,
                                  np.int64), np.int64, True),
        # int64 entries near 2^33 whose packing would pass 2^63
        "2^32": (2, duplicated(rng, draw(20, -2 ** 33, 2 ** 33), 50,
                               np.int64), object, True),
        # a box of (2^32+1)(2^31+1) > 2^63 values: max|a|*width + max|b|
        # is below 2^63, but the shifted packing is not
        "2^31": (2, duplicated(rng, box(20, 2 ** 31, 2 ** 30), 50,
                               np.int64), object, True),
        # a box of 2^62 + 2^32 + 1 values still packs into int64
        "2^30": (2, duplicated(rng, box(20, 2 ** 30, 2 ** 30), 50,
                               np.int64), np.int64, True),
        # every a zero and b spanning more than 2^63: width alone is past
        # int64
        "wide b": (2, duplicated(rng, box(20, 0, 3 * 2 ** 61), 50,
                                 np.int64), object, True),
        "2^200": (2 ** 199, duplicated(rng, draw(20, -2 ** 200, 2 ** 200),
                                       50, object), object, True),
        # repeats of a row of zeros: one value, one point
        "zero": (3, np.zeros((4, 6), dtype=np.int64), np.int64, False),
    }


ROW_CASES = row_cases()


@pytest.mark.parametrize("name", ROW_CASES)
def test_builders_match_the_per_row_loops(name, monkeypatch):
    den, rows, dtype, unique = ROW_CASES[name]
    calls, real = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs:
                        calls.append(1) or real(*args, **kwargs))
    assert _coordinate_values(rows)[0].dtype == dtype
    assert calls == [1] * unique
    for given in (rows, rows.tolist()):
        got = row_vectors(den, given)
        assert keys(got) == keys(ref.row_vectors(den, rows.tolist()))
        assert_canonical(got)
        distinct = distinct_vectors(den, given)
        assert keys(distinct) == keys(ref.distinct_vectors(den,
                                                           rows.tolist()))
        assert_canonical(distinct)
        assert len(distinct) < len(rows)
        # one shared number per distinct value
        values = {c.key() for p in got for c in p}
        assert len({id(c) for p in got for c in p}) == len(values)


@pytest.mark.parametrize("rows", [np.empty((0, 6), dtype=np.int64),
                                  np.empty((0, 6), dtype=object), []])
def test_empty_rows_build_nothing(rows):
    assert row_vectors(5, rows) == () == distinct_vectors(5, rows)
    assert full_group().orbit_of_set(()) == ()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("group_name", GROUPS)
def test_orbits_match_the_set_and_sort_build(group_name, case):
    group = GROUPS[group_name]()
    points = CASES[case]()
    for v in points:
        orbit = group.orbit(v)
        assert keys(orbit) == keys(ref.batched_orbit_of_set(group, [v]))
        assert_canonical(orbit)
    assert keys(group.orbit_of_set(points)) \
        == keys(ref.batched_orbit_of_set(group, points))


def test_near_int64_orbits_take_the_int64_path():
    """The "near int64" points' I_h images stay int64, so their orbits
    pack coordinate values near 2^63 on the int64 path."""
    group = full_group()
    for v in CASES["near int64"]():
        _, _, chunks = group._apply(*integer_rows([v]))
        assert next(chunks).dtype == np.int64


def arrays():
    """Depth-1 fold-5 arrays of every built-in at lambda = 1, 2 and 3,
    then the arrays of the first members of the c60 lambda=3 and c80
    lambda=2 onions."""
    for name in BUILTIN_NAMES:
        start = builtin(name)
        for expr in ("1", "2", "3"):
            t = make_translation(start.symmetry, 5, parse_field_expr(expr))
            yield generate_array(start, t, 1)
    for name, expr in (("c60", "3"), ("c80", "2")):
        start = builtin(name)
        t = make_translation(start.symmetry, 5, parse_field_expr(expr))
        first = outer_cage(generate_array(start, t, 1)).graph
        member = StartConfig.from_rows(f"{name}.onion1", *first.rows,
                                       start.symmetry)
        yield generate_array(member, t, 1)


def test_configs_shells_and_cages_match_the_per_row_loops():
    for name in BUILTIN_NAMES:
        start = builtin(name)
        assert keys(start.vertices) == keys(
            ref.distinct_vectors(start.integer_rows[0],
                                 start.integer_rows[1].tolist()))
    sizes = []
    for array in arrays():
        for shell in array.shells:
            assert keys(shell.points) == keys(
                ref.row_vectors(shell.den, shell.rows.tolist()))
        finding = outer_cage(array)
        if finding is not None:
            den, rows = finding.graph.rows
            assert keys(finding.graph.points) == keys(
                ref.row_vectors(den, rows.tolist()))
            member = StartConfig.from_rows("member", den, rows,
                                           array.start.symmetry)
            assert keys(member.vertices) == keys(
                ref.distinct_vectors(den, rows.tolist()))
            sizes.append(len(rows))
    assert sizes == [80, 240, 180, 240, 540, 320]


def test_an_orbit_makes_one_number_per_distinct_value(monkeypatch):
    group = full_group()
    group._action  # the table's own numbers are made once per process
    made = []
    real = GoldenNumber._make.__func__

    def make_spy(cls, an, bn, den):
        made.append((an, bn, den))
        return real(cls, an, bn, den)

    monkeypatch.setattr(GoldenNumber, "_make", classmethod(make_spy))
    for v in CASES["golden"]()[:40] + CASES["big"]():
        made.clear()
        orbit = group.orbit(v)
        values = {c.key() for p in orbit for c in p}
        assert len(made) == len(values) == len(set(made))
        assert len({id(c) for p in orbit for c in p}) == len(values)


def test_every_builder_name_is_spied():
    """`group_reference.BUILDERS` lists every module global bound to a
    builder, so the spies that patch it see every point built."""
    bound = {(module.__name__, name)
             for module in (cages, configs, engine, export, geometry,
                            groups, onion, verify)
             for name, value in vars(module).items()
             if value in (geometry.row_vectors, geometry.distinct_vectors)}
    assert bound == {(module.__name__, name)
                     for module, name in ref.BUILDERS}


@pytest.mark.parametrize("n", [1, 27, 2 ** 21, 2 ** 22, 2 ** 40])
def test_distinct_ranks_order_rows_lexicographically(n):
    """Rank rows keyed base n as int64 while n^3 < 2^63 and as Python ints
    past it come out distinct and in lexicographic order."""
    rng = random.Random(n)
    distinct = [[rng.randrange(n) for _ in range(3)] for _ in range(30)]
    index = np.array([rng.choice(distinct) for _ in range(80)],
                     dtype=np.intp)
    got = geometry._distinct_ranks(index, n)
    assert got.dtype == np.intp
    assert got.T.tolist() == sorted(map(list, set(map(tuple,
                                                      index.tolist()))))
