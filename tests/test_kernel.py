"""The numpy point kernel against the kernels it replaced.

`kernel_reference` keeps the per-point `generate_array`/`build_shells`
loop and the whole-array front end that built all N candidate rows
before arrays were built from value tables.  Every case must give equal
exact radii, rows, denominators, dtypes and float bytes, and against the
loop equal point keys.  Work-count spies check that the kernel stays a
whole-array pass over the distinct values, a budget test and a retention
test check the caches the factored front end keeps, and a digest pins
the default scan's output.
"""

import gc
import hashlib
import math
import random
import sys
import tracemalloc
import weakref
from itertools import permutations

import numpy as np
import pytest

import kernel_reference as ref
from icofold import engine, onion
from icofold.cages import PointBudgetError
from icofold.configs import BUILTIN_NAMES, StartConfig, builtin
from icofold.engine import (DEFAULT_SCAN_SPEC, classify_length,
                            classify_scan, generate_array,
                            generic_cardinality, make_translation,
                            outer_cage)
from icofold.export import canonical_json
from icofold.geometry import Mat3G, Vec3E
from icofold.golden import GoldenNumber, parse_field_expr
from icofold.groups import (BASE_VECTORS, GEN_B5, GEN_R3, full_group,
                            generate_closure)


def translation(config, fold, expr):
    return make_translation(config.symmetry, fold, parse_field_expr(expr))


def assert_same(shells, want):
    assert len(shells) == len(want)
    for shell, old in zip(shells, want):
        assert shell.radius2.key() == old.radius2.key()
        assert shell.den == old.den
        assert shell.rows.shape == (len(old.rows), 6)
        assert shell.rows.tolist() == [list(row) for row in old.rows]
        assert shell.coords.dtype == np.float64
        assert shell.coords.tobytes() == old.coords.tobytes()
        assert [p.key() for p in shell.points] == old.point_keys()


def assert_same_array(start, t, depth):
    array = generate_array(start, t, depth)
    assert_same(array.shells, ref.generate_shells(start, t, depth))
    assert_same_as_front_end(array.shells, start, t, depth)
    return array


def assert_same_as_front_end(shells, start, t, depth):
    """The shells equal those of all N candidate rows, built by the
    reference front end and handed to build_shells: rows, their dtype,
    float bytes, exact squared radii and denominators."""
    want = ref.front_end_shells(start, t, depth)
    assert len(shells) == len(want)
    for shell, old in zip(shells, want):
        assert shell.radius2.key() == old.radius2.key()
        assert shell.den == old.den
        assert shell.rows.dtype == old.rows.dtype
        assert shell.rows.shape == old.rows.shape
        assert shell.rows.tolist() == old.rows.tolist()
        assert shell.coords.tobytes() == old.coords.tobytes()


def row_dtype(array):
    dtypes = {shell.rows.dtype for shell in array.shells}
    assert len(dtypes) == 1
    return dtypes.pop()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_kernel_matches_reference_on_catalog_lengths(name):
    start = builtin(name)
    for fold in (2, 3, 5):
        for expr in ("3", "1", "tau^2", "(7+tau)/5"):
            assert_same_array(start, translation(start, fold, expr), 1)


@pytest.mark.parametrize("name,fold,expr", [
    ("dodecahedron", 5, "1"),
    ("dodecahedron", 3, "tau^2"),
    ("c80", 5, "2"),
])
def test_kernel_matches_reference_at_depth_2(name, fold, expr):
    start = builtin(name)
    assert_same_array(start, translation(start, fold, expr), 2)


def test_kernel_matches_reference_on_onion_working_configs():
    for name, expr in (("c60", "3"), ("c80", "2")):
        start = builtin(name)
        t = translation(start, 5, expr)
        finding = outer_cage(generate_array(start, t, 1))
        working = StartConfig(f"{name}.onion1", finding.graph.points,
                              start.symmetry)
        assert_same_array(working, t, 1)


def test_depth_0_arrays_keep_the_steps_denominator():
    """At depth 0 an array is its start, but its rows stay over the
    denominator the steps share, 7 here, as the front end's were."""
    start = builtin("dodecahedron")
    array = assert_same_array(start, translation(start, 5, "1/7"), 0)
    assert len(array) == 20 and array.shells[0].den == 7


def test_kernel_matches_reference_on_mixed_denominators():
    # coordinates over 3, 2 and 5 in one seed, images over 4, steps over 7
    group = full_group()
    seed = Vec3E(GoldenNumber._make(1, 0, 3), GoldenNumber._make(0, 1, 2),
                 GoldenNumber._make(1, 1, 5))
    start = StartConfig("mixed", group.orbit(seed), group)
    for fold in (2, 3, 5):
        array = assert_same_array(start, translation(start, fold,
                                                     "(1+2*tau)/7"), 1)
        assert array.shells[0].den == 420


@pytest.mark.parametrize("expr", ["tau^60", "(2^200+1)/2^199"])
def test_kernel_matches_reference_in_python_ints(expr):
    start = builtin("dodecahedron")
    array = assert_same_array(start, translation(start, 5, expr), 1)
    assert row_dtype(array) == object


@pytest.mark.parametrize("n,dtype", [(2 ** 29 - 2, np.int64),
                                     (2 ** 29 - 1, object)])
def test_kernel_matches_reference_at_the_int64_bound(n, dtype):
    # icosahedron rows hold 0 and +-1, fold-5 steps n times that: the
    # bound max|x| + max|step| is n + 1
    start = builtin("icosahedron")
    t = translation(start, 5, str(n))
    den, base, steps = ref._kernel_rows(start, t)
    assert (den, abs(base).max() + abs(steps).max()) == (1, n + 1)
    # the value table reaches the same bound and takes the same dtype
    den, va, vb, _, table_dtype = engine._array_values(start, t, 1)
    assert (den, max(abs(va).max(), abs(vb).max()), table_dtype) == (
        1, n + 1, dtype)
    array = assert_same_array(start, t, 1)
    assert row_dtype(array) == dtype
    rows = np.concatenate([shell.rows for shell in array.shells])
    for other in (np.int64, object):
        assert_same(ref.row_shells(rows[::-1].astype(other), den),
                    ref.build_shells([tuple(r) for r in rows.tolist()], den))


@pytest.mark.parametrize("scale,length,start_dtype,kernel_dtype", [
    ("2^61", "1", np.int64, np.int64),
    # the start rows fit int64, but not once scaled to the steps' den 5
    ("2^62", "1/5", np.int64, object),
    ("2^63", "1", object, object),
    ("-2^63", "1", object, object),
])
def test_start_rows_are_int64_only_while_they_fit(scale, length,
                                                  start_dtype, kernel_dtype):
    group = full_group()
    seed = BASE_VECTORS[5].scale(parse_field_expr(scale))
    start = StartConfig("big", group.orbit(seed), group)
    assert start.integer_rows[1].dtype == start_dtype
    t = translation(start, 5, length)
    assert ref._kernel_rows(start, t)[1].dtype == kernel_dtype
    assert engine._array_values(start, t, 1)[4] == object
    assert row_dtype(assert_same_array(start, t, 1)) == object


def test_builtin_start_rows_are_int64():
    for name in BUILTIN_NAMES:
        assert builtin(name).integer_rows[1].dtype == np.int64


@pytest.fixture
def sorts(monkeypatch):
    """Every np.lexsort and np.argsort call, in call order, as (number of
    keys, key length); an argsort has one key."""
    calls = []
    for name in ("lexsort", "argsort"):
        real = getattr(np, name)

        def spy(keys, *args, real=real, name=name, **kwargs):
            keys_list = keys if name == "lexsort" else [keys]
            calls.append((len(keys_list), len(keys_list[-1])))
            return real(keys, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    return calls


# two values, distinct from each other and from 0, that evaluate to 0.0
FIB_X, FIB_Y = (-165580141, 102334155), (-267914296, 165580141)


def test_float_ties_are_broken_by_exact_triples(sorts):
    # x and y differ exactly but both evaluate to 0.0, so (x, y, 0),
    # (y, x, 0) and (0, x, y) share a radius and their floats
    x, y = FIB_X, FIB_Y
    assert x[0] + x[1] * 1.618033988749895 == 0.0
    assert y[0] + y[1] * 1.618033988749895 == 0.0
    p, q, r = (*x, *y, 0, 0), (*y, *x, 0, 0), (0, 0, *x, *y)
    want = ref.build_shells({p, q}, 1)
    assert [row for shell in want for row in shell.rows] == [q, p]
    want3 = ref.build_shells({p, q, r}, 1)
    assert [row for shell in want3 for row in shell.rows] == [q, p, r]
    for dtype in (np.int64, object):
        sorts.clear()
        assert_same(ref.row_shells(np.array([p, q, p], dtype=dtype), 1), want)
        # duplicates of both tied rows interleaved, and a third row tied
        # with them on the same shell
        assert_same(ref.row_shells(np.array([p, q, p, r, q, q], dtype=dtype),
                                 1), want3)
        # per call: the three values' sort and ranks, then one row sort
        # on the two radius keys, three float ranks and three exact ranks,
        # then the one shell's float radius
        assert sorts == [(4, 3), (1, 3), (8, 3), (1, 1),
                         (4, 3), (1, 3), (8, 6), (1, 1)]
    big = (2 ** 60, 0, 2 ** 60 + 1, 0, 0, 0)
    swapped = (2 ** 60 + 1, 0, 2 ** 60, 0, 0, 0)
    rows = np.array([swapped, big, swapped], dtype=object)
    sorts.clear()
    assert_same(ref.row_shells(rows, 1), ref.build_shells({big, swapped}, 1))
    assert sorts == [(4, 3), (1, 3), (8, 3), (1, 1)]


def test_radii_whose_floats_tie_are_ordered_exactly(sorts):
    """0, x^2 and y^2 are three exact radii whose floats are all 0.0, and
    y^2 < x^2 although x^2's radius keys are the smaller pair: the shells
    follow the exact order, decided for the run of near radii at once."""
    x, y = FIB_X, FIB_Y
    rows = [(*x, 0, 0, 0, 0), (*y, 0, 0, 0, 0), (0,) * 6,
            (1, 0, 0, 0, 0, 0), (0, 0, *x, 0, 0)]
    want = ref.build_shells(set(rows), 1)
    assert [float(shell.radius2) for shell in want] == [0.0, 0.0, 0.0, 1.0]
    assert [shell.rows[0][:2] for shell in want[1:3]] == [y, x]
    for dtype in (np.int64, object):
        for listed in (rows, rows[::-1]):
            sorts.clear()
            assert_same(ref.row_shells(np.array(listed, dtype=dtype), 1), want)
            # the float sort of the four radii, then their exact ranks
            assert sorts[-2:] == [(1, 4), (2, 4)]


def test_float_ties_come_after_all_three_floats():
    """Rows that tie on one coordinate's float but not on the next one's
    go by the floats first; -1 and 1 sort among the tied values by float
    and not by exact triple."""
    values = [FIB_X, FIB_Y, (-1, 0), (0, 0), (1, 0)]
    rows = {(*u, *v, *w) for u, v, w in permutations(values, 3)}
    want = ref.build_shells(rows, 1)
    listed = sorted(rows) * 2
    random.Random(7).shuffle(listed)
    for dtype in (np.int64, object):
        assert_same(ref.row_shells(np.array(listed, dtype=dtype), 1), want)


# --- the factored front end against all N candidate rows ----------------

def scan_translations(start):
    lengths = DEFAULT_SCAN_SPEC.lengths(2 * math.sqrt(float(start.radius2)))
    return [make_translation(start.symmetry, fold, length)
            for fold in (2, 3, 5) for length in lengths]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_default_scan_arrays_match_the_front_end(name):
    start = builtin(name)
    for t in scan_translations(start):
        shells = generate_array(start, t, 1).shells
        assert_same_as_front_end(shells, start, t, 1)


@pytest.mark.parametrize("name", ["dodecahedron", "icosidodecahedron"])
def test_depth_2_scan_sample_matches_the_front_end(name):
    start = builtin(name)
    for t in scan_translations(start)[::97]:
        shells = generate_array(start, t, 2).shells
        assert_same_as_front_end(shells, start, t, 2)


def test_onion_arrays_match_the_front_end(monkeypatch):
    """Every array the c60 and c80 onions build up to iteration 4, whose
    array has no trivalent outer cage, from members of up to 960 points
    and 300 distinct coordinate values."""
    seen = []

    def checked(start, t, depth):
        array = generate_array(start, t, depth)
        assert_same_as_front_end(array.shells, start, t, depth)
        seen.append(len(start))
        return array

    monkeypatch.setattr(onion, "generate_array", checked)
    for name, expr in (("c60", "3"), ("c80", "2")):
        start = builtin(name)
        report = onion.build_onion(start, translation(start, 5, expr), 4)
        assert report.failure == "no trivalent outer cage at iteration 4"
    assert seen == [60, 240, 540, 960, 80, 180, 320, 500]


def test_coinciding_pair_sums_are_one_value():
    """At length 1 the icosahedron's values u and the fold-5 sums' values
    v give u + v = u' + v' for many pairs: (0, 0) + (1, 0) is
    (1, 0) + (0, 0).  Each sum is one value of the array's table, and
    the array matches the front end."""
    start = builtin("icosahedron")
    t = translation(start, 5, "1")
    _, ua, _, _ = start.value_table
    sums = start.symmetry.direction_sums(5, 1)
    den, va, vb, index, dtype = engine._array_values(start, t, 1)
    assert len(va) < len(ua) * len(sums.va)
    assert len({(a, b) for a, b in zip(va.tolist(), vb.tolist())}) == len(va)
    assert index.shape == (3, len(start) * len(sums.rows))
    assert_same_array(start, t, 1)


def test_budget_is_checked_level_by_level_on_cached_sums():
    """A small start fills a fresh group's sums to depth 4; a large start
    at the same (fold, depth) still stops at the level the front end
    stops at, with the same text, and at a depth past the cached levels
    builds no level past the one that fails."""
    group = generate_closure([GEN_R3, GEN_B5, -Mat3G.identity()])
    small = StartConfig("small", group.orbit(BASE_VECTORS[5]), group)
    seeds = [Vec3E.from_golden(k, 2 * k + 1, 3) for k in range(1, 24)]
    large = StartConfig("large", group.orbit_of_set(seeds), group)
    assert (len(small), len(large)) == (12, 2760)
    length = parse_field_expr("1/3")
    t = make_translation(group, 5, length)
    generate_array(small, t, 4)
    with pytest.raises(PointBudgetError) as want:
        ref.front_end_rows(large, t, 4)
    with pytest.raises(PointBudgetError) as got:
        generate_array(large, t, 4)
    # 2760 points times the 377 sums of at most three directions
    assert str(got.value) == str(want.value) == (
        "1040520 candidate points exceed the cap of 1000000")
    sums = type(group).direction_sums
    before = sums.cache_info().currsize
    with pytest.raises(PointBudgetError):
        generate_array(large, make_translation(group, 3, length), 9)
    # fold 3's sums of at most 0, 1, 2 and 3 directions: 1, 21, 191 and
    # 1035, and 2760 * 1035 is the first over the cap
    assert sums.cache_info().currsize - before == 4


def test_arrays_keep_no_start_alive():
    """Thirty start configurations, onion members and closed seeds, each
    with an array: once dropped, none is kept, and memory returns to
    where it was."""
    group = full_group()
    t = translation(builtin("c60"), 5, "3")
    report = onion.build_onion(builtin("c60"), t, 3)
    members = [builtin("c60"), builtin("c80"),
               *(StartConfig(f"member{i}", shell.points, group)
                 for i, shell in enumerate(report.family[1:]))]
    del report

    def starts():
        yield from members
        for k in range(25):
            seed = Vec3E.from_golden(k + 1, 2, k % 3)
            yield StartConfig(f"seed{k}", group.orbit(seed), group)

    def build_all(keep):
        for start in starts():
            generate_array(start, t, 1)
            keep.append(weakref.ref(start))

    build_all([])  # fill the group's caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = []
        build_all(kept)
        members.clear()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 30
    assert [ref_() for ref_ in kept] == [None] * 30
    assert grown < 64 * 1024


# --- the row sort against the reference ----------------------------------

def array_rows(name, fold, expr):
    """An array's distinct rows and their denominator."""
    start = builtin(name)
    shells = generate_array(start, translation(start, fold, expr), 1).shells
    return np.concatenate([s.rows for s in shells]), shells[0].den


def interleaved(rows, seed=0):
    """The rows twice over and every fifth row a third time, shuffled."""
    listed = [*rows.tolist(), *rows.tolist(), *rows[::5].tolist()]
    random.Random(seed).shuffle(listed)
    return listed


def assert_rows_match_reference(listed, den, sorts, row_sort):
    """build_shells of the rows (`ref.row_shells`), in int64 and as
    Python ints, against the reference; the row sort, the third sort of
    each call after the values' sort and ranks, has the keys `row_sort`
    names: 1 for the packed argsort."""
    want = ref.build_shells({tuple(row) for row in listed}, den)
    for dtype in (np.int64, object):
        sorts.clear()
        assert_same(ref.row_shells(np.array(listed, dtype=dtype), den), want)
        assert sorts[2] == (row_sort, len(listed))


@pytest.fixture
def unique_calls(monkeypatch):
    """The np.unique calls made inside `ref.row_shells`, which finds the
    rows' values and calls build_shells; building points from shell rows
    makes its own."""
    calls = []
    real, code = np.unique, ref.row_shells.__code__

    def spy(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        if frame is not None:
            calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    return calls


@pytest.mark.parametrize("name,fold,expr", [
    ("c60", 5, "3"), ("c80", 3, "(7+tau)/5"), ("dodecahedron", 2, "tau^2"),
])
def test_value_table_and_np_unique_match_reference(name, fold, expr, sorts,
                                                   unique_calls):
    rows, den = array_rows(name, fold, expr)
    listed = interleaved(rows)
    assert_rows_match_reference(listed, den, sorts, 1)
    assert unique_calls == []
    # one wide entry spreads the values past the lookup table's reach
    wide = interleaved(np.vstack([rows, [[4000, 1, 0, 0, 0, 0]]]), 1)
    assert_rows_match_reference(wide, den, sorts, 1)
    assert len(unique_calls) == 2


def test_rows_just_under_the_int64_bound_take_the_lexsort(sorts,
                                                         monkeypatch):
    # the fold-5 icosahedron array at length 2^29 - 2 holds entries up to
    # 2^29 - 1: int64 rows, whose packed sort key would not fit
    rows, den = array_rows("icosahedron", 5, str(2 ** 29 - 2))
    assert rows.dtype == np.int64
    assert abs(rows).max() == engine._INT64_BOUND - 1
    listed = interleaved(rows)
    assert_rows_match_reference(listed, den, sorts, 5)
    # int64 rows keep their two radius keys and three ranks in int64
    keys = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: keys.append(k) or lexsort(k))
    ref.row_shells(np.array(listed), den)
    assert [k.dtype for k in keys[1]] == [np.dtype(np.int64)] * 5


def test_python_int_rows_match_reference(sorts):
    rows, den = array_rows("dodecahedron", 5, "tau^60")
    assert rows.dtype == object
    listed = interleaved(rows)
    want = ref.build_shells({tuple(row) for row in listed}, den)
    sorts.clear()
    assert_same(ref.row_shells(np.array(listed, dtype=object), den), want)
    assert sorts[2] == (5, len(listed))


@pytest.mark.parametrize("den", [1, 2, 6])
def test_radius_keys_are_packed_whole(den, sorts):
    """Small rows with many radii that share key0, key1 or their sum:
    (1, 0) and (0, 1) both give key0 = 1, for radii 1 and tau^2."""
    rng = random.Random(den)
    listed = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(400)]
    listed += [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0]]
    assert_rows_match_reference(listed, den, sorts, 1)


def test_value_table_holds_O_N_entries():
    """A wide entry does not size a table by its span: the peak stays
    within a few hundred bytes per row."""
    rows, den = array_rows("dodecahedron", 5, "1")
    for wide in (None, [2 ** 20, 0, 0, 0, 0, 0], [0, 2 ** 20, 0, 0, 0, 0]):
        listed = rows if wide is None else np.vstack([rows, [wide]])
        tracemalloc.start()
        try:
            ref.row_shells(listed, den)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * len(listed) + 32_768


# --- work counts ----------------------------------------------------------

def default_scan_rows():
    start = builtin("icosidodecahedron")
    lengths = DEFAULT_SCAN_SPEC.lengths(2 * math.sqrt(float(start.radius2)))
    return start, [(fold, length) for fold in (2, 3, 5)
                   for length in lengths[::40]]


def test_build_shells_makes_one_golden_number_per_shell(monkeypatch):
    start, rows = default_scan_rows()
    real_make = GoldenNumber._make.__func__
    real_build = engine.build_shells
    made = []
    seen = []

    def counting_make(cls, *args):
        made.append(args)
        return real_make(cls, *args)

    def counted_build(den, va, vb, index, dtype):
        before = len(made)
        shells = real_build(den, va, vb, index, dtype)
        seen.append((index.shape[1], len(made) - before, len(shells)))
        return shells

    monkeypatch.setattr(GoldenNumber, "_make", classmethod(counting_make))
    monkeypatch.setattr(engine, "build_shells", counted_build)
    for fold, length in rows:
        generate_array(start, make_translation(start.symmetry, fold, length),
                       1)
    assert len(seen) == len(rows)
    for points, makes, shells in seen:
        assert makes == shells < points


def test_default_scan_rows_take_one_row_sort(sorts, monkeypatch):
    """Each default scan row's points are ordered by one argsort of one
    int64 key per point, and its shells by one argsort of their float
    radii.  Only the distinct coordinate values, far fewer than the 3N
    coordinates, are reduced and sorted; the front end takes one gcd
    over the start's and the single steps' values, not over the N rows;
    and no row takes the float-tie keys."""
    start, rows = default_scan_rows()
    translations = [make_translation(start.symmetry, fold, length)
                    for fold, length in rows]
    for t in translations[:1] + translations[-1:]:  # fill the caches
        generate_array(start, t, 1)
    calls, reduced, front = [], [], []
    real_gcd, real_front_gcd = np.gcd, engine.gcd
    monkeypatch.setattr(np, "gcd", lambda *args: reduced.append(
        max(map(np.size, args))) or real_gcd(*args))
    monkeypatch.setattr(engine, "gcd", lambda *args: front.append(
        len(args)) or real_front_gcd(*args))
    for t in translations:
        sorts.clear(), reduced.clear(), front.clear()
        shells = generate_array(start, t, 1).shells
        calls.append((generic_cardinality(start, t), list(sorts),
                      list(reduced), list(front), len(shells)))
    assert len(calls) == len(rows)
    for n_rows, sorted_keys, gcd_sizes, front_gcds, n_shells in calls:
        n_values = sorted_keys[0][1]
        assert sorted_keys == [(4, n_values), (1, n_values), (1, n_rows),
                               (1, n_shells)]
        assert gcd_sizes == [n_values, n_values]
        assert len(front_gcds) == 1 and 10 * front_gcds[0] < n_rows
        assert 3 * n_values < n_rows


def test_scan_row_builds_no_vectors_and_no_step_products(monkeypatch):
    # one row as classify_scan makes it: the translation, then the row
    start, rows = default_scan_rows()
    for fold in (2, 3, 5):  # fill the group's per-fold caches
        make_translation(start.symmetry, fold, GoldenNumber(1))
    start.integer_rows
    counts = {"vec": 0, "mul": 0}
    real_init = Vec3E.__init__
    real_mul = GoldenNumber.__mul__

    def counting_init(self, *args):
        counts["vec"] += 1
        real_init(self, *args)

    def counting_mul(self, other):
        counts["mul"] += 1
        return real_mul(self, other)

    monkeypatch.setattr(Vec3E, "__init__", counting_init)
    monkeypatch.setattr(GoldenNumber, "__mul__", counting_mul)
    monkeypatch.setattr(GoldenNumber, "__rmul__", counting_mul)
    for fold, length in rows:
        classify_length(start, make_translation(start.symmetry, fold, length),
                        1, with_cage=False)
    assert counts == {"vec": 0, "mul": 0}


# --- the benchmark's scan output ------------------------------------------

# sha256 of canonical_json of each default icosidodecahedron scan row,
# concatenated in classify_scan order (894 rows); the same constant as the
# benchmark's scan digest.
SCAN_DIGEST = (
    "d07e4c01e99b95dc87bd1fbb293135eec5f2a4d27174c3f67fd39530ffa7ea1d")


def test_default_scan_output_is_pinned():
    rows = classify_scan(builtin("icosidodecahedron"), (2, 3, 5),
                         DEFAULT_SCAN_SPEC)
    assert len(rows) == 894
    text = "".join(canonical_json(row) for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_DIGEST
