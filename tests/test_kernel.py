"""The numpy point kernel against the per-point loop it replaced.

`kernel_reference` keeps the old `generate_array`/`build_shells` body;
every case must give equal exact radii, rows, denominators, float bytes
and point keys.  Work-count spies check that the kernel stays a
whole-array pass, and a digest pins the default scan's output.
"""

import hashlib
import math

import numpy as np
import pytest

import kernel_reference as ref
from icofold import engine
from icofold.configs import BUILTIN_NAMES, StartConfig, builtin
from icofold.engine import (DEFAULT_SCAN_SPEC, build_shells, classify_length,
                            classify_scan, generate_array, make_translation,
                            outer_cage)
from icofold.export import canonical_json
from icofold.geometry import Vec3E
from icofold.golden import GoldenNumber, parse_field_expr
from icofold.groups import BASE_VECTORS, full_group


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
    return array


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
    den, base, steps = engine._kernel_rows(start, t)
    assert (den, abs(base).max() + abs(steps).max()) == (1, n + 1)
    array = assert_same_array(start, t, 1)
    assert row_dtype(array) == dtype
    rows = np.concatenate([shell.rows for shell in array.shells])
    for other in (np.int64, object):
        assert_same(build_shells(rows[::-1].astype(other), den),
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
    assert engine._kernel_rows(start, t)[1].dtype == kernel_dtype
    assert row_dtype(assert_same_array(start, t, 1)) == object


def test_builtin_start_rows_are_int64():
    for name in BUILTIN_NAMES:
        assert builtin(name).integer_rows[1].dtype == np.int64


@pytest.fixture
def sort_keys(monkeypatch):
    """The number of keys of every np.lexsort call, in call order."""
    counts = []
    real = np.lexsort

    def spy(keys, *args, **kwargs):
        counts.append(len(keys))
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", spy)
    return counts


def test_float_ties_are_broken_by_exact_triples(sort_keys):
    # x and y differ exactly but both evaluate to 0.0, so (x, y, 0),
    # (y, x, 0) and (0, x, y) share a radius and their floats
    x, y = (-165580141, 102334155), (-267914296, 165580141)
    assert x[0] + x[1] * 1.618033988749895 == 0.0
    assert y[0] + y[1] * 1.618033988749895 == 0.0
    p, q, r = (*x, *y, 0, 0), (*y, *x, 0, 0), (0, 0, *x, *y)
    want = ref.build_shells({p, q}, 1)
    assert [row for shell in want for row in shell.rows] == [q, p]
    want3 = ref.build_shells({p, q, r}, 1)
    assert [row for shell in want3 for row in shell.rows] == [q, p, r]
    for dtype in (np.int64, object):
        sort_keys.clear()
        assert_same(build_shells(np.array([p, q, p], dtype=dtype), 1), want)
        # duplicates of both tied rows interleaved, and a third row tied
        # with them on the same shell
        assert_same(build_shells(np.array([p, q, p, r, q, q], dtype=dtype),
                                 1), want3)
        assert sort_keys == [5, 14, 5, 14]
    big = (2 ** 60, 0, 2 ** 60 + 1, 0, 0, 0)
    swapped = (2 ** 60 + 1, 0, 2 ** 60, 0, 0, 0)
    rows = np.array([swapped, big, swapped], dtype=object)
    sort_keys.clear()
    assert_same(build_shells(rows, 1), ref.build_shells({big, swapped}, 1))
    assert sort_keys == [5, 14]


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

    def counted_build(rows, den):
        before = len(made)
        shells = real_build(rows, den)
        seen.append((len(rows), len(made) - before, len(shells)))
        return shells

    monkeypatch.setattr(GoldenNumber, "_make", classmethod(counting_make))
    monkeypatch.setattr(engine, "build_shells", counted_build)
    for fold, length in rows:
        generate_array(start, make_translation(start.symmetry, fold, length),
                       1)
    assert len(seen) == len(rows)
    for points, makes, shells in seen:
        assert makes == shells < points


def test_default_scan_rows_take_the_five_key_sort_only(sort_keys):
    start, rows = default_scan_rows()
    translations = [make_translation(start.symmetry, fold, length)
                    for fold, length in rows]
    sort_keys.clear()
    for t in translations:
        generate_array(start, t, 1)
    assert sort_keys == [5] * len(rows)


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
