"""Affine translations, point arrays, shells, bands, classification."""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from ext_reference import ExtNumber, format_ext
from kernel_reference import translation_vectors

from icofold.cages import as_coords

from icofold.configs import BUILTIN_NAMES, StartConfig, builtin
from icofold.engine import (DEFAULT_BAND_GAP, DEFAULT_SCAN_SPEC,
                            EmptyScanError, PointBudgetError, ScanSpec, bands,
                            classify_length, classify_scan, generate_array,
                            generic_cardinality, make_translation,
                            outer_cage, parse_scan_spec)
from icofold.geometry import Vec3E, mat_apply, norm2
from icofold.golden import (GoldenNumber, ONE, TAU, format_golden,
                            parse_field_expr)


def translation(config, fold, expr):
    return make_translation(config.symmetry, fold, parse_field_expr(expr))


def keyset(points):
    return {p.key() for p in points}


# --- make_translation -------------------------------------------------

@pytest.mark.parametrize(
    "fold,n_vectors,base_norm2",
    [
        (5, 12, GoldenNumber(2, 1)),   # |(0,1,tau)|^2  = 2+tau
        (3, 20, GoldenNumber(3, 0)),   # |(1,1,1)|^2    = 3
        (2, 30, GoldenNumber(1, 1)),   # |(tau,0,0)|^2  = tau^2
    ],
)
def test_direction_counts_and_exact_lengths(fold, n_vectors, base_norm2):
    start = builtin("dodecahedron")
    t = translation(start, fold, "3")
    assert len(translation_vectors(t)) == n_vectors
    lam = GoldenNumber(3, 0)
    want = lam * lam * base_norm2
    for v in translation_vectors(t):
        assert norm2(v) == want


def test_antipodal_directions_both_present():
    start = builtin("dodecahedron")
    t = translation(start, 5, "1")
    keys = keyset(translation_vectors(t))
    for v in translation_vectors(t):
        assert v.scale(GoldenNumber(-1, 0)).key() in keys


def test_non_positive_length_rejected():
    start = builtin("dodecahedron")
    with pytest.raises(ValueError):
        make_translation(start.symmetry, 5, GoldenNumber(0, 0))
    with pytest.raises(ValueError):
        make_translation(start.symmetry, 5, GoldenNumber(-2, 1))


def test_unknown_fold_rejected():
    start = builtin("dodecahedron")
    with pytest.raises(ValueError):
        make_translation(start.symmetry, 4, GoldenNumber(1, 0))


# --- generate_array against a brute-force word oracle ------------------

def test_depth1_equals_brute_force_word_enumeration():
    """Every word with one translation is g1*T*g2; enumerate them all."""
    start = builtin("dodecahedron")
    group = start.symmetry
    t = translation(start, 5, "tau")
    step = translation_vectors(t)[0]

    start_keys = keyset(start.vertices)
    for g in group.elements:  # g2 ranges over the group: g2(X) = X
        assert keyset(mat_apply(g, x) for x in start.vertices) == start_keys

    oracle = keyset(start.vertices)
    for g1 in group.elements:
        for x in start.vertices:
            oracle.add(mat_apply(g1, x + step).key())

    array = generate_array(start, t, 1)
    assert keyset(array.points) == oracle


def test_depth1_identity_start_union_translates():
    start = builtin("dodecahedron")
    t = translation(start, 3, "2")
    naive = keyset(start.vertices)
    for vec in translation_vectors(t):
        naive |= keyset(x + vec for x in start.vertices)
    array = generate_array(start, t, 1)
    assert keyset(array.points) == naive


def test_arrays_are_group_invariant():
    start = builtin("icosahedron")
    group = start.symmetry
    t = translation(start, 5, "tau")
    array = generate_array(start, t, 1)
    keys = keyset(array.points)
    for g in group.elements:
        assert all(mat_apply(g, p).key() in keys for p in array.points)


def test_scale_equivariance_exact():
    start = builtin("dodecahedron")
    group = start.symmetry
    scale = GoldenNumber(2, 1)  # 2 + tau > 0
    lam = parse_field_expr("tau")
    plain = generate_array(start, make_translation(group, 5, lam), 1)
    scaled_start = StartConfig(
        "scaled", tuple(v.scale(scale) for v in start.vertices), group)
    scaled = generate_array(
        scaled_start, make_translation(group, 5, scale * lam), 1)
    assert keyset(p.scale(scale) for p in plain.points) \
        == keyset(scaled.points)


def test_depth_monotonicity_and_start_containment():
    start = builtin("dodecahedron")
    t = translation(start, 5, "1")
    shallow = generate_array(start, t, 1)
    deep = generate_array(start, t, 2)
    assert keyset(start.vertices) <= keyset(shallow.points)
    assert keyset(shallow.points) <= keyset(deep.points)
    assert len(shallow) < len(deep)


def test_dedup_idempotent_and_bounded():
    start = builtin("dodecahedron")
    t = translation(start, 5, "tau")
    array = generate_array(start, t, 2)
    keys = [p.key() for p in array.points]
    assert len(keys) == len(set(keys))
    bound = len(start.vertices) * (1 + 12 + 12 ** 2)
    assert len(array) <= bound


def test_point_budget_guard():
    start = builtin("c60")
    t = translation(start, 5, "3")
    with pytest.raises(PointBudgetError):
        generate_array(start, t, 8)


def test_deterministic_ordering():
    start = builtin("dodecahedron")
    t = translation(start, 5, "tau")
    a = generate_array(start, t, 1)
    b = generate_array(start, t, 1)
    assert [p.key() for p in a.points] == [p.key() for p in b.points]
    radii = [float(s.radius2) for s in a.shells]
    assert radii == sorted(radii)


# --- the golden path against the ExtNumber path it replaced ------------
#
# 3D points used to carry ExtNumber coordinates in a per-fold workspace
# (radicand 1, 3 or 2+tau for folds 2, 3, 5) whose radical part was always
# zero.  The helpers below redo that arithmetic on tuples of ExtNumbers
# (the reference copy in ext_reference.py):
# translation steps as base-vector orbits scaled by the length, arrays as
# every multiset of at most `depth` steps added to every start vertex,
# keys, norms and floats as the old Vec3E computed them.

OLD_RADICANDS = {2: ONE, 3: GoldenNumber(3, 0), 5: GoldenNumber(2, 1)}
BASE_SEEDS = {2: (TAU, 0, 0), 3: (1, 1, 1), 5: (0, 1, TAU)}


def ext_vec(coords, k):
    return tuple(ExtNumber.from_golden(GoldenNumber._lift(c), k)
                 for c in coords)


def ext_key(u):
    """The old Vec3E.key(): the full ExtNumber key of each coordinate."""
    return tuple(c.key() for c in u)


def golden_key(u):
    """Vec3E.key() of the same point: radical-free coordinates' triples."""
    assert all(c.is_golden() for c in u)
    return tuple(n for c in u for n in (c.pa, c.pb, c.den))


def ext_norm2(u):
    return u[0] * u[0] + u[1] * u[1] + u[2] * u[2]


def ext_floats(u):
    return tuple(float(c) for c in u)


def ext_orbit(group, u):
    """The old PointGroup.orbit: images deduplicated and sorted by key."""
    seen = {}
    for m in group.elements:
        image = tuple(u[0].mul_golden(a) + u[1].mul_golden(b)
                      + u[2].mul_golden(c) for a, b, c in m.rows)
        seen.setdefault(ext_key(image), image)
    return [seen[key] for key in sorted(seen)]


def vec3e_shells(start, translation, depth):
    """Reference shells, (radius2, points) each, in ExtNumber arithmetic.

    Offsets are every multiset of at most `depth` translation vectors,
    points are deduplicated by exact key, and shells are sorted by exact
    squared radius, points by (float coordinates, exact key).
    """
    k = OLD_RADICANDS[translation.fold]
    steps = [tuple(c.mul_golden(translation.length) for c in d)
             for d in ext_orbit(start.symmetry,
                                ext_vec(BASE_SEEDS[translation.fold], k))]
    assert [golden_key(v) for v in steps] \
        == [v.key() for v in translation_vectors(translation)]
    zero = ext_vec((0, 0, 0), k)
    offsets = {ext_key(zero): zero}
    for j in range(1, depth + 1):
        for combo in combinations_with_replacement(steps, j):
            total = combo[0]
            for v in combo[1:]:
                total = tuple(a + b for a, b in zip(total, v))
            offsets.setdefault(ext_key(total), total)
    base = [ext_vec(v, k) for v in start.vertices]
    seen = {}
    for offset in offsets.values():
        for x in base:
            p = tuple(a + b for a, b in zip(x, offset))
            seen.setdefault(ext_key(p), p)
    by_radius = {}
    for p in seen.values():
        by_radius.setdefault(ext_norm2(p).key(), []).append(p)
    out = []
    for members in by_radius.values():
        members.sort(key=lambda p: (ext_floats(p), ext_key(p)))
        out.append((ext_norm2(members[0]), members))
    return sorted(out, key=lambda shell: shell[0])


def assert_same_shells(start, translation, depth):
    array = generate_array(start, translation, depth)
    want = vec3e_shells(start, translation, depth)
    assert len(array.shells) == len(want)
    for shell, (radius2, points) in zip(array.shells, want):
        assert shell.radius2 == radius2
        assert format_golden(shell.radius2) == format_ext(radius2)
        assert [p.key() for p in shell.points] \
            == [golden_key(p) for p in points]
        assert shell.coords.dtype == np.float64
        assert shell.coords.tobytes() == np.array(
            [ext_floats(p) for p in points], dtype=float).tobytes()
        assert shell.coords.tobytes() == as_coords(shell.points).tobytes()
    return array


def assert_same_config(config):
    """Vertex order, orbit order and printed radii match the old path.

    Start configurations lived in the radicand-1 workspace; orbits are
    compared in every old workspace, for one vertex per squared radius.
    """
    old = [ext_vec(v, ONE) for v in config.vertices]
    assert [golden_key(u) for u in sorted(old, key=ext_key)] \
        == [v.key() for v in config.vertices]
    spectrum = {}
    for u in old:
        spectrum.setdefault(ext_norm2(u).key(), ext_norm2(u))
    assert [format_golden(r) for r in config.radius2_spectrum] \
        == [format_ext(r) for r in sorted(spectrum.values())]
    firsts = {}
    for v in config.vertices:
        firsts.setdefault(norm2(v).key(), v)
    group = config.symmetry
    for v in firsts.values():
        orbit = [p.key() for p in group.orbit(v)]
        for k in OLD_RADICANDS.values():
            assert [golden_key(u) for u in ext_orbit(group, ext_vec(v, k))] \
                == orbit


@pytest.mark.parametrize("name", ["icosahedron", "dodecahedron",
                                  "icosidodecahedron", "c60", "c80"])
def test_kernel_matches_vec3e_path_on_catalog_lengths(name):
    start = builtin(name)
    assert_same_config(start)
    for fold in (2, 3, 5):
        for expr in ("3", "1", "tau^2", "(7+tau)/5"):
            assert_same_shells(start, translation(start, fold, expr), 1)


@pytest.mark.parametrize("name,fold,expr", [
    ("dodecahedron", 5, "1"),
    ("dodecahedron", 3, "tau^2"),
    ("c80", 5, "2"),
])
def test_kernel_matches_vec3e_path_at_depth_2(name, fold, expr):
    start = builtin(name)
    assert_same_shells(start, translation(start, fold, expr), 2)


def test_kernel_matches_vec3e_path_on_onion_working_config():
    # the start of each onion's second iteration: its first cage
    for name, expr in (("c60", "3"), ("c80", "2")):
        start = builtin(name)
        t = translation(start, 5, expr)
        finding = outer_cage(generate_array(start, t, 1))
        working = StartConfig(f"{name}.onion1", finding.graph.points,
                              start.symmetry)
        assert_same_config(working)
        assert_same_shells(working, t, 1)


def test_kernel_matches_vec3e_path_past_int64():
    start = builtin("dodecahedron")
    array = assert_same_shells(start, translation(start, 5, "tau^60"), 2)
    assert max(abs(a) for shell in array.shells
               for row in shell.rows for a in row) ** 2 > 2 ** 63


def test_start_vertex_with_radical_part_is_rejected():
    # 3D points are golden vectors: a radical coordinate cannot be built
    k = GoldenNumber(2, 1)
    with pytest.raises(TypeError):
        Vec3E(ExtNumber(0, 1, k), ExtNumber(0, 0, k), ExtNumber(0, 0, k))
    with pytest.raises(TypeError):
        Vec3E(0.0, GoldenNumber(0), GoldenNumber(0))
    with pytest.raises(ValueError, match="radicand"):
        Vec3E.from_golden(0, 0, 0, k)


def test_points_are_built_once():
    start = builtin("dodecahedron")
    array = generate_array(start, translation(start, 5, "1"), 1)
    assert array.points is array.points
    for shell in bands(array)[-1].shells:
        assert shell.points is shell.points
        assert shell.coords.tobytes() == as_coords(shell.points).tobytes()


# --- cardinality oracles ----------------------------------------------

def test_generic_cardinality_counting_argument():
    c60 = builtin("c60")
    t = translation(c60, 5, "17/7")
    assert generic_cardinality(c60, t) == 60 * 13 == 780
    assert len(generate_array(c60, t, 1)) == 780
    assert not nontrivial(c60, t)


def nontrivial(start, t):
    """The `nontrivial` field of a depth-1 classification row: the
    array has coinciding points."""
    return classify_length(start, t, 1, with_cage=False)["nontrivial"]


def test_catalogued_nontrivial_length():
    c60 = builtin("c60")
    assert nontrivial(c60, translation(c60, 5, "3"))
    dodec = builtin("dodecahedron")
    assert nontrivial(dodec, translation(dodec, 5, "1"))
    assert nontrivial(dodec, translation(dodec, 3, "tau^2"))


# --- shells and bands ---------------------------------------------------

def test_shells_partition_exactly():
    start = builtin("dodecahedron")
    t = translation(start, 5, "tau")
    array = generate_array(start, t, 1)
    total = 0
    for shell in array.shells:
        total += len(shell.points)
        for p in shell.points:
            assert norm2(p) == shell.radius2
    assert total == len(array)


def test_bands_cluster_by_relative_gap():
    start = builtin("c60")
    t = translation(start, 5, "3")
    array = generate_array(start, t, 1)
    split = bands(array)
    assert sum(len(band) for band in split) == len(array)
    for band in split:
        radii = [s.radius for s in band.shells]
        for a, b in zip(radii, radii[1:]):
            assert (b - a) / b <= DEFAULT_BAND_GAP
    for left, right in zip(split, split[1:]):
        a = left.shells[-1].radius
        b = right.shells[0].radius
        assert (b - a) / b > DEFAULT_BAND_GAP
    assert len(split[-1]) == 240


def test_single_giant_gap_gives_one_band():
    start = builtin("dodecahedron")
    array = generate_array(start, translation(start, 5, "1"), 1)
    split = bands(array)
    assert len(split) >= 1
    assert sum(len(band) for band in split) == len(array)
    for band in split:
        assert band.rmin <= band.rmax


# --- scan specs ---------------------------------------------------------

def test_parse_scan_spec_full_form():
    spec = parse_scan_spec("a=-2..2,b=0..1,c=1..3,max=3.5")
    assert spec.a_range == (-2, 2)
    assert spec.b_range == (0, 1)
    assert spec.c_values == (1, 2, 3)
    assert spec.cutoff == 3.5


def test_parse_scan_spec_semicolon_denominators():
    spec = parse_scan_spec("a=0..1,b=0..0,c=1;2;5")
    assert spec.c_values == (1, 2, 5)


def test_parse_scan_spec_rejects_unknown_field():
    with pytest.raises(ValueError):
        parse_scan_spec("a=0..1,q=2..3")


@pytest.mark.parametrize("text,message", [
    ("a=2..1", "range 2..1 is empty"),
    ("b=1..-1", "range 1..-1 is empty"),
    ("c=3..2", "range 3..2 is empty"),
    ("max=nan", "max must be positive"),
    ("max=0", "max must be positive"),
    ("max=-2.5", "max must be positive"),
    ("a=1..2,a=3..4", "field 'a' is given twice"),
    ("c=1;2, c=3", "field 'c' is given twice"),
])
def test_parse_scan_spec_rejects_empty_ranges_and_bad_cutoffs(text, message):
    with pytest.raises(ValueError, match=message):
        parse_scan_spec(text)


def test_scan_lengths_positive_unique_sorted():
    spec = ScanSpec((-2, 2), (-1, 1), (1, 2), cutoff=4.0)
    lengths = spec.lengths(spec.cutoff)
    floats = [float(v) for v in lengths]
    assert all(f > 0 for f in floats)
    assert floats == sorted(floats)
    assert len({v.key() for v in lengths}) == len(lengths)
    wanted = {parse_field_expr(e).key()
              for e in ("1", "2", "tau", "1/2", "tau/2")}
    assert wanted <= {v.key() for v in lengths}


def fraction_lengths(spec, cutoff):
    """The scan lengths as GoldenNumbers of two Fractions each, in exact
    order: the construction `ScanSpec.lengths` replaced."""
    seen = {}
    for c in spec.c_values:
        for a in range(spec.a_range[0], spec.a_range[1] + 1):
            for b in range(spec.b_range[0], spec.b_range[1] + 1):
                value = GoldenNumber(Fraction(a, c), Fraction(b, c))
                if value.sign() > 0 and float(value) <= cutoff:
                    seen.setdefault(value.key(), value)
    return sorted(seen.values())


# F(41) - F(40)*tau = tau^-40: its float is 0.0, so float order alone
# puts tau^-40/1 before tau^-40/5
FIBONACCI_SPEC = ScanSpec((165580141, 165580142), (-102334155, -102334155),
                          (1, 2, 3, 4, 5), cutoff=2.0)


@pytest.mark.parametrize("spec,cutoff", [
    *[(DEFAULT_SCAN_SPEC, 2.0 * math.sqrt(float(builtin(name).radius2)))
      for name in BUILTIN_NAMES],
    (ScanSpec((-3, 9), (-4, 2), (1, 3, 7)), 5.0),
    (FIBONACCI_SPEC, FIBONACCI_SPEC.cutoff),
])
def test_scan_lengths_equal_the_fraction_construction(spec, cutoff):
    want = [v.key() for v in fraction_lengths(spec, cutoff)]
    assert [v.key() for v in spec.lengths(cutoff)] == want


def test_scan_lengths_stay_exact_where_floats_tie():
    """The grid meets the five lengths tau^-40/c with c ascending, and
    their floats tie at 0.0, so float order alone would reverse them."""
    lengths = FIBONACCI_SPEC.lengths(FIBONACCI_SPEC.cutoff)
    assert [float(v) for v in lengths[:5]] == [0.0] * 5
    assert [v.den for v in lengths[:5]] == [5, 4, 3, 2, 1]
    assert all(a < b for a, b in zip(lengths, lengths[1:]))


def test_default_scan_covers_catalogued_lengths():
    cutoff = 2.0 * math.sqrt(float(builtin("c80").radius2))
    keys = {v.key() for v in DEFAULT_SCAN_SPEC.lengths(cutoff)}
    for expr in ("1", "tau", "tau^2", "tau^-2", "3", "2*tau", "3*tau",
                 "(7+tau)/5", "tau-1", "2"):
        assert parse_field_expr(expr).key() in keys, expr


# --- classification rows -----------------------------------------------

def test_classify_row_schema():
    start = builtin("dodecahedron")
    row = classify_length(start, translation(start, 5, "1"), 1)
    assert set(row) == {"start", "fold", "length", "length_float", "depth",
                        "generic", "actual", "nontrivial", "bands", "cage"}
    assert row["start"] == "dodecahedron"
    assert row["fold"] == 5
    assert row["length"] == "1"
    assert row["nontrivial"] is True
    for band in row["bands"]:
        assert {"rmin", "rmax", "count", "trivalent"} <= set(band)
    assert row["cage"]["count"] == 80
    assert row["cage"]["faces"] == {"5": 12, "6": 30, "other": 0}


def test_classify_interior_bands_never_flagged():
    start = builtin("c60")
    row = classify_length(start, translation(start, 5, "3"), 1)
    flags = [band["trivalent"] for band in row["bands"]]
    assert not any(flags[:-1])
    assert flags[-1] is True


def test_classify_scan_rejects_empty():
    start = builtin("icosahedron")
    with pytest.raises(EmptyScanError):
        classify_scan(start, (5,), ScanSpec((0, 0), (0, 0), (1,),
                                            cutoff=1.0))


def test_outer_cage_none_for_plain_band():
    start = builtin("icosidodecahedron")
    array = generate_array(start, translation(start, 5, "1"), 1)
    assert outer_cage(array) is None


def test_random_lengths_respect_generic_bound():
    rng = random.Random(7)
    start = builtin("icosahedron")
    for _ in range(25):
        lam = GoldenNumber(rng.randint(1, 4), rng.randint(0, 2))
        t = make_translation(start.symmetry, 5, lam)
        array = generate_array(start, t, 1)
        assert len(array) <= generic_cardinality(start, t)
