"""Affine translations, point arrays, shells, bands, classification."""

import math
import random
from itertools import combinations_with_replacement

import numpy as np
import pytest

from icofold.cages import as_coords

from icofold.configs import StartConfig, builtin
from icofold.engine import (DEFAULT_BAND_GAP, DEFAULT_SCAN_SPEC,
                            PointBudgetError, ScanSpec, bands,
                            classify_length, classify_scan, generate_array,
                            generic_cardinality, is_nontrivial,
                            make_translation, outer_cage, parse_scan_spec)
from icofold.geometry import Vec3E, mat_apply, norm2
from icofold.golden import (ExtNumber, GoldenNumber, ONE, TAU,
                            RadicandMismatchError, parse_field_expr)
from icofold.groups import K_FIVEFOLD, K_THREEFOLD, K_TWOFOLD


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
    assert len(t.vectors) == n_vectors
    lam = GoldenNumber(3, 0)
    want = ExtNumber.from_golden(lam * lam * base_norm2, t.radicand)
    for v in t.vectors:
        assert norm2(v) == want


def test_antipodal_directions_both_present():
    start = builtin("dodecahedron")
    t = translation(start, 5, "1")
    keys = keyset(t.vectors)
    for v in t.vectors:
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
    step = t.vectors[0]

    start_keys = keyset(start.vertices)
    for g in group.elements:  # g2 ranges over the group: g2(X) = X
        assert keyset(mat_apply(g, x) for x in start.vertices) == start_keys

    oracle = keyset(x.rebase(t.radicand) for x in start.vertices)
    for g1 in group.elements:
        for x in start.vertices:
            oracle.add(mat_apply(g1, x.rebase(t.radicand) + step).key())

    array = generate_array(start, t, 1)
    assert keyset(array.points) == oracle


def test_depth1_identity_start_union_translates():
    start = builtin("dodecahedron")
    t = translation(start, 3, "2")
    naive = keyset(x.rebase(t.radicand) for x in start.vertices)
    for vec in t.vectors:
        naive |= keyset(x.rebase(t.radicand) + vec for x in start.vertices)
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
    assert keyset(v.rebase(t.radicand) for v in start.vertices) <= keyset(
        shallow.points
    )
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


# --- the integer kernel against a Vec3E reference ----------------------

def vec3e_shells(start, translation, depth):
    """Reference shells, (radius2, points) each, in exact Vec3E arithmetic.

    Offsets are every multiset of at most `depth` translation vectors,
    points are deduplicated by exact key, and shells are sorted by exact
    squared radius, points by (float coordinates, exact key).
    """
    k = translation.radicand
    zero = Vec3E.from_golden(0, 0, 0, ONE).rebase(k)
    offsets = {zero.key(): zero}
    for j in range(1, depth + 1):
        for combo in combinations_with_replacement(translation.vectors, j):
            total = combo[0]
            for v in combo[1:]:
                total = total + v
            offsets.setdefault(total.key(), total)
    base = [v.rebase(k) for v in start.vertices]
    seen = {}
    for offset in offsets.values():
        for x in base:
            p = x + offset
            seen.setdefault(p.key(), p)
    by_radius = {}
    for p in seen.values():
        by_radius.setdefault(norm2(p).key(), []).append(p)
    out = []
    for members in by_radius.values():
        members.sort(key=lambda p: (p.as_floats(), p.key()))
        out.append((norm2(members[0]), members))
    return sorted(out, key=lambda shell: shell[0])


def assert_same_shells(start, translation, depth):
    array = generate_array(start, translation, depth)
    want = vec3e_shells(start, translation, depth)
    assert len(array.shells) == len(want)
    for shell, (radius2, points) in zip(array.shells, want):
        assert shell.radius2 == radius2
        assert shell.radius2.key() == radius2.key()
        assert [p.key() for p in shell.points] == [p.key() for p in points]
        assert shell.coords.dtype == np.float64
        assert shell.coords.tobytes() == as_coords(shell.points).tobytes()
    return array


@pytest.mark.parametrize("name", ["icosahedron", "dodecahedron",
                                  "icosidodecahedron", "c60", "c80"])
def test_kernel_matches_vec3e_path_on_catalog_lengths(name):
    start = builtin(name)
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
    start = builtin("c60")
    t = translation(start, 5, "3")
    finding = outer_cage(generate_array(start, t, 1))
    working = StartConfig("c60.onion1", finding.graph.points,
                          start.symmetry, check_invariance=False)
    assert working.vertices[0].radicand == K_FIVEFOLD
    assert_same_shells(working, t, 1)


def test_kernel_matches_vec3e_path_past_int64():
    start = builtin("dodecahedron")
    array = assert_same_shells(start, translation(start, 5, "tau^60"), 2)
    assert max(abs(a) for shell in array.shells
               for row in shell.rows for a in row) ** 2 > 2 ** 63


def test_start_vertex_with_radical_part_is_rejected():
    start = builtin("dodecahedron")
    t = translation(start, 5, "1")
    k = t.radicand
    radical = Vec3E(ExtNumber(0, 1, k), ExtNumber(0, 0, k),
                    ExtNumber(0, 0, k))
    bad = StartConfig("radical", (radical,), start.symmetry,
                      check_invariance=False)
    with pytest.raises(RadicandMismatchError):
        generate_array(bad, t, 1)


def test_points_are_built_once():
    start = builtin("dodecahedron")
    array = generate_array(start, translation(start, 5, "1"), 1)
    assert array.points is array.points
    band = bands(array)[-1]
    assert band.points is band.points
    assert band.coords.tobytes() == as_coords(band.points).tobytes()


# --- cardinality oracles ----------------------------------------------

def test_generic_cardinality_counting_argument():
    c60 = builtin("c60")
    t = translation(c60, 5, "17/7")
    assert generic_cardinality(c60, t) == 60 * 13 == 780
    assert len(generate_array(c60, t, 1)) == 780
    assert not is_nontrivial(c60, t)


def test_catalogued_nontrivial_length():
    c60 = builtin("c60")
    assert is_nontrivial(c60, translation(c60, 5, "3"))
    dodec = builtin("dodecahedron")
    assert is_nontrivial(dodec, translation(dodec, 5, "1"))
    assert is_nontrivial(dodec, translation(dodec, 3, "tau^2"))


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
    split = bands(array, DEFAULT_BAND_GAP)
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
    t = translation(start, 5, "1")
    array = generate_array(start, t, 1)
    assert len(bands(array, 0.499)) >= 1
    for band in bands(array, 0.499):
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


def test_classify_scan_threads_agree():
    start = builtin("icosahedron")
    spec = parse_scan_spec("a=0..2,b=0..1,c=1..2")
    serial = classify_scan(start, (3, 5), spec)
    threaded = classify_scan(start, (3, 5), spec, threads=3)
    assert serial == threaded


def test_classify_scan_rejects_empty():
    start = builtin("icosahedron")
    with pytest.raises(ValueError):
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
