"""The batched group action against the per-element loops it replaced.

`group_reference` keeps the old `orbit_of_set`, `stabilizer_order` and
invariance loops on `mat_apply`, and the generators' permutations looked
up one image at a time with their orbits found breadth-first.  Every
case must give equal keys, order, counts, verdicts, permutations, orbit
labels and representatives, in int64 and in Python ints, for the full
group, the rotations, a group whose elements come in another order and a
small group over another denominator.  A spy checks that once a group's
table exists, its action makes no `mat_apply` call.
"""

import random
from functools import cache

import numpy as np
import pytest

import group_reference as ref
from icofold import configs, geometry, groups
from icofold.configs import (BUILTIN_NAMES, ConfigError, StartConfig,
                             builtin)
from icofold.engine import generate_array, make_translation, outer_cage
from icofold.geometry import Mat3G, Vec3E, integer_rows
from icofold.golden import GoldenNumber, TAU, parse_field_expr
from icofold.groups import (BASE_VECTORS, GEN_R3, PointGroup, full_group,
                            generate_closure, rotation_group)
from test_geometry import mixed_vec


@cache
def shuffled_group():
    elements = list(full_group().elements)
    random.Random(12).shuffle(elements)
    group = PointGroup("I_h shuffled", tuple(elements))
    assert group.elements[0] != Mat3G.identity()
    return group


@cache
def s6_group():
    # order 6 with integer entries: its table's denominator is 1, not 2
    return generate_closure([GEN_R3, -Mat3G.identity()], name="S6")


GROUPS = {"I_h": full_group, "I": rotation_group, "shuffled": shuffled_group,
          "S6": s6_group}

# scales whose rows need Python ints (2^200, 2^255 numerators) or fit
# int64 (2^32)
BIG_SCALES = ("(2^200+1)/2^199", "2^32", "(2^255-1)/2^250")
# scales whose I_h images are int64 rows with entries of both signs near
# 2^30-2^32, so that their coordinate values pack near 2^63
NEAR_INT64_SCALES = ("2^29", "2^29+2^28", "3*2^28+7", "(2^30+1)/3", "2^30")


def seed_points():
    return [s for seeds in configs._SEEDS.values() for s in seeds]


def golden_points():
    # the zero vector, one point on an axis of each fold (stabilizers 10,
    # 6 and 4 in I_h) and random golden points, 200 in all
    rng = random.Random(1402)

    def c():
        return GoldenNumber(rng.randint(-4, 4), rng.randint(-4, 4))

    points = [Vec3E.from_golden(0, 0, 0), *BASE_VECTORS.values()]
    while len(points) < 200:
        points.append(Vec3E(c(), c(), c()))
    return points


def mixed_points():
    rng = random.Random(430)
    return [mixed_vec(rng) for _ in range(40)]


def scaled_bases(scales):
    bases = (*BASE_VECTORS.values(), Vec3E.from_golden(1, 2, TAU - 3))
    return [v.scale(parse_field_expr(s)) for s in scales for v in bases]


def big_points():
    return scaled_bases(BIG_SCALES)


def near_int64_points():
    return scaled_bases(NEAR_INT64_SCALES)


CASES = {"seeds": seed_points, "golden": golden_points,
         "mixed": mixed_points, "big": big_points,
         "near int64": near_int64_points}


def keys(points):
    return [p.key() for p in points]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("group_name", GROUPS)
def test_orbits_and_stabilizers_match_the_loops(group_name, case):
    group = GROUPS[group_name]()
    points = CASES[case]()
    for v in points:
        assert keys(group.orbit(v)) == keys(ref.orbit_of_set(group, [v]))
        assert group.stabilizer_order(v) == ref.stabilizer_order(group, v)
    assert keys(group.orbit_of_set(points)) \
        == keys(ref.orbit_of_set(group, points))


def test_axis_and_zero_stabilizers_are_covered():
    group = full_group()
    zero, *axes = golden_points()[:4]
    assert group.stabilizer_order(zero) == 120
    assert group.orbit(zero) == (zero,)
    assert [group.stabilizer_order(v) for v in axes] == [10, 6, 4]


def test_big_rows_take_both_dtypes():
    """The rows of one point take the dtype `_apply` gives them, on the
    set path and on the one-point path of `orbit` and `stabilizer_order`,
    with equal images."""
    group = full_group()
    for scale, dtype in zip(BIG_SCALES, (object, np.int64, object)):
        v = BASE_VECTORS[5].scale(parse_field_expr(scale))
        d, own, chunks = group._apply(*integer_rows([v]))
        images = next(chunks)
        assert images.dtype == dtype
        got_d, got_own, got = group._point_images(v)
        assert got.dtype == got_own.dtype == dtype
        assert got_d == d and got_own.tolist() == own[0].tolist()
        assert got.tolist() == images[:, 0].tolist()


def vertex_sets(group):
    rng = random.Random(431)
    sets = [builtin(name).vertices for name in BUILTIN_NAMES]
    sets += [group.orbit_of_set(rng.sample(big_points(), 2)),
             group.orbit_of_set(mixed_points()[:3]),
             rotation_group().orbit(golden_points()[7])]
    for vertices in list(sets):
        sets += [vertices[1:], vertices + (golden_points()[9],)]
    return sets


def accepted(vertices, group):
    try:
        StartConfig("case", vertices, group)
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize("group_name", GROUPS)
def test_invariance_verdicts_match_the_loops(group_name):
    group = GROUPS[group_name]()
    verdicts = [(ref.is_invariant(vertices, group), accepted(vertices, group))
                for vertices in vertex_sets(group)]
    assert all(want == got for want, got in verdicts)
    assert {got for _, got in verdicts} == {True, False}


def test_invariance_check_reads_no_orbit_labels(monkeypatch):
    """StartConfig.from_rows asks `orbits` only whether the rows are
    invariant, and never builds labels; a cage search reads them."""
    reads = []
    label = groups.Orbits.label
    monkeypatch.setattr(groups.Orbits, "label", property(
        lambda self: reads.append(len(self.permutations[0]))
        or label.func(self)))
    start = builtin("c80")
    member = StartConfig.from_rows("member", *start.integer_rows,
                                   start.symmetry)
    with pytest.raises(ConfigError):
        StartConfig.from_rows("less", start.integer_rows[0],
                              start.integer_rows[1][1:], start.symmetry)
    assert len(member) == 80 and reads == []
    t = make_translation(start.symmetry, 5, parse_field_expr("2"))
    assert outer_cage(generate_array(member, t, 1)).vertex_count == 180
    assert 180 in reads


def permutations(group, vertices):
    found = group.orbits(*integer_rows(vertices))
    return None if found is None else found.permutations.tolist()


def orbit_count(found, table):
    """The number of orbits, once `found`'s labels and representatives
    equal those the reference finds breadth-first over its per-image
    permutations `table`."""
    label, reps = ref.orbit_labels(table)
    assert found.label.tolist() == label
    assert found.reps.tolist() == reps
    return len(reps)


@pytest.mark.parametrize("group_name", GROUPS)
def test_generator_permutations_match_the_loops(group_name):
    """On the invariant sets, the built-ins first, labels and
    representatives match too; under the groups of order 60 and 120, c80
    holds two orbits and each other built-in one."""
    group = GROUPS[group_name]()
    verdicts = set()
    counts = []
    for vertices in vertex_sets(group):
        want = ref.generator_permutations(group, vertices)
        assert permutations(group, vertices) == want
        verdicts.add(want is None)
        if want is not None:
            counts.append(orbit_count(
                group.orbits(*integer_rows(vertices)), want))
    assert verdicts == {True, False}
    if group.order >= 60:
        assert counts[:len(BUILTIN_NAMES)] == [
            1 + (name == "c80") for name in BUILTIN_NAMES]


def test_generator_permutations_sort_by_one_key_or_by_six():
    """Rows whose images' entries fit as six digits of one int64 are
    sorted by that number, wider ones by their six columns; both ways
    match the loops, on invariant sets and on others."""
    group = full_group()
    d = group._action[0]
    cases = set()
    for vertices in vertex_sets(group):
        den, rows = integer_rows(vertices)
        base = 2 * d * int(abs(rows).max()) + 1
        want = ref.generator_permutations(group, vertices)
        assert permutations(group, vertices) == want
        cases.add((base ** 6 < 2 ** 63, want is None))
    assert cases == {(True, True), (True, False), (False, True),
                     (False, False)}


@cache
def onion_array_shells():
    """The shells of the first two arrays of both onions, c60 lambda=3
    and c80 lambda=2 along fold 5."""
    shells = []
    for name, expr in (("c60", "3"), ("c80", "2")):
        start = builtin(name)
        t = make_translation(start.symmetry, 5, parse_field_expr(expr))
        first = generate_array(start, t, 1)
        member = StartConfig.from_rows(f"{name}.onion1",
                                       *outer_cage(first).graph.rows,
                                       start.symmetry)
        shells += first.shells + generate_array(member, t, 1).shells
    return shells


def test_generator_permutations_of_onion_array_shells():
    """Every shell of the onion arrays, shells of several orbits among
    them, maps as the per-image lookup says, with the reference's orbit
    labels and representatives; without its last row it maps nowhere."""
    group = full_group()
    several = 0
    orbit_counts = []
    for shell in onion_array_shells():
        want = ref.generator_permutations(group, shell.points)
        assert want is not None
        assert group.orbits(shell.den,
                            shell.rows).permutations.tolist() == want
        assert group.orbits(shell.den, shell.rows[:-1]) is None
        several += len(group.orbit(shell.points[0])) < len(shell)
        orbit_counts.append(
            orbit_count(group.orbits(shell.den, shell.rows), want))
    assert len(onion_array_shells()) == 9 + 22 + 11 + 18 and several == 7
    # the seven hold two orbits at one radius
    assert sorted(orbit_counts)[-8:] == [1] + [2] * 7


def test_chunk_boundaries_do_not_change_results(monkeypatch):
    group = full_group()
    points = golden_points()[:30] + big_points()
    want_orbit = keys(group.orbit_of_set(points))
    sets = vertex_sets(group)
    want_verdicts = [ref.is_invariant(vertices, group) for vertices in sets]
    monkeypatch.setattr(groups, "_CHUNK", 7)
    assert keys(group.orbit_of_set(points)) == want_orbit
    assert [accepted(vertices, group) for vertices in sets] == want_verdicts


def test_the_table_is_the_only_mat_apply_work(monkeypatch):
    calls = []
    real = geometry.mat_apply
    monkeypatch.setattr(geometry, "mat_apply",
                        lambda g, v: calls.append(g) or real(g, v))
    assert not hasattr(groups, "mat_apply")
    assert not hasattr(configs, "mat_apply")
    fresh = PointGroup("I_h copy", full_group().elements)
    fresh.orbit(BASE_VECTORS[5])
    assert len(calls) == 6 * fresh.order  # the table: six unit rows each
    calls.clear()
    group = full_group()
    group.orbit(BASE_VECTORS[3])  # the table exists from here on
    calls.clear()
    v = Vec3E.from_golden(1, 2, TAU)
    assert len(group.orbit(v)) * group.stabilizer_order(v) == group.order
    for name in BUILTIN_NAMES:
        builtin(name)
    assert calls == []
