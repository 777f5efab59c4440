"""Tests for icosahedral group generation, axes, orbits, and stabilizers."""

import random
from fractions import Fraction

import pytest

from group_reference import mat_det
from icofold.geometry import Mat3G, Vec3E, mat_apply, mat_mul, norm2
from icofold.golden import GoldenNumber, ONE, TAU
from icofold.groups import (
    ClosureBoundError,
    GEN_B5,
    GEN_R3,
    NonOrthogonalGeneratorError,
    PointGroup,
    full_group,
    generate_closure,
    rotation_group,
)


def rand_point(rng: random.Random) -> Vec3E:
    return Vec3E.from_golden(
        GoldenNumber(rng.randint(-8, 8), rng.randint(-8, 8)),
        GoldenNumber(rng.randint(-8, 8), rng.randint(-8, 8)),
        GoldenNumber(rng.randint(-8, 8), rng.randint(-8, 8)),
    )


class TestClosure:
    def test_rotation_group_has_order_60(self):
        assert rotation_group().order == 60

    def test_full_group_has_order_120(self):
        assert full_group().order == 120

    def test_generators_are_kept_and_default_to_the_elements(self):
        assert rotation_group().generators == (GEN_R3, GEN_B5)
        elements = rotation_group().elements
        assert PointGroup("I", elements).generators is elements

    def test_identity_alone_closes_to_order_1(self):
        group = generate_closure([Mat3G.identity()])
        assert group.order == 1

    def test_closure_is_deterministic(self):
        a = generate_closure([GEN_R3, GEN_B5])
        b = generate_closure([GEN_R3, GEN_B5])
        assert [m.key() for m in a] == [m.key() for m in b]

    def test_bound_exceeded_raises(self):
        with pytest.raises(ClosureBoundError):
            generate_closure([GEN_R3, GEN_B5], bound=30)

    def test_non_orthogonal_generator_raises(self):
        shear = Mat3G([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(NonOrthogonalGeneratorError):
            generate_closure([shear])

    def test_all_elements_exactly_orthogonal(self):
        for m in full_group():
            assert m.is_orthogonal()

    def test_determinants(self):
        minus_one = GoldenNumber(-1, 0)
        rotations = rotation_group()
        assert all(mat_det(m) == ONE for m in rotations)
        dets = [mat_det(m) for m in full_group()]
        assert sum(1 for d in dets if d == ONE) == 60
        assert sum(1 for d in dets if d == minus_one) == 60

    def test_multiplication_table_rows_are_permutations(self):
        group = rotation_group()
        all_keys = {m.key() for m in group}
        rng = random.Random(430)
        for g in rng.sample(group.elements, 5):
            row = {mat_mul(g, h).key() for h in group}
            assert row == all_keys

    def test_element_orders(self):
        assert rotation_group().order_histogram() == {1: 1, 2: 15, 3: 20, 5: 24}
        histogram = full_group().order_histogram()
        assert set(histogram) == {1, 2, 3, 5, 6, 10}
        assert sum(histogram.values()) == 120
        # -identity doubles odd orders: 20 order-3 become order-6,
        # 24 order-5 become order-10, identity becomes order 2.
        assert histogram == {1: 1, 2: 31, 3: 20, 5: 24, 6: 20, 10: 24}


class TestAxes:
    def test_direction_orbit_sizes(self):
        # one base vector per axis direction, antipodes distinct
        group = full_group()
        assert len(group.translation_orbit(5)) == 12
        assert len(group.translation_orbit(3)) == 20
        assert len(group.translation_orbit(2)) == 30

    def test_axis_counts(self):
        group = full_group()
        assert len(group.axes(5)) == 6
        assert len(group.axes(3)) == 10
        assert len(group.axes(2)) == 15

    def test_axis_counts_match_under_rotations_only(self):
        group = rotation_group()
        assert len(group.axes(5)) == 6
        assert len(group.axes(3)) == 10
        assert len(group.axes(2)) == 15

    def test_directions_have_base_lengths(self):
        # |(tau,0,0)|^2 = tau^2, |(1,1,1)|^2 = 3, |(0,1,tau)|^2 = 2+tau
        group = full_group()
        for fold, want in ((2, GoldenNumber(1, 1)), (3, GoldenNumber(3, 0)),
                           (5, GoldenNumber(2, 1))):
            for d in group.translation_orbit(fold):
                assert norm2(d) == want

    def test_antipodal_pairs_merged(self):
        group = full_group()
        for fold, count in ((5, 6), (3, 10), (2, 15)):
            axes = group.axes(fold)
            assert len(axes) == count
            keys = {a.key() for a in axes}
            for a in axes:
                assert (-a).key() not in keys
            orbit = {v.key() for v in group.translation_orbit(fold)}
            assert {a.key() for a in axes} | {(-a).key() for a in axes} \
                == orbit

    def test_unsupported_fold_raises(self):
        with pytest.raises(ValueError):
            full_group().translation_orbit(4)
        with pytest.raises(ValueError):
            full_group().axes(4)


class TestOrbits:
    def test_cube_vertex_orbit_is_dodecahedral(self):
        v = Vec3E.from_golden(1, 1, 1)
        assert len(full_group().orbit(v)) == 20

    def test_scaled_cube_vertex_keeps_orbit_and_stabilizer(self):
        v = Vec3E.from_golden(2 * TAU, 2 * TAU, 2 * TAU)
        group = full_group()
        assert len(group.orbit(v)) == 20
        assert group.stabilizer_order(v) == 6

    def test_mirror_plane_seed_has_orbit_60(self):
        seed = Vec3E.from_golden(
            GoldenNumber(Fraction(4, 5), Fraction(2, 5)),
            GoldenNumber(Fraction(12, 5), Fraction(6, 5)),
            GoldenNumber(0, 2),
        )
        group = full_group()
        assert len(group.orbit(seed)) == 60
        assert group.stabilizer_order(seed) == 2

    def test_orbit_stabilizer_theorem_on_random_points(self):
        rng = random.Random(431)
        group = full_group()
        special = [
            Vec3E.from_golden(1, 1, 1),
            Vec3E.from_golden(1, 0, 0),
            Vec3E.from_golden(0, 1, TAU),
            Vec3E.from_golden(0, 0, 0),
        ]
        points = special + [rand_point(rng) for _ in range(100)]
        for v in points:
            assert len(group.orbit(v)) * group.stabilizer_order(v) == group.order

    def test_norm_preserved_across_orbit(self):
        rng = random.Random(432)
        group = full_group()
        for _ in range(20):
            v = rand_point(rng)
            r2 = norm2(v)
            for g in group:
                assert norm2(mat_apply(g, v)) == r2

    def test_orbit_of_set_unions(self):
        group = full_group()
        a = Vec3E.from_golden(1, 1, 1)
        b = Vec3E.from_golden(1, 0, 0)
        combined = group.orbit_of_set([a, b])
        # 20 cube vertices plus the 30 two-fold directions (orbit of (1,0,0))
        assert len(combined) == 20 + 30
        assert set(combined) == set(group.orbit(a)) | set(group.orbit(b))
