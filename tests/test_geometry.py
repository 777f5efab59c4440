"""Tests for exact vectors and matrices."""

import math
import random
from fractions import Fraction

import pytest

from ext_reference import ExtNumber
from icofold.golden import ONE, GoldenNumber, TAU
from icofold.configs import BUILTIN_NAMES, builtin
from group_reference import mat_det
from icofold import geometry
from icofold.geometry import (Mat3G, Vec3E, dot, integer_rows, mat_apply,
                              mat_mul, norm2)
from icofold.groups import GEN_B5, GEN_R3, full_group


def dist2(u: Vec3E, v: Vec3E) -> GoldenNumber:
    return norm2(u - v)


def rand_vec(rng: random.Random) -> Vec3E:
    def component() -> GoldenNumber:
        return GoldenNumber(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return Vec3E(component(), component(), component())


def rand_mat(rng: random.Random) -> Mat3G:
    return Mat3G([
        [GoldenNumber(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
        for _ in range(3)
    ])


class TestVec3E:
    def test_norm2_of_icosahedron_vertex_scaled(self):
        v = Vec3E.from_golden(0, 1, 3 * TAU)
        # 1 + 9*tau^2 = 1 + 9(1+tau)
        assert norm2(v) == GoldenNumber(10, 9)

    def test_norm2_of_cube_vertex(self):
        v = Vec3E.from_golden(1, 1, 1)
        assert norm2(v) == GoldenNumber(3, 0)

    def test_dist2_between_mirror_pair(self):
        u = Vec3E.from_golden(0, 1, 3 * TAU)
        v = Vec3E.from_golden(0, -1, 3 * TAU)
        assert dist2(u, v) == GoldenNumber(4, 0)

    def test_dist2_symmetry_and_self(self):
        rng = random.Random(420)
        for _ in range(200):
            u = rand_vec(rng)
            v = rand_vec(rng)
            assert dist2(u, v) == dist2(v, u)
            assert dist2(u, u).is_zero()
            assert dist2(u, v) == norm2(u - v)

    def test_radicand_mismatch_rejected(self):
        # 3D coordinates lie in Q(tau): radicand 1 only, no radical parts
        assert Vec3E.from_golden(1, 0, 0, ONE) == Vec3E.from_golden(1, 0, 0)
        for k in (GoldenNumber(2, 1), GoldenNumber(3, 0)):
            with pytest.raises(ValueError, match="radicand"):
                Vec3E.from_golden(1, 0, 0, k)
        radical = ExtNumber(0, 1, GoldenNumber(2, 1))
        for bad in (radical, 1.0):
            with pytest.raises(TypeError):
                Vec3E(bad, ONE, ONE)
            with pytest.raises(TypeError):
                Vec3E.from_golden(bad, 0, 0)

    def test_vector_space_identities(self):
        rng = random.Random(421)
        for _ in range(200):
            u = rand_vec(rng)
            v = rand_vec(rng)
            s = GoldenNumber(rng.randint(-6, 6), rng.randint(-6, 6))
            assert u + v == v + u
            assert (u - v) + v == u
            assert u.scale(s) + v.scale(s) == (u + v).scale(s)
            assert dot(u.scale(s), v) == dot(u, v) * s
            assert norm2(u.scale(s)) == norm2(u) * s * s
            assert -(-u) == u

    def test_float_embedding(self):
        v = Vec3E.from_golden(0, 1, TAU)
        fx, fy, fz = v.as_floats()
        assert fx == 0.0 and fy == 1.0
        assert math.isclose(fz, 1.6180339887498949)

    def test_scale_by_ext_scalar(self):
        v = Vec3E.from_golden(0, 1, TAU)
        assert v.scale(TAU) == Vec3E.from_golden(0, TAU, TAU + 1)
        for bad in (ExtNumber(0, 1, GoldenNumber(2, 1)), 1.5):
            with pytest.raises(TypeError):
                v.scale(bad)


class TestMat3G:
    def test_identity_applies_trivially(self):
        rng = random.Random(422)
        identity = Mat3G.identity()
        for _ in range(50):
            v = rand_vec(rng)
            assert mat_apply(identity, v) == v

    def test_cyclic_permutation_determinant(self):
        assert mat_det(GEN_R3) == GoldenNumber(1, 0)

    def test_fivefold_generator_against_float_oracle(self):
        import numpy as np

        exact = mat_det(GEN_B5)
        floats = np.array(
            [[float(e) for e in row] for row in GEN_B5.rows], dtype=float
        )
        assert math.isclose(float(np.linalg.det(floats)), 1.0, abs_tol=1e-12)
        assert exact == GoldenNumber(1, 0)
        r = GEN_B5.rows
        assert r[0][0] + r[1][1] + r[2][2] == TAU  # the trace
        assert GEN_B5.is_orthogonal()

    def test_mat_mul_associativity(self):
        rng = random.Random(423)
        for _ in range(200):
            a, b, c = rand_mat(rng), rand_mat(rng), rand_mat(rng)
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))

    def test_mat_apply_is_linear_and_compatible(self):
        rng = random.Random(424)
        for _ in range(100):
            a, b = rand_mat(rng), rand_mat(rng)
            u = rand_vec(rng)
            v = rand_vec(rng)
            assert mat_apply(a, u + v) == mat_apply(a, u) + mat_apply(a, v)
            assert mat_apply(mat_mul(a, b), u) == mat_apply(a, mat_apply(b, u))

    def test_det_is_multiplicative(self):
        rng = random.Random(425)
        for _ in range(200):
            a, b = rand_mat(rng), rand_mat(rng)
            assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)

    def test_orthogonal_apply_preserves_norm(self):
        rng = random.Random(426)
        for _ in range(100):
            v = rand_vec(rng)
            assert norm2(mat_apply(GEN_B5, v)) == norm2(v)
            assert norm2(mat_apply(GEN_R3, v)) == norm2(v)

    def test_transpose_involution(self):
        rng = random.Random(427)
        for _ in range(100):
            a = rand_mat(rng)
            assert a.transpose().transpose() == a

    def test_entries_accept_fractions(self):
        half = Mat3G([[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])
        v = Vec3E.from_golden(2, 0, 0)
        assert mat_apply(half, v) == Vec3E.from_golden(1, 0, 0)


def mat_apply_reference(m: Mat3G, v: Vec3E) -> Vec3E:
    """The group action as first written, in GoldenNumber arithmetic:
    15 field numbers per call, each reduced on its own."""
    r = m.rows
    x, y, z = v.x, v.y, v.z
    return Vec3E(
        x * r[0][0] + y * r[0][1] + z * r[0][2],
        x * r[1][0] + y * r[1][1] + z * r[1][2],
        x * r[2][0] + y * r[2][1] + z * r[2][2],
    )


def mixed_vec(rng: random.Random) -> Vec3E:
    # coordinates over denominators 1..6, often different per coordinate
    def component() -> GoldenNumber:
        den = rng.randint(1, 6)
        return GoldenNumber._make(rng.randint(-12, 12), rng.randint(-12, 12),
                                  den)
    return Vec3E(component(), component(), component())


class TestIntegerAction:
    def test_matches_golden_arithmetic_on_the_full_group(self):
        rng = random.Random(428)
        points = [mixed_vec(rng) for _ in range(40)]
        points += [Vec3E.from_golden(0, 0, 0), Vec3E.from_golden(0, 1, TAU)]
        assert any(len({p.x.den, p.y.den, p.z.den}) > 1 for p in points)
        for g in full_group():
            for v in points:
                assert mat_apply(g, v).key() == mat_apply_reference(g, v).key()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matches_golden_arithmetic_on_builtin_vertices(self, name):
        """Every I_h element on every vertex of the built-in, and on the
        vertices scaled by (2^70 + 3)/11 + (5^30/13)*tau, whose
        numerators pass int64 and whose reductions divide by more than
        the matrices' denominator 2."""
        k = GoldenNumber(Fraction(2 ** 70 + 3, 11), Fraction(5 ** 30, 13))
        vertices = builtin(name).vertices
        scaled = [v.scale(k) for v in vertices]
        assert max(abs(c.an) for p in scaled for c in p) > 2 ** 64
        for g in full_group():
            for v in (*vertices, *scaled):
                assert mat_apply(g, v).key() == mat_apply_reference(g, v).key()

    def test_matches_golden_arithmetic_off_the_group(self):
        rng = random.Random(429)

        def entry():
            return GoldenNumber(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 7)))

        for _ in range(300):
            m = Mat3G([[entry() for _ in range(3)] for _ in range(3)])
            v = mixed_vec(rng)
            assert mat_apply(m, v).key() == mat_apply_reference(m, v).key()
        half = Mat3G([[Fraction(1, 2), 0, Fraction(-3, 4)], [0, 1, 0],
                      [Fraction(5, 6), 0, 1]])
        v = mixed_vec(rng)
        assert mat_apply(half, v).key() == mat_apply_reference(half, v).key()

    def test_one_reduction_per_coordinate(self, monkeypatch):
        """One gcd per output coordinate, and no other reduction."""
        g = full_group().elements[57]
        # one common denominator, and three different ones
        points = [Vec3E.from_golden(1, TAU, 2 - TAU),
                  Vec3E.from_golden(Fraction(1, 2), TAU / 3, Fraction(5, 6))]
        wants = [mat_apply_reference(g, v).key() for v in points]
        mat_apply(g, points[0])  # builds the matrix's integer entries
        calls = []

        def spy(*args):
            calls.append(args)
            return math.gcd(*args)

        def make(*args):
            raise AssertionError("mat_apply builds its numbers in line")

        monkeypatch.setattr(geometry, "gcd", spy)
        monkeypatch.setattr(GoldenNumber, "_make", make)
        for v, want in zip(points, wants):
            calls.clear()
            assert mat_apply(g, v).key() == want
            assert len(calls) == 3


class TestIntegerRows:
    @pytest.mark.parametrize("name", ["dodecahedron", "c80"])
    def test_a_generator_gives_the_rows_of_a_tuple(self, name):
        vertices = builtin(name).vertices
        den, rows = integer_rows(tuple(vertices))
        assert rows.shape == (len(vertices), 6)
        got_den, got = integer_rows(v for v in vertices)
        assert got_den == den
        assert got.shape == rows.shape and got.tolist() == rows.tolist()

    def test_mixed_denominators_from_a_generator(self):
        rng = random.Random(430)
        points = [mixed_vec(rng) for _ in range(12)]
        want_den, want = integer_rows(points)
        den, rows = integer_rows(iter(points))
        assert (den, rows.tolist()) == (want_den, want.tolist())
        assert den > 1 and len(rows) == 12
