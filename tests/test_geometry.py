"""Tests for exact vectors and matrices."""

import math
import random
from fractions import Fraction

import pytest

from ext_reference import ExtNumber
from icofold.golden import ONE, GoldenNumber, TAU
from icofold.geometry import Mat3G, Vec3E, dist2, dot, mat_apply, mat_det, mat_mul, norm2
from icofold.groups import GEN_B5, GEN_R3


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
        assert GEN_B5.trace() == TAU
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
