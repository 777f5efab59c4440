"""`cages.as_coords` converts a sequence of Vec3E to the floats each
point's `as_floats` gives, bit for bit, wherever Python's int-to-float
conversion and GoldenNumber.__float__'s arithmetic reach.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from icofold.cages import as_coords
from icofold.configs import BUILTIN_NAMES, builtin
from icofold.geometry import Vec3E
from icofold.golden import GoldenNumber


def per_point(points):
    """The (N, 3) floats of each point's `as_floats`, or of a plain
    triple as it stands."""
    rows = [p.as_floats() if isinstance(p, Vec3E) else tuple(p)
            for p in points]
    return np.array(rows, dtype=float).reshape(-1, 3)


def assert_matches_per_point(points):
    got = as_coords(points)
    want = per_point(points)
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_vertices(name):
    assert_matches_per_point(builtin(name).vertices)


@pytest.mark.parametrize("name", ["icosidodecahedron", "c60"])
def test_points_scaled_past_int64(name):
    """Scaled by (2^70 + 3)/11 + (5^30/13)*tau, as the pair-table tests
    scale their far starts: numerators pass int64 and 2^53, so only a
    correctly rounded conversion of each int gives the same floats."""
    k = GoldenNumber(Fraction(2 ** 70 + 3, 11), Fraction(5 ** 30, 13))
    points = [v.scale(k) for v in builtin(name).vertices]
    assert max(abs(c.an) for p in points for c in p) > 2 ** 64
    assert_matches_per_point(points)


def test_mixed_denominators_zeros_and_negatives():
    rng = random.Random(33)

    def component():
        if rng.random() < 0.2:
            return GoldenNumber(0)
        return GoldenNumber(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                            Fraction(rng.randint(-50, 50), rng.randint(1, 9)))

    points = [Vec3E(component(), component(), component())
              for _ in range(200)]
    points.append(Vec3E.from_golden(0, 0, 0))
    assert_matches_per_point(points)
    # a generator is read once, as a sequence is
    assert as_coords(iter(points)).tobytes() == per_point(points).tobytes()


def test_empty_input():
    for empty in ((), [], iter(())):
        got = as_coords(empty)
        assert got.shape == (0, 3) and got.dtype == np.float64


def test_vectors_mixed_with_plain_triples():
    """A sequence that holds anything but Vec3E takes each point as it
    comes: `as_floats` where it has one, the triple itself otherwise."""
    points = list(builtin("dodecahedron").vertices)
    points[3] = (0.5, -1.25, 2.0)
    points[11] = [1, 2, 3]
    got = assert_matches_per_point(points)
    assert got[3].tolist() == [0.5, -1.25, 2.0]
    assert got[11].tolist() == [1.0, 2.0, 3.0]
    plain = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert as_coords(plain).tolist() == plain
