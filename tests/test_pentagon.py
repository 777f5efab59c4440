"""Exact plane pentagon arrays under the five-fold rotation group."""

import math
from fractions import Fraction

import numpy as np
import pytest
from ext_reference import ExtNumber, format_ext

from icofold.export import export_csv, read_csv
from icofold.golden import ONE, ZERO, GoldenNumber, format_golden, \
    parse_field_expr
from icofold.pentagon import (
    PENTAGON_RADICAND,
    Vec2E,
    pentagon_array,
    pentagon_vertices,
    rotate,
    rotation72,
)

GENERIC = Vec2E(GoldenNumber(3, -1), GoldenNumber(-2, 1))


def float_count(lam: float, direction: str = "vertex") -> int:
    """Independent float reconstruction of the array's distinct points."""
    ang = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
    base = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    shift = np.array([0.0, lam if direction == "vertex" else -lam])
    chunks = [base]
    shifted = base + shift
    for k in range(5):
        th = 2 * np.pi * k / 5
        rot = np.array([[np.cos(th), -np.sin(th)],
                        [np.sin(th), np.cos(th)]])
        chunks.append(shifted @ rot.T)
    points = np.vstack(chunks)
    distinct: list[np.ndarray] = []
    for p in points:
        if not any(np.linalg.norm(p - q) < 1e-7 for q in distinct):
            distinct.append(p)
    return len(distinct)


# --- exact rotation -------------------------------------------------------

def test_rotation_has_order_five():
    matrix = rotation72()
    v = GENERIC
    cycled = v
    seen = set()
    for _ in range(5):
        cycled = rotate(matrix, cycled)
        seen.add(cycled.key())
    assert cycled == v
    assert len(seen) == 5  # no shorter period on a generic point


def test_rotation_preserves_norm_exactly():
    matrix = rotation72()
    assert rotate(matrix, GENERIC).norm2() == GENERIC.norm2()


def test_pentagon_vertices_on_unit_circle():
    verts = pentagon_vertices()
    assert len(verts) == 5
    assert len({v.key() for v in verts}) == 5
    assert all(v.norm2() == ONE for v in verts)
    assert verts[0].as_floats() == (0.0, 1.0)


# --- coincidence counting ---------------------------------------------------

@pytest.mark.parametrize(
    "expr,expected",
    [
        ("tau", 25),
        ("tau-1", 25),
        ("1", 20),
        ("1/2", 30),
        ("2*tau", 30),
        ("2", 30),
    ],
)
def test_vertex_direction_counts(expr, expected):
    lam = parse_field_expr(expr)
    arr = pentagon_array(lam)
    assert arr.actual == expected
    assert arr.generic == 30
    assert arr.coincidences == 30 - expected
    assert arr.nontrivial == (expected < 30)
    assert arr.length == lam
    assert arr.actual == float_count(float(lam))


@pytest.mark.parametrize("expr,expected", [("tau", 25), ("1", 26)])
def test_edge_direction_counts(expr, expected):
    arr = pentagon_array(parse_field_expr(expr), direction="edge")
    assert arr.actual == expected
    assert arr.actual == float_count(float(parse_field_expr(expr)), "edge")


def test_actual_never_exceeds_generic():
    for num in range(1, 8):
        for den in (1, 2, 3):
            arr = pentagon_array(GoldenNumber(num, 0) / GoldenNumber(den, 0))
            assert 5 < arr.actual <= arr.generic == 30


def test_array_is_rotation_invariant():
    matrix = rotation72()
    arr = pentagon_array(parse_field_expr("tau"))
    keys = {p.key() for p in arr.points}
    assert {rotate(matrix, p).key() for p in arr.points} == keys


def test_tau_array_has_three_exact_radii():
    arr = pentagon_array(parse_field_expr("tau"))
    assert len({p.norm2().key() for p in arr.points}) == 3


def test_points_are_sorted_and_unique():
    arr = pentagon_array(parse_field_expr("tau"))
    floats = [p.as_floats() for p in arr.points]
    assert floats == sorted(floats)
    assert len({p.key() for p in arr.points}) == arr.actual


# --- argument validation ------------------------------------------------------

@pytest.mark.parametrize("bad", [GoldenNumber(0, 0), GoldenNumber(0, -1)])
def test_non_positive_length_rejected(bad):
    with pytest.raises(ValueError, match="positive"):
        pentagon_array(bad)


def test_unknown_direction_rejected():
    with pytest.raises(ValueError, match="direction"):
        pentagon_array(parse_field_expr("tau"), direction="corner")


# --- the (xs, y) pentagon against the Q(tau)(sqrt(2+tau)) one it replaced ---
#
# Plane points used to be pairs of ExtNumbers, x and y each p + q*sqrt(2+tau),
# rotated by [[cos, -sin], [sin, cos]] with sin 72 = (1/2)*sqrt(2+tau).  The
# helpers below redo that on the reference copy in ext_reference.py.

def old_ext(golden, radical=ZERO):
    return ExtNumber(golden, radical, PENTAGON_RADICAND)


def old_rotate(v):
    half = GoldenNumber(Fraction(1, 2), 0)
    cos = old_ext(GoldenNumber(-Fraction(1, 2), Fraction(1, 2)))
    sin = old_ext(ZERO, half)
    x, y = v
    return (cos * x + (-sin) * y, sin * x + cos * y)


def old_key(v):
    return (v[0].key(), v[1].key())


def old_floats(v):
    return (float(v[0]), float(v[1]))


def old_pentagon_array(length, direction):
    """The old pentagon_array: points sorted by (floats, exact key)."""
    base = [(old_ext(ZERO), old_ext(ONE))]
    for _ in range(4):
        base.append(old_rotate(base[-1]))
    axis_y = length if direction == "vertex" else -length
    seen = {old_key(v): v for v in base}
    translated = [(x, y + old_ext(axis_y)) for x, y in base]
    for _ in range(5):
        for v in translated:
            seen.setdefault(old_key(v), v)
        translated = [old_rotate(v) for v in translated]
    return sorted(seen.values(), key=lambda v: (old_floats(v), old_key(v)))


def old_export_csv(points):
    """The old export_csv on plane points: rows in canonical float order."""
    def sort_key(v):
        row = old_floats(v)
        return (math.fsum(c * c for c in row), row, str(old_key(v)))

    lines = [f"# radicand: {format_golden(PENTAGON_RADICAND)}", "x,y"]
    lines += [f"{format_ext(x)},{format_ext(y)}"
              for x, y in sorted(points, key=sort_key)]
    return "\n".join(lines) + "\n"


def as_old(p):
    """The ExtNumber pair an (xs, y) point stands for."""
    return (old_ext(ZERO, p.xs), old_ext(p.y))


OLD_LENGTHS = ["tau", "tau-1", "1", "1/2", "2*tau", "2", "tau^2", "tau^-2",
               "(7+tau)/5", "3", "2+tau"]


@pytest.mark.parametrize("direction", ["vertex", "edge"])
@pytest.mark.parametrize("expr", OLD_LENGTHS)
def test_matches_old_extension_pentagon(expr, direction):
    arr = pentagon_array(parse_field_expr(expr), direction)
    old = old_pentagon_array(parse_field_expr(expr), direction)
    assert [old_key(as_old(p)) for p in arr.points] \
        == [old_key(v) for v in old]
    assert np.array([p.as_floats() for p in arr.points]).tobytes() \
        == np.array([old_floats(v) for v in old]).tobytes()
    text = export_csv(arr.points)
    assert text == old_export_csv(old)
    back = read_csv(text)
    assert {p.key() for p in back} == {p.key() for p in arr.points}
    assert export_csv(back) == text
