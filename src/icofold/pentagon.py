"""Planar warm-up: the five-fold rotation group acting on a shifted pentagon.

The smallest end-to-end run of the exact pipeline (field arithmetic,
matrices, orbits, dedup) before anything three-dimensional: take a unit
pentagon, translate a copy, spin the copy around by the five rotations,
and count how many of the 30 candidate points coincide exactly.  A
translation by tau along the vertex axis collapses five pairs, leaving
25 points: the same coincidence phenomenon the 3D engine classifies.

cos 72 = (tau-1)/2 lies in Q(tau), but sin 72 = sqrt(2+tau)/2 does not.
Every point of the array still has the form (xs*sqrt(2+tau), y) with xs
and y in Q(tau): the vertex (0, 1) and the shifts (0, +-length) do, and
the 72-degree rotation keeps the form.  So a plane point is two
GoldenNumbers, and sqrt(2+tau) enters only as a float when it is printed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .golden import ONE, ZERO, GoldenNumber

__all__ = [
    "Vec2E",
    "PENTAGON_RADICAND",
    "rotation72",
    "pentagon_vertices",
    "PentagonArray",
    "pentagon_array",
]

# The plane's fixed radical: x = xs*sqrt(2+tau) for every point
PENTAGON_RADICAND = GoldenNumber(2, 1)

_HALF = Fraction(1, 2)
_COS72 = GoldenNumber(-_HALF, _HALF)  # (tau-1)/2
_ROOT_FLOAT = math.sqrt(float(PENTAGON_RADICAND))


class Vec2E:
    """An exact plane point (xs*sqrt(2+tau), y) with xs, y in Q(tau)."""

    __slots__ = ("xs", "y")

    def __init__(self, xs: GoldenNumber, y: GoldenNumber) -> None:
        self.xs = xs
        self.y = y

    def __add__(self, other: "Vec2E") -> "Vec2E":
        return Vec2E(self.xs + other.xs, self.y + other.y)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vec2E)
                and self.xs == other.xs and self.y == other.y)

    def key(self) -> tuple:
        return (self.xs.key(), self.y.key())

    def __hash__(self) -> int:
        return hash(self.key())

    def as_floats(self) -> tuple[float, float]:
        return (float(self.xs) * _ROOT_FLOAT, float(self.y))

    def norm2(self) -> GoldenNumber:
        return PENTAGON_RADICAND * self.xs * self.xs + self.y * self.y

    def __repr__(self) -> str:
        return f"Vec2E(({self.xs})*sqrt({PENTAGON_RADICAND}), {self.y})"


def rotation72() -> tuple[tuple[GoldenNumber, GoldenNumber],
                          tuple[GoldenNumber, GoldenNumber]]:
    """The exact 72-degree rotation, acting on (xs, y).

    With s = sin 72 = sqrt(2+tau)/2, x' = c*x - s*y and y' = s*x + c*y
    become xs' = c*xs - y/2 and y' = ((2+tau)/2)*xs + c*y.
    """
    return (
        (_COS72, GoldenNumber(-_HALF, 0)),
        (PENTAGON_RADICAND * _HALF, _COS72),
    )


def rotate(matrix, v: Vec2E) -> Vec2E:
    (a, b), (c, d) = matrix
    return Vec2E(a * v.xs + b * v.y, c * v.xs + d * v.y)


def pentagon_vertices() -> tuple[Vec2E, ...]:
    """Unit-circumradius pentagon with a vertex at (0, 1)."""
    matrix = rotation72()
    out = [Vec2E(ZERO, ONE)]
    for _ in range(4):
        out.append(rotate(matrix, out[-1]))
    return tuple(out)


class PentagonArray:
    """The deduplicated plane array with its coincidence count."""

    def __init__(self, points: tuple[Vec2E, ...], generic: int,
                 length: GoldenNumber) -> None:
        self.points = points
        self.generic = generic
        self.length = length

    @property
    def actual(self) -> int:
        return len(self.points)

    @property
    def coincidences(self) -> int:
        return self.generic - self.actual

    @property
    def nontrivial(self) -> bool:
        return self.actual < self.generic

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"PentagonArray({self.actual} of {self.generic} points)"


def pentagon_array(length: GoldenNumber,
                   direction: str = "vertex") -> PentagonArray:
    """Pentagon plus the five-fold orbit of its translated copy.

    The translation runs along the symmetry axis through the vertex
    (0,1), or through the opposite edge midpoint with direction="edge".
    Generic count is 30 (5 originals + 5x5 copies); exact coincidences
    shrink it.
    """
    if length.sign() <= 0:
        raise ValueError("translation length must be positive")
    if direction not in ("vertex", "edge"):
        raise ValueError(f"unknown direction '{direction}'")
    axis_y = length if direction == "vertex" else -length
    shift = Vec2E(ZERO, axis_y)
    base = pentagon_vertices()
    matrix = rotation72()
    seen: dict[tuple, Vec2E] = {}
    for v in base:
        seen.setdefault(v.key(), v)
    translated = [v + shift for v in base]
    for _ in range(5):
        for v in translated:
            seen.setdefault(v.key(), v)
        translated = [rotate(matrix, v) for v in translated]
    points = tuple(sorted(seen.values(), key=lambda p: (p.as_floats(), p.key())))
    return PentagonArray(points, generic=30, length=length)
