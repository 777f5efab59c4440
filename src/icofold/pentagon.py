"""Planar warm-up: the five-fold rotation group acting on a shifted pentagon.

The smallest end-to-end run of the exact pipeline (field arithmetic,
matrices, orbits, dedup) before anything three-dimensional: take a unit
pentagon, translate a copy, spin the copy around by the five rotations,
and count how many of the 30 candidate points coincide exactly.  A
translation by tau along the vertex axis collapses five pairs, leaving
25 points: the same coincidence phenomenon the 3D engine classifies.

Everything lives in Q(tau)(sqrt(2+tau)): cos 72 = (tau-1)/2 and
sin 72 = sqrt(2+tau)/2, so one exact 72-degree rotation matrix generates
all vertices and no other constants are needed.
"""

from __future__ import annotations

from fractions import Fraction

from .golden import ExtNumber, GoldenNumber, K_FIVEFOLD, ZERO

__all__ = [
    "Vec2E",
    "PENTAGON_RADICAND",
    "rotation72",
    "pentagon_vertices",
    "PentagonArray",
    "pentagon_array",
]

# sin 72 = sqrt(2+tau)/2, so the plane lives in Q(tau)(sqrt(2+tau))
PENTAGON_RADICAND = K_FIVEFOLD

_HALF = Fraction(1, 2)
_COS72 = GoldenNumber(-_HALF, _HALF)  # (tau-1)/2
_SIN72_COEFF = GoldenNumber(_HALF, 0)  # sin 72 = (1/2)*sqrt(2+tau)


def _ext(golden: GoldenNumber, radical: GoldenNumber = ZERO) -> ExtNumber:
    return ExtNumber(golden, radical, PENTAGON_RADICAND)


class Vec2E:
    """An exact plane point with components in Q(tau)(sqrt(2+tau))."""

    __slots__ = ("x", "y")

    def __init__(self, x: ExtNumber, y: ExtNumber) -> None:
        self.x = x
        self.y = y

    def __add__(self, other: "Vec2E") -> "Vec2E":
        return Vec2E(self.x + other.x, self.y + other.y)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vec2E)
                and self.x == other.x and self.y == other.y)

    def key(self) -> tuple:
        return (self.x.key(), self.y.key())

    def __hash__(self) -> int:
        return hash(self.key())

    def as_floats(self) -> tuple[float, float]:
        return (float(self.x), float(self.y))

    def norm2(self) -> ExtNumber:
        return self.x * self.x + self.y * self.y

    def __repr__(self) -> str:
        return f"Vec2E({self.x}, {self.y})"


def rotation72() -> tuple[tuple[ExtNumber, ExtNumber],
                          tuple[ExtNumber, ExtNumber]]:
    """The exact 72-degree rotation [[cos,-sin],[sin,cos]]."""
    return (
        (_ext(_COS72), _ext(ZERO, -_SIN72_COEFF)),
        (_ext(ZERO, _SIN72_COEFF), _ext(_COS72)),
    )


def rotate(matrix, v: Vec2E) -> Vec2E:
    (a, b), (c, d) = matrix
    return Vec2E(a * v.x + b * v.y, c * v.x + d * v.y)


def pentagon_vertices() -> tuple[Vec2E, ...]:
    """Unit-circumradius pentagon with a vertex at (0, 1)."""
    matrix = rotation72()
    out = [Vec2E(_ext(ZERO), _ext(GoldenNumber(1, 0)))]
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
    shift = Vec2E(_ext(ZERO), _ext(axis_y))
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
