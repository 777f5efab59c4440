"""Exact 3-vectors and 3x3 matrices for symmetry-group point geometry.

Vectors and matrices both carry GoldenNumber entries.  Every icosahedral
rotation has entries in (1/2)Q(tau), and every start vertex and
translation step ((0,1,tau), (1,1,1), (tau,0,0) times a Q(tau) length)
lies in Q(tau)^3, so points, squared norms and distances never leave the
golden field.  The radicals sqrt(3) and sqrt(2+tau) that unit axis
vectors would need never appear in a coordinate, so GoldenNumber is the
only number type a Vec3E holds.

`mat_apply` works on integers: a matrix keeps its entries as (a, b) pairs
over one common denominator, and each output coordinate is one integer
dot product in Q(tau) reduced once, built in line without type checks.
A group acts on whole point sets as (n, 6) integer rows
(`integer_rows`) through one table of 6x6 integer blocks
(`action_table`) built from it.  Rows turn back into points row for
row (`row_vectors`) or as their distinct points in key order
(`distinct_vectors`); both reduce each distinct coordinate value once
and share its one GoldenNumber among the points.  Both build their
vectors through `Vec3E._make`, which skips the type checks of
coordinates they have just made as GoldenNumbers.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from operator import attrgetter

import numpy as np

from .golden import ONE, GoldenNumber

__all__ = [
    "Vec3E",
    "Mat3G",
    "dot",
    "norm2",
    "mat_apply",
    "mat_mul",
    "integer_rows",
    "row_vectors",
    "distinct_vectors",
    "action_table",
]

# object.__new__, bound once: mat_apply builds its results with it
_new = object.__new__


class Vec3E:
    """An exact point or direction (x, y, z) in Q(tau)^3."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: GoldenNumber, y: GoldenNumber,
                 z: GoldenNumber) -> None:
        if not (isinstance(x, GoldenNumber) and isinstance(y, GoldenNumber)
                and isinstance(z, GoldenNumber)):
            raise TypeError("Vec3E coordinates must be GoldenNumbers")
        self.x = x
        self.y = y
        self.z = z

    @classmethod
    def _make(cls, x: GoldenNumber, y: GoldenNumber,
              z: GoldenNumber) -> "Vec3E":
        """The vector of three GoldenNumbers, without checking their type."""
        self = object.__new__(cls)
        self.x = x
        self.y = y
        self.z = z
        return self

    @classmethod
    def from_golden(cls, x, y, z, k: GoldenNumber = ONE) -> "Vec3E":
        """Build from GoldenNumber, int, or Fraction coordinates.

        `k` names the radicand of the coordinates' field; only 1, Q(tau)
        itself, is accepted.
        """
        if k != ONE:
            raise ValueError(
                f"3D coordinates lie in Q(tau); radicand {k} is not 1"
            )
        gx = GoldenNumber._lift(x)
        gy = GoldenNumber._lift(y)
        gz = GoldenNumber._lift(z)
        if gx is None or gy is None or gz is None:
            raise TypeError("coordinates must be GoldenNumber, int, or Fraction")
        return cls(gx, gy, gz)

    def key(self) -> tuple[int, ...]:
        """The coordinates' canonical triples, flattened."""
        x, y, z = self.x, self.y, self.z
        return (x.an, x.bn, x.den, y.an, y.bn, y.den, z.an, z.bn, z.den)

    def __add__(self, other: "Vec3E") -> "Vec3E":
        return Vec3E(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3E") -> "Vec3E":
        return Vec3E(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3E":
        return Vec3E(-self.x, -self.y, -self.z)

    def scale(self, s) -> "Vec3E":
        """Multiply by a Q(tau) scalar (GoldenNumber, int, or Fraction)."""
        return Vec3E(self.x * s, self.y * s, self.z * s)

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero() and self.z.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vec3E):
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.z == other.z

    def __hash__(self) -> int:
        return hash(self.key())

    def as_floats(self) -> tuple[float, float, float]:
        return (float(self.x), float(self.y), float(self.z))

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z

    def __repr__(self) -> str:
        return f"Vec3E({self.x}, {self.y}, {self.z})"


class Mat3G:
    """A 3x3 matrix with GoldenNumber entries, row-major and immutable."""

    __slots__ = ("rows", "_ints")

    def __init__(self, rows) -> None:
        rows = tuple(tuple(GoldenNumber._lift(e) for e in row) for row in rows)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("Mat3G needs 3 rows of 3 entries")
        if any(e is None for row in rows for e in row):
            raise TypeError("entries must be GoldenNumber, int, or Fraction")
        self.rows = rows
        # built on first use: most matrices of a group closure are never
        # applied to a point
        self._ints = None

    def _integer_entries(self) -> tuple[int, ...]:
        """(D, a00, b00, a01, b01, ..., a22, b22): entry ij is
        (aij + bij*tau)/D, row-major, D the lcm of the denominators."""
        ints = self._ints
        if ints is None:
            entries = [e for row in self.rows for e in row]
            d = lcm(*(e.den for e in entries))
            flat = [d]
            for e in entries:
                k = d // e.den
                flat += (e.an * k, e.bn * k)
            ints = self._ints = tuple(flat)
        return ints

    @classmethod
    def identity(cls) -> "Mat3G":
        return cls([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def key(self) -> tuple:
        return tuple(e.key() for row in self.rows for e in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat3G):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.key())

    def __neg__(self) -> "Mat3G":
        return Mat3G([[-e for e in row] for row in self.rows])

    def transpose(self) -> "Mat3G":
        r = self.rows
        return Mat3G([[r[0][0], r[1][0], r[2][0]],
                      [r[0][1], r[1][1], r[2][1]],
                      [r[0][2], r[1][2], r[2][2]]])

    def is_orthogonal(self) -> bool:
        return mat_mul(self.transpose(), self) == Mat3G.identity()

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"Mat3G([{body}])"


def dot(u: Vec3E, v: Vec3E) -> GoldenNumber:
    return u.x * v.x + u.y * v.y + u.z * v.z


def norm2(v: Vec3E) -> GoldenNumber:
    return dot(v, v)


def mat_apply(m: Mat3G, v: Vec3E) -> Vec3E:
    """m v, with one reduction per coordinate.

    v's coordinates are brought to their common denominator L as
    p + q*tau, and (a + b*tau)(p + q*tau) = (ap + bq) + (aq + b(p+q))*tau
    by tau^2 = tau + 1, so each output coordinate is an integer pair over
    D*L.  Its canonical triple is unique, so the result equals the one
    GoldenNumber arithmetic gives, key for key.  D*L is positive, so one
    gcd reduces each pair, and the numbers and the vector are built in
    line, as GoldenNumber._make and Vec3E._make build them.
    """
    (d, a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5,
     a6, b6, a7, b7, a8, b8) = m._integer_entries()
    x, y, z = v.x, v.y, v.z
    px, qx, dx = x.an, x.bn, x.den
    py, qy, dy = y.an, y.bn, y.den
    pz, qz, dz = z.an, z.bn, z.den
    if dx == dy == dz:
        den = d * dx
    else:
        common = lcm(dx, dy, dz)
        den = d * common
        kx, ky, kz = common // dx, common // dy, common // dz
        px, qx, py, qy, pz, qz = (px * kx, qx * kx, py * ky, qy * ky,
                                  pz * kz, qz * kz)
    sx, sy, sz = px + qx, py + qy, pz + qz
    out = _new(Vec3E)
    an = a0 * px + b0 * qx + a1 * py + b1 * qy + a2 * pz + b2 * qz
    bn = a0 * qx + b0 * sx + a1 * qy + b1 * sy + a2 * qz + b2 * sz
    g = gcd(an, bn, den)
    c = out.x = _new(GoldenNumber)
    c.an, c.bn, c.den = an // g, bn // g, den // g
    an = a3 * px + b3 * qx + a4 * py + b4 * qy + a5 * pz + b5 * qz
    bn = a3 * qx + b3 * sx + a4 * qy + b4 * sy + a5 * qz + b5 * sz
    g = gcd(an, bn, den)
    c = out.y = _new(GoldenNumber)
    c.an, c.bn, c.den = an // g, bn // g, den // g
    an = a6 * px + b6 * qx + a7 * py + b7 * qy + a8 * pz + b8 * qz
    bn = a6 * qx + b6 * sx + a7 * qy + b7 * sy + a8 * qz + b8 * sz
    g = gcd(an, bn, den)
    c = out.z = _new(GoldenNumber)
    c.an, c.bn, c.den = an // g, bn // g, den // g
    return out


def integer_rows(vectors) -> tuple[int, np.ndarray]:
    """One shared denominator D and each vector's six numerators over it.

    Vector v becomes the row (a_x, b_x, a_y, b_y, a_z, b_z) with
    coordinate c equal to (a_c + b_c*tau)/D, D the lcm of the coordinates'
    denominators.  The rows form a read-only (n, 6) array of Python ints
    (dtype=object), so no entry can overflow.  `vectors` may be any
    iterable; it is read once.
    """
    vectors = tuple(vectors)
    den = lcm(1, *(c.den for v in vectors for c in v))
    rows = np.array(
        [[n for c in v for n in (c.an * (den // c.den), c.bn * (den // c.den))]
         for v in vectors],
        dtype=object,
    ).reshape(-1, 6)
    rows.flags.writeable = False
    return den, rows


def action_table(matrices) -> tuple[int, np.ndarray]:
    """(D, T): T[i, k] is mat_apply(matrices[i], u_k) as an int64 row over
    D, u_k the vector of the k-th unit row (1 or tau on one axis), so a
    row r over den maps to r @ T[i] over D*den.  A finite group's entries
    are small; entries past int64 raise OverflowError."""
    units = row_vectors(1, np.eye(6, dtype=np.int64))
    den, rows = integer_rows(
        [mat_apply(m, u) for m in matrices for u in units])
    return den, rows.astype(np.int64).reshape(-1, 6, 6)


# a lookup table of this many int64 entries (32 KiB) costs less than
# np.unique on however few values
_LOOKUP_FLOOR = 4096


def _coordinate_values(rows: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(va, vb, index): the distinct (a, b) coordinate values of nonempty
    (n, 6) integer rows, and each coordinate's (n, 3) index into them.

    (a - low_a)*width + (b - low_b) is one integer per value, in
    [0, span) for span the box the values lie in.  It is taken in int64
    when span < 2^63, which bounds it, both differences and width, and in
    Python ints (dtype=object) otherwise; `va` and `vb` take that dtype.
    """
    a, b = rows[:, 0::2], rows[:, 1::2]
    low_a, high_a = int(a.min()), int(a.max())
    low_b, high_b = int(b.min()), int(b.max())
    width = high_b - low_b + 1
    span = (high_a - low_a + 1) * width
    if span >= 2 ** 63:
        a, b = a.astype(object), b.astype(object)
    packed = (a - low_a) * width
    packed += b - low_b
    values, index = _distinct(packed.ravel(), span)
    return (values // width + low_a, values % width + low_b,
            index.reshape(-1, 3))


def _value_table(rows: np.ndarray) -> tuple[list[int], list[int],
                                            np.ndarray]:
    """(va, vb, index): the distinct coordinate values of nonempty (n, 6)
    integer rows as lists of Python ints, and the (3, n) index of each
    row's coordinates into them; the form engine._array_values reads."""
    va, vb, index = _coordinate_values(rows)
    return va.tolist(), vb.tolist(), np.ascontiguousarray(index.T)


def _distinct_sums(xa: list[int], xb: list[int], ya: list[int],
                   yb: list[int], dtype) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
    """(va, vb, index): the distinct sums (xa[i] + ya[j], xb[i] + yb[j])
    of two nonempty tables of values a + b*tau in Python ints, as arrays
    of `dtype`, and each sum's (len(xa), len(ya)) index into them.

    The sums pack as in _coordinate_values, and the packing adds up: a
    sum's (a - low_a)*width + (b - low_b) is its two terms' packings,
    each against its own table's least a and b, so the packed sums are
    one np.add.outer of two small arrays.
    """
    tables = ((xa, xb), (ya, yb))
    lows = [(min(a), min(b)) for a, b in tables]
    low_a, low_b = lows[0][0] + lows[1][0], lows[0][1] + lows[1][1]
    width = max(xb) + max(yb) - low_b + 1
    span = (max(xa) + max(ya) - low_a + 1) * width
    packed = np.add.outer(*(
        np.array([(a - la) * width + b - lb for a, b in zip(*table)],
                 dtype=np.int64 if span < 2 ** 63 else object)
        for table, (la, lb) in zip(tables, lows)))
    values, index = _distinct(packed.ravel(), span)
    return ((values // width + low_a).astype(dtype, copy=False),
            (values % width + low_b).astype(dtype, copy=False),
            index.reshape(packed.shape))


def _distinct(packed: np.ndarray, span: int) -> tuple[np.ndarray,
                                                      np.ndarray]:
    """(values, index): the distinct integers of the 1-d `packed`, all in
    [0, span), ascending and in its dtype, and each entry's index into
    them: through a lookup table while span is O(n) or below
    _LOOKUP_FLOOR, else through np.unique."""
    if span > max(4 * len(packed), _LOOKUP_FLOOR):
        return np.unique(packed, return_inverse=True)
    small = packed.astype(np.int64, copy=False)
    lookup = np.zeros(span, dtype=np.int64)
    lookup[small] = 1
    values = lookup.nonzero()[0]
    lookup[values] = np.arange(len(values))
    return values.astype(packed.dtype, copy=False), lookup.take(small)


# a GoldenNumber's canonical triple, the sort key of Vec3E.key's parts
_TRIPLE = attrgetter("an", "bn", "den")


def _coordinate_numbers(den: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """(numbers, index): one GoldenNumber per distinct coordinate value of
    (n, 6) rows over `den`, as an object array in the order of their
    canonical triples, and each coordinate's (n, 3) rank among them."""
    rows = np.asarray(rows).reshape(-1, 6)
    if not len(rows):
        return np.empty(0, dtype=object), np.empty((0, 3), dtype=np.intp)
    va, vb, index = _coordinate_values(rows)
    numbers = list(map(GoldenNumber._make, va.tolist(), vb.tolist(),
                       repeat(den)))
    by_key = sorted(range(len(numbers)),
                    key=list(map(_TRIPLE, numbers)).__getitem__)
    rank = np.empty(len(numbers), dtype=np.intp)
    rank[by_key] = np.arange(len(numbers))
    return (np.fromiter(map(numbers.__getitem__, by_key), dtype=object,
                        count=len(numbers)), rank.take(index))


def row_vectors(den: int, rows) -> tuple[Vec3E, ...]:
    """The vectors of (a_x, b_x, a_y, b_y, a_z, b_z) integer rows over
    `den`, row for row: the inverse of integer_rows.

    Each distinct coordinate value is reduced once, and the vectors share
    its one GoldenNumber.
    """
    numbers, index = _coordinate_numbers(den, rows)
    return tuple(map(Vec3E._make, *numbers.take(index.T).tolist()))


def distinct_vectors(den: int, rows) -> tuple[Vec3E, ...]:
    """The distinct vectors of integer rows over `den`, ordered by
    Vec3E.key, built as `row_vectors` builds them."""
    numbers, index = _coordinate_numbers(den, rows)
    return tuple(map(Vec3E._make, *numbers.take(
        _distinct_ranks(index, len(numbers))).tolist()))


def _distinct_ranks(index: np.ndarray, n: int) -> np.ndarray:
    """The distinct rows of an (m, 3) array of ranks below n, in
    lexicographic order, as a (3, k) array.

    A row's ranks are the digits of one integer base n, int64 while n^3
    fits and Python ints otherwise; one sort of those integers orders
    the rows, and repeats are dropped.  With the numbers in key order,
    lexicographic order on ranks is Vec3E.key order.
    """
    dtype = np.int64 if n ** 3 < 2 ** 63 else object
    key = index @ np.array([n * n, n, 1], dtype=dtype)
    key.sort()
    fresh = np.ones(len(key), dtype=bool)
    fresh[1:] = key[1:] != key[:-1]
    key = key[fresh]
    return np.stack([key // (n * n), key // n % n, key % n]).astype(
        np.intp, copy=False)


def mat_mul(a: Mat3G, b: Mat3G) -> Mat3G:
    ar, br = a.rows, b.rows
    return Mat3G([
        [
            ar[i][0] * br[0][j] + ar[i][1] * br[1][j] + ar[i][2] * br[2][j]
            for j in range(3)
        ]
        for i in range(3)
    ])
