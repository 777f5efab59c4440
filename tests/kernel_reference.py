"""Reference point kernel: the per-point loop that `engine.generate_array`
and `engine.build_shells` ran before they became whole-array numpy passes.

Kept function for function so the differential tests can compare shells
bit for bit: exact squared radii, integer rows over the shared
denominator, float coordinates and point keys.  Rows come from the exact
Vec3E translation vectors (`translation_vectors`), as they did, so the
reference shares none of the array kernel's row building.
"""

from math import gcd, lcm

import numpy as np

from icofold.engine import _offsets
from icofold.golden import _TAU_FLOAT, GoldenNumber


class RefShell:
    """One reference shell: exact squared radius, rows, den, floats."""

    def __init__(self, radius2, rows, den, coords):
        self.radius2 = radius2
        self.rows = rows
        self.den = den
        self.coords = coords

    def point_keys(self):
        den = self.den
        return [
            tuple(n for a, b in ((ax, bx), (ay, by), (az, bz))
                  for n in GoldenNumber._make(a, b, den).key())
            for ax, bx, ay, by, az, bz in self.rows
        ]


def translation_vectors(translation):
    """The exact steps: the length times each direction."""
    return tuple(d.scale(translation.length) for d in translation.directions)


def integer_rows(*vector_sets):
    """One shared denominator and each vector's six numerators over it."""
    den = 1
    for vectors in vector_sets:
        for v in vectors:
            for c in v:
                den = lcm(den, c.den)
    out = []
    for vectors in vector_sets:
        rows = []
        for v in vectors:
            row = []
            for c in v:
                scale = den // c.den
                row += (c.an * scale, c.bn * scale)
            rows.append(tuple(row))
        out.append(rows)
    return den, out


def build_shells(rows, den):
    """Group integer point rows over `den` by exact squared radius, ascending.

    Points inside a shell are ordered by float coordinates, exact reduced
    triples breaking ties.
    """
    values = {}

    def value(a, b):
        g = gcd(a, b, den)
        ra, rb, d = a // g, b // g, den // g
        out = values[a, b] = ((ra + rb * _TAU_FLOAT) / d, (ra, rb, d))
        return out

    by_radius = {}
    for row in rows:
        ax, bx, ay, by, az, bz = row
        key = (ax * ax + bx * bx + ay * ay + by * by + az * az + bz * bz,
               (2 * ax + bx) * bx + (2 * ay + by) * by + (2 * az + bz) * bz)
        fx, tx = values.get((ax, bx)) or value(ax, bx)
        fy, ty = values.get((ay, by)) or value(ay, by)
        fz, tz = values.get((az, bz)) or value(az, bz)
        by_radius.setdefault(key, []).append(
            ((fx, fy, fz, tx, ty, tz), row))
    den2 = den * den
    radii = {key: GoldenNumber._make(key[0], key[1], den2)
             for key in by_radius}
    out = []
    for key in sorted(radii, key=radii.__getitem__):
        ordered = sorted(by_radius[key])
        coords = np.array([sort_key[:3] for sort_key, _ in ordered],
                          dtype=float)
        out.append(RefShell(radii[key], tuple(row for _, row in ordered),
                            den, coords))
    return tuple(out)


def generate_shells(start, translation, depth):
    """The shells of {x + (sum of at most `depth` translation vectors)}."""
    den, (base, steps) = integer_rows(start.vertices,
                                       translation_vectors(translation))
    offsets = _offsets(steps, depth, len(base))
    rows = {
        (x0 + s0, x1 + s1, x2 + s2, x3 + s3, x4 + s4, x5 + s5)
        for s0, s1, s2, s3, s4, s5 in offsets
        for x0, x1, x2, x3, x4, x5 in base
    }
    return build_shells(rows, den)
