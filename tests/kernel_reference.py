"""Reference point kernels: the per-point loop that `engine.generate_array`
and `engine.build_shells` ran before they became whole-array numpy passes,
and the whole-array front end that built every candidate row before
arrays were built from their value tables.

The per-point loop is kept function for function so the differential
tests can compare shells bit for bit: exact squared radii, integer rows
over the shared denominator, float coordinates and point keys.  Its rows
come from the exact Vec3E translation vectors (`translation_vectors`),
as they did, so it shares none of the array kernel's row building.

The front end (`front_end_shells`) scales the start rows and the steps
to one denominator and divides out their gcd (`_kernel_rows`), sums the
steps level by level (`_offsets`), adds every sum to every start row and
hands all N rows to `engine.build_shells` through `row_shells`, which
finds their distinct coordinate values over all 3N coordinates.

`array_row` is `engine.classify_length(..., with_cage=False)` as it was
before scan rows were read off the start's pair table: every row from
its generated array, its bands (`bands`, the loop `engine.bands` ran)
and the outer band's threshold search.
It holds `generate_array` by its own name, so a spy on
`engine.generate_array` sees only the engine's calls.

`table_refutes` is the pair table's band refutation as it was before it
read distances off lambda-free coefficients: the band's coordinate
floats built for each length from the value tables (`table_coords`),
bit-identical to the array's, and one `_pairwise_squared` of its
representatives against them.
"""

from math import gcd, lcm

import numpy as np

from icofold import cages, engine
from icofold.cages import PointBudgetError
from icofold.configs import DEFAULT_POINT_CAP
from icofold.engine import (DEFAULT_BAND_GAP, Band, _band_report,
                            generate_array, generic_cardinality)
from icofold.engine import build_shells as array_build_shells
from icofold.geometry import _coordinate_values
from icofold.golden import _TAU_FLOAT, GoldenNumber, format_golden

# the rows of a front-end array are int64 below this bound
INT64_BOUND = 2 ** 29


def _offsets(steps, depth, n_start):
    """All sums of at most `depth` steps, level by level.

    S_0 = {0} and S_j = S_{j-1} | (S_{j-1} + steps); only the sums new at
    level j-1 need extending.  The point budget n_start * |S_j| is checked
    at every level, so an oversized request stops before its last level.
    """
    zero = (0,) * 6
    seen = {zero}
    frontier = [zero]
    for j in range(depth + 1):
        if j:
            fresh = []
            for s0, s1, s2, s3, s4, s5 in frontier:
                for v0, v1, v2, v3, v4, v5 in steps:
                    total = (s0 + v0, s1 + v1, s2 + v2, s3 + v3, s4 + v4,
                             s5 + v5)
                    if total not in seen:
                        seen.add(total)
                        fresh.append(total)
            frontier = fresh
        budget = n_start * len(seen)
        if budget > DEFAULT_POINT_CAP:
            raise PointBudgetError(f"{budget} candidate points exceed the "
                                   f"cap of {DEFAULT_POINT_CAP}")
    return seen


def step_rows(translation):
    """The steps as integer rows over one denominator, Python ints:
    (x + y*tau)(p + q*tau) = (xp + yq) + (xq + yp + yq)*tau."""
    den, rows = translation.group.translation_rows(translation.fold)
    p, q, e = translation.length.an, translation.length.bn, \
        translation.length.den
    x, y = rows[:, 0::2], rows[:, 1::2]
    steps = np.empty_like(rows)
    steps[:, 0::2] = x * p + y * q
    steps[:, 1::2] = x * q + y * (p + q)
    return den * e, steps


def _kernel_rows(start, translation):
    """Start and step rows over one denominator, in lowest terms.

    Dividing every row and the denominator by their common gcd gives the
    lcm of the coordinates' own denominators.
    """
    den_x, base = start.integer_rows
    den_s, steps = step_rows(translation)
    den = lcm(den_x, den_s)
    # int64 start rows stay int64 while the scaled rows and den fit; den
    # bounds the gcd the rows are divided by
    if max(int(abs(base).max(initial=0)) * (den // den_x), den) >= 2 ** 63:
        base = base.astype(object)
    base = base * (den // den_x)
    steps = steps * (den // den_s)
    g = gcd(den, *base.ravel().tolist(), *steps.ravel().tolist())
    return den // g, base // g, steps // g


def front_end_rows(start, translation, depth):
    """(rows, den): every candidate row x + s, s a sum of at most
    `depth` steps, int64 when no entry can reach 2^29."""
    den, base, steps = _kernel_rows(start, translation)
    offsets = _offsets(steps.tolist(), depth, len(base))
    bound = (int(abs(base).max(initial=0))
             + depth * int(abs(steps).max(initial=0)))
    dtype = np.int64 if max(bound, den) < INT64_BOUND else object
    rows = (np.array(list(offsets), dtype=dtype)[:, None, :]
            + base.astype(dtype)[None]).reshape(-1, 6)
    return rows, den


def row_shells(rows, den):
    """`engine.build_shells` of (N, 6) rows over `den`, through the value
    table of all their 3N coordinates."""
    va, vb, index = _coordinate_values(rows)
    return array_build_shells(den, va, vb, index.T, rows.dtype)


def front_end_shells(start, translation, depth):
    """The array's shells from all N candidate rows."""
    return row_shells(*front_end_rows(start, translation, depth))


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


def bands(array):
    """Split the ascending shells at relative radius gaps over 0.11."""
    shell_list = array.shells
    if not shell_list:
        return ()
    groups = [[shell_list[0]]]
    previous = shell_list[0].radius
    for shell in shell_list[1:]:
        radius = shell.radius
        if radius > 0 and (radius - previous) / radius > DEFAULT_BAND_GAP:
            groups.append([])
        groups[-1].append(shell)
        previous = radius
    return tuple(Band(tuple(group)) for group in groups)


def array_row(start, translation, depth=1):
    """One `with_cage=False` classification row from the generated array."""
    array = generate_array(start, translation, depth)
    generic = generic_cardinality(start, translation, depth)
    actual = len(array)
    split = bands(array)
    return {
        "start": start.name,
        "fold": translation.fold,
        "length": format_golden(translation.length),
        "length_float": round(float(translation.length), 9),
        "depth": depth,
        "generic": generic,
        "actual": actual,
        "nontrivial": actual < generic,
        "bands": [
            _band_report(band, i == len(split) - 1)
            for i, band in enumerate(split)
        ],
    }


def band_columns(table, band):
    """The pair table's columns of the classes `band`, in band order."""
    return np.concatenate([np.arange(table.firsts[k],
                                     table.firsts[k] + table.sizes[k])
                           for k in band])


def table_coords(start, fold, depth, length, band):
    """The float coordinates of the pairs of the classes `band` of the
    start's pair table, in `band_columns` order: the floats of the values
    u + lambda*v reduced to lowest terms, bit-identical to their
    Shell.coords."""
    table = engine._pair_table(start, fold, depth)
    sums = start.symmetry.direction_sums(fold, depth)
    den, xa, xb, sa, sb = engine._scaled_values(start.value_table, sums,
                                                length)
    top = max(map(abs, xa + xb)) + max(map(abs, sa + sb))
    dtype = np.int64 if max(top, den) < 2 ** 62 else object
    a = np.add.outer(np.array(xa, dtype), np.array(sa, dtype)).ravel()
    b = np.add.outer(np.array(xb, dtype), np.array(sb, dtype)).ravel()
    i, j = table.pairs
    points = start.value_table[3][:, i] * len(sums.va) + sums.index[:, j]
    return engine._value_floats(a, b, den)[0].take(
        points[:, band_columns(table, band)]).T


def table_refutes(start, fold, depth, length, band):
    """Whether the representatives' rows of the classes `band`, from their
    coordinate floats, fail the gap test."""
    table = engine._pair_table(start, fold, depth)
    coords = table_coords(start, fold, depth, length, band)
    starts = np.cumsum([0] + [table.sizes[k] for k in band[:-1]])
    reps = np.concatenate([np.arange(n, n + table.n_reps[k])
                           for n, k in zip(starts, band)])
    d2 = cages._pairwise_squared(coords[reps], coords)
    d2[np.arange(len(reps)), reps] = np.inf
    return cages._gap(d2) is None


def kernel_block_refutes(table, length, band, rows=None):
    """Whether the lambda-free rows `rows`, (class, representative) pairs
    of the classes `band`, fail the gap test on the band's points with
    `_PairTable.refutes`'s allowance; by default every representative's
    row, which is the refutation without its probe row."""
    if rows is None:
        rows = [(k, r) for k in band for r in range(table.n_reps[k])]
    a, b, c = np.stack([table._rows(k)[:, r] for k, r in rows],
                       axis=1)[:, :, band_columns(table, band)]
    lam = float(length)
    return cages._gap(a + lam * (b + lam * c), engine._REFUTE_ERROR
                      * table.magnitude2(length, band)) is None
