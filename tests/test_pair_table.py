"""Scan rows from the start's pair table against rows from the array.

`engine.classify_length(..., with_cage=False)` answers from the start's
pair table (`engine._PairTable`) unless two points of the array can meet
or the outer band's representatives hold a gap.  These tests hold its
rows to `kernel_reference.array_row`, dict for dict and byte for byte,
pin how many rows fall back to the array and why, and check the table's
two exact tests (class coincidence lengths, two classes on one shell)
against a reference that compares every pair orbit's representative
with every pair.  The band refutation from lambda-free coefficients is
held to the coordinate-float refutation it replaced
(`kernel_reference.table_refutes`), and its floats to the error bound
`_PairTable.refutes` states, checked exactly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import kernel_reference as ref
from icofold import cages, engine
from icofold.cages import PointBudgetError
from icofold.configs import BUILTIN_NAMES, StartConfig, builtin
from icofold.engine import (DEFAULT_SCAN_SPEC, classify_length,
                            make_translation)
from icofold.export import canonical_json
from icofold.golden import (_TAU_FLOAT, GoldenNumber, _gsigns,
                            parse_field_expr)
from icofold.groups import Orbits, rotation_group


def scan_lengths(start):
    return DEFAULT_SCAN_SPEC.lengths(2 * math.sqrt(float(start.radius2)))


def spy_on_arrays(monkeypatch):
    """A list of the (fold, length) of each array the engine generates."""
    calls = []
    real = engine.generate_array

    def spy(start, translation, depth):
        calls.append((translation.fold, translation.length))
        return real(start, translation, depth)

    monkeypatch.setattr(engine, "generate_array", spy)
    return calls


def outcome(make_row, *args):
    """The row, or the message of the PointBudgetError that refused it."""
    try:
        return make_row(*args)
    except PointBudgetError as exc:
        return str(exc)


def table_row(start, t, depth=1):
    return classify_length(start, t, depth, with_cage=False)


def assert_rows_match(start, group, lengths, depth=1):
    """Each fold's row of each length equals the array's, or both are
    refused with one message; returns the number refused."""
    refused = 0
    for fold in (2, 3, 5):
        for length in lengths:
            t = make_translation(group, fold, length)
            got = outcome(table_row, start, t, depth)
            want = outcome(ref.array_row, start, t, depth)
            assert got == want, (fold, str(length))
            if isinstance(got, str):
                refused += 1
            else:
                assert canonical_json(got) == canonical_json(want)
    return refused


# --- every default scan row against the array ----------------------------

# Why a default-scan row takes the array path: (a class coincidence
# length, two classes on one shell, an outer band whose representatives
# hold the gap).
ARRAY_ROWS = {
    "icosahedron": (13, 4, 0),
    "dodecahedron": (17, 4, 100),
    "icosidodecahedron": (25, 5, 0),
    "c60": (48, 6, 118),
    "c80": (32, 14, 25),
}


def why_array(start, fold, length):
    table = engine._pair_table(start, fold, 1)
    if length.key() in table.coincidences:
        return 0
    return 1 if table.shells(length) is None else 2


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_table_rows_equal_array_rows_on_the_default_scan(name, monkeypatch):
    start = builtin(name)
    calls = spy_on_arrays(monkeypatch)
    assert assert_rows_match(start, start.symmetry, scan_lengths(start)) == 0
    reasons = [0, 0, 0]
    for fold, length in calls:
        reasons[why_array(start, fold, length)] += 1
    assert tuple(reasons) == ARRAY_ROWS[name]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_depth_2_sample_matches_the_array(name):
    start = builtin(name)
    refused = assert_rows_match(start, start.symmetry,
                                scan_lengths(start)[::60], depth=2)
    # outer bands past the search cap are refused with the same message
    assert refused > 0


def test_point_cap_refuses_before_the_table_is_built(monkeypatch):
    start = builtin("c80")
    monkeypatch.setattr(engine, "DEFAULT_POINT_CAP", 80 * 31 - 1)
    t = make_translation(start.symmetry, 2, GoldenNumber(1))
    message = outcome(table_row, start, t)
    assert message == "2480 candidate points exceed the cap of 2479"
    assert outcome(ref.array_row, start, t) == message
    assert start._pair_tables == {}


def test_rotation_group_translation_takes_the_array(monkeypatch):
    start = builtin("icosidodecahedron")
    calls = spy_on_arrays(monkeypatch)
    lengths = scan_lengths(start)[::20]
    assert assert_rows_match(start, rotation_group(), lengths) == 0
    assert len(calls) == 3 * len(lengths) and start._pair_tables == {}


def test_negative_coincidence_lengths_take_the_array(monkeypatch):
    """An AffineTranslation may carry a negative length.  At -L, L a
    coincidence length of an I_h start, the mirrored pairs meet; the
    table holds positive lengths only, so those rows take the array."""
    start = builtin("icosidodecahedron")
    calls = spy_on_arrays(monkeypatch)
    rows = 0
    for fold in (2, 3, 5):
        for key in sorted(engine._pair_table(start, fold, 1).coincidences):
            t = engine.AffineTranslation(fold, -GoldenNumber._make(*key),
                                         start.symmetry)
            row = table_row(start, t)
            assert row == ref.array_row(start, t) and row["nontrivial"]
            assert canonical_json(row) == canonical_json(
                ref.array_row(start, t))
            rows += 1
    assert rows > 0 and len(calls) == rows


# array-path rows of the scaled lengths in the sample below
SCALED_ARRAY_ROWS = {"icosidodecahedron": 0, "c60": 8}


@pytest.mark.parametrize("name", ["icosidodecahedron", "c60"])
def test_python_int_starts_match_the_array(name, monkeypatch):
    """A start scaled past int64 puts the table's radii, coincidence
    tests and band coefficients in Python ints; its coincidence lengths
    are the unscaled start's times the scale.

    At the scaled lengths, as many rows take the array path as when the
    table refuted bands from coordinate floats.  At the unscaled lengths
    the points lie about 10^20 from the centre, where the array's
    coordinate floats are about 10^4 apart and cannot resolve a
    translation of size 1: no error bound lets a float refute such a
    band, so every one of those rows takes the array path."""
    base = builtin(name)
    k = GoldenNumber(Fraction(2 ** 70 + 3, 11), Fraction(5 ** 30, 13))
    start = StartConfig(name, [v.scale(k) for v in base.vertices],
                        base.symmetry)
    assert start.integer_rows[1].dtype == object
    lengths = scan_lengths(base)[::17]
    calls = spy_on_arrays(monkeypatch)
    scaled = [k * length for length in lengths]
    assert assert_rows_match(start, start.symmetry, lengths + scaled) == 0
    keys = {length.key() for length in scaled}
    assert sum(length.key() in keys for _, length in calls) == \
        SCALED_ARRAY_ROWS[name]
    assert len(calls) - SCALED_ARRAY_ROWS[name] == 3 * len(lengths)
    for fold in (2, 3, 5):
        scaled = engine._pair_table(start, fold, 1).coincidences
        assert scaled == {(k * GoldenNumber._make(*key)).key()
                          for key in engine._pair_table(base, fold,
                                                        1).coincidences}


# --- the two exact tests against every pair ------------------------------

def golden(a, b, den=1):
    return GoldenNumber(Fraction(a, den), Fraction(b, den))


def golden_products(a, b, c, d):
    return a * c + b * d, a * d + b * c + b * d


def meeting_lengths(start, fold):
    """Every lambda > 0 at which a representative x_a + lambda*s_b of the
    pair orbits meets any pair x_i + lambda*s_j: u = x_a - x_i and
    v = s_j - s_b have a zero cross product, and lambda is u.v / v.v."""
    group = start.symmetry
    dx, x = start.integer_rows
    sums = group.direction_sums(fold, 1)
    ds, s = sums.den, sums.rows
    xp = group.orbits(dx, x).permutations
    sp = group.orbits(ds, s).permutations
    reps = Orbits((xp[:, :, None] * len(s) + sp[:, None]).reshape(
        len(xp), -1)).reps
    a, b = np.divmod(reps, len(s))
    i, j = np.divmod(np.arange(len(x) * len(s)), len(s))
    u = (x[a][:, None] - x[i][None]).reshape(-1, 3, 2)
    v = (s[j][None] - s[b][:, None]).reshape(-1, 3, 2)
    cross = [np.subtract(golden_products(*u[:, c].T, *v[:, d].T),
                         golden_products(*u[:, d].T, *v[:, c].T))
             for c, d in ((1, 2), (2, 0), (0, 1))]
    meet = (np.all([(w == 0).all(axis=0) for w in cross], axis=0)
            & u.any(axis=(1, 2)) & v.any(axis=(1, 2)))
    found = set()
    for uh, vh in zip(u[meet].tolist(), v[meet].tolist()):
        dot_uv = sum(golden_products(*p, *q)[0] for p, q in zip(uh, vh))
        dot_uv_tau = sum(golden_products(*p, *q)[1] for p, q in zip(uh, vh))
        dot_vv = sum(golden_products(*q, *q)[0] for q in vh)
        dot_vv_tau = sum(golden_products(*q, *q)[1] for q in vh)
        length = (golden(dot_uv * ds, dot_uv_tau * ds, dx)
                  / golden(dot_vv, dot_vv_tau))
        if length.sign() > 0:
            found.add(length.key())
    return found


# built-ins with a default-scan length where two pairs of different
# classes meet while no class has a coincidence length
SHELL_TEST_ONLY = {"icosahedron": 1, "dodecahedron": 1}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_coincidence_lengths_are_exactly_the_nontrivial_rows(name):
    start = builtin(name)
    shell_only = 0
    for fold in (2, 3, 5):
        table = engine._pair_table(start, fold, 1)
        meets = meeting_lengths(start, fold)
        assert table.coincidences <= meets
        for length in scan_lengths(start):
            row = table_row(start, make_translation(start.symmetry, fold,
                                                    length))
            coincident = length.key() in table.coincidences
            shared = table.shells(length) is None
            assert row["nontrivial"] == (length.key() in meets)
            if coincident:
                assert row["nontrivial"]
            if row["nontrivial"]:
                assert coincident or shared
            if length.key() in meets and not coincident:
                assert shared
                shell_only += 1
    assert shell_only == SHELL_TEST_ONLY.get(name, 0)


def test_coincidence_of_c60_fold_5_length_3():
    """The c60 fold-5 extension by 3 is a coincidence length, so its row
    is read off the array."""
    start = builtin("c60")
    table = engine._pair_table(start, 5, 1)
    assert parse_field_expr("3").key() in table.coincidences


@pytest.mark.parametrize("name,scale", [("icosidodecahedron", "1"),
                                        ("dodecahedron", "1"),
                                        ("c60", "(2^70+3)/11+tau^40")])
def test_band_floats_are_the_shells_floats(name, scale):
    """The reference's band floats from the table's pairs equal its
    shells' coords bit for bit, as a set of rows, in int64 and in Python
    ints, so `kernel_reference.table_refutes` decides on the array's own
    floats."""
    base, k = builtin(name), parse_field_expr(scale)
    start = StartConfig(name, [v.scale(k) for v in base.vertices],
                        base.symmetry)
    for fold in (2, 3, 5):
        table = engine._pair_table(start, fold, 1)
        for length in scan_lengths(base)[::9]:
            length = k * length
            shells = table.shells(length)
            if length.key() in table.coincidences or shells is None:
                continue
            order, radii = shells
            band = order[[0, *engine._band_ends(radii)][-2]:]
            array = engine.generate_array(
                start, make_translation(start.symmetry, fold, length), 1)
            split = engine.bands(array)
            want = np.vstack([shell.coords for shell in split[-1].shells])
            got = ref.table_coords(start, fold, 1, length, band)
            assert got.shape == want.shape
            assert np.array_equal(got[np.lexsort(got.T)],
                                  want[np.lexsort(want.T)])


# --- the band refutation from lambda-free coefficients -------------------

def table_path_bands(start, fold, depth, lengths):
    """(length, outer band) of every row the table decides by `refutes`:
    no coincidence, no shared shell, four points or more in the outer
    band and within the search cap."""
    table = engine._pair_table(start, fold, depth)
    for length in lengths:
        shells = table.shells(length)
        if length.key() in table.coincidences or shells is None:
            continue
        order, radii = shells
        band = order[[0, *engine._band_ends(radii)][-2]:]
        count = int(table.sizes[band].sum())
        if count >= 4 and 32 * count * count <= cages._PAIR_BYTES_CAP:
            yield length, band


def probe_refutes(table, length, band):
    """Whether the probe row of `refutes`, the first representative of
    the band's outermost class, refutes the band on its own."""
    return ref.kernel_block_refutes(table, length, band, [(band[-1], 0)])


def assert_probe_is_a_shortcut(table, length, band):
    """The probe refutes only bands the full block refutes, and `refutes`
    answers as the full block, reading the outermost class's block alone
    when the probe refutes and then every class's of the band; returns
    (refutes, probe)."""
    reads = []
    real = table._rows
    table._rows = lambda k: reads.append(k) or real(k)
    try:
        got = table.refutes(length, band)
    finally:
        del table._rows
    full = ref.kernel_block_refutes(table, length, band)
    probe = probe_refutes(table, length, band)
    assert got == full and (full or not probe), str(length)
    assert reads == [band[-1]] + ([] if probe else list(band))
    return got, probe


def assert_refutes_as_the_reference(start, depth, lengths):
    """The kernel refutes exactly the bands the coordinate floats refute,
    and its probe row only bands its full block refutes; returns how many
    bands it decided, how many it refuted and how many of those the probe
    settled."""
    decided = refuted = probed = 0
    for fold in (2, 3, 5):
        table = engine._pair_table(start, fold, depth)
        for length, band in table_path_bands(start, fold, depth, lengths):
            got, probe = assert_probe_is_a_shortcut(table, length, band)
            assert got == ref.table_refutes(start, fold, depth, length,
                                            band), (fold, str(length))
            decided += 1
            refuted += got
            probed += probe
    return decided, refuted, probed


# rows of the depth-2 sample decided by `refutes`; no row of the c60 and
# c80 samples gets that far
DEPTH_2_DECIDED = {"icosahedron": 10, "dodecahedron": 6,
                   "icosidodecahedron": 4, "c60": 0, "c80": 0}

# (bands the probe row settles, bands refuted) on each default scan
PROBE_SETTLES = {"icosahedron": (810, 946), "dodecahedron": (513, 803),
                 "icosidodecahedron": (772, 864), "c60": (531, 1031),
                 "c80": (549, 1177)}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_kernel_refutes_the_bands_the_coordinates_refute(name):
    start = builtin(name)
    _, refuted, probed = assert_refutes_as_the_reference(
        start, 1, scan_lengths(start))
    assert (probed, refuted) == PROBE_SETTLES[name]
    assert assert_refutes_as_the_reference(
        start, 2, scan_lengths(start)[::60])[0] == DEPTH_2_DECIDED[name]


@pytest.mark.parametrize("name", ["icosidodecahedron", "c60"])
def test_kernel_never_refutes_what_the_coordinates_hold(name):
    """On a start scaled past int64 the kernel may leave a band to the
    array that the coordinate floats refute, never the other way.  At
    the unscaled lengths only the allowance keeps the probe row from
    refuting bands the array holds."""
    base = builtin(name)
    k = GoldenNumber(Fraction(2 ** 70 + 3, 11), Fraction(5 ** 30, 13))
    start = StartConfig(name, [v.scale(k) for v in base.vertices],
                        base.symmetry)
    lengths = scan_lengths(base)[::17]
    for fold in (2, 3, 5):
        table = engine._pair_table(start, fold, 1)
        for length, band in table_path_bands(
                start, fold, 1, lengths + [k * x for x in lengths]):
            if assert_probe_is_a_shortcut(table, length, band)[0]:
                assert ref.table_refutes(start, fold, 1, length, band)


def test_full_block_is_gathered_only_where_the_probe_holds(monkeypatch):
    """On the default icosidodecahedron scan `refutes` reads one block
    for the 772 bands its probe row refutes, and gathers every class's
    block of the band only for the 92 others."""
    start = builtin("icosidodecahedron")
    table_class = engine._PairTable
    real_rows, real_refutes = table_class._rows, table_class.refutes
    reads, gathered, settled = [], [], []

    def rows(self, k):
        reads[-1] += 1
        return real_rows(self, k)

    def refutes(self, length, band):
        reads.append(0)
        got = real_refutes(self, length, band)
        n = reads[-1]
        assert n == 1 or n == 1 + len(band)
        (settled if n == 1 else gathered).append(
            probe_refutes(self, length, band))
        return got

    monkeypatch.setattr(table_class, "_rows", rows)
    monkeypatch.setattr(table_class, "refutes", refutes)
    for fold in (2, 3, 5):
        for length in scan_lengths(start):
            table_row(start, make_translation(start.symmetry, fold, length))
    assert len(settled) == 772 and all(settled)
    assert len(gathered) == 92 and not any(gathered)


U = 2.0 ** -53
# first-order error bounds of a squared distance, in u*W
# (`_PairTable.refutes`): evaluated from the coefficient floats, and taken
# from the array's coordinate floats
KERNEL_ULPS, ARRAY_ULPS = 22, 17


def assert_within(floats, bounds, a, b, den):
    """Every float lies within its bound of its exact value
    (a + b*tau)/den, decided by exact golden signs: with every float and
    bound times 2^k an integer, den*(f -/+ bound)*2^k lies below/above
    (a + b*tau)*2^k."""
    ratios = [v.as_integer_ratio()
              for v in np.concatenate([floats, bounds]).tolist()]
    scale = max(d for _, d in ratios)
    f, e = (np.array([n * (scale // d) for n, d in half], dtype=object)
            for half in (ratios[:len(floats)], ratios[len(floats):]))
    a, b = a * scale, b * scale
    assert (_gsigns(a - den * (f - e), b) >= 0).all()
    assert (_gsigns(den * (f + e) - a, -b) >= 0).all()


def magnitude(a, b, den):
    return np.asarray((abs(a) + abs(b) * _TAU_FLOAT) / den, dtype=float)


def exact_coefficients(start, fold, rows, columns):
    """((A0, A1), (B0, B1), (C0, C1)): the exact A = (A0 + A1*tau)/dx^2,
    B = 2(B0 + B1*tau)/(dx*ds) and C = (C0 + C1*tau)/ds^2 between the
    pairs `rows` and `columns` of the table, as (rows, columns) arrays."""
    table = engine._pair_table(start, fold, 1)
    x = start.integer_rows[1].astype(object)
    s = start.symmetry.direction_sums(fold, 1).rows.astype(object)
    i, j = table.pairs
    u = x[i[rows]][:, None] - x[i[columns]][None]
    v = s[j[rows]][:, None] - s[j[columns]][None]
    return [tuple(sum(golden_products(p[..., 2 * c], p[..., 2 * c + 1],
                                      q[..., 2 * c], q[..., 2 * c + 1])[k]
                      for c in range(3)) for k in (0, 1))
            for p, q in ((u, u), (u, v), (v, v))]


def assert_floats_within_the_bound(start, fold, length, band):
    """Between the band's representatives and its points: the coefficient
    floats lie within 6u*m of their values, and every squared distance,
    evaluated from them or taken from the array's coordinate floats by
    `cages._pairwise_squared`, within 22u*W or 17u*W of it, W <= 4R^2
    (`_PairTable.refutes`)."""
    table = engine._pair_table(start, fold, 1)
    dx, ds = table.dx, table.ds
    columns = ref.band_columns(table, band)
    rows = np.concatenate([table.firsts[k] + np.arange(table.n_reps[k])
                           for k in band])
    a, b, c = np.concatenate([table._rows(k) for k in band],
                             axis=1)[:, :, columns]
    (a0, a1), (b0, b1), (c0, c1) = exact_coefficients(start, fold, rows,
                                                      columns)
    other = rows[:, None] != columns
    for block, k0, k1, den in [(a, a0, a1, dx * dx),
                               (b, 2 * b0, 2 * b1, dx * ds),
                               (c, c0, c1, ds * ds)]:
        k0, k1 = k0[other], k1[other]
        bound = 6 * U * magnitude(k0, k1, den) * (1 + 2 ** -40)
        assert_within(block[other], bound, k0, k1, den)
    # d^2 * (e*dx*ds)^2 = A*(e*ds)^2 + 2*(p + q*tau)*e*dx*ds*(B0 + B1*tau)
    #                     + (p + q*tau)^2*dx^2*C
    p, q, e = length.an, length.bn, length.den
    lb = golden_products(p, q, b0, b1)
    l2c = golden_products(*golden_products(p, q, p, q), c0, c1)
    d0, d1 = ((t0 * (e * ds) ** 2 + 2 * e * dx * ds * t1
               + dx * dx * t2)[other]
              for t0, t1, t2 in zip((a0, a1), lb, l2c))
    # W from the magnitudes m(x_c) + m(lambda)*m(s_c) of both points
    x = start.integer_rows[1].astype(object)
    s = start.symmetry.direction_sums(fold, 1).rows.astype(object)
    i, j = table.pairs
    m = float(magnitude(p, q, e))
    sizes = (magnitude(x[:, 0::2], x[:, 1::2], dx)[i]
             + m * magnitude(s[:, 0::2], s[:, 1::2], ds)[j])
    w = np.square(sizes[rows][:, None] + sizes[columns]).sum(axis=2)[other]
    lam = float(length)
    kernel = (a + lam * (b + lam * c))[other]
    big = (e * dx * ds) ** 2
    assert_within(kernel, KERNEL_ULPS * U * w * (1 + 2 ** -40), d0, d1, big)
    coords = ref.table_coords(start, fold, 1, length, band)
    where = np.empty(table.n_pairs, dtype=np.intp)
    where[columns] = np.arange(len(columns))
    floats = cages._pairwise_squared(coords[where[rows]], coords)[other]
    assert_within(floats, ARRAY_ULPS * U * w * (1 + 2 ** -40), d0, d1, big)
    assert w.max() <= 4 * table.magnitude2(length, band) * (1 + 2 ** -40)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_kernel_floats_lie_within_the_stated_bound(name):
    start = builtin(name)
    checked = 0
    for fold in (2, 3, 5):
        for length, band in table_path_bands(start, fold, 1,
                                             scan_lengths(start)[::150]):
            assert_floats_within_the_bound(start, fold, length, band)
            checked += 1
    assert checked >= 6


@pytest.mark.parametrize("name", ["icosidodecahedron", "c60"])
def test_kernel_floats_lie_within_the_bound_past_int64(name):
    base = builtin(name)
    k = GoldenNumber(Fraction(2 ** 70 + 3, 11), Fraction(5 ** 30, 13))
    start = StartConfig(name, [v.scale(k) for v in base.vertices],
                        base.symmetry)
    lengths = scan_lengths(base)[::250]
    checked = 0
    for fold in (2, 3, 5):
        assert engine._pair_table(start, fold, 1)._x.dtype == object
        for length, band in table_path_bands(
                start, fold, 1, lengths + [k * x for x in lengths]):
            assert_floats_within_the_bound(start, fold, length, band)
            checked += 1
    assert checked >= 8


def test_refute_error_covers_both_entry_bounds():
    """The allowance covers twice the two entries' distance, taken one u
    above each first-order bound, with W <= 4R^2, plus the gap test's
    own rounding of entries up to 4R^2."""
    entries = 4 * (KERNEL_ULPS + 1 + ARRAY_ULPS + 1) * U
    assert engine._REFUTE_ERROR >= (2 + cages._RESOLUTION) * entries + 8 * U


def test_a_bound_too_large_sends_every_row_to_the_array(monkeypatch):
    """With the refutation's error bound far too large nothing is
    refuted from the table, and every row takes the array path with the
    same bytes."""
    start = builtin("icosidodecahedron")
    monkeypatch.setattr(engine, "_REFUTE_ERROR", 1.0)
    calls = spy_on_arrays(monkeypatch)
    lengths = scan_lengths(start)
    assert assert_rows_match(start, start.symmetry, lengths) == 0
    assert len(calls) == 3 * len(lengths)
