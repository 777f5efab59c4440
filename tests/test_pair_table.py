"""Scan rows from the start's pair table against rows from the array.

`engine.classify_length(..., with_cage=False)` answers from the start's
pair table (`engine._PairTable`) unless two points of the array can meet
or the outer band's representatives hold a gap.  These tests hold its
rows to `kernel_reference.array_row`, dict for dict and byte for byte,
pin how many rows fall back to the array and why, and check the table's
two exact tests (class coincidence lengths, two classes on one shell)
against a reference that compares every pair orbit's representative
with every pair.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import kernel_reference as ref
from icofold import engine
from icofold.cages import PointBudgetError
from icofold.configs import BUILTIN_NAMES, StartConfig, builtin
from icofold.engine import (DEFAULT_SCAN_SPEC, classify_length,
                            make_translation)
from icofold.export import canonical_json
from icofold.golden import GoldenNumber, parse_field_expr
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


@pytest.mark.parametrize("name", ["icosidodecahedron", "c60"])
def test_python_int_starts_match_the_array(name, monkeypatch):
    """A start scaled past int64 puts the table's radii, coincidence
    tests and band floats in Python ints; its coincidence lengths are the
    unscaled start's times the scale."""
    base = builtin(name)
    k = GoldenNumber(Fraction(2 ** 70 + 3, 11), Fraction(5 ** 30, 13))
    start = StartConfig(name, [v.scale(k) for v in base.vertices],
                        base.symmetry)
    assert start.integer_rows[1].dtype == object
    lengths = scan_lengths(base)[::17]
    calls = spy_on_arrays(monkeypatch)
    assert assert_rows_match(start, start.symmetry,
                             lengths + [k * length for length in lengths]) == 0
    assert len(calls) < len(lengths)
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
    """The outer band's floats from the table equal its shells' coords
    bit for bit, as a set of rows, in int64 and in Python ints."""
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
            got = table.coords(length, band)
            assert got.shape == want.shape
            assert np.array_equal(got[np.lexsort(got.T)],
                                  want[np.lexsort(want.T)])
