"""The bond search's four-nearest selection (`cages._four_nearest`, four
argmin passes per chunk) against the argpartition selection it replaced
(`cage_reference.union_rows`), `cages._bond_search` against the search
built on that selection (`cage_reference.bond_search`) and against the
bond mask of its own rows (`cage_reference.bonds`), and
`cages.trivalence_threshold_search`, which probes only sets of more
than one chunk, against its probe-first form
(`cage_reference.trivalence_threshold_search`).

Each row's four values must be the reference's, sorted, byte for byte,
so `_gap`'s c2 and floor4, the cutoff and the bond mask cannot move; the
columns chosen for a row's finite values must hold them and be
distinct; and (c2, bond pairs), or None, must be the reference's bit
for bit.  The bonds read from each row's first three columns must be
the mask's, and the threshold search's graph, or None, the probe-first
search's.
"""

import functools
import math

import cage_reference
import numpy as np
import pytest

from icofold import cages
from icofold.configs import BUILTIN_NAMES, builtin
from icofold.engine import DEFAULT_SCAN_SPEC, classify_scan, make_translation
from icofold.geometry import integer_rows, mat_apply
from icofold.golden import parse_field_expr
from icofold.groups import Orbits, full_group
from icofold.onion import build_onion


def assert_selection_matches(coords, orbits=None):
    """Hold the kernel to the reference on one point set, searched from
    `orbits`' representatives when given; True when it has a gap."""
    reps = None if orbits is None else orbits.reps
    values, targets = cages._four_nearest(coords, reps)
    want_values, _ = cage_reference.union_rows(coords, reps)
    assert values.tobytes() == np.sort(want_values, axis=1).tobytes()
    assert (np.diff(values, axis=1) >= 0).all()
    for start, d2 in cages._distance_chunks(coords, reps):
        rows = slice(start, start + len(d2))
        # the columns of a row's finite values hold them and are distinct
        finite = np.isfinite(values[rows])
        picked = np.take_along_axis(d2, targets[rows], axis=1)
        assert picked[finite].tobytes() == values[rows][finite].tobytes()
        chosen = np.where(finite, targets[rows], -1 - np.arange(4))
        assert (np.diff(np.sort(chosen, axis=1), axis=1) > 0).all()
    got = cages._bond_search(coords, orbits)
    want = cage_reference.bond_search(
        coords, None if orbits is None else orbits.permutations)
    assert (got is None) == (want is None)
    if want is None:
        return False
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].dtype == want[1].dtype == np.intp
    assert got[1].tobytes() == want[1].tobytes()
    return True


def exact_orbits(start, points):
    """The points' float coordinates and their orbits under the start's
    symmetry."""
    den, rows = integer_rows(points)
    orbits = start.symmetry.orbits(den, rows)
    assert orbits is not None
    return cages.as_coords(points), orbits


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_select_as_argpartition(name):
    start = builtin(name)
    coords, orbits = exact_orbits(start, start.vertices)
    trivalent = name in ("dodecahedron", "c60", "c80")
    assert assert_selection_matches(coords) is trivalent
    assert assert_selection_matches(coords, orbits) is trivalent


@pytest.mark.parametrize("name", ["dodecahedron", "c60", "c80"])
def test_rotated_cages_select_as_argpartition(name):
    """Every I_h element applied to the cage, as the `census` benchmark
    and `verify`'s face census under rotation do."""
    vertices = builtin(name).vertices
    elements = full_group().elements
    assert len(elements) == 120
    for element in elements:
        rotated = tuple(mat_apply(element, v) for v in vertices)
        assert assert_selection_matches(cages.as_coords(rotated))


@pytest.mark.parametrize("name,expr", [("c60", "3"), ("c80", "2")])
def test_onion_members_select_as_argpartition(name, expr):
    """Members 1-3 of both onion families, searched from one row per
    orbit and from every point."""
    start = builtin(name)
    t = make_translation(start.symmetry, 5, parse_field_expr(expr))
    members = build_onion(start, t, 4).family[1:]
    assert len(members) == 3
    for member in members:
        coords, orbits = exact_orbits(start, member.points)
        assert assert_selection_matches(coords, orbits)
        assert assert_selection_matches(coords)


@functools.cache
def array_path_outer_bands(name):
    """The outer band of every row of the config's default scan that the
    threshold search is asked about (the rows that build an array), as
    its shells' float coordinates, one array per shell."""
    searched = []
    search = cages.trivalence_threshold_search

    def spy(*groups):
        searched.append(tuple(np.array(g) for g in groups))
        return search(*groups)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cages, "trivalence_threshold_search", spy)
        classify_scan(builtin(name), (2, 3, 5), DEFAULT_SCAN_SPEC)
    return tuple(searched)


# per built-in: array-path outer bands of the default scan, and how many
# of them hold a gap
ARRAY_PATH_BANDS = {
    "icosahedron": (17, 0),
    "dodecahedron": (121, 102),
    "icosidodecahedron": (30, 0),
    "c60": (172, 123),
    "c80": (71, 25),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_array_path_outer_bands_select_as_argpartition(name):
    bands = array_path_outer_bands(name)
    gaps = sum(assert_selection_matches(np.vstack(shells))
               for shells in bands)
    assert (len(bands), gaps) == ARRAY_PATH_BANDS[name]


def tetrahedra(rng, count):
    """`count` randomly turned regular tetrahedra far apart, their points
    shuffled."""
    tet = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
                   dtype=float)
    sets = []
    for k in range(count):
        turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        sets.append(tet @ turn + (10.0 * k, 0.0, 0.0))
    return rng.permutation(np.vstack(sets))


def with_inverse(coords):
    """The points moved off the origin and joined by their images through
    it, and the orbits of that inversion: row i and row i + m swap.
    Negation is exact, so every distance holds its bits in the image."""
    half = coords + (1000.0, 0.0, 0.0)
    m = len(half)
    swap = np.concatenate([np.arange(m, 2 * m), np.arange(m)])
    return np.vstack([half, -half]), Orbits(swap[None, :])


def chunk_boundary_sets(n):
    """Random points, tetrahedra, and coincident copies rolled so that
    one group of four copies straddles every 64-row boundary (its bonds
    sit at cutoff 0 among entries that tie), drawn from seed n."""
    rng = np.random.default_rng(n)
    copies = np.roll(np.repeat(rng.normal(size=(n // 4 + 1, 3)), 4, axis=0),
                     2, axis=0)
    return rng.normal(size=(n, 3)), tetrahedra(rng, n // 4), copies


# set sizes around the 64-row chunk boundaries (65 points: 64 + 1 rows;
# 128: 64 + 64; 129: three chunks; 200: four)
CHUNK_BOUNDARY_SIZES = [63, 64, 65, 90, 91, 128, 129, 200]


def chunks_of(coords, rows=None):
    """The number of rows of each chunk the search takes."""
    return [len(d2) for _, d2 in cages._distance_chunks(coords, rows)]


def test_chunks_span_the_boundary_sizes():
    assert cages._CHUNK_ROWS == 64
    spans = {n: chunks_of(np.zeros((n, 3))) for n in CHUNK_BOUNDARY_SIZES}
    assert spans == {63: [63], 64: [64], 65: [64, 1], 90: [64, 26],
                     91: [64, 27], 128: [64, 64], 129: [64, 64, 1],
                     200: [64, 64, 64, 8]}
    # one row per orbit of the inversion: the chunks follow the points
    assert chunks_of(np.zeros((126, 3)), np.arange(63)) == [63]
    assert chunks_of(np.zeros((180, 3)), np.arange(90)) == [64, 26]


@pytest.mark.parametrize("n", CHUNK_BOUNDARY_SIZES)
def test_sets_across_chunks_select_as_argpartition(n):
    """Every point its own representative, and one representative per
    orbit of the inversion, against the reference's 64-row chunks."""
    assert cages._CHUNK_ROWS == 64
    found = []
    for coords in chunk_boundary_sets(n):
        found.append(assert_selection_matches(coords))
        doubled, orbits = with_inverse(coords)
        assert assert_selection_matches(doubled, orbits) is found[-1]
    assert found == [False, True, True]


def assert_column_bonds_match_the_mask(coords, orbits=None):
    """`_bond_search`'s c2 and bonds, read from the columns of its
    ascending rows, against `cage_reference.bonds`' mask on the same
    `_four_nearest` rows; True when they have a gap."""
    reps = None if orbits is None else orbits.reps
    values, targets = cages._four_nearest(coords, reps)
    want = cage_reference.bonds(values)
    got = cages._bond_search(coords, orbits)
    assert (got is None) == (want is None)
    if want is None:
        return False
    c2, mask = want
    # the entries within the cutoff are each row's first three
    assert mask[:, :3].all() and not mask[:, 3].any()
    neighbors = targets[mask].reshape(-1, 3)
    if orbits is not None:
        neighbors = orbits.carry(neighbors)
    n = len(coords)
    pairs = cages._edges(np.repeat(np.arange(n), 3), neighbors.ravel(), n)
    assert np.float64(got[0]).tobytes() == np.float64(c2).tobytes()
    assert got[1].tobytes() == pairs.tobytes()
    return True


@pytest.mark.parametrize("n", CHUNK_BOUNDARY_SIZES)
def test_column_bonds_match_the_mask_across_chunks(n):
    """Every point its own representative, and one representative per
    orbit of the inversion, as many as the set has points."""
    for coords, found in zip(chunk_boundary_sets(n), (False, True, True)):
        assert assert_column_bonds_match_the_mask(coords) is found
        doubled, orbits = with_inverse(coords)
        assert np.array_equal(orbits.reps, np.arange(len(coords)))
        assert assert_column_bonds_match_the_mask(doubled, orbits) is found


def test_four_points_select_as_argpartition():
    """A regular tetrahedron: each row's fourth value is `inf`, where
    only its own distance is left."""
    tet = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
                   dtype=float)
    values, _ = cages._four_nearest(tet)
    assert np.isinf(values[:, 3]).all()
    assert assert_selection_matches(tet)


def test_ties_select_as_argpartition():
    """The octahedron's third and fourth nearest tie, so neither selection
    finds a gap; the cube's fourth to sixth nearest tie beyond its gap, so
    either choice among them leaves the same bonds."""
    axes = np.vstack([np.eye(3), -np.eye(3)])
    assert assert_selection_matches(axes) is False
    cube = np.array([(x, y, z) for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                     for z in (-1.0, 1.0)])
    assert assert_selection_matches(cube) is True
    assert math.isclose(cages._bond_search(cube)[0], 4.0)


def assert_search_matches_probe_first(*groups):
    """The threshold search against the probe-first reference on the
    same groups: the same bond pairs and cutoff bit for bit, or None
    from both; True when they find a graph."""
    got = cages.trivalence_threshold_search(*groups)
    want = cage_reference.trivalence_threshold_search(*groups)
    assert (got is None) == (want is None)
    if want is None:
        return False
    assert got.pairs.tobytes() == want.pairs.tobytes()
    assert got.cutoff.hex() == want.cutoff.hex()
    return True


@pytest.mark.parametrize("name", ["dodecahedron", "c60", "c80"])
def test_rotated_cages_search_as_probe_first(name):
    """All 120 I_h images of each small cage, the `census` benchmark's
    and `verify`'s face census under rotation cases."""
    vertices = builtin(name).vertices
    for element in full_group().elements:
        rotated = tuple(mat_apply(element, v) for v in vertices)
        assert assert_search_matches_probe_first(rotated)


# per built-in: default-scan outer bands of at most one chunk of points,
# and how many of them hold a trivalent graph
SMALL_OUTER_BANDS = {
    "icosahedron": (11, 0),
    "dodecahedron": (6, 0),
    "icosidodecahedron": (0, 0),
    "c60": (0, 0),
    "c80": (0, 0),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_small_outer_bands_search_as_probe_first(name):
    """Each band's shells as separate groups, as the scan passes them."""
    bands = [shells for shells in array_path_outer_bands(name)
             if sum(map(len, shells)) <= cages._CHUNK_ROWS]
    found = sum(assert_search_matches_probe_first(*shells)
                for shells in bands)
    assert (len(bands), found) == SMALL_OUTER_BANDS[name]


def test_small_sets_search_as_probe_first():
    """Two tetrahedra far apart hold a graph; the icosahedron and the
    icosidodecahedron (four and two nearest neighbours) fail the gap."""
    rng = np.random.default_rng(8)
    assert assert_search_matches_probe_first(tetrahedra(rng, 2))
    for name in ("icosahedron", "icosidodecahedron"):
        assert not assert_search_matches_probe_first(builtin(name).vertices)


def test_random_sets_search_as_probe_first():
    """Seeded random sets of 4 to 65 points, each also split into up to
    four groups at random places, so that several first points probe."""
    rng = np.random.default_rng(33)
    found = []
    for n in range(4, 66):
        coords = rng.normal(size=(n, 3))
        cuts = np.sort(rng.integers(0, n, size=rng.integers(0, 4)))
        found.append(assert_search_matches_probe_first(coords))
        found.append(assert_search_matches_probe_first(
            *np.split(coords, cuts)))
    # only the four-point sets, each row's three others, hold a gap
    assert found[:2] == [True, True] and sum(found) == 2
