"""Bond-graph thresholds, face tracing, and cage detection."""

import functools
import math
import tracemalloc
from itertools import combinations, compress

import cage_reference
import numpy as np
import pytest
from face_reference import (across_reference, adjacency,
                            contact_signature_reference,
                            counts_reference, directed_edges,
                            export_off_reference, face_census_reference,
                            tangent_order_reference)
from kernel_reference import row_shells

from icofold import cages
from icofold.cages import (
    EulerError,
    detect_cage,
    face_census,
    kustov_allowable,
    pentagon_contact_signature,
    similar_up_to_scale,
    trivalence_threshold_search,
)
from icofold.configs import BUILTIN_NAMES, StartConfig, builtin
from icofold.engine import (DEFAULT_SCAN_SPEC, Shell, bands, classify_scan,
                            generate_array, make_translation, outer_cage)
from icofold.export import export_off
from icofold.geometry import integer_rows, mat_apply
from icofold.golden import parse_field_expr
from icofold.groups import Orbits, full_group
from icofold.onion import build_onion


def coords_of(points):
    return np.array([p.as_floats() for p in points], dtype=float)


def cage_of(name):
    graph = trivalence_threshold_search(builtin(name).vertices)
    assert graph is not None, f"{name} should bond trivalently"
    return graph


def array_cage(name, fold, expr, depth=1):
    start = builtin(name)
    t = make_translation(start.symmetry, fold, parse_field_expr(expr))
    return outer_cage(generate_array(start, t, depth))


def two_tetrahedra():
    tet = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
                   dtype=float)
    return np.vstack([tet + (0, 0, 10.0), tet - (0, 0, 10.0)])


# --- trivalence_threshold_search ---------------------------------------

def test_c60_threshold_search():
    graph = cage_of("c60")
    assert graph.vertex_count == 60
    assert graph.edge_count == 90
    assert graph.trivalent
    values, counts = np.unique(graph.degrees, return_counts=True)
    assert dict(zip(values.tolist(), counts.tolist())) == {3: 60}
    # every bond of the built-in c60 has exact length 2
    assert graph.cutoff == pytest.approx(2.0, rel=1e-12)
    assert graph.edge_min == pytest.approx(2.0, rel=1e-12)
    assert graph.edge_max == pytest.approx(2.0, rel=1e-12)
    assert graph.edge_ratio == pytest.approx(1.0, rel=1e-12)


def test_dodecahedron_threshold_search():
    graph = cage_of("dodecahedron")
    assert graph.vertex_count == 20
    assert graph.edge_count == 30
    assert graph.trivalent
    assert graph.edge_ratio == pytest.approx(1.0, rel=1e-12)


def test_icosahedron_has_no_trivalent_cutoff():
    # five equidistant neighbors per vertex: degree jumps 0 -> 5
    assert trivalence_threshold_search(builtin("icosahedron").vertices) is None


@pytest.mark.parametrize("name", ["c60", "dodecahedron", "c80"])
def test_threshold_contract_against_distance_matrix(name):
    """Independent check: the cutoff is the largest third-nearest distance,
    the edge set is exactly the pairs within it, and no smaller cutoff
    gives every vertex three neighbors."""
    points = builtin(name).vertices
    graph = trivalence_threshold_search(points)
    coords = coords_of(points)
    d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)

    third = np.sort(d, axis=1)[:, 2]
    assert graph.cutoff == pytest.approx(float(third.max()), rel=1e-12)

    at_cutoff = d <= graph.cutoff * (1 + 1e-9)
    assert (at_cutoff.sum(axis=1) == 3).all()
    expected_pairs = {
        (i, j) for i, j in np.argwhere(np.triu(at_cutoff, k=1))
    }
    assert set(graph.edges) == expected_pairs

    below = d <= graph.cutoff * (1 - 1e-9)
    assert below.sum(axis=1).min() < 3


def test_tiny_sets_return_none():
    assert trivalence_threshold_search(np.zeros((3, 3))) is None


# --- face_census --------------------------------------------------------

def test_c60_face_census():
    graph = cage_of("c60")
    census = face_census(graph)
    assert census.counts == {5: 12, 6: 20}
    assert census.pentagons == 12
    assert census.hexagons == 20
    assert census.other_count == 0
    assert len(census.faces) == 32  # V - E + F = 60 - 90 + 32 = 2
    # every directed edge is used once, every bond borders two faces
    assert sum(len(f) for f in census.faces) == 2 * graph.edge_count
    border = {}
    for face in census.faces:
        for i in range(len(face)):
            edge = tuple(sorted((face[i], face[(i + 1) % len(face)])))
            border[edge] = border.get(edge, 0) + 1
    assert border == {edge: 2 for edge in graph.edges}


def test_c240_face_census():
    finding = array_cage("c60", 5, "3")
    assert finding.vertex_count == 240
    assert finding.census.counts == {5: 12, 6: 110}
    assert finding.dropped_index is None


def test_c80_face_census():
    graph = cage_of("c80")
    assert (graph.vertex_count, graph.edge_count) == (80, 120)
    assert face_census(graph).counts == {5: 12, 6: 30}


def test_disconnected_shells_fail_euler():
    graph = trivalence_threshold_search(two_tetrahedra())
    assert graph is not None and graph.trivalent
    with pytest.raises(EulerError):
        face_census(graph)


# --- pentagon_contact_signature -----------------------------------------

def test_contact_signatures():
    assert pentagon_contact_signature(face_census(cage_of("c60"))) == "vertex"
    assert pentagon_contact_signature(face_census(cage_of("c80"))) == "edge"
    # no hexagons at all: nothing to classify
    census20 = face_census(cage_of("dodecahedron"))
    assert pentagon_contact_signature(census20) is None


def test_contact_mixed_and_large_faces():
    finding = array_cage("dodecahedron", 3, "tau^2")
    assert finding.vertex_count == 200
    assert finding.census.counts == {5: 60, 6: 30, 10: 12}
    assert finding.census.other_count == 12
    assert pentagon_contact_signature(finding.census) == "mixed"


def test_contact_none_when_pentagons_isolated():
    finding = array_cage("c60", 5, "3")
    assert pentagon_contact_signature(finding.census) is None


# --- detect_cage ---------------------------------------------------------

def test_detect_cage_skips_one_interior_shell():
    """Deeper iterations leave stray interior points; the detector may
    drop exactly one interior shell to close the outer surface."""
    finding = array_cage("c80", 5, "2", depth=2)
    assert finding.vertex_count == 320
    assert finding.census.counts == {5: 12, 6: 150}
    assert finding.dropped_index is not None
    assert finding.dropped_index not in finding.shell_indices
    assert list(finding.shell_indices) == sorted(finding.shell_indices)
    lo, hi = finding.shell_indices[0], finding.shell_indices[-1]
    assert lo < finding.dropped_index < hi


def test_detect_cage_none_cases():
    ico = coords_of(builtin("icosahedron").vertices)
    assert detect_cage([ico]) is None           # one shell is never a cage
    assert detect_cage([ico, ico * 1.5]) is None  # concentric, not trivalent
    tet = two_tetrahedra()[:4]
    assert detect_cage([tet, tet * 2.0]) is None  # under 20 points


# --- the pairwise-distance kernel ---------------------------------------

def einsum_squared(a, b):
    """The kernel as first written: an (n, m, 3) difference tensor summed
    by einsum."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def kernel_pairs():
    """(a, b) cases: each built-in against itself and against a shifted,
    scaled copy; 200 and 960 random points against themselves and
    against another random set."""
    rng = np.random.default_rng(2024)
    for name in BUILTIN_NAMES:
        a = coords_of(builtin(name).vertices)
        yield pytest.param(a, a, id=name)
        yield pytest.param(a, a[::-1] * 1.5 + (0.1, -0.2, 0.3),
                           id=f"{name}-moved")
    for n in (200, 960):
        a = rng.uniform(-5.0, 5.0, size=(n, 3))
        yield pytest.param(a, a, id=f"random{n}")
        yield pytest.param(a, rng.normal(size=(n // 2 + 7, 3)),
                           id=f"random{n}-other")


@pytest.mark.parametrize("a,b", kernel_pairs())
def test_pairwise_squared_kernel(a, b):
    got = cages._pairwise_squared(a, b)
    assert got.shape == (len(a), len(b)) and got.dtype == np.float64
    # within 4 ulp of the einsum tensor: the values are nonnegative, so
    # their int64 views are ordered and differ by the ulps between them
    want = einsum_squared(a, b)
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4
    # bit for bit: the transpose of the swapped call, and the
    # out-of-place sum in the same order
    assert cages._pairwise_squared(b, a).T.tobytes() == got.tobytes()
    dx, dy, dz = (a[:, None, k] - b[None, :, k] for k in range(3))
    assert (dx * dx + dy * dy + dz * dz).tobytes() == got.tobytes()
    if a is b:
        assert not got.diagonal().any()


# --- the nearest-neighbour table against the dense search it replaces ----

def dense_matrix(coords):
    """Every squared distance of the point set, `inf` on the diagonal."""
    d2 = cages._pairwise_squared(coords, coords)
    np.fill_diagonal(d2, np.inf)
    return d2


def dense_threshold_search(points):
    """The threshold search as first written: one N x N matrix, the
    third- and fourth-nearest distances by two full partitions, and the
    edges read off its upper triangle."""
    coords = cages.as_coords(points)
    n = len(coords)
    if n < 4:
        return None
    d2 = dense_matrix(coords)
    third = np.partition(d2, 2, axis=1)[:, 2]
    if n >= 5:
        fourth = np.partition(d2, 3, axis=1)[:, 3]
    else:
        fourth = np.full(n, np.inf)
    c2 = float(third.max())
    floor4 = float(fourth.min())
    if not floor4 - c2 > cages._RESOLUTION * max(1.0, c2):
        return None
    threshold = (c2 + min(floor4, 4.0 * c2)) / 2.0
    pairs = np.argwhere(np.triu(d2 <= threshold, k=1))
    edges = tuple(sorted((int(i), int(j)) for i, j in pairs))
    graph = cages.CageGraph(coords, edges, math.sqrt(c2))
    if not isinstance(points, np.ndarray):
        graph.points = tuple(points)
    return graph if graph.trivalent else None


def union_points(groups, chosen):
    return tuple(p for i in chosen for p in groups[i])


def assert_edge_tuples(graph):
    """`edges` is the form the searches gave before they kept bonds as
    an array: a tuple of (int, int) tuples, lower end first, sorted, one
    per row of `pairs`."""
    edges = graph.edges
    assert type(edges) is tuple
    assert all(type(e) is tuple and len(e) == 2
               and type(e[0]) is int and type(e[1]) is int for e in edges)
    assert all(i < j for i, j in edges) and list(edges) == sorted(edges)
    assert edges == tuple(zip(graph.pairs[:, 0].tolist(),
                              graph.pairs[:, 1].tolist()))


def assert_same_graph(got, want, context=None):
    assert (got is None) == (want is None), context
    if want is None:
        return
    assert got.edges == want.edges, context
    assert got.cutoff.hex() == want.cutoff.hex(), context
    assert got.edge_ratio == want.edge_ratio, context
    assert np.array_equal(got.coords, want.coords), context


def dense_detect_cage(shell_groups, max_ratio=cages._CAGE_MAX_EDGE_RATIO):
    """The detector as first written: every union goes through the dense
    search, each one on its own N x N matrix.  Also checks the table's
    graph against the dense one on every union tried."""
    groups = [tuple(g) for g in shell_groups]
    table = cages._NearestTable(groups)

    def attempt(chosen, dropped):
        points = union_points(groups, chosen)
        if not 20 <= len(points) <= cages._CAGE_POINT_CAP:
            return None
        graph = dense_threshold_search(points)
        assert_same_graph(cage_reference.graph(table, chosen), graph, chosen)
        if graph is None or graph.edge_ratio >= max_ratio:
            return None
        try:
            census = face_census(graph)
        except EulerError:
            return None
        return cages.CageFinding(graph, census, chosen, dropped)

    n = len(groups)
    sizes = [len(g) for g in groups]
    for k in range(cages._CAGE_MIN_SHELLS, n + 1):
        chosen = tuple(range(n - k, n))
        if sum(sizes[i] for i in chosen) > cages._CAGE_POINT_CAP:
            break
        finding = attempt(chosen, None)
        if finding is not None:
            return finding
    for k in range(cages._CAGE_MIN_SHELLS + 1, n + 1):
        window = list(range(n - k, n))
        if (sum(sizes[i] for i in window)
                - max(sizes[i] for i in window[1:-1])) > cages._CAGE_POINT_CAP:
            break
        for drop in window[1:-1]:
            chosen = tuple(i for i in window if i != drop)
            finding = attempt(chosen, drop)
            if finding is not None:
                return finding
    return None


def candidate_unions(sizes):
    """(shell indices, dropped index) of every union detect_cage tries,
    in order, from its windows."""
    for low, drops in cages._candidate_windows(sizes):
        for dropped in [None] if drops is None else drops:
            yield tuple(i for i in range(low, len(sizes))
                        if i != dropped), dropped


def assert_same_finding(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.shell_indices == want.shell_indices
    assert got.dropped_index == want.dropped_index
    assert got.graph.edges == want.graph.edges
    assert got.census.faces == want.census.faces
    assert got.census.counts == want.census.counts


def onion_arrays(name, expr, iterations=2):
    """The arrays `build_onion` reads its cages off, iteration by iteration,
    stepping forward on the dense detector's findings."""
    start = builtin(name)
    t = make_translation(start.symmetry, 5, parse_field_expr(expr))
    working, arrays = start, []
    for j in range(1, iterations + 1):
        array = generate_array(working, t, 1)
        arrays.append(array)
        finding = dense_detect_cage([s.points for s in array.shells])
        working = StartConfig(f"{name}.onion{j}", finding.graph.points,
                              start.symmetry)
    return arrays


def catalog_arrays():
    cases = (("c60", 5, "3"), ("dodecahedron", 3, "tau^2"),
             ("dodecahedron", 3, "tau^-2"), ("dodecahedron", 5, "tau"),
             ("dodecahedron", 5, "1"), ("icosahedron", 3, "1"),
             ("icosahedron", 3, "tau-1"))
    arrays = []
    for name, fold, expr in cases:
        start = builtin(name)
        t = make_translation(start.symmetry, fold, parse_field_expr(expr))
        arrays.append(generate_array(start, t, 1))
    return arrays


@pytest.fixture(scope="module")
def differential_arrays():
    return (onion_arrays("c60", "3") + onion_arrays("c80", "2")
            + catalog_arrays())


def test_detect_cage_matches_dense_search_on_arrays(differential_arrays):
    dropped = 0
    for array in differential_arrays:
        groups = [shell.points for shell in array.shells]
        want = dense_detect_cage(groups)
        assert want is not None
        assert_same_finding(detect_cage(groups), want)
        dropped += want.dropped_index is not None
    assert dropped >= 1  # the c80 onion's second member drops a shell


def test_detect_cage_matches_dense_search_on_small_inputs():
    ico = coords_of(builtin("icosahedron").vertices)
    tet = two_tetrahedra()[:4]
    for groups in ([ico], [ico, ico * 1.5], [tet, tet * 2.0]):
        assert detect_cage(groups) is None
        assert dense_detect_cage(groups) is None
    # an empty shell inside the only union that reaches 20 points
    dod = coords_of(builtin("dodecahedron").vertices)
    groups = [dod[:10], dod[:0], dod[10:]]
    want = dense_detect_cage(groups)
    assert want is not None and want.shell_indices == (0, 1, 2)
    assert_same_finding(detect_cage(groups), want)


def test_threshold_search_matches_dense_search_on_point_sets():
    sets = [builtin(name).vertices for name in BUILTIN_NAMES]
    sets += [np.zeros((0, 3)), (), two_tetrahedra()[:3],
             two_tetrahedra()[:4], two_tetrahedra(),
             coords_of(builtin("icosahedron").vertices)]
    found = 0
    for points in sets:
        want = dense_threshold_search(points)
        got = trivalence_threshold_search(points)
        assert_same_graph(got, want, points)
        if got is not None:
            assert_edge_tuples(got)
        found += want is not None
    assert found == 5  # dodecahedron, c60, c80, one and two tetrahedra


def tetrahedra(rng, count):
    """`count` randomly turned regular tetrahedra far apart, their points
    shuffled: a trivalent set whose bonds cross chunk boundaries."""
    tet = two_tetrahedra()[4:] + (0, 0, 10.0)
    sets = []
    for k in range(count):
        turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        sets.append(tet @ turn + (10.0 * k, 0.0, 0.0))
    return rng.permutation(np.vstack(sets))


@pytest.mark.parametrize("n", [63, 64, 65, 90, 91, 128, 129, 200])
def test_union_search_matches_dense_search_across_chunks(n):
    """Sets that end just short of, on and just past a 64-row chunk
    boundary: each point's four nearest entries, from the search's own
    selection and from the argpartition one it replaced, are the dense
    matrix row's four smallest, bit for bit, and the graphs agree: the
    search's own bonds and the reference's as well."""
    assert cages._CHUNK_ROWS == 64
    rng = np.random.default_rng(n)
    # four coincident copies of each point, rolled so that one group of
    # copies straddles every chunk boundary; bonds sit at cutoff 0
    copies = np.roll(np.repeat(rng.normal(size=(n // 4 + 1, 3)), 4, axis=0),
                     2, axis=0)
    found = 0
    for coords in (rng.normal(size=(n, 3)), tetrahedra(rng, n // 4),
                   tetrahedra(rng, n // 4 + 1), copies):
        dense = dense_matrix(coords)
        want = np.sort(dense, axis=1)[:, :4]
        selected = cages._four_nearest(coords)
        # the search's own selection comes out ascending
        assert selected[0].tobytes() == want.tobytes()
        for values, index in (selected, cage_reference.union_rows(coords)):
            assert np.sort(values, axis=1).tobytes() == want.tobytes()
            assert np.take_along_axis(dense, index, axis=1).tobytes() \
                == values.tobytes()
        want = dense_threshold_search(coords)
        assert_same_graph(trivalence_threshold_search(coords), want)
        assert_same_graph(cages._trivalent_graph(
            coords, cages._bond_search(coords)), want)
        assert_same_graph(cages._trivalent_graph(
            coords, cage_reference.union_bonds(coords)), want)
        found += want is not None
    assert found == 3
    assert trivalence_threshold_search(copies).cutoff == 0.0


def inverted_tetrahedra(rng, count):
    """`count` randomly turned regular tetrahedra far apart on the +x
    axis, then their mirror images through the origin: a trivalent set
    that the inversion, point i to point i + 4 * count and back, maps
    onto itself."""
    tet = two_tetrahedra()[:4] - (0, 0, 10.0)
    sets = []
    for k in range(count):
        turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        sets.append(tet @ turn + (10.0 * (k + 1), 0.0, 0.0))
    half = np.vstack(sets)
    return np.vstack([half, -half])


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_orbit_search_takes_representatives_in_chunks(n):
    """The search from orbit representatives across chunk boundaries, on
    the sets of the test above: under a trivial generator every point is
    its own representative, and under the inversion half of them are.
    `c2` and the pairs equal the all-points search's bit for bit, as do
    those of the search with no generators and of the search that
    labelled orbits and carried bonds in its own loops."""
    assert cages._CHUNK_ROWS == 64
    rng = np.random.default_rng(n)
    copies = np.roll(np.repeat(rng.normal(size=(n // 4 + 1, 3)), 4, axis=0),
                     2, axis=0)
    cases = [(coords, np.arange(len(coords))[None]) for coords in (
        rng.normal(size=(n, 3)), tetrahedra(rng, n // 4),
        tetrahedra(rng, n // 4 + 1), copies)]
    mirrored = inverted_tetrahedra(rng, n // 4 + 1)
    half = len(mirrored) // 2
    cases.append((mirrored, np.roll(np.arange(2 * half), half)[None]))
    found = 0
    for coords, permutations in cases:
        want = cage_reference.union_bonds(coords)
        for got in (cages._bond_search(coords, Orbits(permutations)),
                    cages._bond_search(coords),
                    cage_reference.bond_search(coords, permutations)):
            assert (got is None) == (want is None)
            if want is None:
                continue
            assert got[0] == want[0]
            assert got[1].dtype == want[1].dtype == np.intp
            assert np.array_equal(got[1], want[1])
        found += want is not None
    assert found == 4


def test_single_set_search_memory_is_linear():
    """The C960 onion member searched as one point set holds a chunk of
    rows at a time, not an N x N matrix (7.4 MB of float64 alone)."""
    coords = np.vstack(onion_member_shells()[3])
    assert len(coords) == 960
    tracemalloc.start()
    try:
        graph = trivalence_threshold_search(coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph is not None and graph.edge_count == 1440
    assert peak < 3_000_000


def probe_rows(table, chosen):
    """The union's probe rows from the table's probe table, where their
    probe points sit among the union's points (each member group's first
    point), and where each member group's points start."""
    members = [i for i in chosen if len(table.coords[i])]
    offsets = np.cumsum([0] + [len(table.coords[i]) for i in members])
    return (cage_reference.probe_rows(table, members), offsets[:-1],
            offsets)


def dense_probe_rows(coords, where):
    """The dense matrix's rows of the probe points."""
    return dense_matrix(coords)[where]


def assert_probe_rows_match_dense(rows, where, offsets, dense):
    """Each row's four entries per member shell are, bit for bit, the
    four smallest entries of the dense probe row over that shell's
    points, `inf` filling in when it has fewer than four."""
    assert rows.shape == (len(where), 4 * (len(offsets) - 1))
    for k in range(len(offsets) - 1):
        want = np.sort(dense[:, offsets[k]:offsets[k + 1]], axis=1)[:, :4]
        want = np.hstack([want, np.full((len(want), 4 - want.shape[1]),
                                        np.inf)])
        got = np.sort(rows[:, 4 * k:4 * k + 4], axis=1)
        assert got.tobytes() == want.tobytes()


def third_and_fourth(rows):
    """Each row's third- and fourth-smallest entries, as bytes."""
    return np.partition(rows, (2, 3), axis=1)[:, 2:4].tobytes()


def gap_hex(rows):
    gap = cages._gap(rows)
    return gap if gap is None else tuple(x.hex() for x in gap)


def test_table_matches_dense_search_on_trailing_unions(differential_arrays):
    """Every trailing union of up to 1500 points, merged from the shells'
    rows and searched as one point set, bonds as the dense search does;
    its probe rows hold the four smallest entries per shell of the dense
    matrix's probe rows, bit for bit."""
    unions = found = 0
    for array in differential_arrays:
        groups = [shell.coords for shell in array.shells]
        table = cages._NearestTable(groups)
        for k in range(1, len(groups) + 1):
            chosen = tuple(range(len(groups) - k, len(groups)))
            coords = np.vstack([groups[i] for i in chosen])
            if len(coords) > 1500:
                break
            rows, where, offsets = probe_rows(table, chosen)
            assert len(where) == k  # one probe per exact shell
            dense = dense_probe_rows(coords, where)
            assert_probe_rows_match_dense(rows, where, offsets, dense)
            assert third_and_fourth(rows) == third_and_fourth(dense)
            want = dense_threshold_search(coords)
            assert_same_graph(cage_reference.graph(table, chosen), want,
                              chosen)
            assert_same_graph(trivalence_threshold_search(coords), want,
                              chosen)
            unions += 1
            found += want is not None
    assert unions >= 50 and found >= 10


@functools.cache
def default_scan_outer_bands(name):
    """The outer band of every row of the config's default scan, as
    `classify_scan` hands it to the threshold search: its shells' float
    coordinates, one array per shell."""
    start = builtin(name)
    cutoff = 2.0 * math.sqrt(float(start.radius2))
    return tuple(
        tuple(shell.coords for shell in bands(generate_array(
            start, make_translation(start.symmetry, fold, length), 1))[-1]
            .shells)
        for fold in (2, 3, 5) for length in DEFAULT_SCAN_SPEC.lengths(cutoff)
    )


@pytest.mark.parametrize("name,refuted,trivalent", [
    ("icosidodecahedron", 894, 0),
    ("dodecahedron", 822, 102),
])
def test_probe_refutes_only_where_the_dense_search_fails(name, refuted,
                                                         trivalent):
    """On every outer band of a default scan, the probe rows hold the
    four smallest entries of the dense matrix's probe rows, bit for bit,
    and a probe refutation is the dense search's verdict; the trivalent
    bands take the full table."""
    outer = default_scan_outer_bands(name)
    counts = [0, 0]
    for shells in outer:
        table = cages._NearestTable(shells)
        chosen = tuple(range(len(shells)))
        coords = np.vstack(shells)
        rows, where, offsets = probe_rows(table, chosen)
        dense = dense_probe_rows(coords, where)
        assert_probe_rows_match_dense(rows, where, offsets, dense)
        assert gap_hex(rows) == gap_hex(dense)
        want = dense_threshold_search(coords)
        if cages._gap(rows) is None:
            assert want is None
            counts[0] += 1
        assert_same_graph(cage_reference.graph(table, chosen), want)
        counts[1] += want is not None
    assert counts == [refuted, trivalent]


@functools.cache
def onion_member_shells():
    """Every member of both onion families, C60..C960 and C80..C500, as
    its exact shells' float coordinates, one array per shell."""
    members = []
    for name, expr in (("c60", "3"), ("c80", "2")):
        start = builtin(name)
        t = make_translation(start.symmetry, 5, parse_field_expr(expr))
        for member in build_onion(start, t, 4).family:
            den, rows = integer_rows(member.points)
            members.append(tuple(shell.coords
                                 for shell in row_shells(rows, den)))
    return members


def test_threshold_search_on_shells_matches_the_stacked_set():
    """Handing the threshold search a point set's exact shells as
    separate groups, as the outer band report does, gives the graph of
    the same points in one array: equal edges, cutoff and coordinate
    bytes, or None for both."""
    found = []
    for shell_sets in (default_scan_outer_bands("icosidodecahedron"),
                       default_scan_outer_bands("dodecahedron"),
                       onion_member_shells()):
        found.append(0)
        for shells in shell_sets:
            got = trivalence_threshold_search(*shells)
            want = trivalence_threshold_search(np.vstack(shells))
            assert (got is None) == (want is None)
            # the table's probe of the same groups, which it replaced
            assert_same_graph(got, cage_reference.graph(
                cages._NearestTable(shells), tuple(range(len(shells)))))
            if want is not None:
                assert got.edges == want.edges
                assert got.cutoff.hex() == want.cutoff.hex()
                assert got.coords.tobytes() == want.coords.tobytes()
                found[-1] += 1
    assert found == [0, 102, 8]


def test_probe_gap_matches_the_dense_probe_rows_on_every_union_tried(
        differential_arrays):
    """Every union detect_cage tries up to the one it finds, drop-one
    unions included (also those its window's selection refutes), gets
    the dense probe rows' third- and fourth-nearest entries and gap from
    a table of the shells from the reach on, as detect_cage's is."""
    unions = dropped = 0
    for array in differential_arrays:
        groups = [shell.coords for shell in array.shells]
        finding = detect_cage(groups)
        sizes = list(map(len, groups))
        reach = reach_of(sizes)
        table = cages._NearestTable(groups[reach:])
        for chosen, _ in candidate_unions(sizes):
            rows, where, offsets = probe_rows(table,
                                              [i - reach for i in chosen])
            dense = dense_probe_rows(np.vstack([groups[i] for i in chosen]),
                                     where)
            assert_probe_rows_match_dense(rows, where, offsets, dense)
            assert third_and_fourth(rows) == third_and_fourth(dense)
            assert gap_hex(rows) == gap_hex(dense), chosen
            unions += 1
            if chosen == finding.shell_indices:
                break
        dropped += finding.dropped_index is not None
    assert unions >= 30 and dropped >= 1


def test_probe_table_on_random_shells():
    """Random shells: each group's first point is its probe, and the
    table's entries still are the dense rows' four smallest per shell."""
    rng = np.random.default_rng(14)
    groups = [rng.normal(size=(n, 3)) * (1 + i)
              for i, n in enumerate((1, 3, 4, 5, 17, 40, 64))]
    table = cages._NearestTable(groups)
    for k in range(1, len(groups) + 1):
        for chosen in (tuple(range(k)), tuple(range(len(groups) - k,
                                                     len(groups)))):
            rows, where, offsets = probe_rows(table, chosen)
            coords = np.vstack([groups[i] for i in chosen])
            assert len(where) == k  # one probe per group
            dense = dense_probe_rows(coords, where)
            assert_probe_rows_match_dense(rows, where, offsets, dense)
            if len(coords) >= 4:
                assert third_and_fourth(rows) == third_and_fourth(dense)


@functools.cache
def c80_fourth_iteration_shells():
    """The array of the c80 onion's fourth iteration, whose search fails
    after trying every union up to the point cap."""
    start = builtin("c80")
    t = make_translation(start.symmetry, 5, parse_field_expr("2"))
    member = build_onion(start, t, 3).family[-1]
    working = StartConfig("c80.onion3", member.points, start.symmetry)
    return [shell.coords for shell in generate_array(working, t, 1).shells]


def spy_on_tables(monkeypatch):
    """A list that records each `_NearestTable` built."""
    tables = []
    init = cages._NearestTable.__init__

    def spy(self, *args):
        init(self, *args)
        tables.append(self)

    monkeypatch.setattr(cages._NearestTable, "__init__", spy)
    return tables


def reach_of(sizes):
    """The lowest shell of any union detect_cage tries."""
    return min(low for low, _ in cages._candidate_windows(sizes))


def test_probe_columns_are_computed_once_for_the_shells_tried(monkeypatch):
    """Every candidate union is tried on this array (its unions are
    refuted a window at a time), and each probe column is filled once,
    by one distance call from the table's probes to its shell, only for
    shells some union contains."""
    groups = c80_fourth_iteration_shells()
    tables, columns = spy_on_tables(monkeypatch), []
    pairwise = cages._pairwise_squared

    def pairwise_spy(a, b):
        if tables and a is tables[-1]._probe_coords:
            coords = tables[-1].coords
            # the table holds the last shells
            columns.append(len(groups) - len(coords) + next(
                i for i, c in enumerate(coords) if c is b))
        return pairwise(a, b)

    monkeypatch.setattr(cages, "_pairwise_squared", pairwise_spy)
    assert detect_cage(groups) is None
    members = {i for chosen, _ in candidate_unions(
        list(map(len, groups))) for i in chosen}
    assert len(tables) == 1 and len(columns) == len(set(columns))
    # only the shells some tried union contains, not all of them
    assert set(columns) == members and len(members) < len(groups)


def spy_on_bond_search(monkeypatch):
    """A list that records each `_bond_search` call as (its number of
    points, whether it came without orbits)."""
    calls = []
    search = cages._bond_search

    def spy(coords, orbits=None):
        calls.append((len(coords), orbits is None))
        return search(coords, orbits)

    monkeypatch.setattr(cages, "_bond_search", spy)
    return calls


def test_probe_leaves_every_union_unsearched_on_a_negative_scan(
        monkeypatch):
    calls = spy_on_bond_search(monkeypatch)
    rows = classify_scan(builtin("icosidodecahedron"), (2, 3, 5),
                         DEFAULT_SCAN_SPEC)
    assert len(rows) == 894 and calls == []
    # the spy sees a search the probe cannot refute
    assert trivalence_threshold_search(builtin("c60").vertices) is not None
    assert calls == [(60, True)]


# --- one row per orbit against the chunked search -----------------------

def exact_of(array, shells=None):
    """What `outer_cage` hands its search with the shells' floats: the
    start's symmetry and the shells' exact rows."""
    shells = array.shells if shells is None else shells
    return array.start.symmetry, shells[0].den, [s.rows for s in shells]


def exact_table(array, shells=None):
    """A table of every shell of the array with their exact rows, as
    `outer_cage` builds one over the shells it reaches."""
    shells = array.shells if shells is None else shells
    return cages._NearestTable([shell.coords for shell in shells],
                               exact_of(array, shells))


def onion_iteration_arrays(name, expr, iterations):
    """The fold-5 arrays `build_onion` reads members off, stepping on the
    floats-only detector's findings, up to the first with no cage."""
    start = builtin(name)
    t = make_translation(start.symmetry, 5, parse_field_expr(expr))
    working, arrays = start, []
    for j in range(1, iterations + 1):
        array = generate_array(working, t, 1)
        arrays.append(array)
        finding = detect_cage([shell.coords for shell in array.shells])
        if finding is None:
            break
        rows = np.concatenate([array.shells[i].rows
                               for i in finding.shell_indices])
        working = StartConfig.from_rows(f"{name}.onion{j}",
                                        array.shells[0].den, rows,
                                        start.symmetry)
    return arrays


@pytest.fixture(scope="module")
def orbit_search_arrays():
    """Both onion families to their failing fourth iteration, the fold-5
    dodecahedron lambda=1 family to its failing fifth, and every catalog
    array that has a cage."""
    onions = (onion_iteration_arrays("c60", "3", 5)
              + onion_iteration_arrays("c80", "2", 5)
              + onion_iteration_arrays("dodecahedron", "1", 8))
    assert len(onions) == 4 + 4 + 5
    catalog = [array for array in catalog_arrays()
               if outer_cage(array) is not None]
    assert len(catalog) == 7
    return onions + catalog


def test_orbit_search_matches_the_chunked_search(orbit_search_arrays,
                                                  monkeypatch):
    """On every union detect_cage tries that passes its probe, the search
    from one row per orbit gives the chunked search's verdict, edges and
    extreme bond lengths, bit for bit; `outer_cage` takes it on every
    such union, and its findings are the floats-only detector's."""
    searched = found = refuted = 0
    for array in orbit_search_arrays:
        table = exact_table(array)
        failing = detect_cage(table.coords) is None
        for chosen, _ in candidate_unions(list(map(len, array.shells))):
            members = list(chosen)
            passed = cage_reference.passes_probe(table, members)
            if not (passed or failing):
                continue
            coords = np.vstack([table.coords[i] for i in members])
            orbits = cage_reference.orbits(table, members)
            assert orbits is not None
            got = cages._bond_search(coords, orbits)
            if not passed:
                # on a failing iteration every union is refuted by its
                # probe, so the chunked search finds no gap there either
                assert got is None, chosen
                refuted += 1
                continue
            want = cage_reference.union_bonds(coords)
            assert (got is None) == (want is None), chosen
            searched += 1
            if want is None:
                continue
            assert got[1].shape == want[1].shape, chosen
            assert got[1].dtype == want[1].dtype == np.intp, chosen
            assert np.array_equal(got[1], want[1]), chosen
            got, want = (cages.CageGraph(coords, edges, math.sqrt(c2))
                         for c2, edges in (got, want))
            assert_edge_tuples(got)
            assert_edge_tuples(want)
            assert got.edge_min.hex() == want.edge_min.hex()
            assert got.edge_max.hex() == want.edge_max.hex()
            assert math.isclose(got.cutoff, want.cutoff, rel_tol=1e-12)
            found += 1
    assert (searched, found, refuted) == (20, 19, 134 + 201 + 201)
    calls = spy_on_bond_search(monkeypatch)
    for array in orbit_search_arrays:
        want = detect_cage([shell.coords for shell in array.shells])
        calls.clear()
        got = outer_cage(array)
        # every search outer_cage runs has the union's orbits
        assert not any(unpermuted for _, unpermuted in calls)
        assert_same_finding(got, want)
        if want is not None:
            assert_edge_tuples(got.graph)
            assert_edge_tuples(want.graph)
            assert got.graph.edge_min == want.graph.edge_min
            assert got.graph.edge_max == want.graph.edge_max
            # the search keeps the union's exact rows, in union order
            den, rows = got.graph.rows
            assert den == array.shells[0].den and np.array_equal(
                rows, np.concatenate([array.shells[i].rows
                                      for i in got.shell_indices]))


def test_outer_cage_searches_match_the_label_and_carry_loops(
        orbit_search_arrays, monkeypatch):
    """Every union `outer_cage` searches, on the onion arrays to their
    failing iteration and on the catalog, gets from `groups.Orbits` the
    `c2` and bond pairs, bit for bit, of the search that labelled orbits
    and carried bonds in its own loops."""
    searched = []
    search = cages._bond_search

    def spy(coords, orbits=None):
        found = search(coords, orbits)
        searched.append((coords, orbits, found))
        return found

    monkeypatch.setattr(cages, "_bond_search", spy)
    for array in orbit_search_arrays:
        outer_cage(array)
    assert len(searched) == 17
    for coords, orbits, got in searched:
        want = cage_reference.bond_search(coords, orbits.permutations)
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0] == want[0]
            assert got[1].dtype == want[1].dtype == np.intp
            assert np.array_equal(got[1], want[1])


def test_a_union_that_is_not_invariant_takes_the_chunked_search(
        monkeypatch):
    """C240's union with one row removed fails the invariance lookup and
    is searched from all of its points, as from floats alone."""
    start = builtin("c60")
    array = generate_array(start, make_translation(
        start.symmetry, 5, parse_field_expr("3")), 1)
    chosen = outer_cage(array).shell_indices
    outer = array.shells[chosen[-1]]
    trimmed = Shell(outer.radius2, outer.rows[:-1], outer.den,
                    outer.coords[:-1])
    shells = (*array.shells[:chosen[-1]], trimmed)
    table = exact_table(array, shells)
    assert cage_reference.passes_probe(table, chosen)
    assert cage_reference.orbits(table, list(chosen)) is None
    assert cage_reference.orbits(table, list(chosen[:-1])) is not None
    calls = spy_on_bond_search(monkeypatch)
    got = cage_reference.graph(table, chosen)
    assert [unpermuted for _, unpermuted in calls] == [True]
    want = cage_reference.graph(
        cages._NearestTable([s.coords for s in shells]), chosen)
    assert_same_graph(got, want)
    assert_same_graph(got, dense_threshold_search(
        np.vstack([s.coords for s in shells[chosen[0]:]])))


# --- one gate per window ------------------------------------------------

def assert_verdicts_are_the_probes(groups, exact=None):
    """Every candidate union of the groups, trailing ones and those of
    windows with one drop included, gets from its window's gate, on a
    table of the groups from the reach on as detect_cage builds, the
    verdict of its own probe rows, read from a separate table of every
    group; returns the counts, drop-one unions in row 0 and trailing
    ones in row 1, refuted in column 0 and passed in column 1."""
    sizes = list(map(len, groups))
    windows = list(cages._candidate_windows(sizes))
    reach = reach_of(sizes)
    if exact is not None:
        exact = (*exact[:2], exact[2][reach:])
    table = cages._NearestTable(groups[reach:], exact)
    reference = cages._NearestTable(groups)
    counts = np.zeros((2, 2), dtype=int)
    for low, drops in windows:
        passed = table.verdicts(
            low - reach, [d if d is None else d - reach for d in drops])
        assert len(passed) == len(drops)
        for dropped, ok in zip(drops, passed):
            chosen = [i for i in range(low, len(sizes)) if i != dropped]
            want = cage_reference.passes_probe(reference, chosen)
            assert ok is want, (low, dropped)
            counts[int(dropped is None), int(want)] += 1
    return counts


def test_drop_verdicts_are_each_unions_probe(orbit_search_arrays):
    """On both onion families to their failing fourth iteration, the
    fold-5 dodecahedron family to its failing fifth and the catalog
    arrays, exact tables and floats-only ones alike."""
    counts = np.zeros((2, 2), dtype=int)
    for array in orbit_search_arrays:
        for exact in (exact_of(array), None):
            counts += assert_verdicts_are_the_probes(
                [s.coords for s in array.shells], exact)
    # drop-one unions both refuted and passed
    assert counts[0, 0] > 1000 and counts[0, 1] > 10
    # trailing unions both refuted and passed
    assert counts[1].all()


def test_drop_verdicts_leave_out_an_empty_group(orbit_search_arrays):
    """A floats-only input with an empty group inside its windows: the
    group's row is not read, its column adds nothing, and detect_cage
    finds the cage the input without it has."""
    array = orbit_search_arrays[5]  # c80 iteration 2: a drop-one cage
    groups = [s.coords for s in array.shells]
    want = detect_cage(groups)
    assert want.dropped_index is not None
    at = want.shell_indices[1]
    holed = groups[:at] + [np.empty((0, 3))] + groups[at:]
    counts = assert_verdicts_are_the_probes(holed)
    assert counts[0, 0] > 100 and counts[0, 1] > 0
    got = detect_cage(holed)
    assert got.graph.edges == want.graph.edges
    assert got.census.faces == want.census.faces


def test_no_probe_row_below_the_reach_is_computed(orbit_search_arrays,
                                                  monkeypatch):
    """On the failing fourth iterations, where every candidate union is
    tried, `outer_cage`'s table holds only the shells from the lowest
    shell of any candidate union on, and each probe column's distances
    are taken from their probes alone: 18 of 73 shells for c60, 22 of
    40 for c80."""
    tables, probed = spy_on_tables(monkeypatch), []
    pairwise = cages._pairwise_squared

    def pairwise_spy(a, b):
        if tables and np.shares_memory(a, tables[-1]._probe_coords):
            probed.append(a)
        return pairwise(a, b)

    monkeypatch.setattr(cages, "_pairwise_squared", pairwise_spy)
    for array, rows in ((orbit_search_arrays[3], 18),
                        (orbit_search_arrays[7], 22)):
        shells = array.shells
        reach = min(chosen[0] for chosen, _ in candidate_unions(
            [len(s.coords) for s in shells]))
        assert len(shells) - reach == rows
        tables.clear(), probed.clear()
        assert outer_cage(array) is None
        (table,) = tables
        assert len(table.coords) == rows
        for got, shell in zip(table.coords, shells[reach:]):
            assert np.array_equal(got, shell.coords)
        # one column per reached shell, each from their probes alone
        assert len(probed) == rows
        for a in probed:
            assert np.array_equal(a, [s.coords[0] for s in shells[reach:]])


def test_each_union_tried_is_gated_once(orbit_search_arrays, monkeypatch):
    """One gate call per window gives each union tried its verdict, and
    only a union it passed is searched, with no second gather and gap
    test: the gap decision (`_gap_between`) is made once per trailing
    union's gate and once per search, and on nothing else."""
    gated, passed, searched, gaps = [], set(), [], []
    verdicts, gap = cages._NearestTable.verdicts, cages._gap_between
    search = cages._NearestTable.search

    def shell_indices(table, indices):
        """Table indices as shell indices: the table holds the last
        shells of the array."""
        reach = len(array.shells) - len(table.coords)
        return tuple(reach + i for i in indices)

    def verdicts_spy(self, low, drops):
        ok = verdicts(self, low, drops)
        unions = [shell_indices(self, (i for i in range(low, len(self.coords))
                                       if i != d)) for d in drops]
        gated.extend(unions)
        passed.update(compress(unions, ok))
        return ok

    monkeypatch.setattr(cages._NearestTable, "verdicts", verdicts_spy)
    monkeypatch.setattr(cages, "_gap_between", lambda *args: gaps.append(1)
                        or gap(*args))
    monkeypatch.setattr(cages._NearestTable, "search",
                        lambda self, chosen: searched.append(
                            shell_indices(self, chosen))
                        or search(self, chosen))
    found = 0
    for array in orbit_search_arrays:
        for exact in (exact_of(array), None):
            gated.clear(), passed.clear(), searched.clear(), gaps.clear()
            finding = cages._detect_cage(
                [s.coords for s in array.shells], exact)
            dropped = dict(candidate_unions(
                [len(s.coords) for s in array.shells]))
            assert len(gated) == len(set(gated))
            assert set(gated) <= set(dropped) and set(searched) <= passed
            assert len(searched) == len(set(searched))
            trailing = sum(dropped[chosen] is None for chosen in gated)
            assert len(gaps) == trailing + len(searched)
            if finding is not None:
                assert finding.shell_indices == searched[-1]
            found += sum(dropped[chosen] is not None for chosen in searched)
    assert found == 10


def assert_table_matches_dense(groups):
    """Every non-empty union of the shells, not only the ones detect_cage
    would try, gets the dense search's graph from the table."""
    table = cages._NearestTable(groups)
    verdicts = set()
    for k in range(1, len(groups) + 1):
        for chosen in combinations(range(len(groups)), k):
            want = dense_threshold_search(union_points(groups, chosen))
            assert_same_graph(cage_reference.graph(table, chosen), want,
                              chosen)
            verdicts.add(want is not None)
    return verdicts


def test_table_one_point_shell_at_origin():
    dod = coords_of(builtin("dodecahedron").vertices)
    origin = np.zeros((1, 3))
    assert assert_table_matches_dense([origin, dod[:8], dod[8:]]) == {
        True, False}


def test_table_shells_under_four_points():
    dod = coords_of(builtin("dodecahedron").vertices)
    groups = [dod[:1], dod[1:3], dod[3:6], dod[6:10], dod[10:]]
    assert assert_table_matches_dense(groups) == {True, False}
    tets = two_tetrahedra()
    assert assert_table_matches_dense(
        [tets[:1], tets[1:3], tets[3:4], tets[4:]]) == {True, False}


def test_table_takes_array_and_point_shells():
    ico = coords_of(builtin("icosahedron").vertices)
    dod = builtin("dodecahedron").vertices
    # ndarray shells, Vec3E shells, and both in one union
    assert assert_table_matches_dense([ico, ico * 1.5]) == {False}
    assert assert_table_matches_dense([dod[:10], dod[10:]]) == {True, False}
    assert assert_table_matches_dense(
        [coords_of(dod[:10]), dod[10:], ico * 3.0]) == {True, False}
    # a table graph holds floats only; outer_cage adds the exact points
    graph = cage_reference.graph(cages._NearestTable([dod[:10], dod[10:]]),
                                 (0, 1))
    assert graph is not None and graph.points is None
    assert trivalence_threshold_search(dod).points is None
    start = builtin("c60")
    array = generate_array(start, make_translation(
        start.symmetry, 5, parse_field_expr("3")), 1)
    finding = outer_cage(array)
    assert finding.graph.points == tuple(
        p for i in finding.shell_indices for p in array.shells[i].points)


def test_table_mixes_a_shell_with_itself_and_others():
    # a repeated shell puts zero distances between shells, not on the
    # diagonal; the table must count them as the dense matrix does
    dod = coords_of(builtin("dodecahedron").vertices)
    groups = [dod, dod, dod + (0, 0, 10.0), dod[:3]]
    assert assert_table_matches_dense(groups) == {True, False}
    table = cages._NearestTable(groups)
    assert cage_reference.graph(table, (0, 1)) is None
    assert cage_reference.graph(table, (0, 2)) is not None
    # a copy's zero distance is a nearest entry; the point's own is not
    values, index = cage_reference.union_rows(np.vstack(groups[:2]))
    assert values.shape == index.shape == (40, 4)
    assert not values.min(axis=1).any() and np.isfinite(values).all()
    copy = index[np.arange(40), values.argmin(axis=1)]
    assert np.array_equal(copy, np.r_[20:40, 0:20])


def test_table_bonds_coincident_points():
    # four copies of a point set: each point's three nearest are its
    # copies at distance 0, so the cutoff is 0 and bonds sit exactly on it
    dod = coords_of(builtin("dodecahedron").vertices)
    assert assert_table_matches_dense([dod] * 4) == {True, False}
    graph = cage_reference.graph(cages._NearestTable([dod] * 4),
                                 (0, 1, 2, 3))
    assert graph.cutoff == 0.0 and graph.edge_count == 120


# --- the batched rotation system against the per-vertex walk it replaces --

@pytest.mark.parametrize("n", [20, 80, 500, 5000])
def test_written_out_cross_product_is_np_cross(n):
    rng = np.random.default_rng(n)
    normal = rng.normal(size=(n, 3))
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    reference = np.zeros_like(normal)
    reference[np.arange(n) % 2 == 0, 0] = 1.0
    reference[np.arange(n) % 2 == 1, 1] = 1.0
    # `_cross` takes and gives three coordinate arrays, one per axis
    e1 = np.stack(cages._cross(reference.T, normal.T), axis=1)
    assert e1.tobytes() == np.cross(reference, normal).tobytes()
    assert np.stack(cages._cross(normal.T, e1.T), axis=1).tobytes() \
        == np.cross(normal, e1).tobytes()


def rotation_rings(graph):
    """Each vertex's neighbours in ring order from the rotation system,
    started where the per-vertex tangent order starts."""
    source, after, twin = cages._rotation_system(graph)
    target = source[twin]
    rings = []
    for v, neighbors in enumerate(adjacency(graph)):
        first = tangent_order_reference(graph.coords, v, neighbors)[0]
        edge = np.flatnonzero((source == v) & (target == first))[0]
        ring = []
        for _ in neighbors:
            ring.append(int(target[edge]))
            edge = after[edge]
        rings.append(ring)
    return rings


def test_edges_are_ordered_as_the_two_key_lexsort():
    """`_edges` sorts bonds on one integer, source*n + target, and gives
    the array that np.lexsort((target, source)) gives: same rows, same
    order, same dtype, on sorted and shuffled sources with repeats."""
    rng = np.random.default_rng(24)
    for n in (1, 2, 20, 960):
        source = np.repeat(np.arange(n), 3)
        for shuffle in (False, True):
            if shuffle:
                source = rng.permutation(source)
            target = rng.integers(0, n, size=len(source)).astype(np.intp)
            lower = source < target
            s, t = source[lower], target[lower]
            order = np.lexsort((t, s))
            want = np.stack([s[order], t[order]], axis=1)
            got = cages._edges(source, target, n)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def test_rotation_system_breaks_angle_ties_by_neighbour_index():
    """Four coincident dodecahedra, each point bonded to its three
    copies: every edge has zero length, so every vertex's neighbours tie
    on angle and the ring falls back to neighbour index, as in the
    per-vertex order; and the plain dodecahedron."""
    dod = coords_of(builtin("dodecahedron").vertices)
    copies = cage_reference.graph(cages._NearestTable([dod] * 4),
                                  (0, 1, 2, 3))
    assert copies.edge_max == 0.0
    for graph in (copies, cage_of("dodecahedron")):
        want = [tangent_order_reference(graph.coords, v, neighbors)
                for v, neighbors in enumerate(adjacency(graph))]
        assert rotation_rings(graph) == want


def traced(tables_of, cage):
    """The faces, their `across` table and their counts, or the
    EulerError text."""
    try:
        return tables_of(cage)
    except EulerError as exc:
        return "EulerError: " + str(exc)


def census_tables(cage):
    census = face_census(cage)
    return census.faces, census.across, census.counts


def walk_tables(cage):
    faces = face_census_reference(cage)
    return faces, across_reference(faces), counts_reference(faces)


@pytest.fixture(scope="module")
def onion_member_graphs():
    """C60, C240, C540, C960 and C80, C180, C320, C500, as bond graphs."""
    graphs = []
    for name, expr in (("c60", "3"), ("c80", "2")):
        start = builtin(name)
        t = make_translation(start.symmetry, 5, parse_field_expr(expr))
        for shell in build_onion(start, t, 4).family:
            graphs.append(trivalence_threshold_search(shell.points))
    assert [g.vertex_count for g in graphs] == [60, 240, 540, 960,
                                                80, 180, 320, 500]
    return graphs


def rotated_cage_graphs():
    group = full_group()
    for name in ("dodecahedron", "c60", "c80"):
        vertices = builtin(name).vertices
        for g in group:
            yield trivalence_threshold_search(
                tuple(mat_apply(g, v) for v in vertices))


@pytest.fixture(scope="module")
def sphere_graphs(onion_member_graphs):
    """Every rotation of the small cages, every onion member and every
    trivalent outer band of the default dodecahedron scan."""
    scan = [trivalence_threshold_search(*shells)
            for shells in default_scan_outer_bands("dodecahedron")]
    graphs = (list(rotated_cage_graphs()) + onion_member_graphs
              + [g for g in scan if g is not None])
    assert len(graphs) == 360 + 8 + 102
    return graphs


def test_face_census_matches_the_per_vertex_walk(sphere_graphs):
    """Equal face tuples, in equal order, equal `across` tables and
    counts, or equal EulerError text, on
    every rotation of the small cages, every onion member, every
    trivalent outer band of the default dodecahedron scan, and graphs
    that fail: a vertex at the origin, two disjoint tetrahedra."""
    dod = cage_of("dodecahedron")
    coords = dod.coords.copy()
    coords[7] = 0.0
    graphs = sphere_graphs + [cages.CageGraph(coords, dod.edges, dod.cutoff),
                              trivalence_threshold_search(two_tetrahedra())]
    assert len(graphs) == 360 + 8 + 102 + 2
    outcomes = [traced(census_tables, g) for g in graphs]
    assert outcomes == [traced(walk_tables, g) for g in graphs]
    assert outcomes[-2] == "EulerError: vertex at the origin has no tangent plane"
    assert outcomes[-1].startswith("EulerError: V-E+F = 8-12+")
    assert sum(isinstance(o, str) for o in outcomes) == 2


def degenerate_graphs():
    """Graphs with few or no bonds, and the dodecahedron with an isolated
    vertex first and last: vertices whose rotation system has no edge."""
    dod = cage_of("dodecahedron")
    lone = np.array([[0.0, 0.0, 5.0]])
    return [
        cages.CageGraph(np.array([[1.0, 0, 0], [0, 1.0, 0]]), [], 0.0),
        cages.CageGraph(np.eye(3), [], 0.0),
        cages.CageGraph(np.array([[1.0, 0, 0], [0, 1.0, 0]]), [(0, 1)], 1.0),
        cages.CageGraph(np.vstack([lone, dod.coords]), dod.pairs + 1,
                        dod.cutoff),
        cages.CageGraph(np.vstack([dod.coords, lone]), dod.pairs,
                        dod.cutoff),
    ]


def test_face_census_matches_the_walk_on_degenerate_graphs():
    """Equal faces, `across` tables and counts, or equal EulerError text:
    no bonds among two points (an empty census) and among three, one
    bond (one 2-gon), and a cage with a vertex that has no edge."""
    graphs = degenerate_graphs()
    outcomes = [traced(census_tables, g) for g in graphs]
    assert outcomes == [traced(walk_tables, g) for g in graphs]
    assert outcomes[:3] == [((), (), {}),
                            "EulerError: V-E+F = 3-0+0 = 3, expected 2",
                            (((0, 1),), ((0, 0),), {2: 1})]
    assert outcomes[3] == outcomes[4] \
        == "EulerError: V-E+F = 21-30+12 = 3, expected 2"


def nearest_neighbour_graph(name):
    """The built-in's points, every pair at the nearest-neighbour
    distance bonded."""
    coords = coords_of(builtin(name).vertices)
    d2 = dense_matrix(coords)
    nearest = d2.min()
    pairs = np.argwhere(np.triu(d2 <= nearest * (1 + 1e-9)))
    return cages.CageGraph(coords, pairs, math.sqrt(nearest))


def great_circle_polygon(n):
    """n points evenly around the equator, each bonded to the next."""
    angle = 2 * np.pi * np.arange(n) / n
    coords = np.stack([np.cos(angle), np.sin(angle), np.zeros(n)], axis=1)
    pairs = sorted((min(i, (i + 1) % n), max(i, (i + 1) % n))
                   for i in range(n))
    return cages.CageGraph(coords, pairs, float(np.linalg.norm(
        coords[1] - coords[0])))


def concentric_dodecahedra():
    """Two dodecahedra, radii 1:2, each bonded alone: two components."""
    dod = cage_of("dodecahedron")
    return cages.CageGraph(np.vstack([dod.coords, 2.0 * dod.coords]),
                           np.vstack([dod.pairs, dod.pairs + 20]),
                           dod.cutoff)


def test_face_census_matches_the_walk_off_the_fullerenes():
    """The walk's faces, `across` tables and counts, or its EulerError
    text, and the dict-read contact, where no fullerene goes: vertices of
    degree 5 (icosahedron) and 4 (icosidodecahedron), two faces of 1000
    edges, which take more doubling rounds than any fullerene face, and
    two components, which fail."""
    graphs = [nearest_neighbour_graph("icosahedron"),
              nearest_neighbour_graph("icosidodecahedron"),
              great_circle_polygon(1000), concentric_dodecahedra()]
    assert [g.edge_count for g in graphs] == [30, 60, 1000, 60]
    outcomes = [traced(census_tables, g) for g in graphs]
    assert outcomes == [traced(walk_tables, g) for g in graphs]
    assert [o[2] for o in outcomes[:3]] == [{3: 20}, {3: 20, 5: 12},
                                            {1000: 2}]
    assert outcomes[3] == "EulerError: V-E+F = 40-60+24 = 4, expected 2"
    for graph in graphs[:3]:
        census = face_census(graph)
        assert (pentagon_contact_signature(census)
                == contact_signature_reference(census))


# 120 rotations each of C20 (no hexagon), C60 ("vertex") and C80
# ("edge"); members 1-3 of both onions hold no hexagon between two
# pentagons, and every trivalent dodecahedron band mixes both contacts
SPHERE_SIGNATURES = {None: 120 + 6, "vertex": 121, "edge": 121,
                     "mixed": 102}


def test_census_reads_match_the_float_orientation_and_edge_dict(
        sphere_graphs):
    """On every sphere graph: OFF bytes equal those written with the
    float orientation test, the contact signature equals the one read
    through a dict over every directed edge, and the face across edge
    i of face f holds that edge reversed, with f across it."""
    signatures = {}
    for graph in sphere_graphs:
        census = face_census(graph)
        assert export_off(graph, census) == export_off_reference(graph,
                                                                 census)
        signature = pentagon_contact_signature(census)
        assert signature == contact_signature_reference(census)
        signatures[signature] = signatures.get(signature, 0) + 1
        assert len(census.across) == len(census.faces)
        for f, face in enumerate(census.faces):
            assert len(census.across[f]) == len(face)
            for (a, b), g in zip(directed_edges(face), census.across[f]):
                j = directed_edges(census.faces[g]).index((b, a))
                assert census.across[g][j] == f
    assert signatures == SPHERE_SIGNATURES


def test_face_census_crosses_a_fixed_number_of_times(onion_member_graphs,
                                                     monkeypatch):
    """The tangent frames are built in one batch: np.cross runs a fixed
    number of times per census, whatever the vertex count."""
    calls = []
    cross = np.cross

    def spy(*args, **kwargs):
        calls.append(1)
        return cross(*args, **kwargs)

    monkeypatch.setattr(np, "cross", spy)
    counts = []
    for graph in (cage_of("dodecahedron"), onion_member_graphs[3]):
        calls.clear()
        assert face_census(graph).pentagons == 12
        counts.append(len(calls))
    assert onion_member_graphs[3].vertex_count == 960
    assert counts[0] == counts[1] <= 2


def spy_on_tuples(monkeypatch):
    """Record each build of `FaceCensus.faces`/`across` and
    `CageGraph.edges`, the tuple forms built on read."""
    reads = []
    for cls, name in ((cages.FaceCensus, "faces"),
                      (cages.FaceCensus, "across"),
                      (cages.CageGraph, "edges")):
        build = vars(cls)[name].func

        def spy(self, build=build, name=name):
            reads.append(name)
            return build(self)

        monkeypatch.setattr(cls, name, property(spy))
    return reads


def test_onion_and_census_build_no_face_or_edge_tuple(monkeypatch):
    """`build_onion` and a census operation (rotate, search, census,
    contact) work on the arrays alone; OFF export reads the faces and
    writes the bytes it wrote from tuples."""
    reads = spy_on_tuples(monkeypatch)
    start = builtin("c60")
    t = make_translation(start.symmetry, 5, parse_field_expr("3"))
    family = build_onion(start, t, 4).family
    assert [shell.count for shell in family] == [60, 240, 540, 960]
    element = full_group().elements[7]
    graph = trivalence_threshold_search(
        tuple(mat_apply(element, v) for v in builtin("c80").vertices))
    census = face_census(graph)
    assert census.counts == {5: 12, 6: 30}
    assert pentagon_contact_signature(census) == "edge"
    assert reads == []
    text = export_off(graph, census)
    assert reads == ["faces"]
    assert text == export_off_reference(graph, census)


# --- kustov_allowable ------------------------------------------------------

def test_allowable_sizes_match_both_series():
    allowed = {60 * z for z in range(1, 11)} | {60 * z + 20 for z in range(11)}
    for n in range(20, 621):
        assert kustov_allowable(n) == (n in allowed), n


def test_allowable_series_ranges():
    for z in range(1, 51):
        assert kustov_allowable(60 * z)
    for z in range(0, 51):
        assert kustov_allowable(60 * z + 20)


@pytest.mark.parametrize("n", [19, 1, 0, -60])
def test_allowable_rejects_sub_fullerene_sizes(n):
    with pytest.raises(ValueError):
        kustov_allowable(n)


# --- similar_up_to_scale ----------------------------------------------------

def test_similarity_is_scale_invariant():
    c60 = coords_of(builtin("c60").vertices)
    assert similar_up_to_scale(c60, c60 * 2.0)
    dod = coords_of(builtin("dodecahedron").vertices)
    assert similar_up_to_scale(dod, dod * ((1 + 5 ** 0.5) / 2))


def test_similarity_rejects_different_shapes():
    c60 = builtin("c60").vertices
    c240 = array_cage("c60", 5, "3").graph.coords
    assert not similar_up_to_scale(c60, c240)  # different sizes
    assert not similar_up_to_scale(builtin("icosahedron").vertices,
                                   builtin("dodecahedron").vertices)


def test_similarity_of_empty_point_sets():
    assert cages.as_coords(()).shape == (0, 3)
    assert cages.as_coords(np.empty(0)).shape == (0, 3)
    assert similar_up_to_scale([], [])
    assert similar_up_to_scale(np.empty(0), np.empty(0))
    assert similar_up_to_scale(np.empty((0, 3)), [])
    assert not similar_up_to_scale([], builtin("c60").vertices)
    assert not similar_up_to_scale(np.empty(0), builtin("c60").vertices)


def test_similarity_needs_matching_cages():
    # both are 60 points on one sphere, but only c60 bonds trivalently
    c60 = coords_of(builtin("c60").vertices)
    c80 = coords_of(builtin("c80").vertices)
    radii = np.linalg.norm(c80, axis=1)
    outer_orbit = c80[np.abs(radii - radii.max()) < 1e-9]
    assert len(outer_orbit) == 60
    assert trivalence_threshold_search(outer_orbit) is None
    assert not similar_up_to_scale(c60, outer_orbit)
