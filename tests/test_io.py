"""Serialization: XYZ/OFF float channels, exact CSV, canonical JSON."""

import hashlib
import math
import random

import numpy as np
import pytest

from icofold.cages import (CageGraph, as_coords, face_census,
                           trivalence_threshold_search)
from icofold.configs import builtin
from icofold.engine import generate_array, make_translation, outer_cage
from icofold.export import (
    BOND_LENGTH,
    ExportError,
    _min_pairwise_distance,
    canonical_json,
    export_csv,
    export_off,
    export_xyz,
    provenance_comment,
    read_csv,
)
from icofold.golden import FieldParseError, GoldenNumber, parse_field_expr
from icofold.pentagon import Vec2E, pentagon_array


def c60_graph():
    graph = trivalence_threshold_search(builtin("c60").vertices)
    assert graph is not None
    return graph


def parse_xyz(text):
    lines = text.splitlines()
    count = int(lines[0])
    rows = []
    for line in lines[2:2 + count]:
        tag, *coords = line.split()
        assert tag == "C"
        rows.append(tuple(float(c) for c in coords))
    return lines[1], rows


# --- XYZ ---------------------------------------------------------------

def test_xyz_structure():
    text = export_xyz(builtin("c60").vertices, comment="sixty vertices")
    lines = text.splitlines()
    assert lines[0] == "60"
    assert lines[1] == "sixty vertices"
    assert len(lines) == 62
    assert text.endswith("\n")
    comment, rows = parse_xyz(text)
    assert len(rows) == 60 and all(len(r) == 3 for r in rows)
    # one orbit: every point sits on the same sphere
    radii = [math.fsum(c * c for c in r) for r in rows]
    assert max(radii) - min(radii) < 1e-4


def test_xyz_matches_input_coordinates():
    points = builtin("dodecahedron").vertices
    _, rows = parse_xyz(export_xyz(points))
    expected = sorted(tuple(p.as_floats()) for p in points)
    for got, want in zip(sorted(rows), expected):
        assert got == pytest.approx(want, abs=5e-7)  # 6 decimals


def test_xyz_input_order_does_not_matter():
    points = list(builtin("c60").vertices)
    shuffled = points[:]
    random.Random(7).shuffle(shuffled)
    assert export_xyz(points) == export_xyz(shuffled)


def test_xyz_bond_scaling_sets_min_distance():
    text = export_xyz(builtin("c60").vertices, bond_scale=True)
    _, rows = parse_xyz(text)
    dmin = min(math.dist(a, b)
               for i, a in enumerate(rows) for b in rows[i + 1:])
    assert dmin == pytest.approx(BOND_LENGTH, abs=1e-4)
    # the built-in c60 bond is exactly 2, so the factor is exactly 0.71
    assert "C " + " ".join(
        f"{0.71 * c:.6f}" for c in builtin("c60").vertices[0].as_floats()
    ) in text


def test_xyz_pads_plane_points_to_three_columns():
    arr = pentagon_array(parse_field_expr("tau"))
    _, rows = parse_xyz(export_xyz(arr.points))
    assert all(len(r) == 3 and r[2] == 0.0 for r in rows)


def test_xyz_empty_is_an_error():
    with pytest.raises(ExportError, match="nothing"):
        export_xyz([])


def test_bond_scaling_needs_two_distinct_points():
    v = builtin("c60").vertices[0]
    with pytest.raises(ExportError, match="two points"):
        export_xyz([v], bond_scale=True)
    with pytest.raises(ExportError, match="distinct"):
        export_xyz([v, v], bond_scale=True)


def pairwise_loop_minimum(rows):
    """The bond-scale minimum as first written: math.dist on every pair."""
    return min(math.dist(a, b) for i, a in enumerate(rows)
               for b in rows[i + 1:])


def test_bond_scale_minimum_matches_the_pairwise_loop():
    """The shortlisted minimum is the pairwise loop's, bit for bit, on
    cages, plane points and random sets around the chunk size, and a
    duplicate pair split across chunks is still refused."""
    start = builtin("c60")
    t = make_translation(start.symmetry, 5, parse_field_expr("3"))
    sets = [[tuple(p.as_floats()) for p in points] for points in (
        builtin("c60").vertices, builtin("c80").vertices,
        outer_cage(generate_array(start, t, 1)).graph.points,
        pentagon_array(parse_field_expr("tau")).points)]
    rng = random.Random(17)
    for n in (2, 63, 64, 65, 129):
        sets.append([tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
                     for _ in range(n)])
        sets.append([tuple(rng.randint(-3, 3) / 10 for _ in range(3))
                     for _ in range(n)])
    # turned c60s on which the smallest float squared distance and the
    # smallest math.dist fall on different bonds, one ulp apart
    c60 = as_coords(builtin("c60").vertices)
    for seed in (61, 124):
        turn, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
        sets.append([tuple(row) for row in (c60 @ turn).tolist()])
    for rows in sets:
        want = pairwise_loop_minimum(rows)
        assert _min_pairwise_distance(rows).hex() == want.hex()
    points = list(builtin("c80").vertices)
    with pytest.raises(ExportError, match="distinct"):
        export_xyz(points + [points[3]], bond_scale=True)


# --- OFF ---------------------------------------------------------------

def parse_off(text):
    lines = text.splitlines()
    assert lines[0] == "OFF"
    nv, ne, nf = (int(x) for x in lines[1].split())
    verts = [tuple(float(c) for c in line.split())
             for line in lines[2:2 + nv]]
    faces = []
    for line in lines[2 + nv:2 + nv + nf]:
        nums = [int(x) for x in line.split()]
        assert nums[0] == len(nums) - 1
        faces.append(tuple(nums[1:]))
    assert len(lines) == 2 + nv + nf
    return (nv, ne, nf), verts, faces


def test_off_c60():
    text = export_off(c60_graph())
    (nv, ne, nf), verts, faces = parse_off(text)
    assert (nv, ne, nf) == (60, 90, 32)
    sizes = sorted(len(f) for f in faces)
    assert sizes == [5] * 12 + [6] * 20
    assert all(f[0] == min(f) for f in faces)  # canonical rotation
    for face in faces:  # outward orientation: normal agrees with centroid
        pts = [verts[i] for i in face]
        normal = [0.0, 0.0, 0.0]
        for i in range(len(pts)):
            a, b = pts[i], pts[(i + 1) % len(pts)]
            normal[0] += a[1] * b[2] - a[2] * b[1]
            normal[1] += a[2] * b[0] - a[0] * b[2]
            normal[2] += a[0] * b[1] - a[1] * b[0]
        centroid = [sum(c) / len(pts) for c in zip(*pts)]
        assert sum(a * b for a, b in zip(normal, centroid)) > 0


def test_off_c240_counts():
    start = builtin("c60")
    t = make_translation(start.symmetry, 5, parse_field_expr("3"))
    finding = outer_cage(generate_array(start, t, 1))
    text = export_off(finding.graph, finding.census)
    assert text.splitlines()[1] == "240 360 122"


def test_off_of_a_float_graph_matches_the_exact_one():
    """A graph searched from float coordinates has no exact points; its
    OFF bytes are those of the graph searched from the same Vec3E
    points, with and without bond scaling."""
    start = builtin("c60")
    t = make_translation(start.symmetry, 5, parse_field_expr("3"))
    for points in (builtin("c60").vertices,
                   outer_cage(generate_array(start, t, 1)).graph.points):
        exact = trivalence_threshold_search(points)
        floats = trivalence_threshold_search(as_coords(points))
        assert floats.points is None
        for bond_scale in (False, True):
            assert (export_off(floats, None, bond_scale)
                    == export_off(exact, None, bond_scale))


def test_off_requires_a_trivalent_cage():
    points = builtin("icosahedron").vertices[:4]
    coords = __import__("numpy").array([p.as_floats() for p in points])
    square = CageGraph(coords, ((0, 1), (1, 2), (2, 3), (3, 0)), 1.0)
    square.points = points
    with pytest.raises(ExportError, match="trivalent"):
        export_off(square)


def test_off_is_deterministic():
    assert export_off(c60_graph()) == export_off(c60_graph())


# --- CSV (exact round-trip) ----------------------------------------------

def test_csv_roundtrip_3d():
    points = builtin("c80").vertices
    text = export_csv(points)
    assert text.startswith("# radicand: 1\n")
    back = read_csv(text)
    assert {p.key() for p in back} == {p.key() for p in points}
    assert export_csv(back) == text


def test_csv_roundtrip_2d_with_radicals():
    arr = pentagon_array(parse_field_expr("tau"))
    text = export_csv(arr.points)
    assert text.splitlines()[1] == "x,y"
    back = read_csv(text)
    assert {p.key() for p in back} == {p.key() for p in arr.points}
    assert export_csv(back) == text


@pytest.mark.parametrize("direction,digest", [
    ("vertex",
     "aadb7869951a3e3dc143fb36a8ca3110f3b14914521bc33a11d59574a836c71b"),
    ("edge",
     "9133e40398990dd586eaf6862724c61266fbfeb9142591545b1c7379aeb5a769"),
])
def test_csv_2d_bytes_are_pinned(direction, digest):
    text = export_csv(pentagon_array(parse_field_expr("tau"), direction).points)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_csv_2d_cells():
    half_tau = Vec2E(GoldenNumber(0, 1) / 2, GoldenNumber(-1, 0))
    for header in ("2+tau", "tau+2"):
        text = f"# radicand: {header}\nx,y\n(1/2*tau)*sqrt(2+tau),-1\n0,1\n"
        assert read_csv(text) == [half_tau, Vec2E(GoldenNumber(0),
                                                  GoldenNumber(1))]
    for header, row, message in [
        ("1", "(1)*sqrt(2+tau),1", "2D rows need the header"),
        ("2+tau", "1,1", "neither 0 nor"),
        ("2+tau", "(1)*sqrt(3),1", "neither 0 nor"),
        ("2+tau", "1*sqrt(2+tau),1", "neither 0 nor"),
        ("2+tau", "0,(1)*sqrt(2+tau)", "radical"),
    ]:
        with pytest.raises(ExportError, match=message):
            read_csv(f"# radicand: {header}\nx,y\n{row}\n")
    # an x cell is one radical term: "(1)+(2)" is not a group
    with pytest.raises(FieldParseError):
        read_csv("# radicand: 2+tau\nx,y\n(1)+(2)*sqrt(2+tau),1\n")


def test_csv_roundtrip_after_translation():
    start = builtin("dodecahedron")
    t = make_translation(start.symmetry, 5, parse_field_expr("tau"))
    array = generate_array(start, t, 1)
    text = export_csv(array.points)
    assert {p.key() for p in read_csv(text)} == {p.key() for p in array.points}


def test_csv_3d_header_is_one_and_old_headers_still_read():
    start = builtin("c60")
    t = make_translation(start.symmetry, 5, parse_field_expr("3"))
    points = outer_cage(generate_array(start, t, 1)).graph.points
    text = export_csv(points)
    assert text.startswith("# radicand: 1\nx,y,z\n")
    want = {p.key() for p in points}
    # fold-3 and fold-5 files used to name their workspace radicand
    for header in ("# radicand: 3", "# radicand: 2+tau"):
        old = text.replace("# radicand: 1", header, 1)
        assert {p.key() for p in read_csv(old)} == want


def test_csv_radical_3d_cell_is_rejected():
    text = "# radicand: 3\nx,y,z\n1,tau,sqrt(3)\n"
    with pytest.raises(ExportError, match="radical"):
        read_csv(text)
    assert read_csv("# radicand: 3\nx,y,z\n1,tau,0\n")[0].as_floats() \
        == (1.0, float(parse_field_expr("tau")), 0.0)


def test_csv_missing_radicand_header():
    with pytest.raises(ExportError, match="radicand"):
        read_csv("x,y,z\n1,2,3\n")


def test_csv_wrong_column_count():
    text = "# radicand: 1\nx,y,z\n1,2\n"
    with pytest.raises(ExportError, match="columns"):
        read_csv(text)


def test_csv_empty_is_an_error():
    with pytest.raises(ExportError, match="nothing"):
        export_csv([])


# --- JSON and options -------------------------------------------------------

def test_canonical_json_bytes():
    assert canonical_json({"b": 1, "a": [1, 2]}) == (
        '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    )
    assert canonical_json({"a": [1, 2], "b": 1}) == canonical_json(
        {"b": 1, "a": [1, 2]}
    )


def test_provenance_comment_fields():
    assert provenance_comment("c60", 5, "3", 1, (1.0, 2.5)) == (
        "start=c60 fold=5 length=3 depth=1 band=1.000000..2.500000"
    )
    assert provenance_comment() == "exact icosahedral point set"


def test_face_census_feeds_off_export():
    graph = c60_graph()
    census = face_census(graph)
    assert export_off(graph, census) == export_off(graph)
