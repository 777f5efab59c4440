"""Nested cage families grown by iterating one translation."""

import math

import pytest

import group_reference as ref
from icofold import cages, groups
from icofold.cages import FaceCensus
from icofold.configs import C80_EQUAL_RADIUS_SEED, StartConfig, builtin
from icofold.engine import generate_array, make_translation, outer_cage
from icofold.geometry import Vec3E
from icofold.golden import GoldenNumber, parse_field_expr
from icofold.onion import (
    FAMILY_FORMULAS,
    OnionReport,
    OnionShell,
    build_onion,
    family_formula,
)

TAU_FLOAT = (1 + 5 ** 0.5) / 2


def grow(name, expr, iterations=2):
    start = builtin(name)
    t = make_translation(start.symmetry, 5, parse_field_expr(expr))
    return build_onion(start, t, iterations)


@pytest.fixture(scope="module")
def c60_family():
    return grow("c60", "3")


@pytest.fixture(scope="module")
def c80_family():
    return grow("c80", "2")


# --- the two catalogued families -------------------------------------------

def test_c60_family_counts_and_faces(c60_family):
    report = c60_family
    assert report.complete and report.failure is None
    assert report.counts == (60, 240, 540)
    assert report.formula == "60z^2"
    assert report.z_values == (1, 2, 3)
    assert report.pentagon_contact == "vertex"
    expected_faces = [{5: 12, 6: 20}, {5: 12, 6: 110}, {5: 12, 6: 260}]
    for shell, faces in zip(report.family, expected_faces):
        assert shell.census.counts == faces
        # every vertex borders three faces: the cage is trivalent
        assert sum(map(len, shell.census.faces)) == 3 * shell.count
        assert shell.edge_ratio < 1.5


def test_c80_family_counts_and_faces(c80_family):
    report = c80_family
    assert report.complete
    assert report.counts == (80, 180, 320)
    assert report.formula == "20(z+1)^2"
    assert report.z_values == (1, 2, 3)
    assert report.pentagon_contact == "edge"
    expected_faces = [{5: 12, 6: 30}, {5: 12, 6: 80}, {5: 12, 6: 150}]
    for shell, faces in zip(report.family, expected_faces):
        assert shell.census.counts == faces


@pytest.mark.parametrize("family_name,expr", [("c60", "3"), ("c80", "2")])
def test_radii_grow_by_almost_the_translation_length(
        family_name, expr, c60_family, c80_family):
    report = c60_family if family_name == "c60" else c80_family
    radii = [shell.outer_radius for shell in report.family]
    assert radii == sorted(radii)
    # each layer sits one translation below the straight-line bound
    step_bound = float(parse_field_expr(expr)) * math.sqrt(2 + TAU_FLOAT)
    for inner, outer in zip(radii, radii[1:]):
        assert 0.9 * step_bound <= outer - inner <= step_bound


def test_pruned_iteration_matches_full_expansion(c80_family):
    # the reference re-expands the full depth-j word set from the start
    report = c80_family
    assert report.counts == (80, 180, 320)
    for shell in report.family[1:]:
        array = generate_array(report.start, report.translation,
                               shell.iteration)
        full = outer_cage(array).graph.points
        assert shell.count == len(full)
        assert {p.key() for p in shell.points} == {p.key() for p in full}


@pytest.mark.parametrize("name,expr", [("c60", "3"), ("c80", "2")])
def test_members_lie_in_one_affine_array(name, expr):
    """Members 1..k are subsets of the start's own depth-k array, for k up
    to 3: the whole onion is one point array of the translation, and
    the member search only picks among its points.  Points are compared
    as integer rows (a_x, b_x, a_y, b_y, a_z, b_z) over one denominator;
    member k + 1 shares no point with the depth-k array."""
    report = grow(name, expr, 3)
    assert report.complete and len(report.family) == 4

    def integer_rows(keys, den):
        # each key holds (an, bn, den) per coordinate
        return {tuple(key[i + j] * (den // key[i + 2])
                      for i in (0, 3, 6) for j in (0, 1)) for key in keys}

    members = [[p.key() for p in shell.points] for shell in report.family]
    for k in (1, 2, 3):
        array = generate_array(report.start, report.translation, k)
        den = math.lcm(*(key[i] for keys in members[1:] for key in keys
                         for i in (2, 5, 8)), array.shells[0].den)
        assert {shell.den for shell in array.shells} == {array.shells[0].den}
        rows = set()
        for shell in array.shells:
            rows.update(map(tuple, (shell.rows * (den // shell.den)).tolist()))
        assert len(rows) == len(array)
        for keys in members[1:k + 1]:
            assert integer_rows(keys, den) <= rows
        if k < 3:
            assert not integer_rows(members[k + 1], den) & rows


# --- partial and failed families ---------------------------------------------

def test_partial_family_keeps_completed_members():
    start = builtin("dodecahedron")
    t = make_translation(start.symmetry, 2, parse_field_expr("tau"))
    report = build_onion(start, t, 2)
    assert not report.complete
    assert report.failure == "no trivalent outer cage at iteration 1"
    assert report.counts == (20,)
    assert report.formula is None  # 20 = 20*(0+1)^2 needs z = 0


def test_non_cage_start_fails_cleanly():
    start = builtin("icosahedron")
    t = make_translation(start.symmetry, 5, parse_field_expr("tau"))
    report = build_onion(start, t, 1)
    assert report.family == ()
    assert report.counts == ()
    assert report.failure == "start configuration is not a trivalent cage"
    assert not report.complete


def test_rejected_equal_radius_seed_is_not_a_cage():
    """The 80 points of the single-sphere parametrisation (20 corners plus
    the equal-radius 60-orbit) admit no trivalent cutoff, which is why the
    catalog uses the two-radius c80 instead."""
    from icofold.geometry import Vec3E

    group = builtin("c80").symmetry
    two_tau = GoldenNumber(0, 2)
    corner = Vec3E.from_golden(two_tau, two_tau, two_tau)
    corners = list(group.orbit(corner))
    assert len(corners) == 20
    equal = list(group.orbit(C80_EQUAL_RADIUS_SEED))
    assert len(equal) == 60
    config = StartConfig("c80-equal-radius", corners + equal, group)
    assert len(config.vertices) == 80
    t = make_translation(group, 5, parse_field_expr("2"))
    report = build_onion(config, t, 1)
    assert report.failure == "start configuration is not a trivalent cage"


def test_perturbed_seed_breaks_the_family():
    """Moving the 60-orbit seed by one unit in its last coordinate loses
    the mirror stabilizer (orbit 120, not 60) and the family with it."""
    from icofold.geometry import Vec3E

    group = builtin("c80").symmetry
    two_tau = GoldenNumber(0, 2)
    corner = Vec3E.from_golden(two_tau, two_tau, two_tau)
    bad = Vec3E.from_golden(GoldenNumber(2, 0), GoldenNumber(4, 0),
                            GoldenNumber(2, 1))
    points = list(group.orbit(corner)) + list(group.orbit(bad))
    assert len(points) == 140
    config = StartConfig("c80-perturbed", points, group)
    t = make_translation(group, 5, parse_field_expr("2"))
    report = build_onion(config, t, 1)
    assert not report.complete
    assert report.counts == ()


# --- formulas and report structure ---------------------------------------------

@pytest.mark.parametrize(
    "tag,z,expected",
    [
        ("60z^2", 1, 60), ("60z^2", 2, 240), ("60z^2", 3, 540),
        ("60z^2", 4, 960),
        ("20(z+1)^2", 1, 80), ("20(z+1)^2", 2, 180), ("20(z+1)^2", 3, 320),
        ("20(z+1)^2", 4, 500),
    ],
)
def test_family_formula_values(tag, z, expected):
    assert family_formula(tag, z) == expected


def test_family_formula_rejects_bad_arguments():
    with pytest.raises(ValueError, match="z = 1"):
        family_formula("60z^2", 0)
    with pytest.raises(ValueError, match="60z\\^2"):
        family_formula("30z^3", 2)
    assert FAMILY_FORMULAS == ("60z^2", "20(z+1)^2")


def test_report_requires_increasing_counts():
    start = builtin("c60")
    t = make_translation(start.symmetry, 5, parse_field_expr("3"))
    census = FaceCensus((), (), ())
    shells = tuple(
        OnionShell(i, 60, 5.0, census, 1.0, None, ())
        for i in range(2)
    )
    with pytest.raises(ValueError, match="strictly increase"):
        OnionReport(start, t, shells, None)


def test_report_as_dict(c60_family):
    payload = c60_family.as_dict()
    assert payload["start"] == "c60"
    assert payload["fold"] == 5
    assert payload["length"] == "3"
    assert payload["formula"] == "60z^2"
    assert payload["complete"] is True
    assert payload["failure"] is None
    rows = payload["family"]
    assert [row["iteration"] for row in rows] == [0, 1, 2]
    assert [row["z"] for row in rows] == [1, 2, 3]
    assert [row["count"] for row in rows] == [60, 240, 540]
    assert [row["edges"] for row in rows] == [90, 360, 810]
    for row in rows:
        assert row["trivalent"] is True
        assert set(row["faces"]) == {"5", "6", "other"}
        assert row["faces"]["5"] == 12
        assert row["faces"]["other"] == 0


def test_iterations_must_be_positive():
    start = builtin("c60")
    t = make_translation(start.symmetry, 5, parse_field_expr("3"))
    with pytest.raises(ValueError, match="iteration"):
        build_onion(start, t, 0)


def test_members_past_the_start_build_no_points_until_read(monkeypatch):
    start = builtin("c60")
    t = make_translation(start.symmetry, 5, parse_field_expr("3"))
    # the reference: each member's points as the points path builds them
    want, working = [], start
    for j in range(1, 4):
        graph = outer_cage(generate_array(working, t, 1)).graph
        want.append([p.key() for p in graph.points])
        working = StartConfig(f"c60.onion{j}", graph.points, start.symmetry)
    start.vertices, start.radius2  # the start shell reads them
    built, made = [], []
    real_init, real_make = Vec3E.__init__, Vec3E._make.__func__

    def init_spy(self, *args):
        made.append(1)
        real_init(self, *args)

    def make_spy(cls, *args):
        made.append(1)
        return real_make(cls, *args)

    ref.spy_on_builders(monkeypatch, built)
    monkeypatch.setattr(Vec3E, "__init__", init_spy)
    monkeypatch.setattr(Vec3E, "_make", classmethod(make_spy))
    report = build_onion(start, t, 4)
    assert report.counts == (60, 240, 540, 960)
    assert built == [] and made == []
    assert report.family[0].points is start.vertices
    for j, keys in enumerate(want, start=1):
        points = report.family[j].points
        assert built[-1] == len(made) == len(points) == report.counts[j]
        assert [p.key() for p in points] == keys
        assert report.family[j].points is points
        built.clear(), made.clear()


@pytest.mark.parametrize("name,expr,counts", [
    ("c60", "3", (60, 240, 540, 960)),
    ("c80", "2", (80, 180, 320, 500)),
])
def test_members_are_checked_for_invariance_once(name, expr, counts,
                                                 monkeypatch):
    """Each member's rows passed the invariance lookup in the search
    that found them, so building the next start runs no second lookup;
    a graph the search did not find invariant still gets the check."""
    start = builtin(name)
    t = make_translation(start.symmetry, 5, parse_field_expr(expr))
    lookups, searched = [], []
    lookup = groups.PointGroup.orbits
    search = cages._NearestTable.search
    monkeypatch.setattr(groups.PointGroup, "orbits",
                        lambda self, den, rows: lookups.append(len(rows))
                        or lookup(self, den, rows))
    monkeypatch.setattr(cages._NearestTable, "search",
                        lambda self, chosen: searched.append(chosen)
                        or search(self, chosen))
    report = build_onion(start, t, 4)
    assert report.counts == counts
    assert len(searched) == len(lookups) > 0
    finding = outer_cage(generate_array(start, t, 1))
    assert finding.graph._symmetry is start.symmetry
    floats = cages.trivalence_threshold_search(finding.graph.coords)
    assert floats._symmetry is None
    lookups.clear()
    StartConfig._from_rows("member", *finding.graph.rows, start.symmetry,
                           floats._symmetry is start.symmetry)
    assert lookups == [counts[1]]


@pytest.mark.parametrize("name,expr,counts,dropped", [
    ("c60", "(1+6*tau)/4", (60, 240, 300, 960), (None, None, 28)),
    ("dodecahedron", "(-1+5*tau)/5", (20, 120, 300, 560), (None, None, 26)),
])
def test_two_bond_length_families(name, expr, counts, dropped):
    """Two fold-5 families outside the formulas bond at two lengths, at
    an edge ratio of about 1.48 just under the 1.5 cap.  Each reaches
    its third member past the start only by dropping an interior shell,
    and has no cage at iteration 4."""
    start = builtin(name)
    t = make_translation(start.symmetry, 5, parse_field_expr(expr))
    report = build_onion(start, t, 4)
    assert report.counts == counts
    assert report.failure == "no trivalent outer cage at iteration 4"
    assert math.isclose(report.family[0].edge_ratio, 1.0)
    working = start
    for j, member in enumerate(report.family[1:], 1):
        assert 1.46 < member.edge_ratio < cages._CAGE_MAX_EDGE_RATIO
        finding = outer_cage(generate_array(working, t, 1))
        assert finding.vertex_count == member.count
        assert finding.graph.edge_ratio == member.edge_ratio
        assert finding.dropped_index == dropped[j - 1]
        working = StartConfig.from_rows(f"{name}.onion{j}",
                                        *finding.graph.rows, start.symmetry)
    assert outer_cage(generate_array(working, t, 1)) is None


def shells_less(first, last, dropped=None):
    """(shell indices first..last less `dropped`, `dropped`)."""
    return tuple(i for i in range(first, last + 1) if i != dropped), dropped


@pytest.mark.parametrize("name,expr,unions,gates", [
    ("c60", "3", (shells_less(6, 8), shells_less(17, 21),
                  shells_less(37, 45, 40), None), (2, 4, 23, 31)),
    ("c80", "2", (shells_less(8, 10), shells_less(13, 17, 14),
                  shells_less(22, 28, 25), None), (2, 20, 25, 39)),
])
def test_benchmarked_onion_members_come_from_pinned_unions(
        name, expr, unions, gates, monkeypatch):
    """The union each member of the benchmarked onions is read off, as
    (shell indices, dropped index), with no cage at iteration 4, and the
    number of windows gated on each iteration's array: a gate that
    reorders or skips windows changes one of them."""
    found, gated = [], []
    detect, verdicts = cages._detect_cage, cages._NearestTable.verdicts

    def detect_spy(*args):
        gated.append(0)
        finding = detect(*args)
        found.append(finding and (finding.shell_indices,
                                  finding.dropped_index))
        return finding

    def verdicts_spy(self, low, drops):
        gated[-1] += 1
        return verdicts(self, low, drops)

    monkeypatch.setattr(cages, "_detect_cage", detect_spy)
    monkeypatch.setattr(cages._NearestTable, "verdicts", verdicts_spy)
    report = grow(name, expr, 4)
    assert len(report.family) == 4
    assert found == list(unions) and gated == list(gates)
