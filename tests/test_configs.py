"""Tests for the start-configuration catalog and seed files."""

import hashlib

import numpy as np
import pytest

from icofold import configs
from icofold.configs import BUILTIN_NAMES, ConfigError, StartConfig, builtin, load_custom
from icofold.engine import (PointBudgetError, generate_array, make_translation,
                            outer_cage)
from icofold.geometry import Mat3G, Vec3E, integer_rows, mat_apply, norm2
from icofold.golden import GoldenNumber, TAU, parse_field_expr
from icofold.groups import GEN_B5, GEN_R3, PointGroup, full_group


CATALOG = {
    "icosahedron": (12, (GoldenNumber(2, 1),)),
    "dodecahedron": (20, (GoldenNumber(3),)),
    "icosidodecahedron": (30, (GoldenNumber(1, 1),)),  # tau^2 = 1 + tau
    "c60": (60, (GoldenNumber(10, 9),)),
    "c80": (80, (GoldenNumber(12, 12), GoldenNumber(28, 12))),
}


# sha256 of repr([v.key() for v in builtin(name).vertices]), taken from
# the hand-listed vertex sets the seed orbits replaced
CATALOG_DIGESTS = {
    "icosahedron":
        "2b433a8f9e986c4401d308530684e4fe52f9866930c06f1be24b3f44503441be",
    "dodecahedron":
        "059530ab66f8bb8b17fc390a02484fa948cf736d7eb2fa4561abdaa37f3a2ae0",
    "icosidodecahedron":
        "4ca90c7365c2671b8f82493a8d33a5ea81f90671381747fb7d139f5aa7ae4abd",
    "c60": "374a235908874ffed54bc28bd81e8c1df4eb1174c3638318deb0fe4a36118c0c",
    "c80": "82ae3e7a55b512a3bcc61c5b9c6271ce3e73f51224e7542ea83806e56ffdbd31",
}
SOLID_FOLDS = {"icosahedron": 5, "dodecahedron": 3, "icosidodecahedron": 2}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_vertices_are_pinned(name):
    keys = [v.key() for v in builtin(name).vertices]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() \
        == CATALOG_DIGESTS[name]
    if name in SOLID_FOLDS:
        orbit = full_group().translation_orbit(SOLID_FOLDS[name])
        assert {v.key() for v in orbit} == set(keys)


class TestBuiltins:
    def test_catalog_cardinalities_and_radii(self):
        for name, (count, spectrum) in CATALOG.items():
            config = builtin(name)
            assert len(config) == count
            assert config.radius2_spectrum == spectrum

    def test_builtin_names_constant_matches(self):
        assert set(BUILTIN_NAMES) == set(CATALOG)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError):
            builtin("buckyball")

    def test_invariance_under_every_group_element(self):
        group = full_group()
        for name in ("icosahedron", "dodecahedron", "c80"):
            config = builtin(name)
            keys = {v.key() for v in config.vertices}
            for g in group:
                assert all(mat_apply(g, v).key() in keys for v in config.vertices)

    def test_invariance_is_checked_on_the_three_generators(self, monkeypatch):
        group = full_group()
        assert group.generators == (GEN_R3, GEN_B5, -Mat3G.identity())
        applied = []
        real = PointGroup._apply

        def spy(self, den, rows, elements=slice(None)):
            # (elements, rows) given to one batched apply
            applied.append((np.arange(self.order)[elements].size, len(rows)))
            return real(self, den, rows, elements)

        monkeypatch.setattr(PointGroup, "_apply", spy)
        for name in BUILTIN_NAMES:
            applied.clear()
            config = builtin(name)
            seeds = len(configs._SEEDS[name])
            assert applied == [(group.order, seeds), (3, len(config))]

    def test_set_fixed_by_r3_and_inversion_but_not_b5_is_rejected(self):
        one = GoldenNumber(1)
        cube = [Vec3E(sx, sy, sz) for sx in (one, -one) for sy in (one, -one)
                for sz in (one, -one)]
        keys = {v.key() for v in cube}
        for g in (GEN_R3, -Mat3G.identity()):
            assert {mat_apply(g, v).key() for v in cube} == keys
        assert {mat_apply(GEN_B5, v).key() for v in cube} != keys
        with pytest.raises(ConfigError, match="^vertex set of 'cube' is not "
                           "invariant under the symmetry group$"):
            StartConfig("cube", cube, full_group())

    def test_onion_working_cage_is_checked(self):
        # the construction build_onion makes for each working cage
        start = builtin("c60")
        t = make_translation(start.symmetry, 5, GoldenNumber(3))
        points = outer_cage(generate_array(start, t, 1)).graph.points
        assert len(StartConfig("c60.onion1", points, start.symmetry)) == 240
        with pytest.raises(ConfigError, match="^vertex set of 'c60.onion1' "
                           "is not invariant under the symmetry group$"):
            StartConfig("c60.onion1", points[1:], start.symmetry)

    def test_c60_is_equilateral_and_trivalent_by_exact_distance(self):
        config = builtin("c60")
        vertices = config.vertices
        four = GoldenNumber(4)
        for v in vertices:
            gaps = [norm2(v - w) for w in vertices if w is not v]
            at_edge = sum(1 for d in gaps if d == four)
            assert at_edge == 3
            assert all((d - four).sign() >= 0 for d in gaps)

    def test_c80_contains_scaled_cube_corner(self):
        config = builtin("c80")
        corner = Vec3E.from_golden(2 * TAU, 2 * TAU, 2 * TAU)
        assert corner.key() in {v.key() for v in config.vertices}

    def test_c80_orbit_split_is_20_plus_60(self):
        config = builtin("c80")
        inner = [v for v in config.vertices if norm2(v) == GoldenNumber(12, 12)]
        outer = [v for v in config.vertices if norm2(v) == GoldenNumber(28, 12)]
        assert len(inner) == 20 and len(outer) == 60

    def test_c80_seed_lies_on_mirror_plane(self):
        # the 60-orbit seed (2,4,2+2tau) satisfies x - tau^2*y + tau*z = 0
        # exactly, and is one fold-5 base step from the corner 2*(1,1,1)
        seed = Vec3E.from_golden(
            GoldenNumber(2, 0), GoldenNumber(4, 0), GoldenNumber(2, 2),
        )
        value = seed.x - seed.y * (TAU * TAU) + seed.z * TAU
        assert value.is_zero()
        assert seed.key() in {v.key() for v in builtin("c80").vertices}
        step = seed + (-Vec3E.from_golden(2, 2, 2))
        assert step == Vec3E.from_golden(
            GoldenNumber(0, 0), GoldenNumber(2, 0), GoldenNumber(0, 2),
        )

    def test_c80_is_a_trivalent_cage_with_small_edge_spread(self):
        from icofold.cages import face_census, trivalence_threshold_search

        cage = trivalence_threshold_search(builtin("c80").vertices)
        assert cage is not None and cage.trivalent
        assert cage.edge_ratio < 1.25
        assert face_census(cage).counts == {5: 12, 6: 30}

    def test_c80_equal_radius_seed_is_recorded_but_not_catalogued(self):
        from icofold.configs import C80_EQUAL_RADIUS_SEED

        config = builtin("c80")
        keys = {v.key() for v in config.vertices}
        assert C80_EQUAL_RADIUS_SEED.key() not in keys
        # it does share the corner sphere...
        assert norm2(C80_EQUAL_RADIUS_SEED) == GoldenNumber(12, 12)
        # ...but 20 corners + its 60-orbit admit no trivalent cutoff
        from icofold.cages import trivalence_threshold_search
        from icofold.groups import full_group

        group = full_group()
        corners = group.orbit(
            Vec3E.from_golden(2 * TAU, 2 * TAU, 2 * TAU)
        )
        orbit = group.orbit(C80_EQUAL_RADIUS_SEED)
        assert len(orbit) == 60
        assert trivalence_threshold_search(corners + orbit) is None

    def test_constructor_deduplicates(self):
        config = builtin("icosahedron")
        doubled = StartConfig(
            "doubled", config.vertices + config.vertices, config.symmetry
        )
        assert len(doubled) == 12


class TestCustomSeeds:
    def test_single_seed_with_closure(self, tmp_path):
        path = tmp_path / "ico.txt"
        path.write_text("@closure on\n0,1,tau\n")
        config = load_custom(str(path))
        assert len(config) == 12
        assert config.radius2_spectrum == (GoldenNumber(2, 1),)
        assert config.name == "ico"

    def test_cube_corner_seed_closes_to_dodecahedron(self, tmp_path):
        path = tmp_path / "dodec.txt"
        path.write_text("# one seed is enough\n@closure on\n1,1,1\n")
        assert len(load_custom(str(path))) == 20

    def test_malformed_token_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("@closure on\n0,1,taau\n")
        with pytest.raises(ConfigError) as info:
            load_custom(str(path))
        assert "bad.txt:2" in str(info.value)

    def test_full_list_without_closure(self, tmp_path):
        lines = [
            ",".join(str(c) for c in v) for v in builtin("icosahedron").vertices
        ]
        path = tmp_path / "explicit.txt"
        path.write_text("@closure off\n" + "\n".join(lines) + "\n")
        assert len(load_custom(str(path))) == 12

    def test_incomplete_list_without_closure_raises(self, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text("0,1,tau\n")
        with pytest.raises(ConfigError):
            load_custom(str(path))

    def test_wrong_arity_raises(self, tmp_path):
        path = tmp_path / "arity.txt"
        path.write_text("1,2\n")
        with pytest.raises(ConfigError):
            load_custom(str(path))

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ConfigError):
            load_custom(str(path))

    def test_missing_file_raises(self):
        with pytest.raises(ConfigError):
            load_custom("/nonexistent/seeds.txt")

    def test_unknown_directive_raises(self, tmp_path):
        path = tmp_path / "directive.txt"
        path.write_text("@spin up\n1,1,1\n")
        with pytest.raises(ConfigError):
            load_custom(str(path))

    def test_fractional_and_expression_coordinates(self, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("@closure on\n(7+tau)/5, tau^2, 1/2\n")
        config = load_custom(str(path))
        assert len(config) % 1 == 0 and len(config) >= 60


# --- configurations built from integer rows ------------------------------

def row_set(rows):
    return set(map(tuple, rows.tolist()))


@pytest.mark.parametrize("name,length,members", [
    ("c60", "3", 3), ("c80", "2", 3), ("dodecahedron", "1", 4)])
def test_rows_built_members_match_points_built_ones(name, length, members):
    # each onion member as build_onion makes it, from the winning union's
    # rows, against the same member built from its exact points
    start = builtin(name)
    t = make_translation(start.symmetry, 5, parse_field_expr(length))
    working = start
    for j in range(1, members + 1):
        graph = outer_cage(generate_array(working, t, 1)).graph
        by_rows = StartConfig.from_rows(f"m{j}", *graph.rows, start.symmetry)
        by_points = StartConfig(f"m{j}", graph.points, start.symmetry)
        assert [v.key() for v in by_rows.vertices] \
            == [v.key() for v in by_points.vertices] \
            == sorted(v.key() for v in graph.points)
        den, rows = by_rows.integer_rows
        want_den, want = integer_rows(graph.points)
        assert den == want_den == by_points.integer_rows[0]
        assert rows.dtype == by_points.integer_rows[1].dtype == np.int64
        assert row_set(rows) == row_set(want) \
            == row_set(by_points.integer_rows[1])
        assert len(by_rows) == len(by_points) == len(graph.points)
        working = by_rows


def test_rows_missing_one_row_are_refused():
    start = builtin("c60")
    t = make_translation(start.symmetry, 5, parse_field_expr("3"))
    den, rows = outer_cage(generate_array(start, t, 1)).graph.rows
    assert len(StartConfig.from_rows("c60.onion1", den, rows,
                                     start.symmetry)) == 240
    with pytest.raises(ConfigError, match="^vertex set of 'c60.onion1' "
                       "is not invariant under the symmetry group$"):
        StartConfig.from_rows("c60.onion1", den, rows[1:], start.symmetry)


def test_rows_past_int64_behave_as_points(tmp_path):
    # three primes past 2^32 as denominators put the rows past int64
    path = tmp_path / "wide.txt"
    path.write_text("@closure on\n2/4294967311, 2/4294967357, "
                    "2/4294967371\n")
    config = load_custom(str(path))
    group = full_group()
    seed = config.vertices[0]
    by_points = StartConfig("wide", group.orbit(seed), group)
    for got in (config, StartConfig.from_rows(
            "wide", *integer_rows(by_points.vertices), group)):
        assert got.integer_rows[1].dtype == object
        assert got.integer_rows[0] == by_points.integer_rows[0]
        assert row_set(got.integer_rows[1]) \
            == row_set(by_points.integer_rows[1])
        assert [v.key() for v in got.vertices] \
            == [v.key() for v in by_points.vertices]
        assert len(got) == len(by_points) == 120
    # rows past int64 only through a common factor reduce to int64 rows
    den, rows = builtin("c80").integer_rows
    scaled = StartConfig.from_rows("c80", den << 40,
                                   rows.astype(object) << 40, group)
    assert scaled.integer_rows[0] == den
    assert scaled.integer_rows[1].dtype == np.int64
    assert row_set(scaled.integer_rows[1]) == row_set(rows)
    # repeated rows are dropped
    assert len(StartConfig.from_rows("c80", den, np.vstack([rows, rows]),
                                     group)) == 80


def test_closure_budget_is_checked_before_any_image(tmp_path, monkeypatch):
    assert configs.DEFAULT_POINT_CAP == 10 ** 6
    # 25 generic seeds close to 120 * 25 = 3000 points
    path = tmp_path / "generic.txt"
    path.write_text("@closure on\n" + "".join(
        f"{k + 1},{2 * k + 3},{3 * k + 7}\n" for k in range(25)))
    applied = []
    real = PointGroup._apply

    def spy(self, den, rows, elements=slice(None)):
        applied.append(len(rows))
        return real(self, den, rows, elements)

    monkeypatch.setattr(PointGroup, "_apply", spy)
    monkeypatch.setattr(configs, "DEFAULT_POINT_CAP", 120 * 25 - 1)
    with pytest.raises(PointBudgetError, match="^closing 25 seeds makes "
                       "3000 points, over the cap of 2999$"):
        load_custom(str(path))
    assert applied == []
    monkeypatch.setattr(configs, "DEFAULT_POINT_CAP", 120 * 25)
    assert len(load_custom(str(path))) == 3000
    assert applied == [25, 3000]
