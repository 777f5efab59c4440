"""Built-in verification suite for the package's reference results.

Ten named checks cover the exact group structure, the planar five-fold
demo, the depth-1 cage catalog, the icosidodecahedron negative result,
the truncated-icosahedron shells, both nested-cage families, the family
count formulas, the allowability predicate, and seven randomized
property suites.  Each check records deterministic detail lines, so the
JSON report is byte-identical across runs; wall-clock timings stay out
of the payload.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cache

from . import cages
from .configs import C80_EQUAL_RADIUS_SEED, StartConfig, builtin
from .engine import (DEFAULT_SCAN_SPEC, classify_length, classify_scan,
                     generate_array, make_translation, outer_cage)
from .geometry import Vec3E, mat_apply, norm2
from .golden import GoldenNumber, TAU, parse_field_expr
from .groups import full_group, rotation_group
from .onion import build_onion, family_formula
from .pentagon import pentagon_array

__all__ = [
    "CheckResult",
    "CHECK_NAMES",
    "run_checks",
    "render_table",
    "as_payload",
]

_RNG_SEED = 104729
_PROPERTY_CASES = 1000


class CheckResult:
    """Outcome of one named check: pass flag plus detail lines."""

    __slots__ = ("name", "title", "passed", "details", "elapsed")

    def __init__(self, name: str, title: str, passed: bool,
                 details: list[str], elapsed: float) -> None:
        self.name = name
        self.title = title
        self.passed = passed
        self.details = details
        self.elapsed = elapsed


class _Recorder:
    def __init__(self) -> None:
        self.details: list[str] = []
        self.passed = True

    def expect(self, condition: bool, label: str) -> None:
        if condition:
            self.details.append(f"ok: {label}")
        else:
            self.details.append(f"FAIL: {label}")
            self.passed = False

    def expect_eq(self, got, want, label: str) -> None:
        self.expect(got == want, f"{label} = {got!r} (expected {want!r})")

    def note(self, label: str) -> None:
        self.details.append(f"note: {label}")


def _cage(config_name: str, fold: int, length_expr: str, depth: int = 1):
    start = builtin(config_name)
    translation = make_translation(start.symmetry, fold,
                                   parse_field_expr(length_expr))
    array = generate_array(start, translation, depth)
    return outer_cage(array)


def _check_groups(rec: _Recorder) -> None:
    rotations = rotation_group()
    full = full_group()
    rec.expect_eq(rotations.order, 60, "rotation group order")
    rec.expect_eq(full.order, 120, "full group order")
    for fold, want in ((2, 15), (3, 10), (5, 6)):
        rec.expect_eq(len(full.axes(fold)), want, f"{fold}-fold axis count")


def _check_pentagon(rec: _Recorder) -> None:
    golden_case = pentagon_array(TAU)
    rec.expect_eq(golden_case.generic, 30, "generic cardinality")
    rec.expect_eq(golden_case.actual, 25, "cardinality at length tau")
    rec.expect(golden_case.nontrivial, "length tau is nontrivial")
    half_case = pentagon_array(GoldenNumber(Fraction(1, 2), 0))
    rec.expect_eq(half_case.actual, 30, "cardinality at length 1/2")
    rec.expect(not half_case.nontrivial, "length 1/2 is trivial")


_DEPTH1_TABLE = (
    ("dodecahedron", 3, "tau^2", 200),
    ("dodecahedron", 3, "tau^-2", 200),
    ("dodecahedron", 5, "tau", 120),
    ("dodecahedron", 5, "1", 80),
    ("icosahedron", 3, "1", 80),
)


def _check_depth1_table(rec: _Recorder) -> None:
    findings = {}
    for config_name, fold, expr, want in _DEPTH1_TABLE:
        finding = _cage(config_name, fold, expr)
        findings[(config_name, fold, expr)] = finding
        label = f"{config_name} fold {fold} length {expr}"
        if finding is None:
            rec.expect(False, f"{label}: no trivalent outer cage found")
            continue
        rec.expect_eq(finding.vertex_count, want, f"{label}: cage size")
        rec.expect(finding.graph.trivalent, f"{label}: cage is trivalent")
    big = findings[("dodecahedron", 3, "tau^2")]
    small = findings[("dodecahedron", 3, "tau^-2")]
    if big is not None and small is not None:
        rec.expect(
            cages.similar_up_to_scale(big.graph.points, small.graph.points),
            "tau^2 and tau^-2 cages are similar up to scale",
        )
    extra = _cage("icosahedron", 3, "tau-1")
    rec.note(
        "icosahedron fold 3 length tau-1: "
        + (f"cage of {extra.vertex_count} vertices found"
           if extra is not None else "no cage found")
        + " (reported, not asserted)"
    )


def _check_scan_negative(rec: _Recorder) -> None:
    start = builtin("icosidodecahedron")
    rows = classify_scan(start, (2, 3, 5), DEFAULT_SCAN_SPEC)
    rec.expect(len(rows) > 500, f"default scan covers {len(rows)} rows")
    flagged = sum(1 for row in rows
                  for band in row["bands"] if band["trivalent"])
    rec.expect_eq(flagged, 0, "trivalent outer bands across the scan")
    nontrivial = [row for row in rows if row["nontrivial"]]
    rec.note(f"nontrivial lengths in the scan: {len(nontrivial)}")
    cages_found = 0
    for row in nontrivial:
        translation = make_translation(start.symmetry, row["fold"],
                                       parse_field_expr(row["length"]))
        array = generate_array(start, translation, 1)
        if outer_cage(array) is not None:
            cages_found += 1
    rec.expect_eq(cages_found, 0,
                  "trivalent outer cages among nontrivial lengths")


def _check_c60_shells(rec: _Recorder) -> None:
    start = builtin("c60")
    for expr, want in (("3", 240), ("2*tau", 240), ("3*tau", 360)):
        translation = make_translation(start.symmetry, 5,
                                       parse_field_expr(expr))
        row = classify_length(start, translation, 1)
        flagged = [band for band in row["bands"] if band["trivalent"]]
        label = f"c60 fold 5 length {expr}"
        rec.expect_eq(len(flagged), 1, f"{label}: trivalent outer bands")
        if flagged:
            rec.expect_eq(flagged[0]["count"], want, f"{label}: band size")
        cage = row.get("cage")
        rec.expect(cage is not None and cage["count"] == want,
                   f"{label}: outer cage of {want} vertices")


@cache
def _family(config_name: str, length_expr: str):
    start = builtin(config_name)
    translation = make_translation(start.symmetry, 5,
                                   parse_field_expr(length_expr))
    return build_onion(start, translation, 2)


def _expect_family(rec: _Recorder, report, label: str,
                   wants: tuple[tuple[int, int, int, int], ...]) -> None:
    rec.expect(report.complete, f"{label}: family complete"
               + ("" if report.complete else f" ({report.failure})"))
    rec.expect_eq(report.counts, tuple(w[0] for w in wants),
                  f"{label}: cage sizes")
    for shell, (count, pentagons, hexagons, edges) in zip(report.family,
                                                          wants):
        tag = f"{label}: {count}-cage"
        rec.expect_eq(shell.census.pentagons, pentagons, f"{tag} pentagons")
        rec.expect_eq(shell.census.hexagons, hexagons, f"{tag} hexagons")
        rec.expect_eq(shell.census.other_count, 0, f"{tag} other faces")
        rec.expect_eq(3 * shell.count // 2, edges, f"{tag} edges")


def _check_onion_c60(rec: _Recorder) -> None:
    report = _family("c60", "3")
    _expect_family(rec, report, "c60 length 3", (
        (60, 12, 20, 90),
        (240, 12, 110, 360),
        (540, 12, 260, 810),
    ))
    rec.expect_eq(report.pentagon_contact, "vertex",
                  "c60 family pentagon contact")


def _check_onion_c80(rec: _Recorder) -> None:
    # Oracle for the single-sphere seed candidate: orbit size and radius
    # hold, but the 80 points it makes never bond trivalently, so the
    # catalog carries the two-radius configuration instead.
    group = builtin("c80").symmetry
    seed_orbit = group.orbit(C80_EQUAL_RADIUS_SEED)
    rec.expect_eq(len(seed_orbit), 60, "single-sphere seed orbit size")
    rec.expect(
        norm2(C80_EQUAL_RADIUS_SEED) == GoldenNumber(12, 12),
        "single-sphere seed radius^2 = 12+12*tau",
    )
    corners = group.orbit(Vec3E(
        GoldenNumber(0, 2), GoldenNumber(0, 2), GoldenNumber(0, 2)))
    rec.expect_eq(len(corners), 20, "corner orbit size")
    single_sphere = corners + seed_orbit
    rec.expect(
        cages.trivalence_threshold_search(single_sphere) is None,
        "single-sphere 80-point set has no trivalent bond graph "
        "(seed recalibrated to the catalog's two-radius configuration)",
    )
    start = builtin("c80")
    graph = cages.trivalence_threshold_search(start.vertices)
    rec.expect(graph is not None and graph.edge_ratio < 1.25,
               "catalog c80 bonds trivalently with edge ratio < 1.25")

    report = _family("c80", "2")
    _expect_family(rec, report, "c80 length 2", (
        (80, 12, 30, 120),
        (180, 12, 80, 270),
        (320, 12, 150, 480),
    ))
    rec.expect_eq(report.pentagon_contact, "edge",
                  "c80 family pentagon contact")

    translation = make_translation(start.symmetry, 5,
                                   parse_field_expr("(7+tau)/5"))
    row = classify_length(start, translation, 1)
    cage = row.get("cage")
    rec.note(
        "c80 fold 5 length (7+tau)/5: actual cardinality "
        f"{row['actual']} of generic {row['generic']}, "
        + (f"outer cage of {cage['count']} vertices"
           if cage else "no trivalent outer cage")
        + " (reported, not asserted)"
    )


def _check_formulas(rec: _Recorder) -> None:
    c60_family = _family("c60", "3")
    c80_family = _family("c80", "2")
    rec.expect_eq(c60_family.formula, "60z^2", "c60 family formula")
    rec.expect_eq(c60_family.z_values, (1, 2, 3), "c60 family z values")
    rec.expect_eq(c80_family.formula, "20(z+1)^2", "c80 family formula")
    rec.expect_eq(c80_family.z_values, (1, 2, 3), "c80 family z values")
    for report in (c60_family, c80_family):
        for shell, z in zip(report.family, report.z_values):
            rec.expect_eq(family_formula(report.formula, z), shell.count,
                          f"{report.formula} at z={z}")
    rec.expect_eq(family_formula("60z^2", 4), 960, "60z^2 extrapolation")
    rec.expect_eq(family_formula("20(z+1)^2", 4), 500,
                  "20(z+1)^2 extrapolation")


def _check_kustov(rec: _Recorder) -> None:
    allowed = [n for n in range(20, 601) if cages.kustov_allowable(n)]
    want = sorted(
        n for n in range(20, 601) if n % 60 in (0, 20)
    )
    rec.expect_eq(allowed, want, "allowable counts for 20 <= n <= 600")
    rec.expect(
        {20, 60, 80, 120, 140, 180, 200, 240} <= set(allowed),
        "known cage sizes are allowable",
    )
    for bad in (19, 1, 0):
        try:
            cages.kustov_allowable(bad)
        except ValueError:
            rec.expect(True, f"n={bad} rejected")
        else:
            rec.expect(False, f"n={bad} rejected")


def _random_golden(rng: random.Random, span: int = 9,
                   max_den: int = 5) -> GoldenNumber:
    return GoldenNumber(
        Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
        Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
    )


def _suite_field_axioms(rng: random.Random, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        a = _random_golden(rng)
        b = _random_golden(rng)
        c = _random_golden(rng)
        ok = (a * (b + c) == a * b + a * c
              and (a * b) * c == a * (b * c)
              and a + (-a) == GoldenNumber(0, 0)
              and (a - b) + b == a)
        if not b.is_zero():
            ok = ok and (a / b) * b == a
        failures += 0 if ok else 1
    return failures


def _suite_sign_vs_float(rng: random.Random, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        g = _random_golden(rng, 100, 10)
        float_sign = (0 if float(g) == 0.0
                      else (1 if float(g) > 0.0 else -1))
        ok = g.sign() == float_sign or (g.is_zero() and float_sign == 0)
        zero = g - g
        ok = ok and zero.sign() == 0 and zero.is_zero()
        failures += 0 if ok else 1
    return failures


def _suite_orbit_stabilizer(rng: random.Random, cases: int) -> int:
    group = full_group()
    axis_pool = [axis for fold in (2, 3, 5) for axis in group.axes(fold)]
    failures = 0
    for index in range(cases):
        if index % 10 == 0:
            seed = axis_pool[rng.randrange(len(axis_pool))]
            scale = GoldenNumber(rng.randint(1, 3), rng.randint(0, 2))
            seed = seed.scale(scale)
        else:
            seed = Vec3E(
                GoldenNumber(rng.randint(-2, 2), rng.randint(-2, 2)),
                GoldenNumber(rng.randint(-2, 2), rng.randint(-2, 2)),
                GoldenNumber(rng.randint(-2, 2), rng.randint(-2, 2)),
            )
            if seed.is_zero():
                continue
        orbit = group.orbit(seed)
        if len(orbit) * group.stabilizer_order(seed) != group.order:
            failures += 1
    return failures


def _suite_array_invariance(rng: random.Random, cases: int) -> int:
    start = builtin("dodecahedron")
    group = start.symmetry
    translation = make_translation(group, 5, parse_field_expr("1"))
    array = generate_array(start, translation, 1)
    keys = {p.key() for p in array.points}
    points = array.points
    failures = 0
    for _ in range(cases):
        g = group.elements[rng.randrange(group.order)]
        p = points[rng.randrange(len(points))]
        if mat_apply(g, p).key() not in keys:
            failures += 1
    return failures


def _suite_scale_equivariance(rng: random.Random, cases: int) -> int:
    base = builtin("icosahedron")
    group = base.symmetry
    failures = 0
    for _ in range(cases):
        length = _random_golden(rng, 3, 2)
        if length.sign() <= 0:
            continue
        scale = _random_golden(rng, 3, 2)
        if scale.sign() <= 0:
            continue
        fold = (2, 3, 5)[rng.randrange(3)]
        plain = generate_array(
            base, make_translation(group, fold, length), 1)
        scaled_start = StartConfig(
            "scaled", tuple(v.scale(scale) for v in base.vertices), group)
        scaled = generate_array(
            scaled_start, make_translation(group, fold, scale * length), 1)
        want = {p.scale(scale).key() for p in plain.points}
        got = {p.key() for p in scaled.points}
        if want != got:
            failures += 1
    return failures


def _suite_dedup(rng: random.Random, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        pool = [
            Vec3E(
                GoldenNumber(rng.randint(-2, 2), rng.randint(-2, 2)),
                GoldenNumber(rng.randint(-2, 2), rng.randint(-2, 2)),
                GoldenNumber(rng.randint(-2, 2), rng.randint(-2, 2)),
            )
            for _ in range(rng.randint(1, 8))
        ]
        sample = [pool[rng.randrange(len(pool))]
                  for _ in range(rng.randint(1, 24))]
        once = {p.key(): p for p in sample}
        twice = {p.key(): p for p in once.values()}
        distinct = len({p.key() for p in pool
                        if any(q.key() == p.key() for q in sample)})
        if len(once) != len(twice) or len(once) != distinct:
            failures += 1
    return failures


def _suite_euler(rng: random.Random, cases: int) -> int:
    group = full_group()
    pool = []
    for vertices in (builtin("c60").vertices, builtin("dodecahedron").vertices):
        graph = cages.trivalence_threshold_search(vertices)
        census = cages.face_census(graph)
        pool.append((vertices, census.counts))
    failures = 0
    for _ in range(cases):
        vertices, want_counts = pool[rng.randrange(len(pool))]
        g = group.elements[rng.randrange(group.order)]
        rotated = tuple(mat_apply(g, v) for v in vertices)
        graph = cages.trivalence_threshold_search(rotated)
        if graph is None:
            failures += 1
            continue
        try:
            census = cages.face_census(graph)
        except cages.EulerError:
            failures += 1
            continue
        faces = sum(census.counts.values())
        euler = graph.vertex_count - graph.edge_count + faces
        if euler != 2 or census.counts != want_counts:
            failures += 1
    return failures


_PROPERTY_SUITES = (
    ("field axioms", _suite_field_axioms, _PROPERTY_CASES),
    ("exact sign vs float sign", _suite_sign_vs_float, _PROPERTY_CASES),
    ("orbit-stabilizer products", _suite_orbit_stabilizer, _PROPERTY_CASES),
    ("array invariance membership", _suite_array_invariance,
     _PROPERTY_CASES),
    ("scale equivariance", _suite_scale_equivariance, _PROPERTY_CASES),
    ("dedup idempotence", _suite_dedup, _PROPERTY_CASES),
    ("face census under rotation", _suite_euler, _PROPERTY_CASES),
)


def _check_properties(rec: _Recorder) -> None:
    for label, suite, cases in _PROPERTY_SUITES:
        rng = random.Random(_RNG_SEED)
        failures = suite(rng, cases)
        rec.expect(failures == 0,
                   f"{label}: {failures} failures in {cases} cases")


_CHECKS = (
    ("groups", "symmetry group structure", _check_groups),
    ("pentagon", "planar five-fold demo", _check_pentagon),
    ("shells", "depth-1 trivalent cage catalog", _check_depth1_table),
    ("scan-negative", "icosidodecahedron finds no trivalent shell",
     _check_scan_negative),
    ("shells-c60", "truncated-icosahedron trivalent shells",
     _check_c60_shells),
    ("onion-c60", "nested cages from the 60-vertex start", _check_onion_c60),
    ("onion-c80", "nested cages from the 80-vertex start", _check_onion_c80),
    ("formulas", "family count formulas", _check_formulas),
    ("kustov", "allowable vertex counts", _check_kustov),
    ("properties", "randomized property suites", _check_properties),
)

CHECK_NAMES = tuple(name for name, _, _ in _CHECKS)


def run_checks(only: str | None = None) -> list[CheckResult]:
    """Run the named checks (all by default) and collect their results."""
    if only is not None and only not in CHECK_NAMES:
        raise ValueError(f"unknown check '{only}'; "
                         f"expected one of {', '.join(CHECK_NAMES)}")
    results = []
    for name, title, func in _CHECKS:
        if only is not None and name != only:
            continue
        rec = _Recorder()
        began = time.perf_counter()
        func(rec)
        results.append(CheckResult(name, title, rec.passed, rec.details,
                                   time.perf_counter() - began))
    return results


def render_table(results: list[CheckResult]) -> str:
    """Human-readable pass/fail table."""
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  "
                     f"{r.name:<{width}}  {r.title}  [{r.elapsed:6.2f}s]")
        if not r.passed:
            for detail in r.details:
                if detail.startswith("FAIL"):
                    lines.append(f"      - {detail}")
    good = sum(1 for r in results if r.passed)
    lines.append(f"{good}/{len(results)} checks passed")
    return "\n".join(lines)


def as_payload(results: list[CheckResult]) -> dict:
    """JSON-ready report; timing excluded so bytes are reproducible."""
    return {
        "checks": [
            {
                "name": r.name,
                "title": r.title,
                "passed": r.passed,
                "details": r.details,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
