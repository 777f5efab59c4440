"""The three workloads: inputs drawn from a seed, operations, output checks.

Each workload's constructor is its set-up: it builds the start
configurations it needs with `configs.builtin` (which closes the group
and checks invariance) and draws its inputs from the seed.  `run(item)` is
one operation.  `record(item, output)` checks one output and returns
(ok, record), a short canonical text of what the check covers, and
`digest(items, records)` hashes a pass's records into a digest that does
not depend on the seed.  `reference_kernel` names the hostspeed kernel
that matches the workload's work.  Every call into icofold goes through
a module attribute (`engine.generate_array`, never a name bound at
import) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import math

from icofold import cages, configs, engine, export, geometry, golden, groups
from icofold import onion

# sha256 over export.canonical_json of each row of
# classify_scan(builtin("icosidodecahedron"), (2, 3, 5), DEFAULT_SCAN_SPEC),
# concatenated in that order, at the commit that introduced this benchmark.
SCAN_DIGEST = (
    "d07e4c01e99b95dc87bd1fbb293135eec5f2a4d27174c3f67fd39530ffa7ea1d")


def _sha(records) -> str:
    return hashlib.sha256("".join(records).encode()).hexdigest()


class Scan:
    """The default `classify` scan of the icosidodecahedron, folds 2, 3, 5.

    One operation is one row: `make_translation` plus
    `classify_length(..., depth=1, with_cage=False)`, the calls
    `classify_scan` makes.  The seed permutes the row order.
    """

    name = "scan"
    reference_kernel = "interpreter"
    expected_digest = SCAN_DIGEST

    def __init__(self, rng) -> None:
        self.start = configs.builtin("icosidodecahedron")
        cutoff = 2.0 * math.sqrt(float(self.start.radius2))
        lengths = engine.DEFAULT_SCAN_SPEC.lengths(cutoff)
        # classify_scan order; rows are put back into it for the digest
        self.tasks = [(fold, length) for fold in (2, 3, 5)
                      for length in lengths]
        self.items = list(range(len(self.tasks)))
        rng.shuffle(self.items)

    def warm_up(self) -> None:
        # the first row of each fold fills the group's translation caches;
        # the same rows for every seed, so memory use does not depend on it
        for fold in (2, 3, 5):
            self.run(next(i for i, task in enumerate(self.tasks)
                          if task[0] == fold))

    def run(self, item: int) -> dict:
        fold, length = self.tasks[item]
        translation = engine.make_translation(self.start.symmetry, fold,
                                              length)
        return engine.classify_length(self.start, translation, 1,
                                      with_cage=False)

    def record(self, item, row):
        return (not any(band["trivalent"] for band in row["bands"]),
                export.canonical_json(row))

    def digest(self, items, records) -> str:
        # back into classify_scan order
        ordered = [None] * len(self.tasks)
        for item, record in zip(items, records):
            ordered[item] = record
        return _sha(record or "null\n" for record in ordered)


# name -> (length, family formula, pentagon contact); from C240 and C180
# on the pentagons are isolated, so those members report no contact
ONION_FAMILIES = {
    "c60": ("3", "60z^2", "vertex"),
    "c80": ("2", "20(z+1)^2", "edge"),
}
ONION_ITERATIONS = 4
ONION_MIN_MEMBERS = 4  # C60..C960 and C80..C500 close at this commit


class Onion:
    """`build_onion` for both built-in families, fold 5, four iterations.

    One operation is one family.  The seed permutes the family order.
    """

    name = "onion"
    reference_kernel = "numpy"

    def __init__(self, rng) -> None:
        self.families = {}
        for name, (length, _, _) in ONION_FAMILIES.items():
            start = configs.builtin(name)
            translation = engine.make_translation(
                start.symmetry, 5, golden.parse_field_expr(length))
            self.families[name] = (start, translation)
        self.items = sorted(self.families)
        rng.shuffle(self.items)

    def warm_up(self) -> None:
        for start, translation in self.families.values():
            onion.build_onion(start, translation, 1)

    def run(self, item: str):
        start, translation = self.families[item]
        return onion.build_onion(start, translation, ONION_ITERATIONS)

    @staticmethod
    def _family_ok(name: str, report) -> bool:
        _, formula, contact = ONION_FAMILIES[name]
        family = report.family
        if (len(family) < ONION_MIN_MEMBERS or report.formula != formula
                or report.pentagon_contact != contact):
            return False
        if report.z_values != tuple(range(1, len(family) + 1)):
            return False
        if report.failure not in (
                None, f"no trivalent outer cage at iteration {len(family)}"):
            return False
        for z, shell in zip(report.z_values, family):
            if (shell.count != onion.family_formula(formula, z)
                    or shell.census.pentagons != 12
                    or shell.census.other_count != 0
                    or shell.census.hexagons != shell.count // 2 - 10
                    or shell.pentagon_contact not in (contact, None)):
                return False
        return True

    def record(self, item, report):
        return (self._family_ok(item, report),
                export.canonical_json({item: report.as_dict()}))

    def digest(self, items, records) -> str:
        return _sha(sorted(record or "null\n" for record in records))


CENSUS_CAGES = ("dodecahedron", "c60", "c80")
CENSUS_CASES_PER_CAGE = 167
CENSUS_ORBIT_CASES = 501  # as many as the three cage kinds together


class Census:
    """Seeded face-census and orbit-stabilizer cases, in equal parts.

    (a) a random I_h element applied to a built-in trivalent cage, then
        threshold search, face census and pentagon contact signature;
    (b) a random golden point, then `orbit` and `stabilizer_order`.
    One operation is one case.  The seed draws the cases and their order.
    """

    name = "census"
    reference_kernel = "interpreter"

    def __init__(self, rng) -> None:
        self.group = groups.full_group()
        self.reference = {}
        self.vertices = {}
        for name in CENSUS_CAGES:
            vertices = configs.builtin(name).vertices
            census = cages.face_census(
                cages.trivalence_threshold_search(vertices))
            self.vertices[name] = vertices
            self.reference[name] = (
                census.counts, cages.pentagon_contact_signature(census))
        elements = self.group.elements
        cases = [("cage", name, elements[rng.randrange(len(elements))])
                 for name in CENSUS_CAGES
                 for _ in range(CENSUS_CASES_PER_CAGE)]
        while len(cases) < 2 * CENSUS_ORBIT_CASES:
            coords = [golden.GoldenNumber(rng.randint(-3, 3),
                                          rng.randint(-3, 3))
                      for _ in range(3)]
            point = geometry.Vec3E.from_golden(*coords, golden.ONE)
            if not point.is_zero():
                cases.append(("orbit", None, point))
        rng.shuffle(cases)
        self.items = cases

    def warm_up(self) -> None:
        identity = self.group.elements[0]
        for name in CENSUS_CAGES:
            self.run(("cage", name, identity))
        self.run(("orbit", None, self.vertices["c80"][0]))

    def run(self, item):
        kind, name, value = item
        if kind == "cage":
            rotated = tuple(geometry.mat_apply(value, v)
                            for v in self.vertices[name])
            census = cages.face_census(
                cages.trivalence_threshold_search(rotated))
            return census.counts, cages.pentagon_contact_signature(census)
        orbit = self.group.orbit(value)
        return len(orbit), self.group.stabilizer_order(value)

    def record(self, item, out):
        # the invariants a case must reproduce, so that every seed gives
        # the same set of records: a cage's census and contact, or
        # |orbit| * |stabilizer|
        kind, name, _ = item
        if kind == "cage":
            return out == self.reference[name], export.canonical_json(
                {"cage": name, "faces": out[0], "contact": out[1]})
        product = out[0] * out[1]
        return product == self.group.order, export.canonical_json(
            {"orbit_stabilizer": product})

    def digest(self, items, records) -> str:
        return _sha(sorted(set(record or "null\n" for record in records)))


WORKLOADS = {w.name: w for w in (Scan, Onion, Census)}
