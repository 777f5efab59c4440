"""Iterate one affine translation into nested cage families (onions).

Each iteration translates the previous outer cage by the same vectors and
reads off the new outermost cage.  Working from the previous cage rather
than the full word set keeps growth linear; the two computations agree on
the outer cage (asserted as a property test), because extra depth-k words
only add points below the surface.

The measured vertex counts are matched against the two closed forms the
families follow: 60z^2 (truncated-icosahedron start) and 20(z+1)^2
(dodecahedron/C80 starts), with z counted per family member from its
size, e.g. 540 = 60*3^2 and 320 = 20*(3+1)^2.
"""

from __future__ import annotations

import math

from . import cages
from .configs import StartConfig
from .engine import AffineTranslation, generate_array, outer_cage
from .golden import format_golden

__all__ = [
    "FAMILY_FORMULAS",
    "family_formula",
    "OnionShell",
    "OnionReport",
    "build_onion",
]

FAMILY_FORMULAS = ("60z^2", "20(z+1)^2")


def family_formula(tag: str, z: int) -> int:
    """Predicted cage size for member z of a named onion family."""
    if z < 1:
        raise ValueError("family members are numbered from z = 1")
    if tag == "60z^2":
        return 60 * z * z
    if tag == "20(z+1)^2":
        return 20 * (z + 1) * (z + 1)
    raise ValueError(f"unknown family formula '{tag}'; "
                     f"expected one of {FAMILY_FORMULAS}")


def _formula_member(count: int) -> dict[str, int]:
    """Which family formulas produce `count`, and at which z."""
    out: dict[str, int] = {}
    for tag, base in (("60z^2", 60), ("20(z+1)^2", 20)):
        quotient, remainder = divmod(count, base)
        if remainder:
            continue
        root = math.isqrt(quotient)
        if root * root != quotient:
            continue
        z = root if tag == "60z^2" else root - 1
        if z >= 1:
            out[tag] = z
    return out


class OnionShell:
    """One cage of the family: iteration, size, radius, bonding."""

    __slots__ = ("iteration", "count", "outer_radius", "census",
                 "edge_ratio", "pentagon_contact", "_points")

    def __init__(self, iteration: int, count: int, outer_radius: float,
                 census: cages.FaceCensus, edge_ratio: float,
                 pentagon_contact: str | None, points) -> None:
        self.iteration = iteration
        self.count = count
        self.outer_radius = outer_radius
        self.census = census
        self.edge_ratio = edge_ratio
        self.pentagon_contact = pentagon_contact
        self._points = points

    @property
    def points(self):
        """The exact points given, or read from a given cage graph."""
        points = self._points
        return points.points if isinstance(points, cages.CageGraph) else points

    def __repr__(self) -> str:
        return (f"OnionShell(iteration {self.iteration}, {self.count} "
                f"vertices, r={self.outer_radius:.4f})")


class OnionReport:
    """The family of nested cages one translation generates."""

    def __init__(self, start: StartConfig, translation: AffineTranslation,
                 family: tuple[OnionShell, ...], failure: str | None) -> None:
        self.start = start
        self.translation = translation
        self.family = family
        self.failure = failure
        counts = [shell.count for shell in family]
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError(f"onion counts must strictly increase: {counts}")
        # the family formula must fit every member at consecutive z
        self.formula: str | None = None
        self.z_values: tuple[int, ...] = ()
        if family:
            memberships = [_formula_member(shell.count) for shell in family]
            for tag in FAMILY_FORMULAS:
                if all(tag in m for m in memberships):
                    zs = [m[tag] for m in memberships]
                    if all(b == a + 1 for a, b in zip(zs, zs[1:])):
                        self.formula = tag
                        self.z_values = tuple(zs)
                        break

    @property
    def complete(self) -> bool:
        return self.failure is None

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(shell.count for shell in self.family)

    @property
    def pentagon_contact(self) -> str | None:
        """Family-wide contact signature: the first member that shows one."""
        for shell in self.family:
            if shell.pentagon_contact is not None:
                return shell.pentagon_contact
        return None

    def as_dict(self) -> dict:
        return {
            "start": self.start.name,
            "fold": self.translation.fold,
            "length": format_golden(self.translation.length),
            "formula": self.formula,
            "pentagon_contact": self.pentagon_contact,
            "complete": self.complete,
            "failure": self.failure,
            "family": [
                {
                    "iteration": shell.iteration,
                    "z": (self.z_values[i] if i < len(self.z_values)
                          else None),
                    "count": shell.count,
                    "outer_radius": round(shell.outer_radius, 9),
                    "trivalent": True,
                    "edges": 3 * shell.count // 2,
                    "edge_ratio": round(shell.edge_ratio, 9),
                    "faces": shell.census.as_dict(),
                    "pentagon_contact": shell.pentagon_contact,
                }
                for i, shell in enumerate(self.family)
            ],
        }

    def __repr__(self) -> str:
        return (f"OnionReport({self.start.name}, counts {list(self.counts)}"
                + ("" if self.complete else f", failed: {self.failure}")
                + ")")


def _start_shell(start: StartConfig) -> tuple[OnionShell | None, str | None]:
    cages._check_search_budget(len(start))
    graph = cages.trivalence_threshold_search(start.vertices)
    if graph is None:
        return None, "start configuration is not a trivalent cage"
    try:
        census = cages.face_census(graph)
    except cages.EulerError as exc:
        return None, f"start configuration does not close into a sphere: {exc}"
    outer = math.sqrt(float(start.radius2))
    shell = OnionShell(0, len(start), outer, census,
                       graph.edge_ratio,
                       cages.pentagon_contact_signature(census),
                       start.vertices)
    return shell, None


def build_onion(start: StartConfig, translation: AffineTranslation,
                iterations: int) -> OnionReport:
    """Grow the onion: one cage per iteration of the translation.

    Iteration j translates the cage of iteration j-1 and extracts the
    outermost cage, whose shell rows are the next start: no exact point
    is built unless a member's `points` is read.  Stops early with a
    failure note when some depth has no trivalent outer cage; the report
    then carries the partial family.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    shell, failure = _start_shell(start)
    if shell is None:
        return OnionReport(start, translation, (), failure)
    family = [shell]
    working = start
    for j in range(1, iterations + 1):
        array = generate_array(working, translation, 1)
        finding = outer_cage(array)
        if finding is None:
            return OnionReport(
                start, translation, tuple(family),
                f"no trivalent outer cage at iteration {j}",
            )
        used_outer = array.shells[finding.shell_indices[-1]]
        family.append(OnionShell(
            j, finding.vertex_count, used_outer.radius, finding.census,
            finding.graph.edge_ratio,
            cages.pentagon_contact_signature(finding.census),
            finding.graph,
        ))
        # no second invariance lookup where the search ran one on the rows
        working = StartConfig._from_rows(
            f"{start.name}.onion{j}", *finding.graph.rows, start.symmetry,
            finding.graph._symmetry is start.symmetry)
    return OnionReport(start, translation, tuple(family), None)
