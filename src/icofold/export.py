"""Serialize point sets, cages, and reports to XYZ, OFF, CSV, and JSON.

Two coordinate channels with different guarantees:

* XYZ and OFF carry floats at fixed precision for chemistry/geometry
  viewers (lossy but portable).
* CSV carries the exact field literals, so a written file parses back to
  the identical point set (lossless round-trip).  Its "# radicand:" header
  is 1 for 3D points, which lie in Q(tau).  Plane points name the
  pentagon's 2+tau: each x cell is 0 or "(<xs>)*sqrt(2+tau)" with xs a
  Q(tau) literal, and each y cell is a Q(tau) literal.

All writers emit identical bytes for identical inputs:
points are sorted into a canonical order, faces are canonicalized, and
JSON is dumped with fixed key order and separators.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import cages
from .geometry import Vec3E
from .golden import ZERO, GoldenNumber, format_golden, parse_field_expr
from .pentagon import PENTAGON_RADICAND, Vec2E

__all__ = [
    "BOND_LENGTH",
    "ExportError",
    "provenance_comment",
    "export_xyz",
    "export_off",
    "export_csv",
    "read_csv",
    "canonical_json",
]

BOND_LENGTH = 1.42
# how far past a chunk's smallest float squared distance a pair may lie
# and still be measured: rounding moves a squared distance by a few ulps
_SHORTLIST_SLACK = 1e-9

_PLANE_RADICAL = f"*sqrt({format_golden(PENTAGON_RADICAND)})"


class ExportError(ValueError):
    """A point set or cage cannot be written in the requested format."""


def provenance_comment(start: str | None = None, fold: int | None = None,
                       length: str | None = None, depth: int | None = None,
                       band: tuple[float, float] | None = None) -> str:
    """One-line description of where a point set came from."""
    parts = []
    if start is not None:
        parts.append(f"start={start}")
    if fold is not None:
        parts.append(f"fold={fold}")
    if length is not None:
        parts.append(f"length={length}")
    if depth is not None:
        parts.append(f"depth={depth}")
    if band is not None:
        parts.append(f"band={band[0]:.6f}..{band[1]:.6f}")
    return " ".join(parts) if parts else "exact icosahedral point set"


def _as_float_rows(points) -> list[tuple[float, ...]]:
    return [tuple(p.as_floats()) for p in points]


def _canonical_indices(points) -> list[int]:
    """Sort by radius then coordinates; exact keys break float ties."""
    rows = _as_float_rows(points)

    def sort_key(i: int):
        row = rows[i]
        return (math.fsum(c * c for c in row), row, str(points[i].key()))

    return sorted(range(len(points)), key=sort_key)


def _min_pairwise_distance(rows: list[tuple[float, ...]]) -> float:
    """The smallest `math.dist` between two rows, measured only over the
    pairs whose float squared distance is within `_SHORTLIST_SLACK` of
    the smallest in their chunk, a set that holds the closest pair."""
    coords = np.zeros((len(rows), 3))
    coords[:, :len(rows[0])] = rows
    best = math.inf
    for start, d2 in cages._distance_chunks(coords):
        near = np.nonzero(d2 <= d2.min() * (1.0 + _SHORTLIST_SLACK))
        for i, j in zip(*(k.tolist() for k in near)):
            best = min(best, math.dist(rows[start + i], rows[j]))
    return best


def _scale_factor(rows: list[tuple[float, ...]], bond_scale: bool) -> float:
    if not bond_scale:
        return 1.0
    if len(rows) < 2:
        raise ExportError("bond scaling needs at least two points")
    dmin = _min_pairwise_distance(rows)
    if dmin <= 0.0:
        raise ExportError("bond scaling needs distinct points")
    return BOND_LENGTH / dmin


def export_xyz(points, comment: str = "", bond_scale: bool = False) -> str:
    """XYZ text: count line, provenance comment, one atom row per point.

    Coordinates carry 6 decimals; `bond_scale` rescales them so the
    shortest pairwise distance is BOND_LENGTH.
    """
    pts = list(points)
    if not pts:
        raise ExportError("nothing to export")
    order = _canonical_indices(pts)
    rows = _as_float_rows(pts)
    factor = _scale_factor(rows, bond_scale)
    lines = [str(len(pts)), comment or provenance_comment()]
    for i in order:
        coords = rows[i]
        if len(coords) == 2:
            coords = (*coords, 0.0)
        lines.append("C " + " ".join(f"{factor * c:.6f}" for c in coords))
    return "\n".join(lines) + "\n"


def _canonical_face(face: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate so the smallest vertex index leads (orientation kept)."""
    pivot = face.index(min(face))
    return face[pivot:] + face[:pivot]


def export_off(graph: cages.CageGraph,
               census: cages.FaceCensus | None = None,
               bond_scale: bool = False) -> str:
    """OFF text for a trivalent cage with outward-oriented faces.

    The census traces each face clockwise as seen from outside, so each
    is written reversed.  A graph whose faces do not close into a sphere
    is refused with ExportError.
    """
    if not graph.trivalent:
        raise ExportError("not a trivalent cage; OFF export needs one")
    if census is None:
        try:
            census = cages.face_census(graph)
        except cages.EulerError as exc:
            raise ExportError(f"not a spherical cage; {exc}") from exc
    rows = graph.coords.tolist()
    factor = _scale_factor(rows, bond_scale)
    faces = sorted(_canonical_face(face[::-1]) for face in census.faces)
    lines = ["OFF", f"{graph.vertex_count} {graph.edge_count} {len(faces)}"]
    for coords in rows:
        lines.append(" ".join(f"{factor * c:.6f}" for c in coords))
    for face in faces:
        lines.append(" ".join(str(n) for n in (len(face), *face)))
    return "\n".join(lines) + "\n"


def export_csv(points) -> str:
    """CSV of exact field literals; parses back to the same point set."""
    pts = list(points)
    if not pts:
        raise ExportError("nothing to export")
    if isinstance(pts[0], Vec3E):
        lines = ["# radicand: 1", "x,y,z"]
        for i in _canonical_indices(pts):
            lines.append(",".join(format_golden(c) for c in pts[i]))
    else:
        lines = [f"# radicand: {format_golden(PENTAGON_RADICAND)}", "x,y"]
        for i in _canonical_indices(pts):
            xs, y = pts[i].xs, pts[i].y
            x = f"({format_golden(xs)}){_PLANE_RADICAL}" if xs else "0"
            lines.append(f"{x},{format_golden(y)}")
    return "\n".join(lines) + "\n"


def _golden_cell(cell: str, line: str) -> GoldenNumber:
    if "sqrt" in cell:
        raise ExportError(f"'{line}' has a radical part in a Q(tau) cell")
    return parse_field_expr(cell)


def _plane_x(cell: str) -> GoldenNumber:
    """xs of a 2D x cell: 0, or (<xs>)*sqrt(2+tau) with xs in Q(tau)."""
    if cell == "0":
        return ZERO
    head = cell.removesuffix(_PLANE_RADICAL)
    if head != cell and head[:1] == "(" and head[-1:] == ")":
        return parse_field_expr(head[1:-1])
    raise ExportError(f"2D x cell '{cell}' is neither 0 nor "
                      f"(<literal>){_PLANE_RADICAL}")


def read_csv(text: str) -> list:
    """Parse an exact-literal CSV back into vectors.

    3D cells are Q(tau) literals; a cell with a radical raises
    ExportError.  Files that name another radicand in their header still
    read, as long as their 3D cells are radical-free.  2D rows need the
    header 2+tau, an x cell that is 0 or radical, and a radical-free y.
    """
    radicand: GoldenNumber | None = None
    points: list = []
    expected: int | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tag, _, value = line[1:].partition(":")
            if tag.strip() == "radicand":
                radicand = parse_field_expr(value.strip())
            continue
        cells = [c.strip() for c in line.split(",")]
        if cells in (["x", "y", "z"], ["x", "y"]):
            expected = len(cells)
            continue
        if radicand is None:
            raise ExportError("CSV is missing its '# radicand:' header")
        if expected is not None and len(cells) != expected:
            raise ExportError(f"expected {expected} columns, got {len(cells)}")
        if len(cells) == 3:
            points.append(Vec3E(*(_golden_cell(c, line) for c in cells)))
        elif len(cells) == 2:
            if radicand != PENTAGON_RADICAND:
                raise ExportError(
                    f"2D rows need the header '# radicand: "
                    f"{format_golden(PENTAGON_RADICAND)}'")
            points.append(Vec2E(_plane_x(cells[0]),
                                _golden_cell(cells[1], line)))
        else:
            raise ExportError(f"expected 2 or 3 columns, got {len(cells)}")
    return points


def canonical_json(payload) -> str:
    """JSON with fixed key order and spacing: identical input, identical
    bytes."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
