"""Start configurations: exact seed polyhedra for affine extension.

Every configuration is a full-group-invariant vertex set with exact
Q(tau) coordinates, stored in the radical-free workspace (radicand 1);
exact array points are built in an axis workspace when asked for.
Builtins cover the classical icosahedral solids plus the C60 and C80
cages; custom sets load from a simple text format, optionally closing a
few seed points into full orbits.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .geometry import Vec3E, mat_apply, norm2
from .golden import (
    ExtNumber,
    FieldParseError,
    GoldenNumber,
    K_TWOFOLD,
    TAU,
    parse_field_expr,
)
from .groups import PointGroup, full_group

__all__ = [
    "ConfigError",
    "StartConfig",
    "BUILTIN_NAMES",
    "builtin",
    "load_custom",
    "C80_EQUAL_RADIUS_SEED",
]

BUILTIN_NAMES = ("icosahedron", "dodecahedron", "icosidodecahedron", "c60", "c80")


class ConfigError(ValueError):
    """Bad configuration: unknown name, parse failure, or broken invariant."""


class StartConfig:
    """An exactly symmetric vertex set with its radius spectrum."""

    def __init__(self, name: str, vertices, symmetry: PointGroup,
                 check_invariance: bool = True) -> None:
        seen: dict[tuple, Vec3E] = {}
        for v in vertices:
            seen.setdefault(v.key(), v)
        self.name = name
        self.vertices: tuple[Vec3E, ...] = tuple(sorted(seen.values(), key=Vec3E.key))
        self.symmetry = symmetry
        if check_invariance:
            self._check_invariance()
        spectrum: dict[tuple, ExtNumber] = {}
        for v in self.vertices:
            r2 = norm2(v)
            spectrum.setdefault(r2.key(), r2)
        self.radius2_spectrum: tuple[ExtNumber, ...] = tuple(sorted(spectrum.values()))

    def _check_invariance(self) -> None:
        keys = {v.key() for v in self.vertices}
        for g in self.symmetry:
            for v in self.vertices:
                if mat_apply(g, v).key() not in keys:
                    raise ConfigError(
                        f"vertex set of '{self.name}' is not invariant "
                        f"under the symmetry group"
                    )

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def radius2(self) -> ExtNumber:
        """Largest exact squared radius in the set."""
        return self.radius2_spectrum[-1]

    def __repr__(self) -> str:
        return f"StartConfig({self.name!r}, {len(self.vertices)} vertices)"


def _vec(x, y, z) -> Vec3E:
    return Vec3E.from_golden(x, y, z, K_TWOFOLD)


def _cyclic(x, y, z) -> list[Vec3E]:
    return [_vec(x, y, z), _vec(z, x, y), _vec(y, z, x)]


def _signed_cyclic(x, y, z) -> list[Vec3E]:
    # cyclic permutations with every sign choice on nonzero entries
    out = []
    for sx in ((x, -x) if x else (x,)):
        for sy in ((y, -y) if y else (y,)):
            for sz in ((z, -z) if z else (z,)):
                out.extend(_cyclic(sx, sy, sz))
    return out


def _icosahedron_vertices() -> list[Vec3E]:
    return _signed_cyclic(GoldenNumber(0, 0), GoldenNumber(1, 0), TAU)


def _dodecahedron_vertices() -> list[Vec3E]:
    # the orbit of (1,1,1): cube corners plus cyc(0, tau, 1/tau), the
    # chirality fixed by the group generators
    one = GoldenNumber(1, 0)
    cube = [
        _vec(sx, sy, sz)
        for sx in (one, -one)
        for sy in (one, -one)
        for sz in (one, -one)
    ]
    tau_inv = GoldenNumber(-1, 1)  # 1/tau = tau - 1
    return cube + _signed_cyclic(GoldenNumber(0, 0), TAU, tau_inv)


def _icosidodecahedron_vertices() -> list[Vec3E]:
    # the orbit of (tau,0,0): axis tips plus cyc((1, tau^2, tau)/2)
    half = Fraction(1, 2)
    edge_mid = _signed_cyclic(TAU, GoldenNumber(0, 0), GoldenNumber(0, 0))
    body = _signed_cyclic(
        GoldenNumber(half, 0),
        GoldenNumber(half, half),  # tau^2 / 2 = (1+tau)/2
        GoldenNumber(0, half),
    )
    return edge_mid + body


def _c60_vertices() -> list[Vec3E]:
    zero = GoldenNumber(0, 0)
    return (
        _signed_cyclic(zero, GoldenNumber(1, 0), GoldenNumber(0, 3))
        + _signed_cyclic(GoldenNumber(1, 0), GoldenNumber(2, 1), GoldenNumber(0, 2))
        + _signed_cyclic(TAU, GoldenNumber(2, 0), GoldenNumber(1, 2))
    )


def _c80_vertices(group: PointGroup) -> list[Vec3E]:
    # 20-point orbit of 2*tau*(1,1,1) at squared radius 12+12*tau plus the
    # 60-point orbit of 2*(1,2,tau^2) at squared radius 28+12*tau.  The
    # seed sits on the mirror plane x - tau^2*y + tau*z = 0 and one
    # fold-5 base step away from a corner: (1,2,tau^2) = (1,1,1)+(0,1,tau),
    # which is what makes the fold-5 onion of this cage close (see
    # C80_EQUAL_RADIUS_SEED for the single-sphere parametrisation this
    # replaces, and the catalog notes in the README).
    two_tau = GoldenNumber(0, 2)
    corner = _vec(two_tau, two_tau, two_tau)
    seed = _vec(GoldenNumber(2, 0), GoldenNumber(4, 0), GoldenNumber(2, 2))
    return list(group.orbit(corner)) + list(group.orbit(seed))


# The rejected equal-radius 60-orbit seed: on the mirror plane
# x + tau*y - tau^2*z = 0 at squared radius 12+12*tau, the same sphere as
# the 20 corners.  Its orbit passes the orbit-size and radius checks but
# the 80 points admit no trivalent cutoff, so the catalog uses the
# two-radius vertices above; kept for the verification report.
C80_EQUAL_RADIUS_SEED = _vec(
    GoldenNumber(Fraction(4, 5), Fraction(2, 5)),
    GoldenNumber(Fraction(12, 5), Fraction(6, 5)),
    GoldenNumber(0, 2),
)


def builtin(name: str) -> StartConfig:
    """Look up a catalog configuration by name."""
    group = full_group()
    if name == "icosahedron":
        vertices = _icosahedron_vertices()
    elif name == "dodecahedron":
        vertices = _dodecahedron_vertices()
    elif name == "icosidodecahedron":
        vertices = _icosidodecahedron_vertices()
    elif name == "c60":
        vertices = _c60_vertices()
    elif name == "c80":
        vertices = _c80_vertices(group)
    else:
        raise ConfigError(
            f"unknown configuration '{name}'; choose one of "
            f"{', '.join(BUILTIN_NAMES)} or pass a seed file path"
        )
    return StartConfig(name, vertices, group)


def load_custom(path: str) -> StartConfig:
    """Load a configuration from a seed file.

    Format: one point per line as "x,y,z" with field-literal components;
    '#' starts a comment; a "@closure on|off" line (default off) selects
    whether the points are seeds to orbit or already a complete set.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read seed file: {exc}") from exc
    closure = False
    points: list[Vec3E] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@"):
            directive = line[1:].split()
            if len(directive) == 2 and directive[0] == "closure" \
                    and directive[1] in ("on", "off"):
                closure = directive[1] == "on"
                continue
            raise ConfigError(f"{path}:{lineno}: unknown directive '{line}'")
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 'x,y,z'")
        try:
            x, y, z = (parse_field_expr(part) for part in parts)
        except FieldParseError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        points.append(_vec(x, y, z))
    if not points:
        raise ConfigError(f"{path}: no points found")
    group = full_group()
    name = os.path.splitext(os.path.basename(path))[0]
    if closure:
        return StartConfig(name, group.orbit_of_set(points), group,
                           check_invariance=False)
    return StartConfig(name, points, group)
