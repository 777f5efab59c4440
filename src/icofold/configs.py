"""Start configurations: exact seed polyhedra for affine extension.

Every configuration is a full-group-invariant vertex set of golden
vectors: exact Q(tau) coordinates, with squared radii in Q(tau) too.
Builtins, the classical icosahedral solids plus the C60 and C80 cages,
are the I_h orbits of their seeds; custom sets load from a simple text
format, optionally closing a few seed points into full orbits.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .cages import PointBudgetError
from .geometry import (Vec3E, _value_table, distinct_vectors, integer_rows,
                       norm2)
from .golden import (
    FieldParseError,
    GoldenNumber,
    TAU,
    parse_field_expr,
    within_magnitude,
)
from .groups import BASE_VECTORS, PointGroup, full_group

__all__ = [
    "ConfigError",
    "StartConfig",
    "BUILTIN_NAMES",
    "builtin",
    "load_custom",
    "C80_EQUAL_RADIUS_SEED",
    "DEFAULT_POINT_CAP",
]

# the most points a closure or an array may hold
DEFAULT_POINT_CAP = 10 ** 6


class ConfigError(ValueError):
    """Bad configuration: unknown name, parse failure, or broken invariant."""


class StartConfig:
    """An exactly symmetric vertex set with its radius spectrum.

    Stored once as `integer_rows`: distinct rows in lowest terms (see
    geometry.integer_rows), int64 when every entry fits and Python ints
    (dtype=object) otherwise.  `vertices` are built on first read.
    """

    def __init__(self, name: str, vertices, symmetry: PointGroup) -> None:
        self._store(name, *integer_rows(vertices), symmetry)

    @classmethod
    def from_rows(cls, name: str, den: int, rows: np.ndarray,
                  symmetry: PointGroup) -> "StartConfig":
        """The configuration of (n, 6) int64 or object rows over `den`."""
        return cls._from_rows(name, den, rows, symmetry, False)

    @classmethod
    def _from_rows(cls, name: str, den: int, rows: np.ndarray,
                   symmetry: PointGroup, invariant: bool) -> "StartConfig":
        """`from_rows`, without the invariance check when `invariant`: a
        search has already found the rows mapped onto themselves by
        `symmetry`'s generators."""
        config = cls.__new__(cls)
        config._store(name, den, rows, symmetry, invariant)
        return config

    def _store(self, name: str, den: int, rows: np.ndarray,
               symmetry: PointGroup, invariant: bool = False) -> None:
        g = gcd(den, int(np.gcd.reduce(rows, axis=None)))
        rows = rows // g
        if rows.dtype == object and int(abs(rows).max(initial=0)) < 2 ** 63:
            rows = rows.astype(np.int64)
        # the distinct rows, sorted
        rows = rows[np.lexsort(rows.T)]
        fresh = np.ones(len(rows), dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        rows = rows[fresh]
        rows.flags.writeable = False
        self.name = name
        self.integer_rows: tuple[int, np.ndarray] = (den // g, rows)
        self.symmetry = symmetry
        # engine's pair tables per (fold, depth), filled on first use
        self._pair_tables: dict = {}
        if not invariant and symmetry.orbits(*self.integer_rows) is None:
            raise ConfigError(
                f"vertex set of '{name}' is not invariant "
                f"under the symmetry group"
            )

    @cached_property
    def vertices(self) -> tuple[Vec3E, ...]:
        """The vertices as exact points, ordered by Vec3E.key."""
        return distinct_vectors(*self.integer_rows)

    @cached_property
    def value_table(self) -> tuple[int, list[int], list[int], np.ndarray]:
        """(den, va, vb, index): the distinct coordinate values
        (va[k] + vb[k]*tau)/den of nonempty `integer_rows`, in Python
        ints, and the (3, n) index of each row's coordinates into them."""
        den, rows = self.integer_rows
        return (den, *_value_table(rows))

    @cached_property
    def radius2_spectrum(self) -> tuple[GoldenNumber, ...]:
        """The distinct exact squared radii of the vertices, ascending."""
        return tuple(sorted(set(map(norm2, self.vertices))))

    def __len__(self) -> int:
        return len(self.integer_rows[1])

    @property
    def radius2(self) -> GoldenNumber:
        """Largest exact squared radius in the set."""
        return self.radius2_spectrum[-1]

    def __repr__(self) -> str:
        return f"StartConfig({self.name!r}, {len(self)} vertices)"


# The rejected equal-radius 60-orbit seed: on the mirror plane
# x + tau*y - tau^2*z = 0 at squared radius 12+12*tau, the same sphere as
# the 20 corners.  Its orbit passes the orbit-size and radius checks but
# the 80 points admit no trivalent cutoff, so the catalog uses the
# two-radius seeds below; kept for the verification report.
C80_EQUAL_RADIUS_SEED = Vec3E(
    GoldenNumber(Fraction(4, 5), Fraction(2, 5)),
    GoldenNumber(Fraction(12, 5), Fraction(6, 5)),
    GoldenNumber(0, 2),
)

# Each built-in is the full-group orbit of its seeds.
_SEEDS: dict[str, tuple[Vec3E, ...]] = {
    "icosahedron": (BASE_VECTORS[5],),
    "dodecahedron": (BASE_VECTORS[3],),
    "icosidodecahedron": (BASE_VECTORS[2],),
    "c60": (Vec3E.from_golden(0, 1, 3 * TAU),),
    # 20-point orbit of 2*tau*(1,1,1) at squared radius 12+12*tau plus the
    # 60-point orbit of 2*(1,2,tau^2) at squared radius 28+12*tau.  The
    # seed sits on the mirror plane x - tau^2*y + tau*z = 0 and one
    # fold-5 base step away from a corner: (1,2,tau^2) = (1,1,1)+(0,1,tau),
    # which is what makes the fold-5 onion of this cage close (see
    # C80_EQUAL_RADIUS_SEED for the single-sphere parametrisation this
    # replaces, and the catalog notes in the README).
    "c80": (Vec3E.from_golden(2 * TAU, 2 * TAU, 2 * TAU),
            Vec3E.from_golden(2, 4, 2 + 2 * TAU)),
}

BUILTIN_NAMES = tuple(_SEEDS)


def builtin(name: str) -> StartConfig:
    """Look up a catalog configuration by name."""
    seeds = _SEEDS.get(name)
    if seeds is None:
        raise ConfigError(
            f"unknown configuration '{name}'; choose one of "
            f"{', '.join(BUILTIN_NAMES)} or pass a seed file path"
        )
    return _closure(name, seeds, full_group())


def _closure(name: str, seeds, group: PointGroup) -> StartConfig:
    """Every image of `seeds` under `group`, made on integer rows once the
    point budget allows it."""
    budget = group.order * len(seeds)
    if budget > DEFAULT_POINT_CAP:
        raise PointBudgetError(f"closing {len(seeds)} seeds makes {budget} "
                               f"points, over the cap of {DEFAULT_POINT_CAP}")
    den, _, chunks = group._apply(*integer_rows(seeds))
    rows = np.concatenate([chunk.reshape(-1, 6) for chunk in chunks])
    return StartConfig.from_rows(name, den, rows, group)


def load_custom(path: str) -> StartConfig:
    """Load a configuration from a seed file.

    Format: one point per line as "x,y,z" with field-literal components,
    each zero or within 2^-32 <= |x| <= 2^32 with reduced terms of at
    most 256 bits; '#' starts a comment; a
    "@closure on|off" line (default off) selects whether the points are
    seeds to orbit or already a complete set.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        for part, c in zip(parts, (x, y, z)):
            if c and not within_magnitude(c):
                raise ConfigError(
                    f"{path}:{lineno}: coordinate '{part.strip()}' is "
                    f"outside 2^-32 <= |x| <= 2^32 or has terms past "
                    "256 bits"
                )
        points.append(Vec3E(x, y, z))
    if not points:
        raise ConfigError(f"{path}: no points found")
    name = os.path.splitext(os.path.basename(path))[0]
    if closure:
        return _closure(name, points, full_group())
    return StartConfig(name, points, full_group())
