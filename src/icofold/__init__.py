"""Exact affine extensions of icosahedral symmetry.

Point arrays from translated symmetry orbits, classification of the
translations that close into trivalent cages, and iterated growth of
nested carbon-onion shells, all over the golden field Q(tau).
"""

from .golden import (
    ONE,
    TAU,
    ZERO,
    FieldParseError,
    GoldenNumber,
    parse_field_expr,
)

__version__ = "0.1.0"

__all__ = [
    "GoldenNumber",
    "FieldParseError",
    "parse_field_expr",
    "ZERO",
    "ONE",
    "TAU",
    "__version__",
]
