"""Presented GF(2) algebras, ring maps, Steenrod squares, and their suites."""

from .algebra import (
    AlgebraMap,
    MapNotWellDefined,
    PresentedAlgebra,
    load_algebra,
    load_map_tables,
    poly_mul,
)
from .steenrod import (
    SteenrodAction,
    UnderdeterminedSquare,
    binom_general,
    chern_rule,
    solve_sq,
    stiefel_whitney_rule,
    table_rule,
)

__all__ = [
    "AlgebraMap",
    "MapNotWellDefined",
    "PresentedAlgebra",
    "SteenrodAction",
    "UnderdeterminedSquare",
    "binom_general",
    "chern_rule",
    "load_algebra",
    "load_map_tables",
    "poly_mul",
    "solve_sq",
    "stiefel_whitney_rule",
    "table_rule",
]
