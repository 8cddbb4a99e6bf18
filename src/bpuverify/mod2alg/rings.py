"""The standard rings, ring maps and Steenrod tables of the mod-2 story.

Presentations and generator-image tables live in the packaged data files;
this module loads them once and decorates them with the Steenrod structure
(a table rule on the six-generator ring and on K(Z,3), Wu-complete rules on
the free rings).
"""

from __future__ import annotations

import functools
import os

from .algebra import AlgebraMap, PresentedAlgebra, load_algebra, load_map_tables
from .steenrod import SteenrodAction, chern_rule, stiefel_whitney_rule, table_rule


def _data(name: str) -> str:
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "data", name), encoding="utf-8") as f:
        return f.read()


@functools.lru_cache(maxsize=None)
def toda_ring() -> PresentedAlgebra:
    return load_algebra(_data("toda.alg"), "toda")


@functools.lru_cache(maxsize=None)
def bu4_ring() -> PresentedAlgebra:
    return load_algebra(_data("bu4.alg"), "bu4")


@functools.lru_cache(maxsize=None)
def bso6_ring() -> PresentedAlgebra:
    return load_algebra(_data("bso6.alg"), "bso6")


@functools.lru_cache(maxsize=None)
def bso3_ring() -> PresentedAlgebra:
    return load_algebra(_data("bso3.alg"), "bso3")


@functools.lru_cache(maxsize=None)
def kz3_ring() -> PresentedAlgebra:
    return load_algebra(_data("kz3.alg"), "kz3")


@functools.lru_cache(maxsize=None)
def shadow_ring() -> PresentedAlgebra:
    return load_algebra(_data("integral_shadow.alg"), "shadow")


@functools.lru_cache(maxsize=None)
def bso3_truncated(power: int) -> PresentedAlgebra:
    return bso3_ring().with_relations([f"wp3^{power}"], name=f"bso3/(wp3^{power})")


@functools.lru_cache(maxsize=None)
def _maps() -> dict:
    return load_map_tables(_data("maps.txt"))


@functools.lru_cache(maxsize=None)
def pi_star() -> AlgebraMap:
    return AlgebraMap("pi*", toda_ring(), bu4_ring(), _maps()[("toda", "bu4")])


@functools.lru_cache(maxsize=None)
def phi_star() -> AlgebraMap:
    return AlgebraMap("phi*", toda_ring(), bso6_ring(), _maps()[("toda", "bso6")])


@functools.lru_cache(maxsize=None)
def delta_star() -> AlgebraMap:
    return AlgebraMap("delta*", toda_ring(), bso3_ring(), _maps()[("toda", "bso3")])


@functools.lru_cache(maxsize=None)
def chi_star() -> AlgebraMap:
    return AlgebraMap("chi*", kz3_ring(), toda_ring(), _maps()[("kz3", "toda")])


@functools.lru_cache(maxsize=None)
def reduction_map() -> AlgebraMap:
    """Mod-2 reduction of the integral generators, as a map from the free shadow."""
    return AlgebraMap("rho", shadow_ring(), toda_ring(), _maps()[("shadow", "toda")])


TODA_SQ_TABLE = {
    "y2": {1: "0"},
    "y3": {1: "0", 2: "y5"},
    "y5": {1: "y3^2", 2: "0", 4: "y3^3 + y9"},
    "y8": {1: "y3^3", 2: "y5^2", 4: "y2^2*y8 + y12 + y3^4"},
    "y9": {
        1: "y5^2",
        2: "y3^2*y5",
        4: "y3*y5^2",
        8: "y3*y5*y9 + y5*y12 + y8*y9",
    },
    "y12": {
        1: "y3*y5^2",
        2: "y2*y12 + y3^2*y8",
        4: "y2^2*y12 + y3^2*y5^2",
        8: "y3^4*y8 + y8*y12",
    },
}

# by Adem, Sq^2 x20 = Sq^3 Sq^1 x1 = 0 and Sq^2 x21 = (Sq^6 + Sq^5 Sq^1) x20 = 0
KZ3_SQ_TABLE = {
    "x1": {1: "0", 2: "x20"},
    "x20": {1: "x1^2", 2: "0", 4: "x21"},
    "x21": {1: "x20^2", 2: "0"},
}


@functools.lru_cache(maxsize=None)
def toda_action() -> SteenrodAction:
    alg = toda_ring()
    return SteenrodAction(alg, table_rule(alg, TODA_SQ_TABLE))


@functools.lru_cache(maxsize=None)
def kz3_action() -> SteenrodAction:
    alg = kz3_ring()
    return SteenrodAction(alg, table_rule(alg, KZ3_SQ_TABLE))


@functools.lru_cache(maxsize=None)
def bu4_action() -> SteenrodAction:
    alg = bu4_ring()
    return SteenrodAction(alg, chern_rule(alg, {"c1": 1, "c2": 2, "c3": 3, "c4": 4}))


@functools.lru_cache(maxsize=None)
def bso6_action() -> SteenrodAction:
    alg = bso6_ring()
    return SteenrodAction(
        alg, stiefel_whitney_rule(alg, {"w2": 2, "w3": 3, "w4": 4, "w5": 5, "w6": 6})
    )


@functools.lru_cache(maxsize=None)
def bso3_action() -> SteenrodAction:
    alg = bso3_ring()
    return SteenrodAction(alg, stiefel_whitney_rule(alg, {"wp2": 2, "wp3": 3}))


@functools.lru_cache(maxsize=None)
def bso3_truncated_action(power: int) -> SteenrodAction:
    alg = bso3_truncated(power)
    return SteenrodAction(alg, stiefel_whitney_rule(alg, {"wp2": 2, "wp3": 3}))


@functools.lru_cache(maxsize=None)
def restriction_maps() -> tuple:
    """The three restrictions out of the six-generator ring, each paired with
    the Steenrod action on its target: the constraints ``solve_sq`` takes."""
    return (
        (pi_star(), bu4_action()),
        (phi_star(), bso6_action()),
        (delta_star(), bso3_action()),
    )
