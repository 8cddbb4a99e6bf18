"""The standard rings, ring maps and Steenrod tables of the mod-2 story.

Presentations and generator-image tables live in the packaged data files;
this module loads them once and decorates them with the Steenrod structure
(tabled squares on the six-generator ring, Wu-complete rules on the free
rings).
"""

from __future__ import annotations

import functools
from importlib import resources

from .algebra import AlgebraMap, PresentedAlgebra, load_algebra, load_map_tables
from .steenrod import SteenrodAction, chern_rule, stiefel_whitney_rule


def _data(name: str) -> str:
    return resources.files("bpuverify.data").joinpath(name).read_text()


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

KZ3_SQ_TABLE = {
    "x1": {1: "0", 2: "x20"},
    "x20": {1: "x1^2", 4: "x21"},
    "x21": {1: "x20^2"},
}


@functools.lru_cache(maxsize=None)
def toda_action() -> SteenrodAction:
    return SteenrodAction(toda_ring(), table=TODA_SQ_TABLE)


@functools.lru_cache(maxsize=None)
def kz3_action() -> SteenrodAction:
    return SteenrodAction(kz3_ring(), table=KZ3_SQ_TABLE)


@functools.lru_cache(maxsize=None)
def bu4_action() -> SteenrodAction:
    alg = bu4_ring()
    return SteenrodAction(alg, generator_rule=chern_rule(alg, {"c1": 1, "c2": 2, "c3": 3, "c4": 4}))


@functools.lru_cache(maxsize=None)
def bso6_action() -> SteenrodAction:
    alg = bso6_ring()
    return SteenrodAction(
        alg, generator_rule=stiefel_whitney_rule(alg, {"w2": 2, "w3": 3, "w4": 4, "w5": 5, "w6": 6})
    )


@functools.lru_cache(maxsize=None)
def bso3_action() -> SteenrodAction:
    alg = bso3_ring()
    return SteenrodAction(alg, generator_rule=stiefel_whitney_rule(alg, {"wp2": 2, "wp3": 3}))


@functools.lru_cache(maxsize=None)
def bso3_truncated_action(power: int) -> SteenrodAction:
    alg = bso3_truncated(power)
    return SteenrodAction(alg, generator_rule=stiefel_whitney_rule(alg, {"wp2": 2, "wp3": 3}))


def toda_dimension_oracle(d: int) -> int:
    """Independent count of the graded dimension of the six-generator ring.

    Transfer-matrix style enumeration of the two normal-form families
    {y2^a y8^b y12^c} and {y3^i y5^j y9^e y8^b y12^c : e <= 1, (i,j,e) != 0},
    with no Groebner machinery involved.
    """
    if d < 0:
        return 0
    count = 0
    for a in range(d // 2 + 1):
        for b in range((d - 2 * a) // 8 + 1):
            if (d - 2 * a - 8 * b) % 12 == 0:
                count += 1
    for b in range(d // 8 + 1):
        for c in range((d - 8 * b) // 12 + 1):
            rem0 = d - 8 * b - 12 * c
            for eps in (0, 1):
                rem = rem0 - 9 * eps
                if rem < 0:
                    continue
                for i in range(rem // 3 + 1):
                    if (rem - 3 * i) % 5 == 0:
                        j = (rem - 3 * i) // 5
                        if (i, j, eps) != (0, 0, 0):
                            count += 1
    return count

