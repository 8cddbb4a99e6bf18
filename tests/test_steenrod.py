import math
import random

import pytest

from bpuverify.mod2alg import (
    PresentedAlgebra,
    SteenrodAction,
    UnderdeterminedSquare,
    binom_general,
    solve_sq,
    table_rule,
)
from bpuverify.mod2alg.steenrod import sq1_preimages
from bpuverify.mod2alg import rings
from bpuverify.mod2alg.rings import (
    TODA_SQ_TABLE,
    bso3_action,
    bso3_ring,
    bso6_action,
    bso6_ring,
    bu4_action,
    bu4_ring,
    chi_star,
    delta_star,
    kz3_action,
    kz3_ring,
    phi_star,
    pi_star,
    toda_action,
    toda_ring,
)
from bpuverify.mod2alg.suites import verify_steenrod_theorem

from oracles import HandRouteAction, sweep_sq1_preimages


def test_binom_general():
    assert binom_general(5, 2) == 10
    assert binom_general(0, 0) == 1
    assert binom_general(-1, 0) == 1
    assert binom_general(-1, 1) == -1
    assert binom_general(-2, 2) == 3
    assert binom_general(3, 5) == 0
    assert binom_general(4, -1) == 0


def test_wu_values_on_so3():
    alg, act = bso3_ring(), bso3_action()
    assert act.sq(1, alg.gen("wp2")) == alg.gen("wp3")
    assert act.sq(2, alg.gen("wp3")) == alg.parse("wp2*wp3")
    assert act.sq(0, alg.gen("wp2")) == alg.gen("wp2")
    assert act.sq(1, alg.gen("wp3")) == frozenset()


def test_wu_values_on_so6():
    alg, act = bso6_ring(), bso6_action()
    assert act.sq(1, alg.gen("w2")) == alg.gen("w3")
    assert act.sq(1, alg.gen("w4")) == alg.gen("w5")
    assert act.sq(1, alg.gen("w6")) == frozenset()
    assert act.sq(4, alg.gen("w6")) == alg.parse("w4*w6")
    assert act.sq(3, alg.gen("w4")) == alg.parse("w2*w5 + w3*w4")


def test_wu_values_on_chern_classes():
    alg, act = bu4_ring(), bu4_action()
    assert act.sq(2, alg.gen("c1")) == alg.parse("c1^2")
    assert act.sq(2, alg.gen("c2")) == alg.parse("c1*c2 + c3")
    assert act.sq(2, alg.gen("c3")) == alg.parse("c1*c3")
    assert act.sq(2, alg.gen("c4")) == alg.parse("c1*c4")
    assert act.sq(4, alg.gen("c2")) == alg.parse("c2^2")
    assert act.sq(4, alg.gen("c3")) == alg.parse("c1*c4 + c2*c3")
    assert act.sq(4, alg.gen("c4")) == alg.parse("c2*c4")
    assert act.sq(8, alg.gen("c4")) == alg.parse("c4^2")
    # odd squares vanish on the even-degree ring
    for name in alg.gen_names:
        assert act.sq(1, alg.gen(name)) == frozenset()
        assert act.sq(3, alg.gen(name)) == frozenset()


def test_instability_on_free_rings():
    for alg, act in (
        (bu4_ring(), bu4_action()),
        (bso6_ring(), bso6_action()),
        (bso3_ring(), bso3_action()),
    ):
        for gidx, name in enumerate(alg.gen_names):
            deg = alg.gen_degrees[gidx]
            g = alg.gen(name)
            assert act.sq(deg, g) == alg.mul(g, g)
            for above in (deg + 1, deg + 3):
                assert act.sq(above, g) == frozenset()


def test_cartan_examples_on_the_presented_ring():
    T, act = toda_ring(), toda_action()
    assert act.sq(1, T.parse("y5*y8")) == T.parse("y3^2*y8 + y3^3*y5")
    assert act.sq(1, T.parse("y9^2")) == frozenset()
    b3 = bso3_action()
    assert b3.sq(4, bso3_ring().parse("wp2*wp3")) == bso3_ring().parse(
        "wp2^3*wp3 + wp3^3"
    )


def total_square(act, p):
    """Sq = Sq^0 + Sq^1 + ... + Sq^d on a homogeneous class of degree d."""
    d = act.algebra.poly_degree(p)
    if d is None:
        return frozenset()
    out = frozenset()
    for i in range(0, d + 1):
        out = out ^ act.sq(i, p)
    return act.algebra.normal_form(out)


def certify_relations(act, max_index):
    """Check Sq^i(r) == 0 in the quotient for each relation and i <= max_index."""
    for r in act.algebra.relations:
        for i in range(1, max_index + 1):
            value = act.sq(i, r)
            if value:
                raise ArithmeticError(
                    f"Sq^{i} of relation {act.algebra.format(r)} is "
                    f"{act.algebra.format(value)} != 0"
                )


def test_total_square_multiplicative_on_free_ring():
    alg, act = bso6_ring(), bso6_action()
    rng = random.Random(77)
    gens = [alg.gen(n) for n in alg.gen_names]
    for _ in range(10):
        a = alg.one()
        for _ in range(rng.randint(1, 2)):
            a = alg.mul(a, rng.choice(gens))
        b = alg.one()
        for _ in range(rng.randint(1, 2)):
            b = alg.mul(b, rng.choice(gens))
        assert total_square(act, alg.mul(a, b)) == alg.mul(
            total_square(act, a), total_square(act, b)
        )


def test_derived_composites_agree_with_instability_and_wu():
    T, act = toda_ring(), toda_action()
    # on a degree-3 generator Sq^1 Sq^2 must reproduce the top square
    y3 = T.gen("y3")
    assert act.sq(1, act.sq(2, y3)) == act.sq_gen(3, T.gen_names.index("y3")) == T.mul(y3, y3)
    # on the Wu-complete rings the routes are theorems; spot-check Sq^3, Sq^6
    alg, wact = bso6_ring(), bso6_action()
    for name in ("w4", "w5", "w6"):
        g = alg.gen(name)
        sq3 = wact.sq(1, wact.sq(2, g))
        assert sq3 == wact.sq(3, g)
        sq6 = wact.sq(2, wact.sq(4, g)) ^ wact.sq(1, wact.sq(4, wact.sq(1, g)))
        assert alg.normal_form(sq6) == wact.sq(6, g)


def test_adem_relations_on_the_toda_action():
    # Sq^a Sq^b = sum_c binom(b-c-1, a-2c) Sq^(a+b-c) Sq^c mod 2 for 0 < a < 2b
    # and a + b <= 16, on every normal-form monomial through degree 40
    T, act = toda_ring(), toda_action()
    checks = 0
    for d in range(41):
        for m in T.monomials_of_degree(d):
            x = frozenset({m})
            for b in range(1, 16):
                for a in range(1, min(2 * b, 17 - b)):
                    rhs = frozenset()
                    for c in range(a // 2 + 1):
                        if math.comb(b - c - 1, a - 2 * c) % 2:
                            rhs = rhs ^ act.sq(a + b - c, act.sq(c, x))
                    assert act.sq(a, act.sq(b, x)) == rhs, (m, a, b)
                    checks += 1
    assert checks == 37360


def test_instability_on_the_toda_action():
    # Sq^i x = 0 for i > |x| and Sq^|x| x = x^2, on every normal-form monomial
    # through degree 40
    T, act = toda_ring(), toda_action()
    for d in range(41):
        for m in T.monomials_of_degree(d):
            x = frozenset({m})
            assert act.sq(d, x) == T.mul(x, x), m
            for above in range(d + 1, d + 4):
                assert act.sq(above, x) == frozenset(), (m, above)


def test_hand_routes_agree_with_the_adem_derivation():
    # Sq^3 = Sq^1 Sq^2, Sq^5 = Sq^1 Sq^4, Sq^6 = Sq^2 Sq^4 + Sq^1 Sq^4 Sq^1
    # and Sq^7 = Sq^1 Sq^2 Sq^4 on every generator, the toda ones included
    T, act = toda_ring(), toda_action()
    hand = HandRouteAction(T, table_rule(T, TODA_SQ_TABLE))
    derived = 0
    for gidx, name in enumerate(T.gen_names):
        for i in (3, 5, 6, 7):
            assert act.sq_gen(i, gidx) == hand.sq_gen(i, gidx), (name, i)
            derived += i < T.gen_degrees[gidx]
    assert derived == 13  # Sq^3 y5, and all four on y8, y9 and y12


def test_adem_derivation_reproduces_the_wu_formulas():
    # a rule that gives only Sq^(2^k) determines every other square on the
    # free rings, and the derived values are the Wu values
    for alg, act in ((bso6_ring(), bso6_action()), (bu4_ring(), bu4_action())):
        powers = SteenrodAction(alg, lambda i, name: act.rule(i, name) if i & (i - 1) == 0 else None)
        for gidx, name in enumerate(alg.gen_names):
            for i in range(alg.gen_degrees[gidx] + 2):
                assert powers.sq_gen(i, gidx) == act.sq_gen(i, gidx), (alg.name, name, i)


def test_underdetermined_square_is_refused():
    alg = PresentedAlgebra("stub", [("z", 10), ("w", 12)])
    act = SteenrodAction(alg, table_rule(alg, {"z": {1: "0"}, "w": {1: "0"}}))
    zidx = alg.gen_names.index("z")
    with pytest.raises(UnderdeterminedSquare):
        act.sq_gen(6, zidx)  # needs Sq^2 and Sq^4 values that were never given
    with pytest.raises(UnderdeterminedSquare):
        act.sq(2, alg.gen("z"))
    with pytest.raises(UnderdeterminedSquare):
        act.sq(2, alg.gen("w"))  # the unknown lands in the empty degree 14


def test_table_rule_checks_its_entries():
    alg = PresentedAlgebra("stub", [("z", 4), ("w", 8)], ["w*z + z^3"])
    rule = table_rule(alg, {"z": {1: "0", 2: "0"}, "w": {4: "w*z + z^3"}})
    assert rule(1, "z") == frozenset()
    assert rule(4, "w") == frozenset()  # normalized once
    assert rule(3, "z") is None and rule(1, "w") is None
    with pytest.raises(ValueError, match="x is not a generator of stub"):
        table_rule(alg, {"x": {1: "0"}})
    with pytest.raises(ValueError, match="not of degree 12"):
        table_rule(alg, {"w": {4: "w"}})
    with pytest.raises(ValueError, match="inhomogeneous"):
        table_rule(alg, {"w": {4: "w*z + z^2"}})
    with pytest.raises(ValueError, match="fixed by instability"):
        table_rule(alg, {"z": {4: "z^2"}})


def test_action_well_defined_on_relations():
    act = toda_action()
    certify_relations(act, 8)  # raises on failure


def test_relation_certificate_catches_a_bad_table(monkeypatch):
    """Sq^i of a defining relation is taken term by term, so a table value the
    relations forbid fails that relation's line: with Sq^4(y5) = y9, Sq^8 of
    y9^2 + y3^2*y12 + y5^2*y8 is y8*y3^6, not 0."""
    rings.toda_action.cache_clear()  # the action is shared by every test
    try:
        with monkeypatch.context() as patch:
            patch.setitem(TODA_SQ_TABLE["y5"], 4, "y9")
            checks = {c.name: c for c in verify_steenrod_theorem().checks}
    finally:
        rings.toda_action.cache_clear()
    line = checks["relation/Sq8/y9^2"]
    assert line.status == "fail"
    assert line.detail.endswith("reduces to y8*y3^6")


def test_map_commutation_for_every_tabled_value():
    T, act = toda_ring(), toda_action()
    targets = [
        (pi_star(), bu4_action()),
        (phi_star(), bso6_action()),
        (delta_star(), bso3_action()),
    ]
    for gname, entries in TODA_SQ_TABLE.items():
        for i, value in entries.items():
            s = T.parse(value)
            for fmap, taction in targets:
                assert fmap.apply(s) == taction.sq(i, fmap.apply(T.gen(gname))), (
                    gname,
                    i,
                    fmap.name,
                )


def test_kz3_compatibility_through_the_restriction():
    K, kact = kz3_ring(), kz3_action()
    T, tact = toda_ring(), toda_action()
    chi = chi_star()
    # Sq^3 x20 and Sq^3 x21 are derived from the tabled Sq^2 = 0 by Adem;
    # Sq^4 and Sq^8 of x21 are not tabled, so Sq^4..Sq^8 x21 stay out
    for gname, entries in (("x1", (1, 2)), ("x20", (1, 2, 3, 4)), ("x21", (1, 2, 3))):
        for i in entries:
            lhs = chi.apply(kact.sq(i, K.gen(gname)))
            rhs = tact.sq(i, chi.apply(K.gen(gname)))
            assert lhs == rhs, (gname, i)


def test_solve_sq_examples():
    T, act, maps = toda_ring(), toda_action(), rings.restriction_maps()
    assert solve_sq(T, maps, act, "y8", 2) == [T.parse("y5^2")]
    assert solve_sq(T, maps, act, "y12", 8) == [T.parse("y3^4*y8 + y8*y12")]
    assert solve_sq(T, maps, act, "y3", 2) == [T.gen("y5")]
    assert solve_sq(T, maps, act, "y5", 4) == [T.parse("y3^3 + y9")]
    assert solve_sq(T, maps, act, "y9", 8) == [T.parse("y3*y5*y9 + y5*y12 + y8*y9")]


def test_sq1_preimages_match_the_sweep_on_truncated_bso3():
    # every target of degree d + 1 against the sweep, for each degree d <= 24
    # with at most 12 monomials, in H*(BSO(3))/(wp3^3) as the bpu2 suite uses it
    alg, act = rings.bso3_truncated(3), rings.bso3_truncated_action(3)
    hit = missed = 0
    for d in range(25):
        if len(alg.monomials_of_degree(d)) > 12:
            continue
        for bits in range(1 << len(alg.monomials_of_degree(d + 1))):
            target = alg.from_mask(bits, d + 1)
            solved = sq1_preimages(alg, act, target, d)
            swept = sweep_sq1_preimages(alg, act, target, d)
            assert len(solved) == len(swept), (d, target)
            assert set(solved) == set(swept), (d, target)
            hit += bool(swept)
            missed += not swept
    assert hit > 20 and missed > 20


def test_wu_chern_wrapper():
    alg, act = bu4_ring(), bu4_action()
    assert act.sq(2, alg.gen("c2")) == alg.parse("c1*c2 + c3")
    assert act.sq(4, alg.gen("c3")) == alg.parse("c1*c4 + c2*c3")
    assert act.sq(8, alg.gen("c4")) == alg.parse("c4^2")
    assert act.sq(3, alg.gen("c2")) == frozenset()  # odd squares vanish
