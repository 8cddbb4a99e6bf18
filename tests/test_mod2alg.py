import random
from pathlib import Path

import pytest

from bpuverify.mod2alg import (
    AlgebraMap,
    MapNotWellDefined,
    PresentedAlgebra,
    load_algebra,
    load_map_tables,
    poly_mul,
)
from bpuverify.mod2alg.rings import (
    bso3_ring,
    bso3_truncated,
    bu4_ring,
    chi_star,
    delta_star,
    kz3_ring,
    phi_star,
    pi_star,
    reduction_map,
    toda_dimension_oracle,
    toda_ring,
)

from bpuverify.mod2alg.suites import INTEGRAL_SW, mod2_image, vanishes_mod_2w3

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_toda_generators_form_the_reduced_basis():
    T = toda_ring()
    leads = {T.format(frozenset({lead})) for lead, _ in T.groebner}
    assert leads == {"y3*y2", "y5*y2", "y9*y2", "y9^2"}
    assert len(T.groebner) == 4


def test_groebner_edge_cases():
    free = PresentedAlgebra("free", [("a", 2), ("b", 3)])
    assert free.groebner == ()
    dup = PresentedAlgebra("dup", [("a", 2)], ["a^2", "a^2"])
    assert len(dup.groebner) == 1


def test_normal_form_examples():
    T = toda_ring()
    assert T.normal_form(T.parse("y2*y3")) == frozenset()
    assert T.normal_form(T.parse("y9^2")) == T.parse("y3^2*y12 + y5^2*y8")
    B = bu4_ring()
    mono = B.parse("c1^3*c4")
    assert B.normal_form(mono) == mono


def test_normal_form_is_idempotent_and_a_congruence():
    T = toda_ring()
    rng = random.Random(55)
    gens = [T.gen(n) for n in T.gen_names]

    def random_element():
        out = frozenset()
        for _ in range(rng.randint(1, 3)):
            term = T.one()
            for _ in range(rng.randint(0, 3)):
                term = poly_mul(term, rng.choice(gens))
            out = out ^ term
        return out

    for _ in range(25):
        a, b, c = random_element(), random_element(), random_element()
        na = T.normal_form(a)
        assert T.normal_form(na) == na
        assert T.normal_form(a ^ b) == T.normal_form(na ^ T.normal_form(b))
        lhs = T.normal_form(poly_mul(a ^ b, c))
        rhs = T.normal_form(poly_mul(a, c) ^ poly_mul(b, c))
        assert lhs == rhs


def test_graded_piece_dimensions_match_quoted_values():
    T = toda_ring()
    quoted = {
        0: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 0, 8: 3, 9: 2, 10: 3,
        11: 2, 13: 2, 14: 6, 16: 6, 17: 5,
    }
    for d, expect in quoted.items():
        assert len(T.monomials_of_degree(d)) == expect, d
    # degree 12 is five-dimensional; the two four-element listings that appear
    # in the source drop y2^2*y8 and y3*y9 respectively
    monos12 = T.monomials_of_degree(12)
    assert len(monos12) == 5
    assert {T.format(frozenset({m})) for m in monos12} == {
        "y12", "y9*y3", "y8*y2^2", "y3^4", "y2^6",
    }
    monos9 = T.monomials_of_degree(9)
    assert {T.format(frozenset({m})) for m in monos9} == {"y9", "y3^3"}
    monos10 = T.monomials_of_degree(10)
    assert {T.format(frozenset({m})) for m in monos10} == {"y2^5", "y8*y2", "y5^2"}


def test_dimensions_match_transfer_matrix_oracle_through_24():
    T = toda_ring()
    for d in range(25):
        assert len(T.monomials_of_degree(d)) == toda_dimension_oracle(d), d


def test_coordinates_round_trip_and_reject_non_normal_forms():
    from bpuverify.dga import w_algebra

    W = w_algebra()
    d = 18
    monos = W.monomials_of_degree(d)
    assert len(monos) == 9
    for i, m in enumerate(monos):
        assert W.coordinates(frozenset({m}), d) == 1 << i
    for mask in range(1 << len(monos)):
        p = W.from_mask(mask, d)
        assert W.coordinates(p, d) == mask
        assert W.from_mask(W.coordinates(p, d), d) == p
    # x2*x3 is reducible (a Groebner leading monomial), so it is not in normal form
    with pytest.raises(ValueError):
        W.coordinates(W.parse("x2*x3"), 5)
    with pytest.raises(ValueError):
        W.coordinates(W.gen("x5") | W.parse("x2*x3"), 5)
    # a normal-form monomial of the wrong degree
    with pytest.raises(ValueError):
        W.coordinates(W.gen("x3"), 5)
    assert W.coordinates(W.gen("x5"), 5) == 1


def test_standard_maps_are_certified():
    # constructors raise unless every relation maps to zero
    for build in (pi_star, phi_star, delta_star, chi_star, reduction_map):
        assert build().images


def test_apply_map_examples():
    T = toda_ring()
    quartic = T.parse("y9^2 + y3^2*y12 + y5^2*y8")
    assert delta_star().apply(quartic) == frozenset()
    assert phi_star().apply(quartic) == frozenset()
    assert pi_star().apply(T.gen("y3")) == frozenset()
    assert pi_star().apply(T.gen("y2")) == bu4_ring().gen("c1")


def test_corrupted_map_is_rejected():
    T = toda_ring()
    table = dict(load_map_tables((Path(__file__).resolve().parents[1] / "src/bpuverify/data/maps.txt").read_text())[("toda", "bso3")])
    table["y12"] = "wp3^4"  # wrong image: the quartic no longer dies
    with pytest.raises(MapNotWellDefined):
        AlgebraMap("corrupt", T, bso3_ring(), table)
    with pytest.raises(MapNotWellDefined):
        AlgebraMap("wrong-degree", T, bso3_ring(), {**table, "y12": "wp2*wp3"})


def test_bad_fixture_presentation_rejects_the_standard_table():
    bad = load_algebra((FIXTURES / "algebras" / "toda_bad.alg").read_text(), "toda-bad")
    table = load_map_tables(
        (Path(__file__).resolve().parents[1] / "src/bpuverify/data/maps.txt").read_text()
    )[("toda", "bso3")]
    with pytest.raises(MapNotWellDefined):
        AlgebraMap("against-bad", bad, bso3_ring(), table)


def test_loader_round_trip():
    T = toda_ring()
    text_lines = [f"gen {n} {d}" for n, d in zip(T.gen_names, T.gen_degrees)]
    text_lines += [f"rel {T.format(r)}" for r in T.relations]
    clone = load_algebra("\n".join(text_lines), "clone")
    assert clone.gen_names == T.gen_names
    assert clone.groebner == T.groebner
    with pytest.raises(ValueError):
        load_algebra("gen a 2\nbogus line", "x")


def test_inhomogeneous_relation_rejected():
    with pytest.raises(ValueError):
        PresentedAlgebra("bad", [("a", 2), ("b", 3)], ["a + b"])


def test_truncated_ring():
    trunc = bso3_truncated(3)
    assert trunc.normal_form(trunc.parse("wp3^3")) == frozenset()
    assert trunc.normal_form(trunc.parse("wp3^2")) == trunc.parse("wp3^2")
    # odd degree 9 in the truncation: only wp2^3*wp3
    monos = trunc.monomials_of_degree(9)
    assert len(monos) == 1 and trunc.format(frozenset({monos[0]})) == "wp3*wp2^3"


def test_kz3_ring_is_free_on_three_generators():
    K = kz3_ring()
    assert K.relations == ()
    assert len(K.monomials_of_degree(9)) == 2  # x21 and x1^3


def test_integral_sw_ring():
    one = INTEGRAL_SW.one()
    p1 = INTEGRAL_SW.var("p1")
    w3 = INTEGRAL_SW.var("W3")
    assert vanishes_mod_2w3(w3 + w3)  # 2*W3 = 0
    assert not vanishes_mod_2w3(p1 + p1)  # the torsion-free part is honest over Z
    assert vanishes_mod_2w3(p1 * w3 + p1 * w3)
    assert str(p1 * p1 * w3 ** 2) == "p1^2*W3^2"
    assert mod2_image(p1 * w3 ** 2) == bso3_truncated(6).parse("wp2^2*wp3^2")
    assert (one + one).terms == {(0, 0): 2}
