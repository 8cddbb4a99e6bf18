import itertools
import random
import re
from pathlib import Path

import pytest

from bpuverify.dga import KERNEL_GENERATORS, toda_identification, w_algebra
from bpuverify.mod2alg import (
    AlgebraMap,
    MapNotWellDefined,
    PresentedAlgebra,
    load_algebra,
    load_map_tables,
    poly_mul,
)
from bpuverify.mod2alg.algebra import mono_divides, mono_mul, mono_quotient, s_polynomial
from bpuverify.mod2alg.rings import (
    bso3_ring,
    bso3_truncated,
    bso6_ring,
    bu4_ring,
    chi_star,
    delta_star,
    kz3_ring,
    phi_star,
    pi_star,
    reduction_map,
    toda_ring,
)

from bpuverify.mod2alg.suites import (
    INTEGRAL_SW,
    _phi_rho_generators,
    mod2_image,
    vanishes_mod_2w3,
)
from bpuverify.poly import monomial_basis

from oracles import (
    full_scan_monomials,
    irreducible_monomials,
    product_loop_ranks,
    subalgebra_ranks,
    toda_dimension_oracle,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


class _RestartLoopAlgebra(PresentedAlgebra):
    """The former reduction route, kept as the oracle: reduce the highest
    reducible monomial by the first lead dividing it, re-sort, restart; and
    inter-reduce the Groebner basis one element at a time, restarting after
    every change."""

    def _reduce(self, p, basis):
        work = set(p)
        again = True
        while again:
            again = False
            for m in sorted(work, key=self.order_key, reverse=True):
                for lead, g in basis:
                    if mono_divides(lead, m):
                        cof = mono_quotient(m, lead)
                        for gm in g:
                            work ^= {mono_mul(cof, gm)}
                        again = True
                        break
                if again:
                    break
        return frozenset(work)

    def _buchberger(self, relations):
        basis = [(self.leading_monomial(r), r) for r in relations if r]
        pairs = list(itertools.combinations(range(len(basis)), 2))
        while pairs:
            i, j = pairs.pop()
            li, fi = basis[i]
            lj, fj = basis[j]
            if all(a == 0 or b == 0 for a, b in zip(li, lj)):
                continue
            s = self._reduce(s_polynomial(li, fi, lj, fj), basis)
            if s:
                basis.append((self.leading_monomial(s), s))
                pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
        changed = True
        while changed:
            changed = False
            for i in range(len(basis)):
                others = [basis[j] for j in range(len(basis)) if j != i]
                red = self._reduce(basis[i][1], others)
                if red != basis[i][1]:
                    changed = True
                    basis = others
                    if red:
                        basis.append((self.leading_monomial(red), red))
                    break
        basis.sort(key=lambda t: self.order_key(t[0]))
        return tuple(basis)


def _sort_and_join_format(algebra, p):
    # the former printer, kept as the oracle for PresentedAlgebra.format
    if not p:
        return "0"
    pieces = []
    for m in sorted(p, key=algebra.order_key, reverse=True):
        factors = []
        for name, e in zip(algebra.gen_names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        pieces.append("*".join(factors) if factors else "1")
    return " + ".join(pieces)


def _oracle_corpus():
    paths = sorted((ROOT / "src" / "bpuverify" / "data").glob("*.alg"))
    paths.append(FIXTURES / "algebras" / "toda_bad.alg")
    algebras = [load_algebra(path.read_text(), path.stem) for path in paths]
    return algebras + [w_algebra(), bso3_truncated(3), bso3_truncated(6)]


def _random_presentation(seed):
    # three generators and three random homogeneous relations: small ideals
    # whose Buchberger runs drop and inter-reduce basis elements
    rng = random.Random(seed)
    gens = [("a", 1), ("b", 2), ("c", 3)]
    relations = []
    for _ in range(3):
        monos = monomial_basis(rng.randint(3, 6), [d for _, d in gens])
        relations.append(frozenset(rng.sample(monos, rng.randint(1, len(monos)))))
    return PresentedAlgebra(f"random{seed}", gens, relations)


@pytest.mark.parametrize(
    "algebra",
    _oracle_corpus() + [_random_presentation(seed) for seed in range(12)],
    ids=lambda a: a.name,
)
def test_reduction_matches_the_restart_loop_oracle(algebra):
    oracle = _RestartLoopAlgebra(
        algebra.name, zip(algebra.gen_names, algebra.gen_degrees), algebra.relations
    )
    assert oracle.groebner == algebra.groebner
    for d in range(25):
        for m in monomial_basis(d, algebra.gen_degrees):
            mono = frozenset({m})
            assert algebra.normal_form(mono) == oracle.normal_form(mono), (d, m)


@pytest.mark.parametrize("algebra", _oracle_corpus(), ids=lambda a: a.name)
def test_format_matches_the_sort_and_join_oracle(algebra):
    samples = [frozenset()] + list(algebra.relations)
    samples += [g for _, g in algebra.groebner]
    for d in range(17):
        samples += [frozenset({m}) for m in monomial_basis(d, algebra.gen_degrees)]
    for p in samples:
        assert algebra.format(p) == _sort_and_join_format(algebra, p), p


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


@pytest.mark.parametrize(
    "line, kind",
    [
        ("gen x 2 extra", "presentation"),
        ("gen x", "presentation"),
        ("gen x two", "presentation"),
        ("map a b: x = y", "map"),
        ("map a -> b: x y", "map"),
    ],
)
def test_a_malformed_corpus_line_is_named(line, kind):
    load = load_algebra if kind == "presentation" else lambda text, _: load_map_tables(text)
    raw = f"{line}  # trailing"
    with pytest.raises(ValueError, match=re.escape(f"bad {kind} line: {raw!r}")):
        load(f"# a comment\n{raw}\n", "x")


def test_an_image_for_a_non_generator_is_refused():
    B = bso3_ring()
    images = {"wp2": "wp2", "wp3": "wp3", "wp4": "wp2^2"}
    with pytest.raises(MapNotWellDefined, match="wp4 is not a generator of bso3"):
        AlgebraMap("extra", B, B, images)


def test_a_negative_power_is_refused():
    B = bso3_ring()
    assert B.power(B.gen("wp2"), 0) == B.one()
    with pytest.raises(ValueError, match="negative power"):
        B.power(B.gen("wp2"), -1)


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


def _subalgebra_cases():
    W = w_algebra()
    T = toda_ring()
    rho = reduction_map()
    image = [rho.apply(rho.source.gen(n)) for n in rho.source.gen_names]
    stated = [
        T.parse(s)
        for s in ("y2^2", "y2^3", "y3", "y5^2", "y8 + y3*y5", "y12 + y3*y9", "y3^2*y9 + y5^3")
    ]
    g = _phi_rho_generators()
    dependent = [T.parse(s) for s in ("y3", "y2^3", "y3^2")]
    return [
        ("dga-kernel", W, [W.parse(s) for s in KERNEL_GENERATORS], 30),
        ("section10-image", T, image, 24),
        # deg y210 = 15: past twice the window depth of the recursion
        ("section10-image-deep", T, image, 32),
        ("section10-stated", T, stated, 24),
        ("bso6-g1-g4", bso6_ring(), [g[n] for n in ("g1", "g2", "g3", "g4")], 24),
        ("toda-dependent", T, dependent, 24),
    ]


@pytest.mark.parametrize("case", _subalgebra_cases(), ids=lambda case: case[0])
def test_subalgebra_ranks_match_the_product_loop_oracle(case):
    _, algebra, generators, max_degree = case
    assert subalgebra_ranks(algebra, generators, max_degree) == product_loop_ranks(
        algebra, generators, max_degree
    )


def test_subalgebra_ranks_see_a_dependence():
    # y3^2 is both a generator and the square of y3 in degree 6
    T = toda_ring()
    ranks = subalgebra_ranks(T, [T.parse(s) for s in ("y3", "y2^3", "y3^2")], 6)
    assert ranks[6] == (2, 3)
    assert all(rank == count for rank, count in ranks[:6])


_BAD_GENERATORS = [
    ("y2*y3", "generator 1 is zero"),
    ("1", "generator 1 has degree 0"),
    ("y2 + y3", "generator 1 is inhomogeneous"),
]


@pytest.mark.parametrize("bad, message", _BAD_GENERATORS)
def test_subalgebra_ranks_reject_a_bad_generator(bad, message):
    T = toda_ring()
    with pytest.raises(ValueError, match=message):
        subalgebra_ranks(T, [T.gen("y2"), T.parse(bad)], 10)


@pytest.mark.parametrize("bad, message", _BAD_GENERATORS)
def test_membership_refuses_a_bad_generator_as_the_sweep_does(bad, message):
    # refused before any element is read, also with no element at all
    T = toda_ring()
    for elements in ([], [T.gen("y2")], [T.parse("y3^2")]):
        with pytest.raises(ValueError, match=message):
            T.first_nonmember(elements, [T.gen("y2"), T.parse(bad)])


def _in_span_by_the_sweep(algebra, generators, p, d):
    """p of degree d lies in the subalgebra when adding it as a generator
    leaves the sweep's degree-d rank unchanged."""
    ranks = [subalgebra_ranks(algebra, gens, d)[d][0] for gens in (generators, [*generators, p])]
    return ranks[0] == ranks[1]


@pytest.mark.parametrize("case", _subalgebra_cases(), ids=lambda case: case[0])
def test_membership_matches_the_sweep_oracle(case):
    """Every normal-form monomial through degree 12, and the sum of each
    consecutive pair, is a member exactly when the sweep's rank says so."""
    _, algebra, generators, _ = case
    for d in range(1, 13):
        monos = [frozenset({m}) for m in algebra.monomials_of_degree(d)]
        elements = monos + [a | b for a, b in zip(monos, monos[1:])]
        got = [algebra.first_nonmember([p], generators) is None for p in elements]
        assert got == [_in_span_by_the_sweep(algebra, generators, p, d) for p in elements], d
        outside = [i for i, member in enumerate(got) if not member]
        assert algebra.first_nonmember(elements, generators) == (outside[0] if outside else None)


def test_membership_passes_zero_one_and_a_generator_with_no_solve(monkeypatch):
    """Zero and an element equal to a generator pass before any product is
    listed; 1, the empty product, passes by the solve in degree 0."""
    T = toda_ring()
    gens = [T.parse(s) for s in ("y2^2", "y3", "y8 + y3*y5")]
    monkeypatch.setattr("bpuverify.mod2alg.algebra.monomial_basis", None)
    assert T.first_nonmember([frozenset(), T.parse("y3*y5 + y8"), T.parse("y3")], gens) is None
    monkeypatch.undo()
    assert T.first_nonmember([T.one(), T.parse("y2^2*y3 + y8"), T.gen("y2")], gens) == 1
    with pytest.raises(ValueError, match="inhomogeneous element"):
        T.first_nonmember([T.parse("y2^2 + y3")], gens)


def test_an_unknown_generator_name_is_named():
    with pytest.raises(KeyError, match="unknown variable 'zz'"):
        bso3_ring().gen("zz")
    with pytest.raises(KeyError, match="unknown variable 'zz'"):
        bso3_ring().parse("zz")


def test_a_monomial_of_the_wrong_length_is_refused():
    B = bso3_ring()
    assert B.monomial((1, 2)) == frozenset({(1, 2)})
    for exponents in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match=f"{len(exponents)} exponents for 2 generators"):
            B.monomial(exponents)


def _fresh_bso6_and_g1_g4():
    # a ring of its own, so that patching it leaves the cached bso6 ring alone
    fresh = load_algebra((ROOT / "src/bpuverify/data/bso6.alg").read_text(), "bso6")
    g = _phi_rho_generators()
    return fresh, [g[n] for n in ("g1", "g2", "g3", "g4")]


def test_subalgebra_ranks_build_no_ambient_monomial_table(monkeypatch):
    W6, gens = _fresh_bso6_and_g1_g4()
    expected = product_loop_ranks(bso6_ring(), gens, 24)

    def refuse(d):
        raise AssertionError(f"monomials_of_degree({d}) called")

    monkeypatch.setattr(W6, "monomials_of_degree", refuse)
    assert subalgebra_ranks(W6, gens, 24) == expected


def _refusal(algebra, generators, monkeypatch, patched_nf):
    """Run the subalgebra_ranks oracle with ``_monomial_nf`` patched; return
    the degree named by the ValueError and the element it names."""
    monkeypatch.setattr(algebra, "_monomial_nf", patched_nf)
    with pytest.raises(ValueError, match=r"not a degree-\d+ normal-form element") as caught:
        subalgebra_ranks(algebra, generators, 24)
    monkeypatch.undo()
    match = re.fullmatch(r"not a degree-(\d+) normal-form element: (.*)", str(caught.value))
    return int(match.group(1)), algebra.parse(match.group(2))


def test_subalgebra_ranks_refuse_an_unreduced_product(monkeypatch):
    # bso6 is free, so every monomial there is reduced: the Toda ring is where
    # a product of a normal-form monomial and a generator term needs reducing
    T = load_algebra((ROOT / "src/bpuverify/data/toda.alg").read_text(), "toda")
    stated = [T.parse(s) for s in ("y2^2", "y2^3", "y3", "y5^2", "y8 + y3*y5")]
    d, named = _refusal(T, stated, monkeypatch, lambda m, basis, memo: frozenset({m}))
    assert T.poly_degree(named) == d
    assert T.normal_form(named) != named


def test_subalgebra_ranks_refuse_a_product_of_the_wrong_degree(monkeypatch):
    W6, gens = _fresh_bso6_and_g1_g4()
    w2 = next(iter(W6.gen("w2")))
    d, named = _refusal(
        W6, gens, monkeypatch, lambda m, basis, memo: frozenset({mono_mul(m, w2)})
    )
    assert W6.poly_degree(named) == d + 2
    assert W6.normal_form(named) == named


@pytest.mark.parametrize("algebra", _oracle_corpus(), ids=lambda a: a.name)
def test_monomials_of_degree_match_the_lead_filter_oracle(algebra):
    # the lead filter lists the standard monomials; the oracle lists the
    # ambient monomials that are their own normal form under reduction
    for d in range(41):
        assert algebra.monomials_of_degree(d) == irreducible_monomials(algebra, d), d


@pytest.mark.parametrize(
    "algebra",
    [w_algebra(), toda_ring(), bso6_ring(), bso3_truncated(4)]
    + [a for a in _oracle_corpus() if a.name not in ("W", "toda", "bso6")]
    + [_random_presentation(seed) for seed in range(12)],
    ids=lambda a: a.name,
)
def test_bucketed_fill_matches_the_full_scan_oracle_through_degree_60(algebra):
    # the oracle raises each degree from the ones below it; the lead filter
    # reads no other degree
    expected = full_scan_monomials(algebra, 60)
    assert [algebra.monomials_of_degree(d) for d in range(61)] == expected
    for d, monos in enumerate(expected):
        assert algebra.basis_index(d) == {m: i for i, m in enumerate(monos)}, d


def test_the_fill_holds_no_index_dict():
    """monomials_of_degree caches the monomial tuple of the degree asked for
    and of no other; basis_index builds a degree's {monomial: bit} dict on
    its first call."""
    fresh = w_algebra.__wrapped__()
    monos = fresh.monomials_of_degree(60)
    assert fresh._basis_indexes == {}
    assert fresh._graded_cache == {60: monos} and type(monos) is tuple
    assert fresh.monomials_of_degree(60) is monos
    index = fresh.basis_index(40)
    assert fresh.basis_index(40) is index and list(fresh._basis_indexes) == [40]


def test_monomials_of_degree_queried_out_of_order():
    fresh = load_algebra((ROOT / "src/bpuverify/data/toda.alg").read_text(), "toda")
    expected = full_scan_monomials(fresh, 40)
    assert fresh.monomials_of_degree(40) == expected[40]
    assert fresh.monomials_of_degree(17) == expected[17]
    with pytest.raises(ValueError):
        fresh.monomials_of_degree(-1)


# five generators g0..g4, in listing order; two-generator leads x_b*x_j at the
# first, middle and last positions and their near misses, squares, a killed
# generator, a lead from a relation that is not a monomial, and the unit ideal
_HAND_PRESENTATIONS = [
    ["g0*g1"],
    ["g1*g3"],
    ["g3*g4"],
    ["g0*g4", "g2*g3"],
    ["g1*g3 + g2^7"],
    ["g1^2*g3"],
    ["g1*g3^2"],
    ["g0*g1*g3"],
    ["g1^2*g3", "g1*g3^2", "g0*g1*g3", "g2^3*g4"],
    ["g0^2", "g3^2", "g1*g4^2"],
    ["g2", "g0*g3"],
    ["1"],
]


@pytest.mark.parametrize("relations", _HAND_PRESENTATIONS, ids=", ".join)
def test_bucket_skips_match_both_oracles_through_degree_40(relations):
    gens = [("g0", 2), ("g1", 3), ("g2", 1), ("g3", 4), ("g4", 2)]
    algebra = PresentedAlgebra("hand", gens, relations)
    expected = full_scan_monomials(algebra, 40)
    for d in range(41):
        assert algebra.monomials_of_degree(d) == expected[d] == irreducible_monomials(algebra, d), d


def _corpus_maps():
    return [pi_star(), phi_star(), delta_star(), chi_star(), reduction_map(), toda_identification()]


@pytest.mark.parametrize("ring_map", _corpus_maps(), ids=lambda f: f.name)
def test_apply_returns_normal_forms(ring_map):
    for d in range(17):
        for m in ring_map.source.monomials_of_degree(d):
            value = ring_map.apply(frozenset({m}))
            assert value == ring_map.target.normal_form(value)
