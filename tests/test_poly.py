import ast
import random
from pathlib import Path

import pytest

from bpuverify import poly
from bpuverify.poly import (
    Polynomial,
    Ring,
    RingMismatchError,
    _first_lead_clash,
    _rank,
    monomial_basis,
    parse_polynomial,
)

from bpuverify.dga import KERNEL_GENERATORS, w_algebra
from bpuverify.mod2alg.rings import KZ3_SQ_TABLE, TODA_SQ_TABLE
from oracles import recursive_monomial_basis, regex_parse_polynomial

ROOT = Path(__file__).resolve().parent.parent

V2 = Ring(("v1", "v2"), (1, 1))
V4 = Ring(("v1", "v2", "v3", "v4"), (1, 1, 1, 1))
SIGMA4 = Ring(("s1", "s2", "s3", "s4"), (1, 2, 3, 4))


def P(text, ring):
    return parse_polynomial(text, ring)


def test_power_squares_only_while_bits_remain(monkeypatch):
    # a^k is the product of the squarings a, a^2, a^4, ... its bits pick, and
    # no square beyond the last of them: no product has degree above k*deg(a)
    a = P("8*s2 - 3*s1^2 + s1*s1", SIGMA4)
    degrees = []
    real = Polynomial.__mul__

    def spy(self, other):
        out = real(self, other)
        degrees.append(max(map(SIGMA4.degree_of, out.terms), default=0))
        return out

    for k in range(10):
        expected = a.ring.one()
        for _ in range(k):
            expected = expected * a
        monkeypatch.setattr(Polynomial, "__mul__", spy)
        degrees.clear()
        power = a ** k
        monkeypatch.undo()
        assert power == expected, k
        assert max(degrees, default=0) <= 2 * k, (k, degrees)


def test_add_cancellation():
    assert P("v1 + v2", V2) + P("v1 - v2", V2) == P("2*v1", V2)


def test_add_identity():
    p = P("3*v1^2 - v2", V2)
    assert p + V2.zero() == p


def test_add_modular_wraparound():
    r = Ring(("v1",), (1,), 4)
    assert P("3*v1", r) + P("v1", r) == r.zero()


def test_mul_square():
    assert P("v1 + v2", V2) ** 2 == P("v1^2 + 2*v1*v2 + v2^2", V2)


def test_mul_identity():
    p = P("7*v1*v2 - 2", V2)
    assert p * V2.one() == p


def test_mul_frobenius_mod2():
    r = Ring(("v1", "v2"), (1, 1), 2)
    assert P("v1 + v2", r) ** 2 == P("v1^2 + v2^2", r)


def test_partial_derivative_examples():
    assert P("v1^2*v2", V2).partial_derivative(0) == P("2*v1*v2", V2)
    assert P("v2^3", V2).partial_derivative(0) == V2.zero()
    assert P("v1*v2*v3*v4", V4).partial_derivative(0) == P("v2*v3*v4", V4)
    with pytest.raises(IndexError):
        P("v1", V2).partial_derivative(5)


def test_substitute_swap():
    images = {"v1": V2.var("v2"), "v2": V2.var("v1")}
    assert P("v1^2*v2", V2).substitute(images) == P("v1*v2^2", V2)


def test_substitute_cyclic_restriction():
    # sigma_2 in four variables under v_i -> i*eta, coefficients mod 4:
    # the sum of pairwise index products is 35, and 35 = 3 mod 4.
    eta = Ring(("eta",), (1,), 4)
    sigma2 = V4.zero()
    for i in range(4):
        for j in range(i + 1, 4):
            sigma2 = sigma2 + V4.var(f"v{i+1}") * V4.var(f"v{j+1}")
    images = {f"v{i+1}": (i + 1) * eta.var("eta") for i in range(4)}
    assert sigma2.substitute(images) == P("3*eta^2", eta)


def test_substitute_all_zero():
    p = P("8*s2 - 3*s1^2", SIGMA4)
    zero = V4.zero()
    images = {name: zero for name in SIGMA4.variables}
    assert p.substitute(images) == V4.zero()


def test_substitute_missing_image():
    with pytest.raises(KeyError):
        P("v1*v2", V2).substitute({"v1": V2.var("v1")})


def test_substitute_mixed_targets():
    with pytest.raises(RingMismatchError):
        P("v1*v2", V2).substitute({"v1": V2.var("v1"), "v2": V4.var("v1")})


def test_monomial_basis_partition_example():
    basis = monomial_basis(4, (1, 2, 3, 4))
    assert len(basis) == 5
    monos = set(basis)
    assert monos == {(4, 0, 0, 0), (2, 1, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1)}


def test_monomial_basis_degree_zero_and_parity():
    assert monomial_basis(0, (1, 1, 1)) == ((0, 0, 0),)
    assert monomial_basis(1, (2, 2, 2)) == ()


@pytest.mark.parametrize("weights", [
    (1, 2, 3, 4), (2, 3, 4, 6), (2, 3, 4), (4, 6), (1, 1, 1), (2, 2, 2), "W",
])
def test_monomial_basis_matches_the_recursive_oracle_through_degree_60(weights):
    if weights == "W":
        from bpuverify import dga
        weights = dga.w_algebra().gen_degrees
    for d in range(61):
        assert monomial_basis(d, weights) == recursive_monomial_basis(d, weights), d
    # a list of weights reads as its tuple
    assert monomial_basis(12, list(weights)) == monomial_basis(12, weights)


def test_monomial_basis_edge_cases_match_the_recursive_oracle():
    for d in range(4):
        assert monomial_basis(d, ()) == recursive_monomial_basis(d, ()) == (((),) if d == 0 else ())
    assert monomial_basis(0, (5,)) == recursive_monomial_basis(0, (5,)) == ((0,),)
    assert monomial_basis(7, (5,)) == recursive_monomial_basis(7, (5,)) == ()
    for enumerate_ in (monomial_basis, recursive_monomial_basis):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            enumerate_(-1, (1, 2))
        with pytest.raises(ValueError, match="degree must be >= 0"):
            enumerate_(-1, ())


def _partition_count(degree, weights):
    # independent recursive oracle for the generating-function count
    if degree == 0:
        return 1
    if not weights:
        return 0
    head, tail = weights[0], weights[1:]
    return sum(_partition_count(degree - k * head, tail) for k in range(degree // head + 1))


def _sorted_search_enumerator(degree, nvars, weights):
    # the former route: search every exponent, including the last, then sort
    found = []

    def rec(i, remaining, prefix):
        if i == nvars:
            if remaining == 0:
                found.append(tuple(prefix))
            return
        w = weights[i]
        for k in range(remaining // w, -1, -1):
            rec(i + 1, remaining - k * w, prefix + [k])

    rec(0, degree, [])
    found.sort(reverse=True)
    return tuple(found)


def test_monomial_basis_counts_match_partition_oracle():
    rng = random.Random(20240801)
    for _ in range(30):
        nv = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 4) for _ in range(nv))
        d = rng.randint(0, 9)
        basis = monomial_basis(d, weights)
        assert len(set(basis)) == len(basis)
        assert len(basis) == _partition_count(d, weights)
        assert all(sum(e * w for e, w in zip(m, weights)) == d for m in basis)
        assert all(a > b for a, b in zip(basis, basis[1:]))  # strictly lex-descending
        assert basis == _sorted_search_enumerator(d, nv, weights)


def test_reduce_coefficients_examples():
    assert P("12*s4 - 3*s1*s3 + s2^2", SIGMA4).reduce_coefficients(2) == parse_polynomial(
        "s1*s3 + s2^2", Ring(SIGMA4.variables, SIGMA4.weights, 2)
    )
    formal = Ring(("y2", "y3", "y4", "y6"), (2, 3, 4, 6))
    reduced = P("64*y6 - y2^3 - 27*y3^2 + 48*y2*y4", formal).reduce_coefficients(2)
    assert reduced == parse_polynomial("y2^3 + y3^2", Ring(formal.variables, formal.weights, 2))
    p = P("2*v1^3 + 4*v2", V2)
    assert p.reduce_coefficients(2).is_zero()


def _random_poly(rng, ring, max_terms=5, max_deg=8):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = [0] * ring.nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            e[rng.randrange(ring.nvars)] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-9, 9)
    return Polynomial(ring, terms)


def test_ring_axioms_random():
    rng = random.Random(7)
    ring = Ring(tuple(f"v{i}" for i in range(1, 7)), (1,) * 6)
    for _ in range(25):
        a, b, c = (_random_poly(rng, ring) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_leibniz_random():
    rng = random.Random(8)
    for _ in range(25):
        a, b = _random_poly(rng, V4), _random_poly(rng, V4)
        i = rng.randrange(4)
        lhs = (a * b).partial_derivative(i)
        rhs = a.partial_derivative(i) * b + a * b.partial_derivative(i)
        assert lhs == rhs


def test_substitute_is_ring_homomorphism_random():
    rng = random.Random(9)
    for _ in range(15):
        a, b = _random_poly(rng, V2, 3, 4), _random_poly(rng, V2, 3, 4)
        images = {"v1": _random_poly(rng, V4, 2, 2), "v2": _random_poly(rng, V4, 2, 2)}
        try:
            lhs = (a * b).substitute(images)
        except KeyError:
            continue  # constant-only polynomials need no images
        assert lhs == a.substitute(images) * b.substitute(images)


def test_reduce_commutes_with_arithmetic_random():
    rng = random.Random(10)
    for _ in range(20):
        a, b = _random_poly(rng, V2), _random_poly(rng, V2)
        m = rng.choice((2, 3, 4, 5))
        assert (a + b).reduce_coefficients(m) == a.reduce_coefficients(m) + b.reduce_coefficients(m)
        assert (a * b).reduce_coefficients(m) == a.reduce_coefficients(m) * b.reduce_coefficients(m)


def test_homogeneous_degree_contract():
    assert V2.zero().homogeneous_degree() is None
    assert P("v1*v2", V2).homogeneous_degree() == 2
    assert P("8*s2 - 3*s1^2", SIGMA4).homogeneous_degree() == 2
    with pytest.raises(ValueError):
        P("v1 + v1*v2", V2).homogeneous_degree()


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        P("v1", V2) + P("v1", V4)
    with pytest.raises(RingMismatchError):
        P("v1", V2) * P("v1", V4)


@pytest.mark.parametrize("variables, weights, modulus", [
    (("v1", "v2"), (1,), 0),  # one weight short
    (("v1",), (1, 1), 0),  # one weight too many
    (("v1",), (1,), 1),
    (("v1",), (1,), -2),
    (("v1", "v2"), (1, 0), 0),
    (("v1",), (-1,), 0),
])
def test_ring_rejects_bad_contexts(variables, weights, modulus):
    with pytest.raises(ValueError):
        Ring(variables, weights, modulus)


def test_equal_rings_built_apart_are_interchangeable():
    twin = Ring(("v1", "v2"), (1, 1))
    assert twin is not V2 and twin == V2 and hash(twin) == hash(V2)
    assert Ring(("v1", "v2"), (1, 1), 2) != V2 and Ring(("v1", "v2"), (1, 2)) != V2
    assert P("v1 + v2", twin) * P("v1 - v2", V2) == P("v1^2 - v2^2", V2)
    assert P("v1", twin) + P("v2", V2) - P("v1", V2) == P("v2", twin)
    assert len({P("v1", twin), P("v1", V2)}) == 1


def test_text_round_trip():
    for text in ("8*s2 - 3*s1^2", "s1^3 - 4*s1*s2 + 8*s3", "0", "12*s4 - 3*s1*s3 + s2^2"):
        p = P(text, SIGMA4)
        assert parse_polynomial(str(p), SIGMA4) == p


def test_parse_rejects_garbage():
    with pytest.raises(KeyError):
        parse_polynomial("q7 + 1", SIGMA4)
    with pytest.raises(ValueError):
        parse_polynomial("3 -", SIGMA4)
    with pytest.raises(ValueError):
        parse_polynomial("s1^", SIGMA4)


DANGLING = ["s1 +", "+", "s1*", "s1 -", "-", "*s1", "s1 * + s2", "2*", "s1 s2", "s1 2", "2 3 s1"]


@pytest.mark.parametrize("text", DANGLING)
def test_parse_rejects_dangling_operators(text):
    with pytest.raises(ValueError):
        parse_polynomial(text, SIGMA4)


def _corpus_texts():
    """(text, ring) for every generator name, relation and map value in the
    ring data and the algebra fixtures, every tabled square of the
    six-generator ring and K(Z,3), and dga's kernel generators."""
    rings, out = {}, []
    shipped = [*(ROOT / "src/bpuverify/data").glob("*.alg"), *(ROOT / "fixtures/algebras").glob("*.alg")]
    for path in sorted(shipped):
        lines = [raw.split("#", 1)[0].strip() for raw in path.read_text().splitlines()]
        gens = [line.split()[1:] for line in lines if line.startswith("gen ")]
        ring = rings[path.stem] = Ring(tuple(g for g, _ in gens), tuple(int(d) for _, d in gens), 2)
        out += [(g, ring) for g in ring.variables]
        out += [(line[4:], ring) for line in lines if line.startswith("rel ")]
    for raw in (ROOT / "src/bpuverify/data/maps.txt").read_text().splitlines():
        if raw.startswith("map "):
            target = raw.split("->")[1].split(":")[0].strip()
            out.append((raw.split("=", 1)[1], rings[target]))
    for table, ring in ((TODA_SQ_TABLE, rings["toda"]), (KZ3_SQ_TABLE, rings["kz3"])):
        out += [(text, ring) for entries in table.values() for text in entries.values()]
    return out + [(text, w_algebra()._parse_ring) for text in KERNEL_GENERATORS]


def _outcome(parse, text, ring):
    try:
        return parse(text, ring)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def test_parser_matches_the_regex_oracle_on_every_shipped_text():
    corpus = _corpus_texts()
    assert corpus
    for text, ring in corpus:
        assert parse_polynomial(text, ring) == regex_parse_polynomial(text, ring), text


@pytest.mark.parametrize("text", [
    "q7 + 1", "3 -", "s1^", *DANGLING, "s1 $ s2", "s1 +    @@", "2s1", "s1s2", "(s1)", "s1 + ^2",
    "s1^s2", "s1^-1", "", "   ", "0", "-s1 + - - s2", " 2 * 3 * s1 ", "s1^0 - 1", "s1 - s1 + s1",
    "8*s2 - 3*s1^2", "s1\u00a0+\ts2", "\u0663*s\u0661", "s\u0661", "\u0663*s1^\u0662", "s1 + \u00b2",
])
def test_parser_matches_the_regex_oracle_on_values_and_errors(text):
    """The same value, or the same exception type and message."""
    for ring in (SIGMA4, Ring(SIGMA4.variables, SIGMA4.weights, 2)):
        assert _outcome(parse_polynomial, text, ring) == _outcome(regex_parse_polynomial, text, ring)


def test_poly_reads_its_text_without_re():
    tree = ast.parse(Path(poly.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "re" not in imported and "re" not in vars(poly)


def test_a_wrong_length_exponent_is_refused():
    with pytest.raises(ValueError, match="^exponent tuple length mismatch$"):
        Polynomial(V2, {(1, 0): 1, (1,): 2})
    with pytest.raises(ValueError, match="^exponent tuple length mismatch$"):
        Polynomial(V2, {(1, 0, 0): 1})


def test_rank_over_the_rationals():
    assert _rank([]) == 0
    assert _rank([(0, 0), (0, 0)]) == 0
    assert _rank([(2, 0, 0, 0), (3, 0, 0, 0), (1, 0, 1, 0), (2, 0, 0, 1)]) == 3
    assert _rank([(1, 2, 3), (2, 4, 6), (1, 0, 0)]) == 2
    # independent over Q though dependent modulo 2
    assert _rank([(2, 0), (0, 2)]) == 2
    rng = random.Random(7)
    for _ in range(30):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        combo = [a * x + b * y for x, y in zip(*rows[:2])]
        assert _rank(rows + [combo]) == _rank(rows)


def _sweep(bases, leads):
    return next((i for i, expos in enumerate(bases) if not poly._distinct_leads(expos, leads)), None)


def test_first_lead_clash_sweeps_only_when_no_certificate_holds(monkeypatch):
    swept = []
    real = poly._distinct_leads
    monkeypatch.setattr(poly, "_distinct_leads",
                        lambda expos, leads: swept.append(expos) or real(expos, leads))
    weights = (2, 3, 4, 6)
    full = [monomial_basis(d, weights) for d in range(25)]
    window = [[e for e in b if e[0] <= 2] for b in full]
    independent = [(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (0, 0, 0, 1)]
    kernel_leads = [(2, 0, 0, 0), (3, 0, 0, 0), (1, 0, 1, 0), (2, 0, 0, 1)]
    assert _first_lead_clash(full, independent) is None
    assert _first_lead_clash(window, kernel_leads, kernel=(3, -2, 0, 0)) is None
    assert swept == []
    # without the kernel, or with a non-primitive one, or past its window, the
    # lists are swept, and the sweep's answer is returned
    for bases, kernel in ((window, None), (window, (6, -4, 0, 0)), (full, (3, -2, 0, 0))):
        clash = _first_lead_clash(bases, kernel_leads, kernel=kernel)
        assert swept and clash == _sweep(bases, kernel_leads)
        swept.clear()
    assert _first_lead_clash(window, kernel_leads) is None
    assert _first_lead_clash(full, kernel_leads) == 6
    # a second relation, (2, 0, -1, 0), leaves rank 2: the kernel is no certificate
    leads = [(2, 0, 0, 0), (3, 0, 0, 0), (4, 0, 0, 0), (2, 0, 0, 1)]
    assert _first_lead_clash(window, leads, kernel=(3, -2, 0, 0)) == 4
