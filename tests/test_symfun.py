import itertools
import math
import random

import pytest

from bpuverify import cli, intlinalg, poly, symfun
from bpuverify.intlinalg import (
    IntMatrix,
    element_order_in_cokernel,
    integer_kernel,
    rank_mod_p,
    smith_normal_form,
    solve_integer,
)
from bpuverify.poly import Polynomial, monomial_basis, parse_polynomial
from bpuverify.report import serialize, strip_elapsed
from bpuverify.series import geometric_product
from bpuverify.symfun import (
    AlphaGenerators,
    SymmetricContext,
    alpha_generators,
    certify_k4_presentation,
    coker_order,
    coordinates,
    divergence_onto_shape,
    h3_order,
    kernel_basis,
    monomial_coker_orders,
    nabla_matrix,
    power_sums,
    standard_exponents,
    theta_map,
    vistoli_delta_check,
)

from test_intlinalg import _time_limit

from oracles import (
    alpha_monomial,
    coker_report_by_monomial,
    delta_polynomial,
    delta_sigma,
    divergence_onto_shape_by_columns,
    elementary,
    expand,
    first_outside_by_divergence,
    generator_monomial_stack,
    has_full_row_rank,
    is_symmetric,
    k3_generators,
    k4_three_adic_factors_by_elimination,
    nabla,
    nonzero_invariant_factors,
    per_monomial_coker_orders,
    to_sigma,
    tuple_delta_sigma,
    vandermonde,
    vistoli_by_expansion,
)

CTX4 = SymmetricContext(4)
ALPHA = alpha_generators(CTX4)


def sp(text, ctx=CTX4):
    return parse_polynomial(text, ctx.sigma_ring)


def test_elementary_examples():
    ctx2 = SymmetricContext(2)
    assert elementary(ctx2, 1) == parse_polynomial("v1 + v2", ctx2.v_ring)
    assert elementary(CTX4, 4) == parse_polynomial("v1*v2*v3*v4", CTX4.v_ring)
    assert elementary(CTX4, 0) == CTX4.v_ring.one()
    with pytest.raises(ValueError):
        elementary(CTX4, 5)


def test_divergence_of_elementary_classes():
    # the two routes (v-expansion and the sigma-derivation) must agree,
    # with divergence(s_k) = (n-k+1) s_{k-1}
    for n in range(1, 6):
        ctx = SymmetricContext(n)
        for k in range(1, n + 1):
            expanded = nabla(ctx, expand(ctx, ctx.sigma(k)))
            target = (n - k + 1) * (
                expand(ctx, ctx.sigma(k - 1)) if k >= 2 else ctx.v_ring.one()
            )
            assert expanded == target
            derived = ctx.nabla_sigma(ctx.sigma(k))
            assert expand(ctx, derived) == target


def test_divergence_simple_and_errors():
    assert nabla(CTX4, CTX4.v_ring.var("v1")) == CTX4.v_ring.one()
    with pytest.raises(ValueError):
        nabla(CTX4, CTX4.sigma(1))
    with pytest.raises(ValueError):
        CTX4.nabla_sigma(CTX4.v_ring.var("v1"))


def test_divergence_kills_the_generators():
    for gen in ALPHA.as_dict().values():
        assert CTX4.nabla_sigma(gen).is_zero()


def test_degree_six_relation():
    rel = 64 * ALPHA.a6 - ALPHA.a2 ** 3 - 27 * ALPHA.a3 ** 2 + 48 * ALPHA.a2 * ALPHA.a4
    assert rel.is_zero()


def _random_vpoly(rng, ctx, max_terms=4, max_deg=8):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * ctx.n
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(ctx.n)] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-5, 5)
    return Polynomial(ctx.v_ring, terms)


def test_divergence_commutes_with_permutations():
    rng = random.Random(31)
    for n in (3, 4, 5):
        ctx = SymmetricContext(n)
        for _ in range(10):
            f = _random_vpoly(rng, ctx)
            perm = list(range(n))
            rng.shuffle(perm)

            def permute(p):
                return Polynomial(
                    ctx.v_ring,
                    {tuple(e[perm[i]] for i in range(n)): c for e, c in p.terms.items()},
                )

            assert permute(nabla(ctx, f)) == nabla(ctx, permute(f))


def test_divergence_leibniz_random():
    rng = random.Random(32)
    for _ in range(15):
        f, g = _random_vpoly(rng, CTX4, 3, 4), _random_vpoly(rng, CTX4, 3, 4)
        assert nabla(CTX4, f * g) == nabla(CTX4, f) * g + f * nabla(CTX4, g)


def test_nabla_matrix_examples():
    assert nabla_matrix(CTX4, 2).entries == ((8, 3),)
    assert nabla_matrix(CTX4, 1).entries == ((4,),)


def test_divergence_onto_shape_agrees_with_the_matrix_rank():
    cases = [(n, d) for n in range(1, 7) for d in range(1, 19)]
    cases += [(4, d) for d in range(19, 41)]
    contexts = {n: SymmetricContext(n) for n in range(1, 7)}
    for n, d in cases:
        a = nabla_matrix(contexts[n], d)
        assert has_full_row_rank(a), (n, d)
        assert divergence_onto_shape(contexts[n], d) == (a.rows, a.cols), (n, d)
        # the rule-level certificate against the column-by-column one it replaced
        assert divergence_onto_shape_by_columns(contexts[n], d) == (a.rows, a.cols), (n, d)
    assert divergence_onto_shape(CTX4, 0) == (0, 1)
    with pytest.raises(ValueError):
        divergence_onto_shape(CTX4, -1)


def _with_image(k, text):
    """The real divergence rule with the image of s_k replaced by ``text``."""
    return lambda ctx: tuple(sp(text, ctx) if i == k else image
                             for i, image in enumerate(ctx.divergence_rule, 1))


# corruptions of the rule data, each breaking the triangular block on the
# columns s1*mu, with the least degree whose columns use the faulty image
CORRUPTED_RULES = {
    # s1 |-> 0: no column has a term at mu
    "diagonal-dropped": (_with_image(1, "0"), 1),
    # s1 |-> 4*s1: the term at mu moves to s1*mu, outside the rows
    "diagonal-off-degree": (_with_image(1, "4*s1"), 1),
    # s2 |-> s3 raises the degree and the s3-exponent, so above mu
    "term-above-mu": (_with_image(2, "s3"), 3),
    # s3 |-> s1 lowers the degree by two, so below mu but outside the rows
    "term-outside-rows": (_with_image(3, "s1"), 4),
    # s4 |-> s3 + 1: its second term lies outside the rows
    "inhomogeneous-image": (_with_image(4, "s3 + 1"), 5),
}


def _corrupt_rule(monkeypatch, name):
    """Give every context built from now on the corrupted rule ``name``, or
    the rule a callable ``name`` makes of the context, and return the least
    degree at which a named rule shows (None for a callable)."""
    real = SymmetricContext.__init__
    corrupt, first = CORRUPTED_RULES[name] if isinstance(name, str) else (name, None)

    def corrupted(self, n):
        real(self, n)
        self.divergence_rule = corrupt(self)

    monkeypatch.setattr(SymmetricContext, "__init__", corrupted)
    return first


@pytest.mark.parametrize("name", sorted(CORRUPTED_RULES))
def test_divergence_onto_shape_refuses_a_corrupted_derivation(monkeypatch, name):
    ctx = SymmetricContext(4)
    assert divergence_onto_shape(ctx, 6) == (len(ctx.sigma_basis(5)), len(ctx.sigma_basis(6)))
    first = _corrupt_rule(monkeypatch, name)
    ctx = SymmetricContext(4)
    for d in range(7):
        # the column-by-column oracle, reading the corrupted rule through
        # monomial_divergence, refuses it from the same degree
        refused = divergence_onto_shape_by_columns(ctx, d) is None
        assert (divergence_onto_shape(ctx, d) is None) == (d >= first) == refused, (name, d)


def test_divergence_operator_matrix_and_certificate_share_one_rule(monkeypatch):
    s1 = CTX4.sigma(1)
    assert CTX4.nabla_sigma(s1) == CTX4.sigma_ring.const(4)
    _corrupt_rule(monkeypatch, "diagonal-dropped")
    ctx = SymmetricContext(4)
    assert ctx.nabla_sigma(ctx.sigma(1)).is_zero()
    assert nabla_matrix(ctx, 1).entries == ((0,),)
    assert divergence_onto_shape(ctx, 1) is None
    # s2 |-> s3 reaches the operator as well, and the certificate from degree 3
    monkeypatch.undo()
    _corrupt_rule(monkeypatch, "term-above-mu")
    ctx = SymmetricContext(4)
    assert ctx.nabla_sigma(ctx.sigma(2)) == ctx.sigma(3)
    assert divergence_onto_shape(ctx, 2) is not None
    assert divergence_onto_shape(ctx, 3) is None


def test_k4_stops_where_the_divergence_is_not_shown_onto(monkeypatch, capsys):
    # the image s3 of s2 is first used by the column s1*s2, at degree 3
    _corrupt_rule(monkeypatch, "term-above-mu")
    with pytest.raises(ArithmeticError, match="divergence is not onto at degree 3$"):
        certify_k4_presentation(8)
    assert cli.main(["k4", "--max-degree", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: divergence is not onto at degree 3\n"


def test_k4_stack_rows_refuse_terms_outside_the_sigma_basis(monkeypatch):
    # a2 + 64 and a matching a6 keep every generator divergence-free and the
    # relation exact, so only the homogeneity check refuses the inhomogeneous a2
    one = CTX4.sigma_ring.one()
    a6 = ALPHA.a6 + 3 * ALPHA.a2 ** 2 + 192 * ALPHA.a2 + 4096 * one - 48 * ALPHA.a4
    _swap_generators(monkeypatch, {"a2": str(ALPHA.a2 + 64 * one), "a6": str(a6)})
    with pytest.raises(ArithmeticError, match="outside the degree-2 sigma basis"):
        certify_k4_presentation(4)


def test_kernel_basis_examples():
    k2 = kernel_basis(CTX4, 2)
    assert len(k2) == 1
    assert k2[0] in (sp("3*s1^2 - 8*s2"), sp("-3*s1^2 + 8*s2"))
    assert kernel_basis(CTX4, 0) == [CTX4.sigma_ring.one()]
    assert len(kernel_basis(CTX4, 6)) == 3


def test_rank_nullity_through_degree_16():
    for d in range(1, 17):
        mat = nabla_matrix(CTX4, d)
        kern = kernel_basis(CTX4, d)
        assert len(kern) + smith_normal_form(mat).rank == mat.cols


def test_mod2_kernel_contains_reduced_integral_kernel():
    from bpuverify import gf2

    for d in range(1, 13):
        mat = nabla_matrix(CTX4, d)
        columns = [
            sum((row[j] % 2) << i for i, row in enumerate(mat.entries))
            for j in range(mat.cols)
        ]
        _, mod2 = gf2.solve_affine(columns, 0)
        assert len(mod2) == mat.cols - rank_mod_p(mat, 2)
        basis = CTX4.sigma_basis(d)
        for g in kernel_basis(CTX4, d):
            mask = sum(
                1 << i for i, m in enumerate(basis) if g.coefficient(m) % 2
            )
            assert gf2.rank(mod2 + [mask]) == gf2.rank(mod2)


def test_small_variable_count_sanity():
    # n = 2: the kernel ranks match Z[s1^2 - 4*s2]
    ctx2 = SymmetricContext(2)
    assert kernel_basis(ctx2, 2)[0] in (
        parse_polynomial("s1^2 - 4*s2", ctx2.sigma_ring),
        parse_polynomial("-s1^2 + 4*s2", ctx2.sigma_ring),
    )
    series = geometric_product((2,), 10)
    for d in range(11):
        assert len(kernel_basis(ctx2, d)) == series[d]

    # n = 3: the classical presentation, with the recorded sign normalization
    ctx3 = SymmetricContext(3)
    gens = k3_generators(ctx3)
    a2, a3, a6 = gens["a2"], gens["a3"], gens["a6"]
    assert (27 * a6 - 4 * a2 ** 3 - a3 ** 2).is_zero()
    for g in gens.values():
        assert ctx3.nabla_sigma(g).is_zero()
    # a2 and a3 are the degree-2/3 kernel generators up to sign
    for g, d in ((a2, 2), (a3, 3)):
        basis = kernel_basis(ctx3, d)
        assert len(basis) == 1
        assert g in (basis[0], -1 * basis[0])
    # monomials in the three generators span the full kernel lattice
    series3 = geometric_product((2, 3), 10)
    for d in range(0, 11):
        kern = kernel_basis(ctx3, d)
        assert len(kern) == series3[d]
        expos = [
            (i, j, k)
            for i in range(d // 2 + 1)
            for j in range((d - 2 * i) // 3 + 1)
            for k in range((d - 2 * i - 3 * j) // 6 + 1)
            if 2 * i + 3 * j + 6 * k == d
        ]
        if d == 0 or not kern:
            continue
        cols = [list(coordinates(ctx3, g, d)) for g in kern]
        rows = []
        for i, j, k in expos:
            sol = solve_integer(cols, coordinates(ctx3, a2 ** i * a3 ** j * a6 ** k, d))
            assert sol is not None
            rows.append(sol)
        stack = smith_normal_form(IntMatrix(rows))
        assert stack.rank == len(kern)
        assert all(f == 1 for f in stack.invariant_factors[: stack.rank])


def test_certify_k4_rank_and_hilbert_pass_lattice_fails_three_locally():
    report = certify_k4_presentation(12)
    by_name = {c.name: c for c in report.checks}
    assert by_name["relation"].status == "pass"
    for d in range(13):
        assert by_name[f"rank/d{d:02d}"].status == "pass"
        assert by_name[f"hilbert/d{d:02d}"].status == "pass"
    # the generator-monomial lattice has 3-power index in the kernel in
    # every degree where the mod-3 dependence a4 = a2^2 (up to units) bites
    failing = {
        int(c.name.split("/d")[1]) for c in report.checks
        if c.name.startswith("lattice/") and c.status == "fail"
    }
    assert failing == {4, 6, 7, 8, 9, 10, 11, 12}
    for c in report.checks:
        if c.name.startswith("lattice/") and c.status == "fail":
            factors = c.detail.split("factors")[1]
            assert "3" in factors or "9" in factors or "27" in factors
    assert any(c.name == "three-primary-defect" for c in report.checks)


def test_hilbert_lines_compare_against_the_computed_kernel_rank(monkeypatch):
    # one certified row short, each degree d >= 1 reads a kernel rank one too
    # high; the monomial counts still match the series, so only a comparison
    # with the computed rank fails
    real = symfun.divergence_onto_shape

    def one_row_short(ctx, degree):
        rows, cols = real(ctx, degree)
        return (rows - 1 if degree else rows), cols

    monkeypatch.setattr(symfun, "divergence_onto_shape", one_row_short)
    by_name = {c.name: c for c in certify_k4_presentation(8).checks}
    assert by_name["hilbert/d00"].status == "pass"
    for d in range(1, 9):
        assert by_name[f"rank/d{d:02d}"].status == "fail"
        assert by_name[f"hilbert/d{d:02d}"].status == "fail", d


def k4_lines_by_kernel_route(max_degree):
    """The rank and lattice lines of the k4 report, by the kernel route: build
    the saturated kernel, solve every generator monomial into it, and take the
    Smith form of the coordinates.  Returns {name: (status, detail)}."""
    series = geometric_product((2, 3, 4), max_degree)
    lines = {}
    for d in range(max_degree + 1):
        expos = monomial_basis(d, (2, 3, 4, 6))
        ok_lattice = True
        detail_lattice = ""
        if d == 0:
            rankk = 1
            coords_rows = [(1,)]
        else:
            kern = integer_kernel(nabla_matrix(CTX4, d))
            rankk = len(kern)
            columns = [list(v) for v in kern]
            coords_rows = []
            for expo in expos:
                vec = coordinates(CTX4, alpha_monomial(ALPHA, expo), d)
                sol = solve_integer(columns, vec)
                if sol is None:
                    ok_lattice = False
                    detail_lattice = f"monomial a^{expo} outside the kernel lattice"
                    break
                coords_rows.append(sol)
        if ok_lattice and coords_rows:
            snf = smith_normal_form(IntMatrix(coords_rows))
            facs = snf.invariant_factors
            ok_lattice = snf.rank == rankk and all(f == 1 for f in facs[: snf.rank])
            if not ok_lattice:
                detail_lattice = f"coordinate stack invariant factors {facs}"
        elif ok_lattice:
            ok_lattice = rankk == 0
        lines[f"rank/d{d:02d}"] = (
            "pass" if rankk == series[d] else "fail",
            f"kernel rank {rankk} at degree {d} (ambient dim "
            f"{len(CTX4.sigma_basis(d))}), series expects {series[d]}",
        )
        lines[f"lattice/d{d:02d}"] = (
            "pass" if ok_lattice else "fail",
            detail_lattice
            or f"generator-monomial lattice equals the kernel lattice at degree {d}",
        )
    return lines


def test_k4_rank_and_lattice_lines_match_the_kernel_route():
    report = certify_k4_presentation(16)
    got = {
        c.name: (c.status, c.detail)
        for c in report.checks
        if c.name.startswith(("rank/", "lattice/"))
    }
    assert got == k4_lines_by_kernel_route(16)


def test_k4_takes_no_smith_form(monkeypatch):
    def refuse(a):
        raise AssertionError("k4 took a Smith normal form")

    monkeypatch.setattr(intlinalg, "smith_normal_form", refuse)
    monkeypatch.setattr(symfun, "smith_normal_form", refuse, raising=False)
    report = certify_k4_presentation(22)
    by_name = {c.name: c for c in report.checks}
    assert by_name["lattice/d22"].status == "fail"
    assert by_name["lattice/d05"].status == "pass"


@pytest.mark.parametrize(
    "swap",
    [
        {},
        {"a2": "8*s2 - 2*s1^2"},
        {"a4": "12*s4 - 3*s1*s3 + 2*s2^2"},
        {"a2": "0", "a6": "s1^6"},
    ],
)
def test_k4_membership_matches_the_per_monomial_route(monkeypatch, swap):
    """Generators swapped for ones with nonzero divergence (and, in the last
    case, zero) give the same lattice lines whether membership is read off
    the generators' divergences or taken by one divergence per monomial."""
    real = symfun.alpha_generators

    def swapped(ctx):
        gens = real(ctx).as_dict()
        gens.update({name: sp(text) for name, text in swap.items()})
        return AlphaGenerators(**gens)

    monkeypatch.setattr(symfun, "alpha_generators", swapped)

    def lattice_lines():
        return {
            c.name: (c.status, c.detail)
            for c in certify_k4_presentation(12).checks
            if c.name.startswith("lattice/")
        }

    by_generators = lattice_lines()
    monkeypatch.setattr(
        symfun, "_first_outside",
        lambda expos, divergent, zero: first_outside_by_divergence(CTX4, swapped(CTX4), expos),
    )
    assert lattice_lines() == by_generators
    outside = [d for d, (_, detail) in by_generators.items() if "outside" in detail]
    assert bool(outside) == bool(swap)


def test_first_outside_reads_no_exponent_when_no_generator_is_divergent(monkeypatch):
    """With no divergent generator every generator monomial lies in the
    kernel, so no exponent is read; a divergent one keeps its witness line."""
    class Unread:
        def __iter__(self):
            raise AssertionError("an exponent was read")

    assert symfun._first_outside(Unread(), [False] * 4, [True, False, False, False]) is None
    real = symfun.alpha_generators
    monkeypatch.setattr(symfun, "alpha_generators", lambda ctx: AlphaGenerators(
        **{**real(ctx).as_dict(), "a2": sp("8*s2 - 2*s1^2")}))
    lines = {c.name: c for c in certify_k4_presentation(8).checks}
    assert (lines["lattice/d05"].status, lines["lattice/d05"].detail) == (
        "fail", "monomial a^(1, 1, 0, 0) outside the kernel lattice")


def test_standard_monomials_span_the_generator_monomial_lattice():
    counts = geometric_product((2, 3, 4, 6), 40)
    for d in range(41):
        below = counts[d - 6] if d >= 6 else 0
        assert len(standard_exponents(d)) == counts[d] - below, d
        # built a2-power first, against the filter of all generator monomials
        assert standard_exponents(d) == [e for e in monomial_basis(d, (2, 3, 4, 6)) if e[0] <= 2]
    ranks = geometric_product((2, 3, 4), 24)
    for d in range(1, 25):
        full = generator_monomial_stack(CTX4, ALPHA, d)
        if not full:
            continue
        standard = IntMatrix([full[e] for e in standard_exponents(d)])
        assert nonzero_invariant_factors(standard, ranks[d]) == nonzero_invariant_factors(
            IntMatrix(full.values()), ranks[d]
        ), d


def test_k4_lattice_lines_match_the_sigma_stack_route():
    """The lead-term certificates against the route they replaced: the sigma
    coordinates of B_d and their nonzero invariant factors from two minors."""
    by_name = {c.name: c for c in certify_k4_presentation(24).checks}
    ranks = geometric_product((2, 3, 4), 24)
    for d in range(25):
        full = generator_monomial_stack(CTX4, ALPHA, d)
        stack = IntMatrix([full[e] for e in standard_exponents(d)], len(CTX4.sigma_basis(d)))
        facs = nonzero_invariant_factors(stack, ranks[d])
        line = by_name[f"lattice/d{d:02d}"]
        if all(f == 1 for f in facs):
            assert line.status == "pass", d
        else:
            assert (line.status, line.detail) == (
                "fail", f"coordinate stack invariant factors {facs}"), d


def test_k4_builds_no_integer_matrix(monkeypatch):
    # no sigma-coordinate stack, no divergence matrix and no square M_d: the
    # factors are read off the exponents of the monomials in a2, a3 and u
    shapes = []
    real = IntMatrix.__init__

    def recording(self, entries, cols=None):
        real(self, entries, cols)
        shapes.append((self.rows, self.cols))

    monkeypatch.setattr(IntMatrix, "__init__", recording)
    IntMatrix([[1]])
    assert shapes == [(1, 1)]
    report = certify_k4_presentation(24)
    assert shapes == [(1, 1)]
    assert "three-primary-defect" in {c.name for c in report.checks}


def test_k4_three_adic_factors_match_the_elimination_oracle():
    # the closed form 3^k against the square M_d eliminated over Z/3^E, d <= 52
    expected = k4_three_adic_factors_by_elimination(52)
    for d in range(53):
        assert symfun._three_adic_factors(monomial_basis(d, (2, 3, 4))) == expected[d], d
    by_name = {c.name: c for c in certify_k4_presentation(52).checks}
    for d, facs in enumerate(expected):
        line = by_name[f"lattice/d{d:02d}"]
        if all(f == 1 for f in facs):
            assert line.status == "pass", d
        else:
            assert line.detail == f"coordinate stack invariant factors {facs}", d


def _widen_the_window(monkeypatch):
    # a2^3 and a3^2 share the lead s1^6
    monkeypatch.setattr(symfun, "standard_exponents", lambda d: [
        e for e in monomial_basis(d, (2, 3, 4, 6)) if e[0] <= 3])


def _swap_with_relation(monkeypatch, k):
    # a4 + k*a2^2 and a6 - (3k/4)*a2^3 keep the relation exact and both divergence-free
    _swap_generators(monkeypatch, {"a4": str(ALPHA.a4 + k * ALPHA.a2 ** 2),
                                   "a6": str(ALPHA.a6 - 3 * k // 4 * ALPHA.a2 ** 3)})


def _one_kernel_row_short(monkeypatch):
    real = symfun.divergence_onto_shape
    monkeypatch.setattr(symfun, "divergence_onto_shape",
                        lambda ctx, d: (real(ctx, d)[0] - 1, real(ctx, d)[1]) if d else real(ctx, d))


@pytest.mark.parametrize("corrupt, named", [
    (_widen_the_window, "the standard monomials at degree 6 are not 3 with distinct s1-first leads"),
    # u = (a2^2 - 64*a4)/3 loses 64k/3 * a2^2: integral for k = 12, not for k = 4
    (lambda mp: _swap_with_relation(mp, 12), "the s1-first lead coefficient of a4 is 108, not +-3^k"),
    (lambda mp: _swap_with_relation(mp, 4), "3 does not divide a2^2 - 64*a4, so u is not integral"),
    (_one_kernel_row_short, "the standard monomials at degree 1 are not 1 with distinct s1-first"),
], ids=["window", "lead-coefficient", "u-integral", "kernel-rank"])
def test_k4_lattice_lines_name_the_failed_certificate_fact(monkeypatch, corrupt, named):
    corrupt(monkeypatch)
    by_name = {c.name: c for c in certify_k4_presentation(12).checks}
    assert by_name["relation"].status == "pass"
    assert all(by_name[f"divergence/{g}"].status == "pass" for g in ("a2", "a3", "a4", "a6"))
    for d in range(13):
        line = by_name[f"lattice/d{d:02d}"]
        assert line.status == "fail" and named in line.detail, (d, line.detail)
    assert "three-primary-defect" not in by_name


def _spy_on_the_lead_sweep(monkeypatch):
    """Record the exponent lists that ``poly._distinct_leads`` sweeps."""
    swept = []
    real = poly._distinct_leads
    monkeypatch.setattr(poly, "_distinct_leads",
                        lambda expos, leads: swept.append(expos) or real(expos, leads))
    return swept


def test_k4_sweeps_no_lead_table_when_the_lead_certificates_hold(monkeypatch):
    swept = _spy_on_the_lead_sweep(monkeypatch)
    by_name = {c.name: c for c in certify_k4_presentation(40).checks}
    assert swept == []
    assert by_name["lattice/d05"].status == "pass"
    assert by_name["lattice/d40"].detail.startswith("coordinate stack invariant factors")


def test_k4_sweeps_the_s1_first_leads_when_a_generator_lead_collides(monkeypatch):
    # a4 + 12*a2^2 (and a6 - 9*a2^3, keeping the relation) leads with 108*s1^4,
    # the lead of a2^2, so the s1-first leads have rank 1, not 3.  With the
    # coefficient 108 let through, the sweep names the first degree where two
    # leads of B_d meet, with the text the per-degree route gave.
    swept = _spy_on_the_lead_sweep(monkeypatch)
    _swap_with_relation(monkeypatch, 12)
    real = symfun._is_three_power
    monkeypatch.setattr(symfun, "_is_three_power", lambda c: c == 108 or real(c))
    by_name = {c.name: c for c in certify_k4_presentation(12).checks}
    assert by_name["relation"].status == "pass"
    named = "the standard monomials at degree 4 are not 2 with distinct s1-first leads"
    assert all(by_name[f"lattice/d{d:02d}"].detail == named for d in range(13))
    assert swept == [standard_exponents(d) for d in range(5)]


def _swap_generators(monkeypatch, swap):
    real = symfun.alpha_generators

    def swapped(ctx):
        gens = real(ctx).as_dict()
        gens.update({name: sp(text) for name, text in swap.items()})
        return AlphaGenerators(**gens)

    monkeypatch.setattr(symfun, "alpha_generators", swapped)


def test_k4_lattice_lines_rest_on_the_relation(monkeypatch, capsys):
    # 2*a6 is still divergence-free, but the relation fails, so the standard
    # monomials need not span the generator-monomial lattice
    _swap_generators(monkeypatch, {"a6": str(2 * ALPHA.a6)})
    report = certify_k4_presentation(12)
    by_name = {c.name: c for c in report.checks}
    assert by_name["relation"].status == "fail"
    for d in range(13):
        line = by_name[f"lattice/d{d:02d}"]
        assert line.status == "fail", d
        assert "relation" in line.detail, d
    assert "three-primary-defect" not in by_name
    assert cli.main(["k4", "--max-degree", "8"]) == 1
    assert "finding" not in capsys.readouterr().out


def test_three_primary_defect_names_only_three_power_factors(monkeypatch):
    # a divergent a2 fails its lattice lines as outside, the rest on the relation
    _swap_generators(monkeypatch, {"a2": "8*s2 - 2*s1^2"})
    by_name = {c.name: c for c in certify_k4_presentation(8).checks}
    assert all(by_name[f"lattice/d{d:02d}"].status == "fail" for d in range(9))
    assert "outside" in by_name["lattice/d02"].detail
    assert "three-primary-defect" not in by_name
    monkeypatch.undo()
    # a factor 2 at degree 8 takes that degree, and only it, off the finding
    real = symfun._three_adic_factors

    def doubled_at_degree_eight(local_basis):
        facs = real(local_basis)
        if local_basis == monomial_basis(8, (2, 3, 4)):
            facs = facs[:-1] + (2 * facs[-1],)
        return facs

    monkeypatch.setattr(symfun, "_three_adic_factors", doubled_at_degree_eight)
    report = certify_k4_presentation(8)
    by_name = {c.name: c for c in report.checks}
    assert by_name["lattice/d08"].detail == "coordinate stack invariant factors (1, 1, 3, 18)"
    assert "at degrees [4, 6, 7]:" in by_name["three-primary-defect"].detail


def test_kernel_element_outside_generator_span():
    # the concrete witness of the index-3 defect at degree 4
    u = sp("3*s1^4 - 16*s1^2*s2 + 64*s1*s3 - 256*s4")
    assert CTX4.nabla_sigma(u).is_zero()
    assert (3 * u) == ALPHA.a2 ** 2 - 64 * ALPHA.a4
    cols = [
        list(coordinates(CTX4, ALPHA.a2 ** 2, 4)),
        list(coordinates(CTX4, ALPHA.a4, 4)),
    ]
    assert solve_integer(cols, coordinates(CTX4, u, 4)) is None


def test_coker_orders():
    assert coker_order(CTX4, CTX4.sigma_ring.one()) == 4
    assert coker_order(CTX4, ALPHA.a4) == 4
    assert coker_order(CTX4, ALPHA.a6) == 4
    assert coker_order(CTX4, CTX4.sigma(1)) == 1
    with pytest.raises(ValueError):
        coker_order(CTX4, CTX4.sigma(1) + CTX4.sigma_ring.one())


def test_coker_order_names_the_degree_mismatch():
    # the degree is read off f: an inhomogeneous f names its degrees, and the
    # zero polynomial has order 1, as it does in every degree
    with pytest.raises(ValueError, match=r"inhomogeneous polynomial, degrees \[0, 1\]"):
        coker_order(CTX4, CTX4.sigma(1) + CTX4.sigma_ring.one())
    assert coker_order(CTX4, CTX4.sigma_ring.zero()) == 1
    for d in range(4):
        assert _smith_route_order(CTX4, CTX4.sigma_ring.zero(), d) == 1


def _smith_route_order(ctx, f, d):
    return element_order_in_cokernel(nabla_matrix(ctx, d + 1), coordinates(ctx, f, d))


def test_coker_order_matches_the_smith_route_on_generator_monomials():
    for d in range(17):
        for c, e in monomial_basis(d, (4, 6)):
            f = ALPHA.a4 ** c * ALPHA.a6 ** e
            assert coker_order(CTX4, f) == _smith_route_order(CTX4, f, d) == 4


@pytest.mark.parametrize("n", [3, 4, 5])
def test_coker_order_matches_the_smith_route_on_kernel_bases(n):
    ctx = SymmetricContext(n)
    orders = set()
    for d in range(9):
        basis = kernel_basis(ctx, d)
        for f in basis + [2 * g for g in basis] + [g + basis[0] for g in basis]:
            order = coker_order(ctx, f)
            assert order == _smith_route_order(ctx, f, d), (n, d, f)
            orders.add(order)
    # both routes are exercised: order n by the certificates, and lower
    # orders (the doubles when n is even) by the Smith form
    assert n in orders and len(orders) > 1


def test_coker_order_checks_the_slice(monkeypatch):
    # a wrong slice: with s1 |-> 2, divergence(s1*f) is 2*f, not n*f; the
    # constant 1 stays divergence-free, so it reaches the slice check
    _corrupt_rule(monkeypatch, _with_image(1, "2"))
    ctx = SymmetricContext(4)
    f = ctx.sigma_ring.one()
    assert ctx.nabla_sigma(f).is_zero() and ctx.nabla_sigma(ctx.sigma(1) * f) == 2 * f
    with pytest.raises(ArithmeticError, match="the divergence of s1 is 2, not 4"):
        coker_order(ctx, f)


def test_coker_order_rejects_a_flipped_witness(monkeypatch):
    rows, form = symfun._divergence_local_form(CTX4, 5, 2)
    # the local form is on the divergence's sparse rows, not on a dense matrix
    assert rows == nabla_matrix(CTX4, 5).sparse_rows()

    class Flipped:
        exponent = form.exponent

        def witness(self, x):
            y = list(form.witness(x))
            y[0] += 1
            return tuple(y)

    monkeypatch.setattr(symfun, "_divergence_local_form", lambda ctx, d, p: (rows, Flipped()))
    with pytest.raises(ArithmeticError):
        coker_order(CTX4, ALPHA.a4)


def test_coker_order_builds_no_dense_matrix_and_no_rank_on_the_kernel_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("called on the kernel path")

    real = intlinalg._eliminate_mod_prime_power
    primes = []

    def no_rank_elimination(rows, p, exponent, rank):
        # a rank check is an elimination modulo the large prime 2^31 - 1;
        # the local row forms eliminate modulo powers of p = 2 only
        if p == 2 ** 31 - 1:
            refuse()
        primes.append(p)
        return real(rows, p, exponent, rank)

    ctx = SymmetricContext(4)
    alpha = alpha_generators(ctx)
    monkeypatch.setattr(symfun, "nabla_matrix", refuse)
    monkeypatch.setattr(intlinalg, "_eliminate_mod_prime_power", no_rank_elimination)
    assert coker_order(ctx, alpha.a4 * alpha.a6) == 4
    assert primes and set(primes) == {2}


def test_coker_order_needs_the_onto_certificate(monkeypatch):
    real = symfun.divergence_onto_shape
    monkeypatch.setattr(symfun, "divergence_onto_shape",
                        lambda ctx, d: (real(ctx, d)[0] - 1, real(ctx, d)[1]))
    with pytest.raises(ArithmeticError, match="not shown onto"):
        coker_order(SymmetricContext(4), ALPHA.a4)


def test_coker_order_refuses_an_image_of_the_wrong_degree(monkeypatch):
    # s3 |-> s1: a2 stays divergence-free with the slice s1/4, so its powers
    # reach the local row form; a local form of a matrix that is not onto
    # would double E forever, so a time limit turns that into a failure
    _corrupt_rule(monkeypatch, "term-outside-rows")
    ctx = SymmetricContext(4)
    a2 = alpha_generators(ctx).a2
    assert ctx.nabla_sigma(a2).is_zero()
    with _time_limit(20):
        # degree 5 uses the faulty image in the triangular block: not onto
        with pytest.raises(ArithmeticError, match="not shown onto"):
            coker_order(ctx, a2 ** 2)
        # degree 3 does not, but its column s3 leaves the rows
        with pytest.raises(ArithmeticError, match="leaves degree 2"):
            coker_order(ctx, a2)


def test_monomial_coker_orders_match_the_per_monomial_oracle():
    oracle = per_monomial_coker_orders(CTX4, ALPHA, 40)
    assert set(oracle.values()) == {4}
    for bound in [*range(1, 25), 40]:
        expected = {e: order for e, order in oracle.items() if 4 * e[0] + 6 * e[1] <= bound}
        orders = monomial_coker_orders(CTX4, (ALPHA.a4, ALPHA.a6), bound)
        # equal, and in the report's order
        assert list(orders.items()) == list(expected.items()), bound


@pytest.mark.parametrize("bound", [1, 5, 17, 24])
def test_coker_report_equals_the_per_monomial_report(bound, capsys):
    assert cli.main(["coker", "--max-degree", str(bound)]) == 0
    expected = serialize(coker_report_by_monomial(bound), "text")
    assert strip_elapsed(capsys.readouterr().out) == strip_elapsed(expected)


def _spy_coker(monkeypatch, low=()):
    """Record the coker suite's ``coker_order`` calls, as (c, e) for a4^c*a6^e
    and "s1", with order 2 for the exponents in ``low``; also record the
    degrees of the local forms asked for and the eliminations run."""
    real_order, real_form = symfun.coker_order, symfun._divergence_local_form
    real_elimination = intlinalg.full_rank_local_row_form
    names = {ALPHA.a4 ** c * ALPHA.a6 ** e: (c, e)
             for d in range(18) for c, e in monomial_basis(d, (4, 6))}
    names[CTX4.sigma(1)] = "s1"
    calls, degrees, eliminations = [], [], []

    def order(ctx, f):
        calls.append(names[f])
        return 2 if names[f] in low else real_order(ctx, f)

    def local_form(ctx, degree, p):
        degrees.append(degree)
        return real_form(ctx, degree, p)

    def elimination(rows, p):
        eliminations.append(len(rows))
        return real_elimination(rows, p)

    monkeypatch.setattr(symfun, "coker_order", order)
    monkeypatch.setattr(symfun, "_divergence_local_form", local_form)
    monkeypatch.setattr(intlinalg, "full_rank_local_row_form", elimination)
    return calls, degrees, eliminations


def test_coker_runs_coker_order_on_the_maximal_monomials_only(monkeypatch, capsys):
    # at N = 17 the monomials of degree above 13 have no multiple in bound:
    # a4^4 and a4*a6^2 at 16, a4^2*a6 at 14; the other seven follow from them
    calls, degrees, eliminations = _spy_coker(monkeypatch)
    assert cli.main(["coker", "--max-degree", "17"]) == 0
    assert calls == [(4, 0), (1, 2), (2, 1), "s1"]
    assert set(degrees) == {15, 17} and len(eliminations) == 2
    assert capsys.readouterr().out.count("pass order/") == 11


@pytest.mark.parametrize("low, own", [
    # a4^3's one multiple in bound is a4^4; a4^2 and a4 keep a4^2*a6 and a4*a6
    ([(4, 0)], [(3, 0)]),
    # with a4^3 and a4^2*a6 low as well, a4^2 has no multiple of order 4
    ([(4, 0), (3, 0), (2, 1)], [(3, 0), (2, 0)]),
], ids=["a4^4", "a4^4+a4^3+a4^2*a6"])
def test_a_low_coker_order_leaves_its_divisors_to_their_own_calls(monkeypatch, capsys, low, own):
    calls, _, _ = _spy_coker(monkeypatch, low)
    assert cli.main(["coker", "--max-degree", "17"]) == 1
    assert calls == [(4, 0), (1, 2), (2, 1), *own, "s1"]
    lines = capsys.readouterr().out.splitlines()
    failed = sorted(line.split(":")[0] for line in lines if line.startswith("fail "))
    assert failed == sorted(f"fail order/a4^{c}*a6^{e}" for c, e in low)
    assert sum(line.startswith("pass order/") for line in lines) == 11 - len(low)


@pytest.mark.parametrize("corruption", ["divergent-generator", "no-slice"])
def test_coker_refuses_a_failed_divisor_certificate(monkeypatch, capsys, corruption):
    if corruption == "divergent-generator":
        # s2 in place of a6: divergence(s2) = 3*s1
        real = symfun.alpha_generators

        def with_s2(ctx):
            alpha = real(ctx)
            alpha.a6 = ctx.sigma(2)
            return alpha

        monkeypatch.setattr(symfun, "alpha_generators", with_s2)
        message = "generator 2 of degree 2 is not divergence-free"
    else:
        # s1 |-> 2: s1/4 is no slice, and 4 no longer bounds the orders
        _corrupt_rule(monkeypatch, _with_image(1, "2"))
        message = "the divergence of s1 is 2, not 4"
    ctx = SymmetricContext(4)
    alpha = symfun.alpha_generators(ctx)
    with pytest.raises(ArithmeticError, match=message):
        monomial_coker_orders(ctx, (alpha.a4, alpha.a6), 17)
    assert cli.main(["coker", "--max-degree", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def theta_by_expansion(ctx, f):
    """The expansion route to theta: write f in the v's, send v_i to i*eta and
    read off the eta^d coefficient (mod n above degree 0)."""
    vf = expand(ctx, f) if f.ring == ctx.sigma_ring else f
    value = sum(
        c * math.prod(i ** k for i, k in enumerate(e, start=1)) for e, c in vf.terms.items()
    )
    return value % ctx.n if vf.homogeneous_degree() else value


def test_theta_values():
    assert theta_map(CTX4, CTX4.sigma(1)) == 2
    assert theta_map(CTX4, CTX4.sigma_ring.one()) == 1
    assert theta_map(CTX4, CTX4.sigma(2)) == 3
    # multiplicativity sample
    f, g = CTX4.sigma(1), CTX4.sigma(2)
    assert theta_map(CTX4, f * g) == theta_map(CTX4, f) * theta_map(CTX4, g) % 4


def test_theta_agrees_with_the_expansion_route():
    for n in (3, 4):
        ctx = SymmetricContext(n)
        for d in range(9):
            for g in kernel_basis(ctx, d):
                assert theta_map(ctx, g) == theta_by_expansion(ctx, g), (n, d, g)
    ctx3 = SymmetricContext(3)
    delta = delta_polynomial(ctx3)
    assert theta_map(ctx3, delta) == theta_by_expansion(ctx3, delta) == 2
    assert theta_map(ctx3, to_sigma(ctx3, delta)) == 2


def test_theta_rejects_inhomogeneous_input():
    with pytest.raises(ValueError):
        theta_map(CTX4, CTX4.sigma(1) + CTX4.sigma_ring.one())
    with pytest.raises(ValueError):
        theta_map(CTX4, SymmetricContext(3).sigma(1))


def theta_restricted_kernel(ctx, degree, kern):
    """Basis of the sublattice of the degree-d kernel killed by the cyclic
    restriction (coefficients read mod n), by the lattice route.

    ``kern`` is the kernel basis as coordinate vectors in the degree-d
    sigma basis, and the sublattice basis comes back the same way.
    """
    if degree == 0 or not kern:
        return []
    values = [
        theta_map(ctx, ctx.sigma_ring.monomial(m))
        for m in ctx.sigma_basis(degree)
    ]
    rows = IntMatrix(kern)
    functional = [t % ctx.n for t in rows.apply(values)]
    if all(c == 0 for c in functional):
        return list(kern)
    span = rows.transpose()
    sub = integer_kernel(IntMatrix([functional + [ctx.n]]))
    return [span.apply(vec[:-1]) for vec in sub]


def test_theta_restricted_kernel():
    ctx3 = SymmetricContext(3)

    def kernel_vectors(d):
        return [coordinates(ctx3, g, d) for g in kernel_basis(ctx3, d)]

    kern = kernel_vectors(2)
    sub = theta_restricted_kernel(ctx3, 2, kern)
    assert len(sub) == 1 and len(kern) == 1
    # the whole degree-2 kernel is killed by the restriction
    assert solve_integer(sub, kern[0]) is not None
    assert theta_restricted_kernel(ctx3, 0, kernel_vectors(0)) == []
    # the alternating product is not in the degree-6 restricted kernel
    delta = to_sigma(ctx3, delta_polynomial(ctx3))
    sub6 = theta_restricted_kernel(ctx3, 6, kernel_vectors(6))
    assert solve_integer(sub6, coordinates(ctx3, delta, 6)) is None


def test_restricted_kernel_membership_by_evaluation_matches_the_lattice_route():
    # vistoli decides both memberships by evaluating the divergence and theta;
    # the lattice route solves into the kernel and its restricted sublattice
    restricted_only = 0
    for n, max_degree in ((3, 6), (5, 4)):
        ctx = SymmetricContext(n)
        for d in range(max_degree + 1):
            monos = ctx.sigma_basis(d)
            kern = [coordinates(ctx, g, d) for g in kernel_basis(ctx, d)]
            sub = theta_restricted_kernel(ctx, d, kern)
            candidates = list(kern)
            candidates += [
                tuple(int(i == j) for j in range(len(monos))) for i in range(len(monos))
            ]
            candidates += [
                tuple(x + y for x, y in zip(u, v))
                for u, v in itertools.combinations_with_replacement(kern, 2)
            ]
            if n == 3 and d == 6:
                candidates.append(coordinates(ctx, to_sigma(ctx, delta_polynomial(ctx)), d))
            for vec in candidates:
                f = Polynomial(ctx.sigma_ring, {m: c for m, c in zip(monos, vec) if c})
                in_kernel = ctx.nabla_sigma(f).is_zero()
                in_sub = in_kernel and theta_map(ctx, f) == 0
                assert in_kernel == (solve_integer(kern, vec) is not None), (n, d, vec)
                assert in_sub == (solve_integer(sub, vec) is not None), (n, d, vec)
                if (n, d) == (3, 6) and in_kernel and not in_sub:
                    restricted_only += 1
    # both outcomes occur among kernel members
    assert restricted_only == 4


def test_vistoli_check_passes_for_three():
    report = vistoli_delta_check(3)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "delta/theta" in names and "delta/kernel-membership" in names
    with pytest.raises(ValueError):
        vistoli_delta_check(2)
    with pytest.raises(ValueError):
        vistoli_delta_check(9)
    with pytest.raises(ValueError):
        vistoli_delta_check(15)
    assert delta_polynomial(SymmetricContext(3)).homogeneous_degree() == 6


def test_newton_power_sums_match_the_expansion_route():
    for n in range(1, 6):
        ctx = SymmetricContext(n)
        sums = power_sums(ctx, 2 * n - 1)
        assert len(sums) == 2 * n - 1
        for k, pk in enumerate(sums):
            target = Polynomial(
                ctx.v_ring, {tuple(k * (i == j) for j in range(n)): 1 for i in range(n)}
            ) if k else ctx.v_ring.const(n)
            assert expand(ctx, pk) == target, (n, k)


def test_hankel_delta_matches_the_expansion_route():
    for n in range(1, 6):
        ctx = SymmetricContext(n)
        reference = delta_polynomial(ctx)
        assert is_symmetric(ctx, reference)
        assert delta_sigma(ctx) == to_sigma(ctx, reference), n


def test_packed_delta_matches_the_tuple_route():
    # a carry out of an exponent's slot would move a term, which the tuple route shows
    for p in (3, 5, 7):
        ctx = SymmetricContext(p)
        delta = delta_sigma(ctx)
        assert delta == tuple_delta_sigma(ctx), p
        assert delta.homogeneous_degree() == p * p - p


def test_vandermonde_is_the_product_of_differences():
    for n in range(1, 5):
        ctx = SymmetricContext(n)
        v = [ctx.v_ring.var(f"v{i+1}") for i in range(n)]
        product = ctx.v_ring.one()
        for i, j in itertools.combinations(range(n), 2):
            product = product * (v[j] - v[i])
        assert vandermonde(ctx) == product, n


def _vistoli_failures(p):
    return [c.name for c in vistoli_delta_check(p).checks if c.status != "pass"]


def test_vistoli_lines_match_the_expansion_route():
    # the old route reads every line off delta's sigma form and the Vandermonde
    for p in (3, 5, 7):
        new, old = vistoli_delta_check(p), vistoli_by_expansion(p)
        assert [(c.name, c.status, c.detail, c.witness) for c in new.checks] == [
            (c.name, c.status, c.detail, c.witness) for c in old.checks], p
        assert new.passed, p


def test_vistoli_theta_tie_catches_a_wrong_hankel_determinant(monkeypatch):
    # theta(delta) = +-det[theta(p_(i+j))] mod p, tied to prod (j - i)^2 =
    # theta(V)^2; a determinant 4 times too large, as a doubled V would give,
    # breaks the tie at every p, and the image too unless 4 = 1 mod p
    true_determinant = intlinalg.determinant
    monkeypatch.setattr(intlinalg, "determinant", lambda rows: 4 * true_determinant(rows))
    for p, image in ((3, "2*eta^6"), (5, "eta^20")):
        failed = [c for c in vistoli_delta_check(p).checks if c.status != "pass"]
        assert [c.name for c in failed] == ["delta/theta"], p
        assert failed[0].witness == image
        assert failed[0].detail.endswith(
            ", but det[theta(p_(i+j))] differs from prod_(i<j) (j - i)^2"), p
    monkeypatch.undo()
    assert vistoli_delta_check(3).passed


@pytest.mark.parametrize("k", [0, 1, 4, 8])
def test_vistoli_refuses_a_scaled_power_sum(monkeypatch, k):
    true_power_sums = symfun.power_sums

    def scaled(ctx, count):
        sums = true_power_sums(ctx, count)
        sums[k] = 2 * sums[k]
        return sums

    assert _vistoli_failures(5) == []
    monkeypatch.setattr(symfun, "power_sums", scaled)
    failed = _vistoli_failures(5)
    assert {"delta/symmetric", "delta/theta"} <= set(failed), (k, failed)
    assert "delta/homogeneous" not in failed


def test_vistoli_refuses_an_off_degree_power_sum(monkeypatch):
    true_power_sums = symfun.power_sums

    def shifted(ctx, count):
        sums = true_power_sums(ctx, count)
        sums[3] = sums[3] + ctx.sigma(1)
        return sums

    monkeypatch.setattr(symfun, "power_sums", shifted)
    assert "delta/homogeneous" in _vistoli_failures(5)


@pytest.mark.parametrize("name", sorted(CORRUPTED_RULES))
def test_vistoli_refuses_a_wrong_divergence_rule(monkeypatch, name):
    _corrupt_rule(monkeypatch, name)
    assert _vistoli_failures(5) == ["delta/divergence", "delta/kernel-membership"]


def test_h3_order():
    assert h3_order(4) == 4
    assert h3_order(2) == 2
    assert h3_order(1) == 1


def test_alpha_generators_type():
    assert isinstance(ALPHA, AlphaGenerators)
    for name, gen in ALPHA.as_dict().items():
        assert gen.homogeneous_degree() == int(name[1:])
