import math
import random

import pytest

from bpuverify.intlinalg import (
    IntMatrix,
    nullspace_mod_p,
    rank_mod_p,
    smith_normal_form,
    solve_integer,
)
from bpuverify.poly import Polynomial, parse_polynomial
from bpuverify.series import geometric_product
from bpuverify.symfun import (
    AlphaGenerators,
    SymmetricContext,
    alpha_generators,
    certify_k4_presentation,
    coker_order,
    coordinates,
    delta_polynomial,
    h3_order,
    k3_generators,
    kernel_basis,
    nabla_matrix,
    theta_map,
    theta_restricted_kernel,
    vistoli_delta_check,
)

CTX4 = SymmetricContext(4)
ALPHA = alpha_generators(CTX4)


def sp(text, ctx=CTX4):
    return parse_polynomial(text, ctx.sigma_ring)


def test_elementary_examples():
    ctx2 = SymmetricContext(2)
    assert ctx2.elementary(1) == parse_polynomial("v1 + v2", ctx2.v_ring)
    assert CTX4.elementary(4) == parse_polynomial("v1*v2*v3*v4", CTX4.v_ring)
    assert CTX4.elementary(0) == CTX4.v_ring.one()
    with pytest.raises(ValueError):
        CTX4.elementary(5)


def test_divergence_of_elementary_classes():
    # the two routes (v-expansion and the sigma-derivation) must agree,
    # with divergence(s_k) = (n-k+1) s_{k-1}
    for n in range(1, 6):
        ctx = SymmetricContext(n)
        for k in range(1, n + 1):
            expanded = ctx.nabla(ctx.expand(ctx.sigma(k)))
            target = (n - k + 1) * (
                ctx.expand(ctx.sigma(k - 1)) if k >= 2 else ctx.v_ring.one()
            )
            assert expanded == target
            derived = ctx.nabla_sigma(ctx.sigma(k))
            assert ctx.expand(derived) == target


def test_divergence_simple_and_errors():
    assert CTX4.nabla(CTX4.v_ring.var("v1")) == CTX4.v_ring.one()
    with pytest.raises(ValueError):
        CTX4.nabla(CTX4.sigma(1))
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

            assert permute(ctx.nabla(f)) == ctx.nabla(permute(f))


def test_divergence_leibniz_random():
    rng = random.Random(32)
    for _ in range(15):
        f, g = _random_vpoly(rng, CTX4, 3, 4), _random_vpoly(rng, CTX4, 3, 4)
        assert CTX4.nabla(f * g) == CTX4.nabla(f) * g + f * CTX4.nabla(g)


def test_nabla_matrix_examples():
    assert nabla_matrix(CTX4, 2).entries == ((8, 3),)
    assert nabla_matrix(CTX4, 1).entries == ((4,),)


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
        mod2 = nullspace_mod_p(mat, 2)
        assert len(mod2) == mat.cols - rank_mod_p(mat, 2)
        basis = CTX4.sigma_basis(d)
        span = gf2.echelon_basis(
            [sum(1 << i for i, c in enumerate(vec) if c % 2) for vec in mod2]
        )
        for g in kernel_basis(CTX4, d):
            mask = sum(
                1 << i for i, m in enumerate(basis.monomials) if g.coefficient(m) % 2
            )
            assert gf2.in_span(mask, span)


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


def theta_by_expansion(ctx, f):
    """The expansion route to theta: write f in the v's, send v_i to i*eta and
    read off the eta^d coefficient (mod n above degree 0)."""
    vf = ctx.expand(f) if f.ring == ctx.sigma_ring else f
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
    assert theta_map(ctx3, ctx3.to_sigma(delta)) == 2


def test_theta_rejects_inhomogeneous_input():
    with pytest.raises(ValueError):
        theta_map(CTX4, CTX4.sigma(1) + CTX4.sigma_ring.one())
    with pytest.raises(ValueError):
        theta_map(CTX4, SymmetricContext(3).sigma(1))


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
    delta = ctx3.to_sigma(delta_polynomial(ctx3))
    sub6 = theta_restricted_kernel(ctx3, 6, kernel_vectors(6))
    assert solve_integer(sub6, coordinates(ctx3, delta, 6)) is None


def test_vistoli_check_passes_for_three():
    report = vistoli_delta_check(3)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "delta/theta" in names and "delta/kernel-membership" in names
    with pytest.raises(ValueError):
        vistoli_delta_check(2)
    with pytest.raises(ValueError):
        vistoli_delta_check(9)


def test_h3_order():
    assert h3_order(4) == 4
    assert h3_order(2) == 2
    assert h3_order(1) == 1


def test_alpha_generators_type():
    assert isinstance(ALPHA, AlphaGenerators)
    for name, gen in ALPHA.as_dict().items():
        assert gen.homogeneous_degree() == int(name[1:])


def test_delta_class_constructor_validates():
    from bpuverify.symfun import DeltaClass

    dc = DeltaClass.make(3)
    assert dc.p == 3
    assert dc.polynomial.homogeneous_degree() == 6
    with pytest.raises(ValueError):
        DeltaClass.make(2)
    with pytest.raises(ValueError):
        DeltaClass.make(15)
