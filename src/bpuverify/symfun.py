"""Symmetric polynomials, the divergence operator, and its kernel lattices.

Conventions: the v-ring carries n variables of degree 1 and the sigma-ring
carries s1..sn with deg(s_k) = k, so a sigma-monomial's weighted degree is
its polynomial degree after expansion into the v's.  (Topological degrees
are twice these and appear only in report labels.)

The divergence operator is the sum of all partial d/dv_i.  On symmetric
polynomials, written in elementary-symmetric coordinates, it acts as the
derivation sending s1 to n and s_k to (n - k + 1) * s_{k-1}: one rule, held
as data, gives the operator, its matrix and the certificate that it is onto.
Nothing is expanded into the v's here; that route, the sigma rewrite, the
alternating product by cofactors, the Vandermonde term by term and the
column-by-column onto check live in tests/oracles.py for cross-checks.

The suites never build a kernel basis: they decide membership by the
divergence and lattice equality by lead-term certificates and invariant
factors.  Only ``kernel_basis``, a helper for tests and demos, reads a lattice
basis off a Hermite normal form.  Nothing is done over the rationals.
"""

from __future__ import annotations

import math
import operator

from .poly import Polynomial, Ring, _first_lead_clash, monomial_basis
from .report import VerificationReport
from .series import geometric_product


class SymmetricContext:
    """The v-ring / sigma-ring pair for a fixed variable count n."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self.v_ring = Ring(tuple(f"v{i+1}" for i in range(n)), (1,) * n)
        self.sigma_ring = Ring(
            tuple(f"s{i+1}" for i in range(n)), tuple(range(1, n + 1))
        )
        self._local_forms = {}  # prime -> (degree, divergence rows, LocalRowForm)
        self.divergence_rule = (self.sigma_ring.const(n), *(  # the image of each s_k
            (n - k + 1) * self.sigma(k - 1) for k in range(2, n + 1)))

    @property
    def divergence_rule(self) -> tuple:
        """The image of each s_k, one sigma-polynomial per k."""
        return self._rule

    @divergence_rule.setter
    def divergence_rule(self, rule):
        # monomial_divergence reads each image term t of s_k as the shift
        # t - (s_k's exponent vector), kept in step with the rule
        self._rule = tuple(rule)
        self._shifts = tuple(
            tuple((tuple(a - (j == k) for j, a in enumerate(t)), c) for t, c in image.terms.items())
            for k, image in enumerate(self._rule))

    # -- basic generators -------------------------------------------------
    def sigma(self, k: int) -> Polynomial:
        return self.sigma_ring.var(f"s{k}")

    def sigma_basis(self, degree: int):
        return monomial_basis(degree, self.sigma_ring.weights)

    # -- the divergence operator -------------------------------------------
    def nabla_sigma(self, f: Polynomial) -> Polynomial:
        """The divergence in sigma-coordinates, by ``monomial_divergence``."""
        if f.ring != self.sigma_ring:
            raise ValueError("expected a sigma-ring polynomial")
        out = {}
        for e, c in f.terms.items():
            for t, factor in self.monomial_divergence(e):
                out[t] = out.get(t, 0) + c * factor
        return Polynomial(self.sigma_ring, out)

    def monomial_divergence(self, e: tuple):
        """Yield the divergence of the sigma-monomial with exponents e as
        (exponents, coefficient) pairs: ``divergence_rule`` by the Leibniz rule."""
        for i, power in enumerate(e):
            for shift, c in self._shifts[i] if power else ():
                yield tuple(map(operator.add, e, shift)), power * c


def coordinates(ctx: SymmetricContext, f: Polynomial, degree: int) -> tuple:
    """Coefficient vector of a homogeneous sigma-polynomial in the graded basis."""
    basis = ctx.sigma_basis(degree)
    deg = f.homogeneous_degree()
    if deg is not None and deg != degree:
        raise ValueError(f"polynomial has degree {deg}, expected {degree}")
    return tuple(f.coefficient(m) for m in basis)


def divergence_rows(ctx: SymmetricContext, degree: int) -> list:
    """The divergence from the degree-d to the degree-(d-1) sigma-basis as
    sparse rows, each a {column: entry} dict, read off ``monomial_divergence``
    column by column.  An image term off degree d - 1 raises ArithmeticError."""
    if degree < 1:
        raise ValueError("matrix defined for degree >= 1")
    row_of = {t: i for i, t in enumerate(ctx.sigma_basis(degree - 1))}
    rows = [{} for _ in row_of]
    for j, mono in enumerate(ctx.sigma_basis(degree)):
        for t, c in ctx.monomial_divergence(mono):
            i = row_of.get(t)
            if i is None:
                raise ArithmeticError(f"the divergence of s^{mono} leaves degree {degree - 1}")
            rows[i][j] = rows[i].get(j, 0) + c
    return rows


def nabla_matrix(ctx: SymmetricContext, degree: int):
    """The IntMatrix of the divergence from degree d to degree d-1 sigma-bases."""
    from .intlinalg import IntMatrix
    cols = len(ctx.sigma_basis(degree))
    return IntMatrix([[row.get(j, 0) for j in range(cols)] for row in divergence_rows(ctx, degree)],
                     cols)


def divergence_onto_shape(ctx: SymmetricContext, degree: int):
    """(rows, cols) of the divergence from d to d - 1 (no rows at d = 0) or None: not shown onto.

    For mu of degree d - 1 with s1-exponent a, the divergence of s1*mu is
    (a+1)*c*mu, c the image of s1, plus terms s1*(mu/s_k)*image(s_k), k >= 2,
    below mu (exponents compared from s_n down) if image(s_k) has degree k - 1;
    with c a nonzero constant, the block on the columns s1*mu is triangular
    with nonzero diagonal.  So only the n images in ``ctx.divergence_rule`` are
    checked: a faulty image(s_k) gives None from degree k + 1 (1 for s1) on.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    faulty = [k + 1 if k > 1 else 1 for k, image in enumerate(ctx.divergence_rule, 1)
              if (k == 1 and image.is_zero())
              or any(ctx.sigma_ring.degree_of(t) != k - 1 for t in image.terms)]
    return None if faulty and degree >= min(faulty) else tuple(
        ([0] + geometric_product(ctx.sigma_ring.weights, degree))[-2:])


def kernel_basis(ctx: SymmetricContext, degree: int) -> list:
    """Lattice basis of the full (saturated) degree-d kernel of the divergence,
    in sigma-coordinates."""
    from .intlinalg import integer_kernel
    if degree == 0:
        return [ctx.sigma_ring.one()]
    basis = ctx.sigma_basis(degree)
    return [
        Polynomial(ctx.sigma_ring, {m: c for m, c in zip(basis, vec) if c})
        for vec in integer_kernel(nabla_matrix(ctx, degree))
    ]


# -- the divergence-free generators for n = 4 --------------------------------


class AlphaGenerators:
    """The four divergence-free generators of the n = 4 kernel ring."""

    __slots__ = ("a2", "a3", "a4", "a6")

    def __init__(self, a2: Polynomial, a3: Polynomial, a4: Polynomial, a6: Polynomial):
        self.a2, self.a3, self.a4, self.a6 = a2, a3, a4, a6

    def as_dict(self):
        return {"a2": self.a2, "a3": self.a3, "a4": self.a4, "a6": self.a6}


def alpha_generators(ctx: SymmetricContext) -> AlphaGenerators:
    if ctx.n != 4:
        raise ValueError("the alpha generators live in four variables")
    s1, s2, s3, s4 = (ctx.sigma(k) for k in range(1, 5))
    return AlphaGenerators(
        a2=8 * s2 - 3 * s1 ** 2,
        a3=8 * s3 - 4 * s1 * s2 + s1 ** 3,
        a4=12 * s4 - 3 * s1 * s3 + s2 ** 2,
        a6=27 * s1 ** 2 * s4 + 27 * s3 ** 2 - 9 * s1 * s2 * s3
        - 72 * s2 * s4 + 2 * s2 ** 3,
    )


_K4_WEIGHTS = (2, 3, 4, 6)


def standard_exponents(degree: int) -> list:
    """Exponents (of a2, a3, a4, a6) of the degree-d standard monomials B_d,
    those with a2-exponent at most 2, in ``monomial_basis`` order."""
    return [(i,) + e for i in (2, 1, 0) if degree >= 2 * i
            for e in monomial_basis(degree - 2 * i, _K4_WEIGHTS[1:])]


def certify_k4_presentation(max_degree: int) -> VerificationReport:
    """Degreewise certification that the four generators present the kernel.

    For every degree d <= max_degree: (a) the kernel rank, cols - rows of the
    divergence shown onto by ``divergence_onto_shape``, matches the t^d
    coefficient of 1/((1-t^2)(1-t^3)(1-t^4)); (b) the standard monomials B_d,
    with a2-exponent at most 2 and read in or out of the saturated kernel by
    ``_first_outside``, span the kernel lattice: their sigma-coordinate stack
    has invariant factors 1; (c) the degree-6 relation holds exactly, so B_d
    spans every generator monomial of degree d; (d) |B_d| is that rank.  The
    stack is never built.  Away from 3: compared s1 first, each generator leads
    with +-3^k, and the leads have rank 3 with the primitive (3, -2, 0, 0) in
    their kernel, whose a2-entry exceeds B_d's, so in every degree B_d's leads
    are distinct: the stack has a triangular minor of 3-power determinant.
    At 3: u = (a2^2 - 64*a4)/3 is integral and divergence-free, and compared
    s4 first a2, a3, u lead with units at 3 and independent exponents, so
    their degree-d monomials are a kernel basis at 3.  As 64 is a unit at 3,
    64*a4 = a2^2 - 3u and 4096*a6 = 16*a2^3 + 48*a2*(3u) + 1728*a3^2 give
    Z_(3)[a2, a3, a4, a6] = Z_(3)[a2, a3, 3u], so at 3 the stack spans the
    lattice of the a2^i*a3^j*(3u)^k, diagonal in that basis with entry 3^k:
    the invariant factors are those 3^k, sorted.  A lead fact is swept for its
    first failing degree only when it fails; when a fact fails, every lattice
    line names it.  A generator, or u, off its degree raises ArithmeticError.
    """
    if max_degree < 2:
        raise ValueError("max degree must be at least 2")
    report = VerificationReport("k4")
    ctx = SymmetricContext(4)
    gens = alpha_generators(ctx).as_dict()
    a2, a3, a4, a6 = gens.values()
    u = Polynomial(ctx.sigma_ring, {e: c // 3 for e, c in (a2 ** 2 - 64 * a4).terms.items()})
    for name, f, w in zip((*gens, "u"), (*gens.values(), u), (*_K4_WEIGHTS, 4)):
        if any(ctx.sigma_ring.degree_of(e) != w for e in f.terms):
            raise ArithmeticError(f"{name} has terms outside the degree-{w} sigma basis")

    divergent = []
    for name, gen in gens.items():
        img = ctx.nabla_sigma(gen)
        divergent.append(not img.is_zero())
        report.add(f"divergence/{name}", img.is_zero(), f"divergence({name}) = {img}")
    relation = 64 * a6 - a2 ** 3 - 27 * a3 ** 2 + 48 * a2 * a4
    report.add("relation", relation.is_zero(), "64*a6 - a2^3 - 27*a3^2 + 48*a2*a4 == 0"
               if relation.is_zero() else f"relation residue {relation}")

    degrees = range(max_degree + 1)
    shapes = [divergence_onto_shape(ctx, d) for d in degrees]
    if None in shapes:
        raise ArithmeticError(f"divergence is not onto at degree {shapes.index(None)}")
    ranks = [cols - rows for rows, cols in shapes]
    bases = [standard_exponents(d) for d in degrees]
    local_bases = [monomial_basis(d, (2, 3, 4)) for d in degrees]
    # (exponents, coefficient) of each lead term, compared s1 first and s4 first
    lead1 = [max(f.terms.items(), default=((0,) * 4, 0)) for f in gens.values()]
    lead4 = [max(f.terms.items(), key=lambda t: t[0][::-1], default=((0,) * 4, 0))
             for f in (a2, a3, u)]
    clash1 = _first_lead_clash(bases, [e for e, _ in lead1], kernel=(3, -2, 0, 0))
    clash4 = _first_lead_clash(local_bases, [e for e, _ in lead4])
    blocker = next((detail for ok, detail in [
        (relation.is_zero(),
         "the relation fails, so the standard monomials need not span the lattice"),
        (3 * u == a2 ** 2 - 64 * a4, "3 does not divide a2^2 - 64*a4, so u is not integral"),
        (not any(divergent[:2]) and ctx.nabla_sigma(u).is_zero(),
         "a2, a3 or u is not divergence-free"),
        (4096 * a6 == 16 * a2 ** 3 + 144 * a2 * u + 1728 * a3 ** 2,
         "4096*a6 differs from 16*a2^3 + 144*a2*u + 1728*a3^2"),
        *((_is_three_power(c), f"the s1-first lead coefficient of {name} is {c}, not +-3^k")
          for name, (_, c) in zip(gens, lead1)),
        *((len(b) == r and d != clash1,
           f"the standard monomials at degree {d} are not {r} with distinct s1-first leads")
          for d, (b, r) in enumerate(zip(bases, ranks))),
        *((c % 3, f"the s4-first lead coefficient of {name} is {c}, divisible by 3")
          for name, (_, c) in zip(("a2", "a3", "u"), lead4)),
        *((len(b) == r and d != clash4,
           f"the monomials in a2, a3 and u at degree {d} are not {r} with distinct s4-first leads")
          for d, (b, r) in enumerate(zip(local_bases, ranks))),
    ] if not ok), None)

    zero = [gen.is_zero() for gen in gens.values()]
    series = geometric_product((2, 3, 4), max_degree)
    lattice_failures = []
    for d, expos, rankk in zip(degrees, bases, ranks):
        outside = _first_outside(expos, divergent, zero)
        facs = None
        if outside is not None:
            detail_lattice = f"monomial a^{outside} outside the kernel lattice"
        elif blocker:
            detail_lattice = blocker
        else:
            facs = _three_adic_factors(local_bases[d])
            detail_lattice = f"coordinate stack invariant factors {facs}"
        ok_lattice = facs is not None and all(f == 1 for f in facs)
        report.add(f"rank/d{d:02d}", rankk == series[d], f"kernel rank {rankk} at degree {d} "
                   f"(ambient dim {shapes[d][1]}), series expects {series[d]}")
        report.add(f"lattice/d{d:02d}", ok_lattice, detail_lattice if not ok_lattice else
                   f"generator-monomial lattice equals the kernel lattice at degree {d}")
        # the factors divide one another, so all are powers of 3 when the last is
        if not ok_lattice and facs and _is_three_power(facs[-1]):
            lattice_failures.append(d)
        report.add(f"hilbert/d{d:02d}", len(expos) == rankk,
                   f"monomial count minus relation multiples matches rank at degree {d}")
    if lattice_failures:
        report.finding(
            "three-primary-defect",
            "the generator-monomial lattices have 3-power index in the kernel lattices at "
            f"degrees {lattice_failures}: mod 3 the degree-4 generator is congruent to "
            "sigma2^2, a unit multiple of the square of the degree-2 generator, so it stops "
            "being a polynomial generator 3-locally; the kernel element (a2^2 - 64*a4)/3 "
            "is integral but is not an integer polynomial in the four generators",
        )
    return report


def _is_three_power(c: int) -> bool:
    """Whether c is +-3^k, i.e. a nonzero divisor of 3^(bit length of c)."""
    return c != 0 and 3 ** c.bit_length() % c == 0


def _three_adic_factors(local_basis) -> tuple:
    """The invariant factors of B_d's coordinate stack, in divisibility
    order, from the exponents (i, j, k) of the degree-d monomials
    a2^i*a3^j*u^k: 3^k for each, once the certificates of
    ``certify_k4_presentation`` hold."""
    return tuple(sorted(3 ** e[2] for e in local_basis))


def _first_outside(expos, divergent, zero) -> tuple:
    """The first exponent in ``expos`` whose generator monomial is nonzero (no
    factor flagged ``zero``: a domain) and outside the kernel (a factor flagged
    ``divergent``: the kernel of a locally nilpotent derivation of a
    characteristic-0 domain is factorially closed), or None."""
    return next((e for e in expos if not any(x and z for x, z in zip(e, zero))
                 and any(x and bad for x, bad in zip(e, divergent))), None)


def _divergence_local_form(ctx: SymmetricContext, degree: int, p: int):
    """The divergence into degree - 1 as sparse rows, and its local row form
    at p.  Full row rank is ``divergence_onto_shape``, which must equal the
    shape built, else ArithmeticError; no rank is computed.

    The context keeps the latest degree's pair for each prime, so every
    monomial of one degree shares one elimination.
    """
    from .intlinalg import full_rank_local_row_form
    cached = ctx._local_forms.get(p)
    if cached is None or cached[0] != degree:
        shape = (len(ctx.sigma_basis(degree - 1)), len(ctx.sigma_basis(degree)))
        if divergence_onto_shape(ctx, degree) != shape:
            raise ArithmeticError(f"the divergence into degree {degree - 1} is not shown onto")
        rows = divergence_rows(ctx, degree)
        cached = ctx._local_forms[p] = (degree, rows, full_rank_local_row_form(rows, p))
    return cached[1:]


def coker_order(ctx: SymmetricContext, f: Polynomial):
    """Order of the class of a homogeneous f in (degree-d part) /
    divergence-image, with d the degree of f, or None for infinite order.
    The zero polynomial has order 1 in every degree.

    A divergence-free f is settled by two certificates.  The upper bound:
    the divergence is the Leibniz extension of its rule, so divergence(s1*f)
    is image(s1)*f, and the rule's image of s1 must be the constant n (else
    ArithmeticError): the order divides n.  The lower bound: for each prime
    p dividing n, a functional y from the local row form at p of A, the
    divergence into degree d on sparse rows and shown onto by
    ``divergence_onto_shape``, with y*A == 0 and y*(n/p)*f != 0 modulo p^E,
    checked against A, so (n/p)*f is not in the image.  Inputs with nonzero
    divergence, and kernel elements whose order is below n, take the Smith
    normal form route.
    """
    from .intlinalg import _is_prime, check_cokernel_witness, element_order_in_cokernel
    d = f.homogeneous_degree()
    if d is None:
        return 1
    x = coordinates(ctx, f, d)
    n = ctx.n
    if ctx.nabla_sigma(f).is_zero():
        _check_slice(ctx)
        for p in (q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)):
            rows, form = _divergence_local_form(ctx, d + 1, p)
            target = [n // p * t for t in x]
            y = form.witness(target)
            if y is None:
                break
            check_cokernel_witness(rows, y, target, p ** form.exponent)
        else:
            return n
    return element_order_in_cokernel(nabla_matrix(ctx, d + 1), x)


def _check_slice(ctx: SymmetricContext) -> None:
    """Refuse a rule whose image of s1 is not the constant n: then s1/n is
    no slice, and n need not bound the orders of kernel elements."""
    if ctx.divergence_rule[0] != ctx.sigma_ring.const(ctx.n):
        raise ArithmeticError(f"the divergence of s1 is {ctx.divergence_rule[0]}, not {ctx.n}")


def monomial_coker_orders(ctx: SymmetricContext, gens, max_degree: int) -> dict:
    """The order in the cokernel of the divergence of every monomial in the
    divergence-free ``gens`` of degree at most ``max_degree``, keyed by its
    exponents, in order of degree and, within one degree, in the reverse of
    ``monomial_basis`` order.

    The divergence is a derivation, so for a divergence-free g it sends g*h
    to g*divergence(h): multiplying by g keeps the image, and the order of
    g*f divides that of f.  The slice bounds every kernel order by n.  So a
    monomial m with a multiple g*m of order n, g a generator, has order n,
    and ``coker_order`` runs only on the others: the monomials with no such
    multiple within the bound (degree above max_degree less the least
    generator degree), and those whose multiples all came out below n.
    Walking from the top degree down, every multiple is settled before its
    divisors.  The generators must be homogeneous of positive degree.  A rule
    not sending s1 to n, or a generator with nonzero divergence, raises
    ArithmeticError.
    """
    weights = tuple(g.homogeneous_degree() for g in gens)
    _check_slice(ctx)
    for i, g in enumerate(gens):
        if not ctx.nabla_sigma(g).is_zero():
            raise ArithmeticError(f"generator {i + 1} of degree {weights[i]} is not "
                                  "divergence-free")
    n = ctx.n
    orders = {}
    for d in range(max_degree, -1, -1):
        for e in monomial_basis(d, weights):
            if any(orders.get((*e[:j], x + 1, *e[j + 1:])) == n for j, x in enumerate(e)):
                orders[e] = n
            else:
                orders[e] = coker_order(ctx, math.prod(
                    (g ** x for g, x in zip(gens, e)), start=ctx.sigma_ring.one()))
    return dict(reversed(orders.items()))


# -- the cyclic-restriction map ---------------------------------------------


def theta_map(ctx: SymmetricContext, f: Polynomial) -> int:
    """Coefficient of eta^d in the image of a homogeneous degree-d f under
    the cyclic restriction v_i |-> i * eta, read in Z[eta]/(n*eta): exact in
    degree 0 and reduced mod n above.

    The image is f(1, ..., n) * eta^d, so a sigma-polynomial is evaluated at
    s_k = e_k(1, ..., n) without being expanded into the v's.  Inhomogeneous
    input raises ValueError.
    """
    if f.ring == ctx.v_ring:
        point = range(1, ctx.n + 1)
    elif f.ring == ctx.sigma_ring:
        point = _theta_point(ctx.n)
    else:
        raise ValueError("expected a polynomial of this context")
    d = f.homogeneous_degree()
    value = _evaluate(f, point)
    return value % ctx.n if d else value


def _theta_point(n: int) -> list:
    """e_1..e_n of 1, ..., n: the coefficients of prod (1 + m*t), m = 1..n."""
    e = [1]
    for m in range(1, n + 1):
        e = [a + m * b for a, b in zip(e + [0], [0] + e)]
    return e[1:]


def _evaluate(f: Polynomial, point) -> int:
    return sum(c * math.prod(x ** k for x, k in zip(point, e)) for e, c in f.terms.items())


def power_sums(ctx: SymmetricContext, count: int) -> list:
    """The power sums p_0..p_(count-1) of the v's in sigma coordinates, by
    Newton's identities: p_0 = n and, with s_k = 0 for k > n,
    p_k = sum_(1 <= i < k, i <= n) (-1)^(i-1) s_i p_(k-i) + (-1)^(k-1) k s_k."""
    n = ctx.n
    sums = [ctx.sigma_ring.const(n)]
    for k in range(1, count):
        pk = {tuple(int(j == k - 1) for j in range(n)): (-1) ** (k - 1) * k} if k <= n else {}
        for i in range(1, min(k - 1, n) + 1):
            sign = (-1) ** (i - 1)
            for e, c in sums[k - i].terms.items():  # times s_i
                e = e[:i - 1] + (e[i - 1] + 1,) + e[i:]
                pk[e] = pk.get(e, 0) + sign * c
        sums.append(Polynomial(ctx.sigma_ring, pk))
    return sums


def vistoli_delta_check(p: int) -> VerificationReport:
    """Certify the behaviour of the alternating product delta under the
    divergence and the cyclic restriction, for an odd prime p = n.

    delta = (-1)^(n(n-1)/2) det H for the Hankel matrix H = [p_(i+j)]
    (0 <= i, j < n) of the power sums, which ``power_sums`` gives in Z[sigma];
    neither delta nor the Vandermonde is built.  Each line is a finite exact
    check on p_0..p_(2n-2).  homogeneous: each p_k has degree k, so every
    term of det H has degree n(n-1).  symmetric: p_k at s = e(1, ..., n) is
    the sum of m^k over m = 1..n.  divergence: divergence(p_0) = 0 and
    divergence(p_k) = k*p_(k-1), so divergence(H) = L*H + H*L^T with L
    strictly lower triangular, L(i, i-1) = i, and by Jacobi's formula
    divergence(det H) = det H * tr(L + L^T) = 0 over any commutative ring.
    theta: evaluation at s = e(1, ..., n), a ring map, so theta(delta) is
    +-det[theta(p_(i+j))] mod p, an integer determinant that Cauchy-Binet at
    (1, ..., n) puts at prod_(i<j) (j - i)^2.  The kernel lattice is
    saturated and its theta-restricted part is {x in kernel : theta(x) = 0
    mod p}, so both memberships follow.
    """
    from .intlinalg import _is_prime, determinant
    if p % 2 == 0 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    report = VerificationReport("vistoli")
    ctx = SymmetricContext(p)
    sums = power_sums(ctx, 2 * p - 1)
    d = p * p - p

    off = next((k for k, pk in enumerate(sums)
                if any(ctx.sigma_ring.degree_of(e) != k for e in pk.terms)), None)
    report.add("delta/homogeneous", off is None,
               f"alternating product is homogeneous of degree {d}" if off is None
               else f"power sum p_{off} has terms off degree {off}")

    point = _theta_point(p)
    values = [_evaluate(pk, point) for pk in sums]
    bad = next((k for k, v in enumerate(values) if v != sum(m ** k for m in range(1, p + 1))),
               None)
    report.add("delta/symmetric", bad is None, "invariant under all adjacent swaps"
               if bad is None else f"p_{bad} at s = e(1, ..., {p}) is {values[bad]}, "
               f"not the sum of m^{bad} over m = 1..{p}")

    bad = next((k for k, pk in enumerate(sums) if ctx.nabla_sigma(pk)
                != (k * sums[k - 1] if k else ctx.sigma_ring.zero())), None)
    in_kernel = bad is None
    report.add("delta/divergence", in_kernel, "divergence(delta) = 0" if in_kernel
               else f"divergence(p_{bad}) differs from {bad}*p_{bad - 1}" if bad
               else "divergence(p_0) is not 0")

    det = determinant([values[i:i + p] for i in range(p)])
    square = math.prod(math.factorial(j) for j in range(p)) ** 2
    image = (-1) ** (p * (p - 1) // 2) * det % p
    eta = Ring(("eta",), (1,))
    shown = eta.monomial((d,), image)
    detail = f"theta(delta) = {shown}, expected {eta.monomial((d,), p - 1)} (= -eta^{d} mod {p})"
    if det != square:
        detail += ", but det[theta(p_(i+j))] differs from prod_(i<j) (j - i)^2"
    report.add("delta/theta", image == p - 1 and det == square, detail, witness=str(shown))

    report.add(
        "delta/kernel-membership",
        in_kernel,
        "delta lies in the integral kernel lattice",
    )
    report.add(
        "delta/outside-restricted-kernel",
        not (in_kernel and image == 0),
        "delta is not killed by the cyclic restriction",
    )
    return report


def h3_order(n: int) -> int:
    """Divergence of s1 in n variables: the order of the degree-3 torsion class."""
    if n < 1:
        raise ValueError("n must be positive")
    ctx = SymmetricContext(n)
    img = ctx.nabla_sigma(ctx.sigma(1))
    value = img.coefficient((0,) * n)
    if img != ctx.sigma_ring.const(value):
        raise ArithmeticError("divergence of s1 is not constant")
    return value
