"""Symmetric polynomials, the divergence operator, and its kernel lattices.

Conventions: the v-ring carries n variables of degree 1 and the sigma-ring
carries s1..sn with deg(s_k) = k, so a sigma-monomial's weighted degree is
its polynomial degree after expansion into the v's.  (Topological degrees
are twice these and appear only in report labels.)

The divergence operator is the sum of all partial d/dv_i.  On symmetric
polynomials, written in elementary-symmetric coordinates, it acts as the
derivation sending s1 to n and s_k to (n - k + 1) * s_{k-1}: one rule, held
as data, gives the operator, its matrix and the certificate that it is onto.
Nothing is expanded into the v's here; that route, the sigma rewrite and the
column-by-column onto check live in tests/oracles.py for cross-checks.

The suites never build a kernel basis: they decide membership by the
divergence and lattice equality by lead-term certificates and invariant
factors.  Only ``kernel_basis``, a helper for tests and demos, reads a lattice
basis off a Hermite normal form.  Nothing is done over the rationals.
"""

from __future__ import annotations

import itertools
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
    def nabla(self, f: Polynomial) -> Polynomial:
        """Sum of all partial derivatives, acting on v-polynomials."""
        if f.ring != self.v_ring:
            raise ValueError("divergence acts on v-ring polynomials")
        out = self.v_ring.zero()
        for i in range(self.n):
            out = out + f.partial_derivative(i)
        return out

    def nabla_sigma(self, f: Polynomial) -> Polynomial:
        """The same operator in sigma-coordinates, by ``monomial_divergence``."""
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
    divergence(s1*f) == n*f, since s1/n is a slice, so the order divides n.
    The lower bound: for each prime p dividing n, a functional y from the
    local row form at p of A, the divergence into degree d on sparse rows and
    shown onto by ``divergence_onto_shape``, with y*A == 0 and
    y*(n/p)*f != 0 modulo p^E, checked against A, so (n/p)*f is not in the
    image.  Inputs with nonzero divergence, and kernel elements whose order
    is below n, take the Smith normal form route.
    """
    from .intlinalg import _is_prime, check_cokernel_witness, element_order_in_cokernel
    d = f.homogeneous_degree()
    if d is None:
        return 1
    x = coordinates(ctx, f, d)
    n = ctx.n
    if ctx.nabla_sigma(f).is_zero():
        if ctx.nabla_sigma(ctx.sigma(1) * f) != n * f:
            raise ArithmeticError("divergence(s1*f) differs from n*f")
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
        point = [
            sum(math.prod(c) for c in itertools.combinations(range(1, ctx.n + 1), k))
            for k in range(1, ctx.n + 1)
        ]
    else:
        raise ValueError("expected a polynomial of this context")
    d = f.homogeneous_degree()
    value = sum(
        c * math.prod(x ** k for x, k in zip(point, e)) for e, c in f.terms.items()
    )
    return value % ctx.n if d else value


def power_sums(ctx: SymmetricContext, count: int) -> list:
    """The power sums p_0..p_(count-1) of the v's in sigma coordinates, by
    Newton's identities: p_0 = n and, with s_k = 0 for k > n,
    p_k = sum_(1 <= i < k, i <= n) (-1)^(i-1) s_i p_(k-i) + (-1)^(k-1) k s_k."""
    sums = [ctx.sigma_ring.const(ctx.n)]
    for k in range(1, count):
        pk = (-1) ** (k - 1) * k * ctx.sigma(k) if k <= ctx.n else ctx.sigma_ring.zero()
        for i in range(1, min(k - 1, ctx.n) + 1):
            pk = pk + (-1) ** (i - 1) * ctx.sigma(i) * sums[k - i]
        sums.append(pk)
    return sums


def delta_sigma(ctx: SymmetricContext) -> Polynomial:
    """The product of (v_i - v_j) over all ordered pairs i != j, in sigma
    coordinates.

    It is (-1)^(n(n-1)/2) V^2 for the Vandermonde V, and V^2 is the Hankel
    determinant det[p_(i+j)] (0 <= i, j < n) of the power sums.  The
    determinant is expanded by cofactors along its rows, top row first, so the
    minor on the first r rows and each column set is computed once, as a dict.
    Each exponent vector is packed into one int, a slot of ``width`` bits per
    s_k.  No minor has degree above n(n-1), so no exponent exceeds it and no
    slot carries into the next: the packed exponents of a product are the sum
    of its factors'.
    """
    n = ctx.n
    width = (n * (n - 1)).bit_length()
    sums = [{sum(a << (width * k) for k, a in enumerate(e)): c for e, c in p.terms.items()}
            for p in power_sums(ctx, 2 * n - 1)]
    minors = {(): {0: 1}}
    for r in range(n):
        below, minors = minors, {}
        for cols in itertools.combinations(range(n), r + 1):
            total = {}
            for pos, j in enumerate(cols):
                sign = -1 if (r + pos) % 2 else 1
                rest = below[cols[:pos] + cols[pos + 1:]].items()
                for e1, c1 in sums[r + j].items():
                    c1 *= sign
                    for e2, c2 in rest:
                        e = e1 + e2
                        total[e] = total.get(e, 0) + c1 * c2
            minors[cols] = {e: c for e, c in total.items() if c}
    mask = (1 << width) - 1
    terms = {tuple(e >> (width * k) & mask for k in range(n)): c
             for e, c in minors[tuple(range(n))].items()}
    return (-1) ** (n * (n - 1) // 2) * Polynomial(ctx.sigma_ring, terms)


def vandermonde(ctx: SymmetricContext) -> Polynomial:
    """The alternant det[v_i^j] (0 <= i, j < n) in the v-ring, one term per
    permutation."""
    pairs = list(itertools.combinations(range(ctx.n), 2))
    return Polynomial(ctx.v_ring, {
        perm: (-1) ** sum(perm[i] > perm[j] for i, j in pairs)
        for perm in itertools.permutations(range(ctx.n))
    })


def _is_alternating(ctx: SymmetricContext, f: Polynomial) -> bool:
    """Whether every adjacent swap of the v's negates f."""
    return all(
        {e[:i] + (e[i + 1], e[i]) + e[i + 2:]: -c for e, c in f.terms.items()} == f.terms
        for i in range(ctx.n - 1)
    )


def vistoli_delta_check(p: int) -> VerificationReport:
    """Certify the behaviour of the alternating product delta under the
    divergence and the cyclic restriction, for an odd prime p.

    delta is never expanded in the v's: its sigma form comes from
    ``delta_sigma``, and as delta = +-V^2 the swap and divergence lines are
    checked on the Vandermonde V.  theta(delta) must also equal +-theta(V)^2
    mod p, which ties the sigma form to V.  The kernel lattice is saturated
    and its theta-restricted part is {x in kernel : theta(x) = 0 mod p}, so
    both memberships are decided by evaluating the divergence and theta on
    the sigma form.
    """
    from .intlinalg import _is_prime
    if p % 2 == 0 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    report = VerificationReport("vistoli")
    ctx = SymmetricContext(p)
    vand = vandermonde(ctx)
    delta = delta_sigma(ctx)
    d = p * p - p

    deg = delta.homogeneous_degree()
    report.add(
        "delta/homogeneous",
        deg == d == 2 * vand.homogeneous_degree(),
        f"alternating product is homogeneous of degree {deg}",
    )
    report.add("delta/symmetric", _is_alternating(ctx, vand), "invariant under all adjacent swaps")
    grad = ctx.nabla(vand)
    report.add(
        "delta/divergence",
        grad.is_zero(),
        "divergence(delta) = 0" if grad.is_zero() else f"divergence(V) = {grad}",
    )

    image = theta_map(ctx, delta)
    tie = (-1) ** (p * (p - 1) // 2) * theta_map(ctx, vand) ** 2 % p
    eta = Ring(("eta",), (1,))
    shown = eta.monomial((d,), image)
    detail = f"theta(delta) = {shown}, expected {eta.monomial((d,), p - 1)} (= -eta^{d} mod {p})"
    if tie != image:
        detail += f", but the Vandermonde gives {eta.monomial((d,), tie)}"
    report.add("delta/theta", image == tie == p - 1, detail, witness=str(shown))

    in_kernel = ctx.nabla_sigma(delta).is_zero()
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
