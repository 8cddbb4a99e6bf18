"""Reference routes for cross-checking bpuverify: slower, independent ones.

Through the v-ring, for bpuverify.symfun.  The library works in sigma coordinates and never expands a symmetric
polynomial into the v's.  These functions do, which makes them slow past five
variables but independent of the sigma-side formulas: the elementary
polynomials, expansion of a sigma-polynomial into the v's, the divergence
as the sum of the partial derivatives, the leading-term rewrite back into
sigma coordinates, and the alternating product built as a v-polynomial.  Expansions are cached per variable count.

Over all ambient monomials, for bpuverify.mod2alg: the normal-form monomials
of a degree as the ambient ones no Groebner lead divides, and subalgebra
ranks from a product of generator powers per monomial.  By a full scan, for
the same module: each generator x_j raising every normal-form monomial of
the degree below, dropping those with a generator after x_j, in place of
the buckets kept by last generator.

By fixed decompositions, for bpuverify.mod2alg.steenrod: Sq^3, Sq^5, Sq^6 and
Sq^7 on generators as composites of Sq^1, Sq^2 and Sq^4, in place of the Adem
derivation.

Column by column, for bpuverify.symfun.divergence_onto_shape: the triangular
block of the divergence on the columns s1*mu, read off each column's
``monomial_divergence``, in place of the n images of the divergence rule.

Per monomial, for bpuverify.symfun.certify_k4_presentation: kernel membership
of each generator monomial by its own divergence, and the coordinate stack of
every generator monomial of a degree, in place of the standard monomials
with a2-exponent at most 2.  By minors, for the same suite: the nonzero
invariant factors of a sigma-coordinate stack from two minors that are units
modulo 2^31 - 1, their Bareiss determinants and trial division of their gcd,
in place of the two lead-term certificates.  By elimination, for the same
suite: the 3-adic factors of B_d's stack from the square M_d, B_d written in
the monomials in a2, a3 and u, over Z/3^E with E carried from one degree to
the next, in place of the closed form 3^k.

Per monomial, for bpuverify.symfun.monomial_coker_orders: ``coker_order``
on every monomial a4^c*a6^e through the bound, and the coker suite's report
built from those orders, in place of the walk that settles each divisor of a
monomial of order n from that multiple.

By recursion, for bpuverify.poly: the exponent tuples of a weighted degree,
each exponent searched largest first and the last one solved, in place of
the cached suffix tables.  By regular expression, for the same module: the
polynomial text syntax read by a token pattern, each term a Polynomial
added to the sum, in place of the one-pass scanner and its one term dict.

By list scan, for bpuverify.gf2: each vector reduced against the whole sorted
echelon list, which is re-sorted after every insertion, in place of the pivot
table keyed by leading bit.

Per monomial, for bpuverify.dga: D^2 = 0 in a degree by applying the public
``differential`` twice to each normal-form monomial, and the rank of D by
the ``coordinates`` of each monomial's differential.  Both go through the
public linear extensions, so they see a patched rule table.  By sweep, for
the same module: the four homotopy lines and the kernel-generator line from
per-degree GF(2) bitmask tables of D, P and the projection on every
normal-form monomial through the bound, in place of the exponent-box
certificate.  By sweep, for the same module: D against Sq^1 under the
identification on every normal-form monomial through the bound, in place of
the generator certificate.

By sweep, for the bpu2 suite's Sq^1 uniqueness lines: every element of a
degree tried in turn, in place of one affine solve.

Column by column over GF(p), for bpuverify.intlinalg: the rank modulo p and
its pivots by forward elimination with normalized pivot rows, in place of
the elimination over Z/p^E at exponent 1.  On dense rows, for the same
module: the elimination over Z/p^E with every lower row scanned, and cut
down by a column, at every pivot, in place of the sparse rows and their
column index; the two return the same valuations, pivots and steps.

By expansion, for bpuverify.symfun.vistoli_delta_check: the alternating
product delta in sigma coordinates by cofactor expansion of the Hankel
determinant det[p_(i+j)], with exponents packed into one int (and again with
exponent tuples, each term product a tuple sum), and the Vandermonde V as a
v-polynomial with one term per permutation; the six vistoli lines are read
off delta and V, in place of the identities on the power sums.

With a rank check first, for bpuverify.intlinalg.full_rank_local_row_form:
the local row form of a dense matrix once its rank modulo 2^31 - 1 shows
full row rank, which the coker suite gets from its onto certificate instead.

Test-only constructions with no caller in the library: the n = 3 kernel
generators, generator monomials in the n = 4 generators, and an independent
count of the six-generator ring's graded dimensions.
"""

from __future__ import annotations

import itertools
import math
import operator
import re

from bpuverify import dga, gf2, intlinalg
from bpuverify.intlinalg import IntMatrix, rank_mod_p
from bpuverify.mod2alg.algebra import mono_divides
from bpuverify.mod2alg.rings import toda_action
from bpuverify.mod2alg.steenrod import SteenrodAction
from bpuverify.poly import Polynomial, Ring, monomial_basis
from bpuverify.report import VerificationReport
from bpuverify.symfun import (
    AlphaGenerators,
    SymmetricContext,
    alpha_generators,
    coker_order,
    coordinates,
    power_sums,
    standard_exponents,
    theta_map,
)

_elementary_cache = {}  # (n, k) -> e_k in the v's
_expand_cache = {}  # (n, sigma exponents) -> expanded monomial


def elementary(ctx: SymmetricContext, k: int) -> Polynomial:
    """The k-th elementary symmetric polynomial in the v-variables."""
    if not 0 <= k <= ctx.n:
        raise ValueError(f"elementary index {k} out of range 0..{ctx.n}")
    key = (ctx.n, k)
    if key not in _elementary_cache:
        terms = {}
        for combo in itertools.combinations(range(ctx.n), k):
            e = [0] * ctx.n
            for i in combo:
                e[i] = 1
            terms[tuple(e)] = 1
        _elementary_cache[key] = Polynomial(ctx.v_ring, terms)
    return _elementary_cache[key]


def expand(ctx: SymmetricContext, f: Polynomial) -> Polynomial:
    """Expand a sigma-polynomial into the v-variables."""
    if f.ring == ctx.v_ring:
        return f
    if f.ring != ctx.sigma_ring:
        raise ValueError("polynomial does not live in this context")
    out = ctx.v_ring.zero()
    for e, c in f.terms.items():
        out = out + c * _expand_monomial(ctx, e)
    return out


def _expand_monomial(ctx: SymmetricContext, e) -> Polynomial:
    key = (ctx.n, e)
    if key not in _expand_cache:
        prod = ctx.v_ring.one()
        for k, power in enumerate(e, start=1):
            if power:
                prod = prod * elementary(ctx, k) ** power
        _expand_cache[key] = prod
    return _expand_cache[key]


def nabla(ctx: SymmetricContext, f: Polynomial) -> Polynomial:
    """The divergence on v-ring polynomials: the sum of all partial
    derivatives."""
    if f.ring != ctx.v_ring:
        raise ValueError("divergence acts on v-ring polynomials")
    out = ctx.v_ring.zero()
    for i in range(ctx.n):
        out = out + f.partial_derivative(i)
    return out


def to_sigma(ctx: SymmetricContext, f: Polynomial) -> Polynomial:
    """Write a symmetric v-polynomial in elementary-symmetric coordinates.

    Classical leading-term subtraction; raises ValueError if the input is
    not symmetric.
    """
    if f.ring != ctx.v_ring:
        raise ValueError("expected a v-ring polynomial")
    rem = f
    out = ctx.sigma_ring.zero()
    while not rem.is_zero():
        e, c = max(rem.terms.items(), key=lambda t: t[0])
        if any(e[i] < e[i + 1] for i in range(ctx.n - 1)):
            raise ValueError("polynomial is not symmetric")
        lam = tuple(e[i] - (e[i + 1] if i + 1 < ctx.n else 0) for i in range(ctx.n))
        out = out + ctx.sigma_ring.monomial(lam, c)
        rem = rem - c * _expand_monomial(ctx, lam)
    return out


def is_symmetric(ctx: SymmetricContext, f: Polynomial) -> bool:
    """Whether every adjacent swap of the v's fixes f."""
    for i in range(ctx.n - 1):
        swapped = {}
        for e, c in f.terms.items():
            s = list(e)
            s[i], s[i + 1] = s[i + 1], s[i]
            swapped[tuple(s)] = c
        if swapped != f.terms:
            return False
    return True


def delta_polynomial(ctx: SymmetricContext) -> Polynomial:
    """The product of (v_i - v_j) over all ordered pairs i != j.

    Computed as (-1)^(n(n-1)/2) times the square of the alternating
    determinant expansion, which keeps the term count small.
    """
    n = ctx.n
    vand = {}
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        e = tuple(perm)
        vand[e] = vand.get(e, 0) + sign
    v = Polynomial(ctx.v_ring, vand)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * (v * v)


def tuple_delta_sigma(ctx: SymmetricContext) -> Polynomial:
    """delta_sigma's cofactor expansion of det[p_(i+j)], on exponent tuples."""
    n = ctx.n
    sums = [p.terms for p in power_sums(ctx, 2 * n - 1)]
    minors = {(): {(0,) * n: 1}}
    for r in range(n):
        below, minors = minors, {}
        for cols in itertools.combinations(range(n), r + 1):
            total = {}
            for pos, j in enumerate(cols):
                sign = -1 if (r + pos) % 2 else 1
                for (e1, c1), (e2, c2) in itertools.product(
                        sums[r + j].items(), below[cols[:pos] + cols[pos + 1:]].items()):
                    e = tuple(map(operator.add, e1, e2))
                    total[e] = total.get(e, 0) + sign * c1 * c2
            minors[cols] = {e: c for e, c in total.items() if c}
    return (-1) ** (n * (n - 1) // 2) * Polynomial(ctx.sigma_ring, minors[tuple(range(n))])


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


def is_alternating(ctx: SymmetricContext, f: Polynomial) -> bool:
    """Whether every adjacent swap of the v's negates f."""
    return all(
        {e[:i] + (e[i + 1], e[i]) + e[i + 2:]: -c for e, c in f.terms.items()} == f.terms
        for i in range(ctx.n - 1)
    )


def vistoli_by_expansion(p: int) -> VerificationReport:
    """The vistoli suite's six lines read off delta's sigma form
    (``delta_sigma``) and the Vandermonde V: degree of delta against twice
    V's, V negated by every adjacent swap, the divergence of V, theta(delta)
    against +-theta(V)^2 mod p, and both memberships of delta by the
    divergence and theta of its sigma form."""
    report = VerificationReport("vistoli")
    ctx = SymmetricContext(p)
    vand = vandermonde(ctx)
    delta = delta_sigma(ctx)
    d = p * p - p
    deg = delta.homogeneous_degree()
    report.add("delta/homogeneous", deg == d == 2 * vand.homogeneous_degree(),
               f"alternating product is homogeneous of degree {deg}")
    report.add("delta/symmetric", is_alternating(ctx, vand), "invariant under all adjacent swaps")
    grad = nabla(ctx, vand)
    report.add("delta/divergence", grad.is_zero(),
               "divergence(delta) = 0" if grad.is_zero() else f"divergence(V) = {grad}")
    image = theta_map(ctx, delta)
    tie = (-1) ** (p * (p - 1) // 2) * theta_map(ctx, vand) ** 2 % p
    eta = Ring(("eta",), (1,))
    shown = eta.monomial((d,), image)
    detail = f"theta(delta) = {shown}, expected {eta.monomial((d,), p - 1)} (= -eta^{d} mod {p})"
    if tie != image:
        detail += f", but the Vandermonde gives {eta.monomial((d,), tie)}"
    report.add("delta/theta", image == tie == p - 1, detail, witness=str(shown))
    in_kernel = ctx.nabla_sigma(delta).is_zero()
    report.add("delta/kernel-membership", in_kernel, "delta lies in the integral kernel lattice")
    report.add("delta/outside-restricted-kernel", not (in_kernel and image == 0),
               "delta is not killed by the cyclic restriction")
    return report


def lead_filter_monomials(algebra, d: int) -> tuple:
    """The normal-form monomials of degree d, order-descending: every ambient
    exponent tuple of that degree that no Groebner lead divides."""
    leads = [lead for lead, _ in algebra.groebner]
    return tuple(
        m for m in monomial_basis(d, algebra.gen_degrees)
        if not any(mono_divides(lead, m) for lead in leads)
    )


def full_scan_monomials(algebra, max_degree: int) -> list:
    """The normal-form monomials of each degree 0..max_degree, order-descending:
    for each generator x_j, every one of degree e - deg x_j with no generator
    after x_j, times x_j, unless a Groebner lead involving x_j divides it."""
    n = len(algebra.gen_degrees)
    leads = [[lead for lead, _ in algebra.groebner if lead[j]] for j in range(n)]
    unit = (0,) * n
    out = [() if any(lead == unit for lead, _ in algebra.groebner) else (unit,)]
    for e in range(1, max_degree + 1):
        found = []
        for j, w in enumerate(algebra.gen_degrees):
            for m in out[e - w] if w <= e else ():
                if any(m[j + 1:]):
                    continue
                m = m[:j] + (m[j] + 1,) + m[j + 1:]
                if not any(mono_divides(lead, m) for lead in leads[j]):
                    found.append(m)
        out.append(tuple(sorted(found, reverse=True)))
    return out


def product_loop_ranks(algebra, generators, max_degree: int) -> list:
    """(rank, count) per degree as ``subalgebra_ranks`` gives it, from every
    exponent tuple in the generator degrees: a product of cached generator
    powers, started from 1, for each monomial."""
    gens = [algebra.normal_form(g) for g in generators]
    degrees = [algebra.poly_degree(g) for g in gens]
    powers = {}

    def power(idx, k):
        if (idx, k) not in powers:
            powers[idx, k] = algebra.power(gens[idx], k)
        return powers[idx, k]

    out = []
    for d in range(max_degree + 1):
        exponents = monomial_basis(d, degrees)
        vectors = []
        for expo in exponents:
            prod = algebra.one()
            for idx, k in enumerate(expo):
                if k:
                    prod = algebra.mul(prod, power(idx, k))
            vectors.append(algebra.coordinates(prod, d))
        out.append((gf2.rank(vectors), len(exponents)))
    return out


# Sq^i = the sum over its routes of the composite Sq^(j1) Sq^(j2) ..., read
# right to left: Sq^3 = Sq^1 Sq^2, Sq^5 = Sq^1 Sq^4,
# Sq^6 = Sq^2 Sq^4 + Sq^1 Sq^4 Sq^1 and Sq^7 = Sq^1 Sq^2 Sq^4.
HAND_ROUTES = {
    3: ((1, 2),),
    5: ((1, 4),),
    6: ((2, 4), (1, 4, 1)),
    7: ((1, 2, 4),),
}


class HandRouteAction(SteenrodAction):
    """The action with Sq^3, Sq^5, Sq^6 and Sq^7 below the instability range
    taken from ``HAND_ROUTES`` on every generator, whatever the rule says, so
    through Sq^8 no square is derived from an Adem relation."""

    def sq_gen(self, i: int, gidx: int):
        if i not in HAND_ROUTES or i >= self.algebra.gen_degrees[gidx]:
            return super().sq_gen(i, gidx)
        value = frozenset()
        for route in HAND_ROUTES[i]:
            part = self.algebra.gen(self.algebra.gen_names[gidx])
            for j in reversed(route):
                part = self.sq(j, part)
            value = value ^ part
        return value


def first_outside_by_divergence(ctx: SymmetricContext, alphas: AlphaGenerators, expos) -> tuple:
    """The first exponent in ``expos`` whose generator monomial has nonzero
    divergence, or None: one ``nabla_sigma`` per monomial."""
    return next((e for e in expos
                 if not ctx.nabla_sigma(alpha_monomial(alphas, e)).is_zero()), None)


def divergence_onto_shape_by_columns(ctx: SymmetricContext, degree: int):
    """(rows, cols) of the divergence from degree d to d - 1, or None, with
    every column s1*mu checked as ``monomial_divergence`` gives it: its one
    term at or above mu (exponents compared from s_n down), or outside the
    rows, is mu, with a nonzero coefficient.  The block on those columns is
    then triangular with nonzero diagonal, so the divergence is onto."""
    rows = ctx.sigma_basis(degree - 1) if degree else ()
    in_rows = set(rows)
    for mu in rows:
        key = mu[::-1]
        high = [(t, c) for t, c in ctx.monomial_divergence((mu[0] + 1,) + mu[1:])
                if t[::-1] >= key or t not in in_rows]
        if len(high) != 1 or high[0][0] != mu or not high[0][1]:
            return None
    return len(rows), len(ctx.sigma_basis(degree))


def list_scan_reduce(v: int, basis) -> int:
    """Fully reduce ``v`` against an echelonized list, largest leading bit first."""
    for b in basis:
        if v ^ b < v:
            v ^= b
    return v


def list_scan_echelon(vectors) -> list:
    """Echelonized spanning set: each vector reduced against the whole list,
    which is then re-sorted descending."""
    basis = []
    for v in vectors:
        v = list_scan_reduce(v, basis)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def list_scan_solve_affine(vectors, target: int):
    """``gf2.solve_affine`` on the list-scan echelon route."""
    k = len(vectors)
    basis = list_scan_echelon((v << k) | (1 << i) for i, v in enumerate(vectors))
    particular = list_scan_reduce(target << k, basis)
    if particular >> k:
        return None
    return particular, [b for b in basis if not b >> k]


def dga_squares_to_zero_at(d: int) -> bool:
    """D^2 = 0 on every degree-d normal-form monomial, D applied twice."""
    return not any(
        dga.differential(dga.differential(frozenset({m})))
        for m in dga.w_algebra().monomials_of_degree(d)
    )


def dga_rank_of_d(d: int) -> int:
    """GF(2) rank of D from degree d to degree d + 1, by coordinates."""
    alg = dga.w_algebra()
    return gf2.rank(
        [alg.coordinates(dga.differential(frozenset({m})), d + 1)
         for m in alg.monomials_of_degree(d)]
    )


def dga_homology_dimension(d: int) -> int:
    """dim ker D - dim im D in degree d, from dga_rank_of_d."""
    kernel_dim = len(dga.w_algebra().monomials_of_degree(d)) - dga_rank_of_d(d)
    return kernel_dim - dga_rank_of_d(d - 1) if d else kernel_dim


class DgaTables:
    """D, P and the projection on W's normal-form bases, filled one degree at
    a time on first use; a sweep drops the degrees it has passed.

    ``d_cols(e)``, ``p_cols(e)`` and ``proj_cols(e)`` hold, for each monomial
    of ``monomials_of_degree(e)`` in order, the mask of its image over degree
    e + 1, e - 1 and e; each rule runs once per monomial.  A table lives for
    one sweep, so it always reads the rules as they are at that call.
    """

    def __init__(self):
        self.alg = dga.w_algebra()
        self._columns = {}
        self._zero_through = -1
        self._ranks = {}

    def _fill(self, name: str, rule, d: int, e: int) -> list:
        """The masks over degree e of the rule's values on the degree-d monomials."""
        key = name, d
        if key not in self._columns:
            alg = self.alg
            get = (alg.basis_index(e) if e >= 0 else {}).get
            columns = []
            for m in alg.monomials_of_degree(d) if d >= 0 else ():
                mask = 0
                for t in rule(m):
                    bit = get(t)
                    if bit is None:
                        raise ValueError(
                            f"not a degree-{e} normal-form element: "
                            f"{alg.format(dga._linear(rule, {m}))} = {name}({alg.format({m})})"
                        )
                    mask ^= 1 << bit
                columns.append(mask)
            self._columns[key] = columns
        return self._columns[key]

    def d_cols(self, d: int) -> list:
        return self._fill("D", dga._d_rule, d, d + 1)

    def p_cols(self, d: int) -> list:
        return self._fill("P", dga._p_rule, d, d - 1)

    def proj_cols(self, d: int) -> list:
        return self._fill("projection", dga._projection_rule, d, d)

    def squares_to_zero(self, d: int) -> bool:
        """D^2 = 0 on every degree-d normal-form monomial."""
        above = self.d_cols(d + 1)
        for c in self.d_cols(d):
            out = 0
            while c:
                out, c = out ^ above[(c & -c).bit_length() - 1], c & c - 1
            if out:
                return False
        return True

    def squares_to_zero_through(self, n: int) -> bool:
        """D^2 = 0 on every normal-form monomial of degree at most n; the
        degrees already shown are not checked again."""
        while self._zero_through < n:
            if not self.squares_to_zero(self._zero_through + 1):
                return False
            self._zero_through += 1
        return True

    def rank(self, d: int) -> int:
        """GF(2) rank of D from degree d to degree d + 1."""
        if d not in self._ranks:
            self._ranks[d] = gf2.rank(self.d_cols(d))
        return self._ranks[d]

    def drop_below(self, d: int) -> None:
        """Forget the columns of the degrees below d; ranks and D^2 verdicts stay."""
        for key in [key for key in self._columns if key[1] < d]:
            del self._columns[key]

    def homology_dimension(self, d: int) -> int:
        if not self.squares_to_zero_through(d + 1):
            raise ArithmeticError("the differential does not square to zero")
        kernel_dim = len(self.alg.monomials_of_degree(d)) - self.rank(d)
        if d == 0:
            return kernel_dim
        return kernel_dim - self.rank(d - 1)


def verify_homotopy(max_degree: int) -> VerificationReport:
    """The dga suite's four homotopy lines and two findings by a sweep of
    every degree through max_degree, in place of the exponent-box
    certificate: one ascending pass, with D^2 = 0 and the rank of D, and per
    monomial m of degree d (bit i), with masks for elements,
      P(D m) + D(P m) against projection(m) + m, over degree d, and
      D(projection m) against projection(D m), over degree d + 1,
    each check stopping at its first failure; the columns of degree d - 1
    are dropped after degree d, so the tables hold a few degrees at a time."""
    tables = DgaTables()
    report = VerificationReport("dga")
    alg = tables.alg
    squares_zero, bad, chain_ok, checked = True, None, True, 0
    for d in range(max_degree + 1):
        squares_zero = squares_zero and tables.squares_to_zero_through(d + 1)
        tables.rank(d)
        if bad is None or chain_ok:
            d_cols, p_cols, proj = tables.d_cols(d), tables.p_cols(d), tables.proj_cols(d)
            d_below, p_above = tables.d_cols(d - 1), tables.p_cols(d + 1)
            proj_above = tables.proj_cols(d + 1)
            for i, (dm, pm, lm) in enumerate(zip(d_cols, p_cols, proj)):
                # P(D m), projection(D m), D(P m), D(projection m): XORs of columns
                pdm = ldm = dpm = dlm = 0
                while dm:
                    k = (dm & -dm).bit_length() - 1
                    pdm, ldm, dm = pdm ^ p_above[k], ldm ^ proj_above[k], dm & dm - 1
                while pm:
                    dpm, pm = dpm ^ d_below[(pm & -pm).bit_length() - 1], pm & pm - 1
                rhs = lm ^ 1 << i
                while lm:
                    dlm, lm = dlm ^ d_cols[(lm & -lm).bit_length() - 1], lm & lm - 1
                if bad is None:
                    lhs = pdm ^ dpm
                    checked += 1
                    if lhs != rhs:
                        bad = [alg.from_mask(mask, d) for mask in (1 << i, lhs, rhs)]
                chain_ok = chain_ok and dlm == ldm
                if bad is not None and not chain_ok:
                    break
        tables.drop_below(d)
    report.add(
        "d-squared",
        squares_zero,
        f"D^2 = 0 on all normal-form monomials through degree {max_degree + 1}",
    )
    report.add(
        "homotopy-identity",
        bad is None,
        f"P*D + D*P = projection + id on all {checked} normal-form monomials "
        f"through degree {max_degree}",
        witness=""
        if bad is None
        else f"{alg.format(bad[0])}: lhs {alg.format(bad[1])} rhs {alg.format(bad[2])}",
    )
    report.add(
        "projection-chain-map",
        chain_ok,
        f"the projection commutes with D through degree {max_degree}",
    )
    dims = [tables.homology_dimension(d) for d in range(max_degree + 1)]
    series = dga.homology_series(max_degree)
    mismatches = [
        (d, dims[d], series[d]) for d in range(max_degree + 1) if dims[d] != series[d]
    ]
    report.add(
        "homology-dimensions",
        not mismatches,
        f"homology dimensions equal the series of Z/2[x2,x8,x12] + Z/2[x8,x12]*x3 "
        f"through degree {max_degree}",
        witness=str(mismatches[:4]) if mismatches else "",
    )
    nominal = dga.stated_answer_series(max_degree)
    first_diff = next(
        (d for d in range(max_degree + 1) if dims[d] != nominal[d]), None
    )
    report.finding(
        "nominal-answer-series",
        "the nominal answer ring Z/2[x2,x8,x12] (x) E[x3] overcounts the "
        "homology by the x2^a*x3 (a >= 1) monomials, which vanish in the "
        f"algebra; first divergence at degree {first_diff}",
    )
    report.finding(
        "projection-x2-x3-family",
        "the projection's second monomial family is restricted to x8^b x12^c x3 "
        "(coefficient a = 0), since x2*x3 = 0 in the algebra; the unrestricted "
        "family listing in the source would name only zero monomials for a >= 1",
    )
    return report


def ker_d_generators_check(max_degree: int) -> VerificationReport:
    """ker D, by the sweep's ranks, equals the subalgebra on the six listed
    elements, degreewise."""
    tables = DgaTables()
    report = VerificationReport("dga-kernel")
    alg = tables.alg
    gens = [alg.parse(s) for s in dga.KERNEL_GENERATORS]
    first_bad = None
    for d, (sub_dim, _) in enumerate(alg.subalgebra_ranks(gens, max_degree)):
        kernel_dim = len(alg.monomials_of_degree(d)) - tables.rank(d)
        if sub_dim != kernel_dim and first_bad is None:
            first_bad = (d, kernel_dim, sub_dim)
    report.add(
        "kernel-generators",
        first_bad is None,
        f"ker D dimensions match the six-generator subalgebra through degree {max_degree}",
        witness=""
        if first_bad is None
        else f"degree {first_bad[0]}: kernel {first_bad[1]} vs subalgebra {first_bad[2]}",
    )
    return report


def sweep_sq1_correspondence(max_degree: int) -> bool:
    """D corresponds to Sq^1 under the identification on every normal-form
    monomial through max_degree, each compared by the public maps."""
    alg, iso, act = dga.w_algebra(), dga.toda_identification(), toda_action()
    for d in range(max_degree + 1):
        for m in alg.monomials_of_degree(d):
            mono = frozenset({m})
            if iso.apply(dga.differential(mono)) != act.sq(1, iso.apply(mono)):
                return False
    return True


def sweep_sq1_preimages(algebra, action, target, d: int) -> list:
    """Every degree-d element s with Sq^1(s) = target, trying all 2^n
    elements of the degree in mask order."""
    count = len(algebra.monomials_of_degree(d))
    elements = (algebra.from_mask(bits, d) for bits in range(1 << count))
    return [s for s in elements if action.sq(1, s) == target]


def row_reduce_mod_p(a, p: int):
    """Forward elimination of the IntMatrix A over GF(p), each pivot the first
    nonzero entry of the leftmost column not yet cleared: (pivot columns,
    pivot rows), the pivot rows as row indices of A in pivot order."""
    m, n = a.rows, a.cols
    rows = [[x % p for x in row] for row in a.entries]
    order = list(range(m))
    pivots = []
    for col in range(n):
        rank = len(pivots)
        pivot = next((i for i in range(rank, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        order[rank], order[pivot] = order[pivot], order[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(rank + 1, m):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    return pivots, order[:len(pivots)]


def _divide_exact(f: Polynomial, k: int) -> Polynomial:
    out = {}
    for e, c in f.terms.items():
        if c % k:
            raise ValueError(f"coefficient {c} not divisible by {k}")
        out[e] = c // k
    return Polynomial(f.ring, out)


def k3_generators(ctx: SymmetricContext):
    """Kernel generators for n = 3, normalized so the classical cubic relation
    27*a6 - 4*a2^3 - a3^2 = 0 holds with exactly these signs.

    The degree-2 and degree-3 kernels are rank one, so a2 and a3 are unique
    up to sign; the signs below are the ones compatible with the relation
    (a2 = 3*s2 - s1^2 has negative lex-leading coefficient), and a6 is the
    exact 27-th part of 4*a2^3 + a3^2.
    """
    if ctx.n != 3:
        raise ValueError("these generators live in three variables")
    s1, s2, s3 = (ctx.sigma(k) for k in range(1, 4))
    a2 = 3 * s2 - s1 ** 2
    a3 = 2 * s1 ** 3 - 9 * s1 * s2 + 27 * s3
    a6 = _divide_exact(4 * a2 ** 3 + a3 ** 2, 27)
    return {"a2": a2, "a3": a3, "a6": a6}


def alpha_monomial(alphas: AlphaGenerators, exponents) -> Polynomial:
    a, b, c, e = exponents
    return alphas.a2 ** a * alphas.a3 ** b * alphas.a4 ** c * alphas.a6 ** e


def generator_monomial_stack(ctx: SymmetricContext, alphas: AlphaGenerators, d: int) -> dict:
    """The sigma coordinates of every generator monomial of degree d, keyed by
    its exponents (of a2, a3, a4, a6)."""
    return {e: coordinates(ctx, alpha_monomial(alphas, e), d)
            for e in monomial_basis(d, (2, 3, 4, 6))}


def per_monomial_coker_orders(ctx: SymmetricContext, alphas: AlphaGenerators,
                              max_degree: int) -> dict:
    """The cokernel order of every a4^c*a6^e of degree at most max_degree, each
    by its own ``coker_order`` call, keyed by (c, e) in the coker report's order."""
    return {(c, e): coker_order(ctx, alphas.a4 ** c * alphas.a6 ** e)
            for d in range(max_degree + 1) for c, e in reversed(monomial_basis(d, (4, 6)))}


def coker_report_by_monomial(max_degree: int) -> VerificationReport:
    """The coker suite's report, its orders from ``per_monomial_coker_orders``."""
    report = VerificationReport("coker")
    ctx = SymmetricContext(4)
    for (c, e), order in per_monomial_coker_orders(ctx, alpha_generators(ctx), max_degree).items():
        label = f"a4^{c}*a6^{e}" if (c or e) else "1"
        report.add(f"order/{label}", order == 4,
                   f"order of {label} in the degree-{4 * c + 6 * e} cokernel is {order}")
    order = coker_order(ctx, ctx.sigma(1))
    report.add("order/s1", order == 1, f"s1 lies in the image (order {order}): gcd(8,3) = 1")
    return report


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


def determinant(a: IntMatrix) -> int:
    """Exact determinant of a square IntMatrix, by ``intlinalg.determinant``."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    return intlinalg.determinant(a.entries)


_RANK_PRIME = 2 ** 31 - 1


def has_full_row_rank(a: IntMatrix) -> bool:
    """Whether A is shown to have full row rank: its rank modulo the prime
    2^31 - 1, which never exceeds its rank over Q, equals its row count."""
    rows = a.sparse_rows()
    return len(intlinalg._eliminate_mod_prime_power(rows, _RANK_PRIME, 1, a.rows)[0]) == a.rows


def local_row_form(a: IntMatrix, p: int) -> intlinalg.LocalRowForm:
    """``intlinalg.full_rank_local_row_form`` of A with full row rank checked
    first, by one rank modulo 2^31 - 1, so that some E exceeds every
    invariant factor's p-valuation.  Raises ValueError when p is not prime
    and ArithmeticError when A is not of full row rank.
    """
    if not intlinalg._is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not has_full_row_rank(a):
        raise ArithmeticError("matrix is not of full row rank")
    return intlinalg.full_rank_local_row_form(a.sparse_rows(), p)


_TRIAL_BOUND = 2 ** 16


def nonzero_invariant_factors(a: IntMatrix, rank: int) -> tuple | None:
    """The nonzero invariant factors of A, in divisibility order, computed
    without a unimodular transform; ``rank`` bounds the rank of A from above.

    The rank of A modulo 2^31 - 1 bounds it from below: an ArithmeticError
    when that exceeds ``rank``, and None when it falls short (then either the
    rank of A is below ``rank`` or 2^31 - 1 divides a factor).  Otherwise the
    factors' product divides every rank x rank minor, so it divides the gcd
    g of two minors that are units mod 2^31 - 1, on the pivots of A and of A
    with rows and columns reversed.  g is factored by trial division; a
    cofactor with no prime below 2^16 that is not thereby proved prime is an
    ArithmeticError.  For each prime p of g, the valuations of the pivots of
    ``_local_elimination`` are those of the factors, and the count of
    valuation 0 must equal the rank of A modulo p.
    """
    prime = _RANK_PRIME
    _, rows, cols, _ = intlinalg._eliminate_mod_prime_power(a.sparse_rows(), prime, 1, a.rows)
    if len(cols) > rank:
        raise ArithmeticError(f"rank modulo {prime} is {len(cols)}, above the rank bound {rank}")
    if len(cols) < rank:
        return None
    m, n = a.rows, a.cols
    flipped = IntMatrix([row[::-1] for row in reversed(a.entries)], n)
    _, back_rows, back_cols, _ = intlinalg._eliminate_mod_prime_power(
        flipped.sparse_rows(), prime, 1, rank)
    g = 0
    for rows, cols in (
        (rows, cols),
        ([m - 1 - i for i in back_rows], [n - 1 - j for j in back_cols]),
    ):
        minor = IntMatrix([[a.entries[i][j] for j in cols] for i in rows], rank)
        g = math.gcd(g, determinant(minor))
    factors = [1] * rank
    for p in _trial_primes(g):
        valuations = intlinalg._local_elimination(a.sparse_rows(), p, rank)[1][0]
        if valuations.count(0) != rank_mod_p(a, p):
            raise ArithmeticError(f"valuations at {p} disagree with the rank modulo {p}")
        factors = [f * p ** v for f, v in zip(factors, valuations)]
    return tuple(factors)


def _trial_primes(g: int) -> list:
    """The primes of g > 0 by trial division below 2^16; an ArithmeticError
    when a cofactor is left that has no prime below the bound and is too
    large to be proved prime by it."""
    primes = []
    f = 2
    while f * f <= g:
        if f >= _TRIAL_BOUND:
            raise ArithmeticError(
                f"minor gcd cofactor {g} has no prime factor below {_TRIAL_BOUND}")
        if g % f == 0:
            primes.append(f)
            while g % f == 0:
                g //= f
        f += 1 if f == 2 else 2
    if g > 1:
        primes.append(g)
    return primes


_TOKEN = r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z]+\d*)|(?P<op>[-+*^()]))"


def _regex_tokens(text: str) -> list:
    match = re.compile(_TOKEN).match
    pos, out = 0, []
    while pos < len(text):
        m = match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad polynomial syntax near {text[pos:pos+12]!r}")
            break
        pos = m.end()
        if m.lastgroup == "num":
            out.append(("num", int(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


def regex_parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """The polynomial text syntax by a regular-expression tokenizer, each
    term added to the sum as its own Polynomial."""
    tokens = _regex_tokens(text)
    result = ring.zero()
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] == ("op", "+") or i < n and tokens[i] == ("op", "-"):
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("dangling sign in polynomial text")
        coeff = sign
        exps = [0] * ring.nvars
        saw_factor = False
        while i < n:
            kind, val = tokens[i]
            if kind in ("num", "name") and saw_factor:
                raise ValueError("factors must be joined by '*'")
            if kind == "num":
                coeff *= val
                i += 1
            elif kind == "name":
                idx = ring.index(val)
                i += 1
                power = 1
                if i < n and tokens[i] == ("op", "^"):
                    i += 1
                    if i >= n or tokens[i][0] != "num":
                        raise ValueError("exponent must be a literal integer")
                    power = tokens[i][1]
                    i += 1
                exps[idx] += power
            elif (kind, val) == ("op", "*"):
                i += 1
                if not saw_factor or i >= n or tokens[i][0] not in ("num", "name"):
                    raise ValueError("'*' must stand between two factors")
                saw_factor = False
                continue
            else:
                break
            saw_factor = True
        if not saw_factor:
            raise ValueError("empty term in polynomial text")
        result = result + ring.monomial(exps, coeff)
    return result


def recursive_monomial_basis(degree: int, weights) -> tuple:
    """The exponent tuples of the given weighted degree, lexicographically
    descending, by a recursion over the weights that rebuilds every suffix."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    weights = tuple(weights)
    if not weights:
        return ((),) if degree == 0 else ()
    found = []
    _append_completions(found, weights, 0, degree, ())
    return tuple(found)


def _append_completions(found, weights, i, remaining, prefix):
    # largest exponent first; the last exponent is solved, not searched
    w = weights[i]
    if i == len(weights) - 1:
        if remaining % w == 0:
            found.append(prefix + (remaining // w,))
        return
    for k in range(remaining // w, -1, -1):
        _append_completions(found, weights, i + 1, remaining - k * w, prefix + (k,))


def local_elimination_from(a: IntMatrix, p: int, rank: int, exponent: int):
    """E and A's elimination modulo p^E, E = ``exponent`` doubled until
    ``rank`` pivots are found: ``intlinalg._local_elimination`` from any start."""
    rows = a.sparse_rows()
    while len((found := intlinalg._eliminate_mod_prime_power(rows, p, exponent, rank))[0]) < rank:
        exponent *= 2
    return exponent, found


def dense_eliminate_mod_prime_power(a: IntMatrix, p: int, exponent: int, rank: int):
    """``intlinalg._eliminate_mod_prime_power`` on the dense rows of A: each
    pivot scans every lower row, and deletes its column from each of them.
    Returns the same (valuations, rows, cols, steps)."""
    q = p ** exponent
    m = a.rows
    h = [[x % q for x in row] for row in a.entries]
    order = list(range(m))
    columns = list(range(a.cols))
    valuations, pivot_cols, steps = [], [], []
    # the rows of h keep only the columns not yet pivoted; low[i] bounds row
    # i's least valuation from below
    low = [0] * m
    level = 0
    r = 0
    while r < rank and level < exponent:
        above = p ** (level + 1)
        for i in range(r, m):
            if low[i] > level:
                continue
            j = next((t for t, x in enumerate(h[i]) if x % above), None)
            if j is not None:
                break
            low[i] = level + 1
        else:
            level += 1
            continue
        low[r], low[i] = low[i], low[r]
        h[r], h[i] = h[i], h[r]
        order[r], order[i] = order[i], order[r]
        pivot_row = h[r]
        scale = p ** level
        inverse = pow(pivot_row[j] // scale, -1, q)
        rows, factors = [], []
        for k in range(r + 1, m):
            row = h[k]
            if row[j]:
                c = row[j] // scale * inverse % q
                h[k] = row = [(x - c * y) % q for x, y in zip(row, pivot_row)]
                rows.append(k)
                factors.append(c)
            del row[j]
        valuations.append(level)
        pivot_cols.append(columns.pop(j))
        steps.append((i, rows, factors))
        r += 1
    return tuple(valuations), order[:r], pivot_cols, tuple(steps)


def k4_three_adic_factors_by_elimination(max_degree: int) -> list:
    """For each degree d <= max_degree, the 3-parts of the invariant factors
    of B_d's sigma-coordinate stack, in divisibility order, by elimination.

    By 64*a4 = a2^2 - 3u and 4096*a6 = 16*a2^3 + 144*a2*u + 1728*a3^2, the
    standard monomials with a2, a3, a4, a6 replaced by a2, a3, 64*a4 and
    4096*a6 are the rows of a square M_d over the monomials in a2, a3 and u.
    Its pivot valuations over Z/3^E give the factors 3^v; E starts at 8 and
    each degree starts at the last degree's E, as the factors grow with d.
    """
    ring = Ring(("a2", "a3", "u"), (2, 3, 4))
    x2, x3, xu = (ring.var(v) for v in ring.variables)
    powers = [[f ** k for k in range(max_degree // w + 1)] for f, w in zip(
        (x2, x3, x2 ** 2 - 3 * xu, 16 * x2 ** 3 + 144 * x2 * xu + 1728 * x3 ** 2),
        (2, 3, 4, 6))]
    out, exponent = [], 8
    for d in range(max_degree + 1):
        local = monomial_basis(d, ring.weights)
        rows = [math.prod((p[x] for p, x in zip(powers, e)), start=ring.one())
                for e in standard_exponents(d)]
        m = IntMatrix([[r.coefficient(t) for t in local] for r in rows], len(local))
        exponent, (valuations, _, _, _) = local_elimination_from(m, 3, m.rows, exponent)
        out.append(tuple(3 ** v for v in valuations))
    return out
