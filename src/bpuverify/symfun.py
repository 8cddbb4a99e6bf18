"""Symmetric polynomials, the divergence operator, and its kernel lattices.

Conventions: the v-ring carries n variables of degree 1 and the sigma-ring
carries s1..sn with deg(s_k) = k, so a sigma-monomial's weighted degree is
its polynomial degree after expansion into the v's.  (Topological degrees
are twice these and appear only in report labels.)

The divergence operator is the sum of all partial d/dv_i.  On symmetric
polynomials, written in elementary-symmetric coordinates, it acts as the
derivation sending s_k to (n - k + 1) * s_{k-1}; both routes are implemented
and cross-checked in the test suite.

Kernel bases are lattice bases obtained from Smith normal form, so Z-span
equality checks are exact; nothing is done over the rationals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .intlinalg import (
    IntMatrix,
    element_order_in_cokernel,
    integer_kernel,
    smith_normal_form,
    solve_integer,
    _is_prime,
)
from .poly import Polynomial, Ring, monomial_basis
from .report import VerificationReport
from .series import geometric_product, weighted_monomial_count


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
        self._elementary_cache = {}
        self._expand_cache = {}

    # -- basic generators -------------------------------------------------
    def elementary(self, k: int) -> Polynomial:
        """The k-th elementary symmetric polynomial in the v-variables."""
        if not 0 <= k <= self.n:
            raise ValueError(f"elementary index {k} out of range 0..{self.n}")
        if k not in self._elementary_cache:
            terms = {}
            for combo in itertools.combinations(range(self.n), k):
                e = [0] * self.n
                for i in combo:
                    e[i] = 1
                terms[tuple(e)] = 1
            self._elementary_cache[k] = Polynomial(self.v_ring, terms)
        return self._elementary_cache[k]

    def sigma(self, k: int) -> Polynomial:
        return self.sigma_ring.var(f"s{k}")

    def sigma_basis(self, degree: int):
        return self.sigma_ring.basis(degree)

    # -- conversions -------------------------------------------------------
    def expand(self, f: Polynomial) -> Polynomial:
        """Expand a sigma-polynomial into the v-variables."""
        if f.ring == self.v_ring:
            return f
        if f.ring != self.sigma_ring:
            raise ValueError("polynomial does not live in this context")
        out = self.v_ring.zero()
        for e, c in f.terms.items():
            out = out + c * self._expand_monomial(e)
        return out

    def _expand_monomial(self, e) -> Polynomial:
        if e not in self._expand_cache:
            prod = self.v_ring.one()
            for k, power in enumerate(e, start=1):
                if power:
                    prod = prod * self.elementary(k) ** power
            self._expand_cache[e] = prod
        return self._expand_cache[e]

    def to_sigma(self, f: Polynomial) -> Polynomial:
        """Write a symmetric v-polynomial in elementary-symmetric coordinates.

        Classical leading-term subtraction; raises ValueError if the input is
        not symmetric.
        """
        if f.ring != self.v_ring:
            raise ValueError("expected a v-ring polynomial")
        rem = f
        out = self.sigma_ring.zero()
        while not rem.is_zero():
            e, c = max(rem.terms.items(), key=lambda t: t[0])
            if any(e[i] < e[i + 1] for i in range(self.n - 1)):
                raise ValueError("polynomial is not symmetric")
            lam = tuple(
                e[i] - (e[i + 1] if i + 1 < self.n else 0) for i in range(self.n)
            )
            out = out + self.sigma_ring.monomial(lam, c)
            rem = rem - c * self._expand_monomial(lam)
        return out

    def is_symmetric(self, f: Polynomial) -> bool:
        for i in range(self.n - 1):
            swapped = {}
            for e, c in f.terms.items():
                s = list(e)
                s[i], s[i + 1] = s[i + 1], s[i]
                swapped[tuple(s)] = c
            if swapped != f.terms:
                return False
        return True

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
        """The same operator in sigma-coordinates: a derivation with
        s_k |-> (n - k + 1) s_{k-1} (and s_1 |-> n)."""
        if f.ring != self.sigma_ring:
            raise ValueError("expected a sigma-ring polynomial")
        out = {}
        for e, c in f.terms.items():
            for k in range(1, self.n + 1):
                power = e[k - 1]
                if not power:
                    continue
                coeff = c * power * (self.n - k + 1)
                new = list(e)
                new[k - 1] -= 1
                if k >= 2:
                    new[k - 2] += 1
                key = tuple(new)
                out[key] = out.get(key, 0) + coeff
        return Polynomial(self.sigma_ring, out)


def coordinates(ctx: SymmetricContext, f: Polynomial, degree: int) -> tuple:
    """Coefficient vector of a homogeneous sigma-polynomial in the graded basis."""
    basis = ctx.sigma_basis(degree)
    deg = f.homogeneous_degree()
    if deg is not None and deg != degree:
        raise ValueError(f"polynomial has degree {deg}, expected {degree}")
    return tuple(f.coefficient(m) for m in basis.monomials)


def nabla_matrix(ctx: SymmetricContext, degree: int) -> IntMatrix:
    """Matrix of the divergence from degree d to degree d-1 sigma-bases."""
    if degree < 1:
        raise ValueError("matrix defined for degree >= 1")
    src = ctx.sigma_basis(degree)
    tgt = ctx.sigma_basis(degree - 1)
    cols = []
    for mono in src.monomials:
        image = ctx.nabla_sigma(ctx.sigma_ring.monomial(mono))
        cols.append([image.coefficient(t) for t in tgt.monomials])
    return IntMatrix([[cols[j][i] for j in range(len(src))] for i in range(len(tgt))])


def kernel_basis(ctx: SymmetricContext, degree: int) -> list:
    """Lattice basis of the full (saturated) degree-d kernel of the divergence,
    in sigma-coordinates."""
    if degree == 0:
        return [ctx.sigma_ring.one()]
    basis = ctx.sigma_basis(degree)
    return [
        Polynomial(ctx.sigma_ring, {m: c for m, c in zip(basis.monomials, vec) if c})
        for vec in integer_kernel(nabla_matrix(ctx, degree))
    ]


# -- the divergence-free generators for n = 4 --------------------------------


@dataclass(frozen=True)
class AlphaGenerators:
    """The four divergence-free generators of the n = 4 kernel ring."""

    a2: Polynomial
    a3: Polynomial
    a4: Polynomial
    a6: Polynomial

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


def certify_k4_presentation(max_degree: int = 16) -> VerificationReport:
    """Degreewise certification that the four generators present the kernel.

    For every degree d <= max_degree: (a) the kernel lattice rank matches the
    coefficient of t^d in 1/((1-t^2)(1-t^3)(1-t^4)); (b) the Z-lattice spanned
    by generator monomials equals the kernel lattice (all invariant factors of
    the coordinate stack are 1); (c) the single degree-6 relation holds
    exactly; (d) monomial counts minus relation multiples match the series.
    """
    if max_degree < 2:
        raise ValueError("max degree must be at least 2")
    report = VerificationReport("k4")
    ctx = SymmetricContext(4)
    al = alpha_generators(ctx)

    for name, gen in al.as_dict().items():
        img = ctx.nabla_sigma(gen)
        report.add(
            f"divergence/{name}",
            img.is_zero(),
            f"divergence({name}) = {img}",
        )
    relation = 64 * al.a6 - al.a2 ** 3 - 27 * al.a3 ** 2 + 48 * al.a2 * al.a4
    report.add(
        "relation",
        relation.is_zero(),
        "64*a6 - a2^3 - 27*a3^2 + 48*a2*a4 == 0"
        if relation.is_zero()
        else f"relation residue {relation}",
    )

    series = geometric_product((2, 3, 4), max_degree)
    power_cache = {}

    def mono_poly(expo):
        if expo not in power_cache:
            power_cache[expo] = alpha_monomial(al, expo)
        return power_cache[expo]

    lattice_failures = []
    for d in range(max_degree + 1):
        expos = monomial_basis(d, 4, (2, 3, 4, 6)).monomials
        ok_lattice = True
        detail_lattice = ""
        if d == 0:
            rankk = 1
            coords_rows = [(1,)]
        else:
            kern = integer_kernel(nabla_matrix(ctx, d))
            rankk = len(kern)
            columns = [list(v) for v in kern]
            coords_rows = []
            for expo in expos:
                vec = coordinates(ctx, mono_poly(expo), d)
                sol = solve_integer(columns, vec)
                if sol is None:
                    ok_lattice = False
                    detail_lattice = f"monomial a^{expo} outside the kernel lattice"
                    break
                coords_rows.append(sol)
        if ok_lattice and coords_rows:
            snf = smith_normal_form(IntMatrix(coords_rows))
            facs = snf.invariant_factors
            ok_lattice = snf.rank == rankk and all(
                f == 1 for f in facs[: snf.rank]
            )
            if not ok_lattice:
                detail_lattice = f"coordinate stack invariant factors {facs}"
        elif ok_lattice:
            ok_lattice = rankk == 0
        hilbert_ok = len(expos) - weighted_monomial_count(
            (2, 3, 4, 6), d - 6
        ) == series[d]
        report.add(
            f"rank/d{d:02d}",
            rankk == series[d],
            f"kernel rank {rankk} at degree {d} (ambient dim "
            f"{len(ctx.sigma_basis(d))}), series expects {series[d]}",
        )
        report.add(
            f"lattice/d{d:02d}",
            ok_lattice,
            detail_lattice or f"generator-monomial lattice equals the kernel lattice at degree {d}",
        )
        if not ok_lattice:
            lattice_failures.append(d)
        report.add(
            f"hilbert/d{d:02d}",
            hilbert_ok,
            f"monomial count minus relation multiples matches rank at degree {d}",
        )
    if lattice_failures:
        report.finding(
            "three-primary-defect",
            "the generator-monomial lattices have 3-power index in the kernel "
            f"lattices at degrees {lattice_failures}: mod 3 the degree-4 "
            "generator is congruent to sigma2^2, a unit multiple of the square "
            "of the degree-2 generator, so it stops being a polynomial "
            "generator 3-locally; the kernel element (a2^2 - 64*a4)/3 is "
            "integral but is not an integer polynomial in the four generators",
        )
    return report


def coker_order(ctx: SymmetricContext, f: Polynomial, degree: int = None):
    """Order of the class of f in (degree-d part) / divergence-image, or None
    for infinite order."""
    d = f.homogeneous_degree()
    if d is None:
        if degree is None:
            raise ValueError("cannot infer the degree of the zero polynomial")
        d = degree
    if degree is not None and degree != d:
        raise ValueError("inhomogeneous input")
    mat = nabla_matrix(ctx, d + 1)
    return element_order_in_cokernel(mat, coordinates(ctx, f, d))


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


def theta_restricted_kernel(ctx: SymmetricContext, degree: int, kern: list) -> list:
    """Basis of the sublattice of the degree-d kernel killed by the cyclic
    restriction (coefficients read mod n).

    ``kern`` is the kernel basis as coordinate vectors in the degree-d
    sigma basis, and the sublattice basis comes back the same way.
    """
    if degree == 0 or not kern:
        return []
    values = [
        theta_map(ctx, ctx.sigma_ring.monomial(m))
        for m in ctx.sigma_basis(degree).monomials
    ]
    rows = IntMatrix(kern)
    functional = [t % ctx.n for t in rows.apply(values)]
    if all(c == 0 for c in functional):
        return list(kern)
    span = rows.transpose()
    sub = integer_kernel(IntMatrix([functional + [ctx.n]]))
    return [span.apply(vec[:-1]) for vec in sub]


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


@dataclass(frozen=True)
class DeltaClass:
    """The alternating product for an odd prime, with its invariants checked."""

    p: int
    polynomial: Polynomial

    @staticmethod
    def make(p: int) -> "DeltaClass":
        if p % 2 == 0 or not _is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        ctx = SymmetricContext(p)
        delta = delta_polynomial(ctx)
        if delta.homogeneous_degree() != p * p - p:
            raise ArithmeticError("alternating product has the wrong degree")
        if not ctx.is_symmetric(delta):
            raise ArithmeticError("alternating product is not symmetric")
        return DeltaClass(p, delta)


def vistoli_delta_check(p: int = 3) -> VerificationReport:
    """Certify the behaviour of the alternating product under the divergence
    and the cyclic restriction, for an odd prime p."""
    delta = DeltaClass.make(p).polynomial
    report = VerificationReport("vistoli")
    ctx = SymmetricContext(p)
    d = p * p - p

    deg = delta.homogeneous_degree()
    report.add(
        "delta/homogeneous", deg == d, f"alternating product is homogeneous of degree {deg}"
    )
    report.add("delta/symmetric", ctx.is_symmetric(delta), "invariant under all adjacent swaps")
    grad = ctx.nabla(delta)
    report.add("delta/divergence", grad.is_zero(), f"divergence(delta) = {grad if not grad.is_zero() else 0}")

    image = theta_map(ctx, delta)
    eta = Ring(("eta",), (1,))
    shown = eta.monomial((d,), image)
    expected = eta.monomial((d,), p - 1)
    report.add(
        "delta/theta",
        image == p - 1,
        f"theta(delta) = {shown}, expected {expected} (= -eta^{d} mod {p})",
        witness=str(shown),
    )

    sig = coordinates(ctx, ctx.to_sigma(delta), d)
    kern = integer_kernel(nabla_matrix(ctx, d))
    sol = solve_integer(kern, sig)
    report.add(
        "delta/kernel-membership",
        sol is not None,
        "delta lies in the integral kernel lattice",
    )
    sub = theta_restricted_kernel(ctx, d, kern)
    in_sub = solve_integer(sub, sig) is not None
    report.add(
        "delta/outside-restricted-kernel",
        not in_sub,
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
