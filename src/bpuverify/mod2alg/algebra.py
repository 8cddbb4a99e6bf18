"""Finitely presented graded-commutative GF(2) algebras with Groebner normal forms.

Char-2 graded-commutative means plain commutative, so elements are sets of
monomials (frozensets of exponent tuples) and addition is symmetric
difference.  Each algebra caches a reduced Groebner basis at construction,
certified confluent by reducing every S-polynomial to zero; equality of
normal forms is then a decision procedure for equality in the quotient.

Monomial order: graded-lex on the generator listing order (first listed is
compared first).  Presentations and map tables are loadable from a plain
text format (``gen name deg`` / ``rel <poly>`` / ``map src -> tgt: g = poly``
lines) so the standard ring corpus ships as data.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .. import gf2
from ..poly import Polynomial, Ring, monomial_basis, parse_polynomial

Monomial = tuple
Poly = frozenset  # of Monomial

ZERO: Poly = frozenset()


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(operator.add, m1, m2))


def poly_mul(a: Poly, b: Poly) -> Poly:
    out = set()
    for m1 in a:
        for m2 in b:
            out ^= {mono_mul(m1, m2)}
    return frozenset(out)


def mono_divides(d: Monomial, m: Monomial) -> bool:
    return all(map(operator.le, d, m))


def mono_quotient(m: Monomial, d: Monomial) -> Monomial:
    return tuple(map(operator.sub, m, d))


def s_polynomial(li: Monomial, fi: Poly, lj: Monomial, fj: Poly) -> Poly:
    """S-polynomial of fi and fj, whose leading monomials are li and lj."""
    lcm = tuple(map(max, li, lj))
    left = poly_mul(frozenset({mono_quotient(lcm, li)}), fi)
    return left ^ poly_mul(frozenset({mono_quotient(lcm, lj)}), fj)


class MapNotWellDefined(ValueError):
    """A generator-image table does not kill every source relation."""


class PresentedAlgebra:
    """Graded-commutative GF(2) algebra from weighted generators and relations."""

    def __init__(self, name: str, generators: list, relations: list | tuple = ()):
        self.name = name
        gens = list(generators)
        self.gen_names = tuple(g for g, _ in gens)
        self.gen_degrees = tuple(int(d) for _, d in gens)
        if len(set(self.gen_names)) != len(self.gen_names):
            raise ValueError("duplicate generator names")
        if any(d <= 0 for d in self.gen_degrees):
            raise ValueError("generator degrees must be positive")
        self._parse_ring = Ring(self.gen_names, self.gen_degrees, 2)
        rels = []
        for r in relations:
            p = self.parse(r) if isinstance(r, str) else frozenset(r)
            if not p:
                continue
            if len({self.degree(m) for m in p}) != 1:
                raise ValueError(f"inhomogeneous relation {self.format(p)}")
            rels.append(p)
        self.relations = tuple(rels)
        self.groebner = self._buchberger(self.relations)
        self.leads = [lead for lead, _ in self.groebner]
        for r in self.relations:
            if self.normal_form(r):
                raise ArithmeticError("a defining relation does not reduce to zero")
        self._graded_cache = {}
        self._basis_indexes = {}

    # -- monomial order ----------------------------------------------------
    def degree(self, m: Monomial) -> int:
        return sum(e * d for e, d in zip(m, self.gen_degrees))

    def order_key(self, m: Monomial):
        return (self.degree(m), m)

    def leading_monomial(self, p: Poly) -> Monomial:
        return max(p, key=self.order_key)

    def poly_degree(self, p: Poly):
        """Weighted degree of a homogeneous element; None for zero."""
        if not p:
            return None
        degs = {self.degree(m) for m in p}
        if len(degs) != 1:
            raise ValueError("inhomogeneous element")
        return degs.pop()

    # -- element construction / io -----------------------------------------
    def parse(self, text: str) -> Poly:
        p = parse_polynomial(text, self._parse_ring)
        return frozenset(p.terms.keys())

    def gen(self, name: str) -> Poly:
        if name not in self.gen_names:
            raise KeyError(f"unknown variable {name!r}")
        return frozenset({tuple(int(g == name) for g in self.gen_names)})

    def one(self) -> Poly:
        return frozenset({(0,) * len(self.gen_names)})

    def monomial(self, exponents) -> Poly:
        m = tuple(exponents)
        if len(m) != len(self.gen_names):
            raise ValueError(f"{len(m)} exponents for {len(self.gen_names)} generators")
        return frozenset({m})

    def format(self, p: Poly) -> str:
        return str(Polynomial(self._parse_ring, dict.fromkeys(p, 1)))

    # -- reduction -----------------------------------------------------------
    def _reduce(self, p: Poly, basis) -> Poly:
        """Full normal form of p against (lead, poly) pairs: the XOR of the
        normal forms of its monomials, each found once per call."""
        memo = {}
        out = ZERO
        for m in p:
            out ^= self._monomial_nf(m, basis, memo)
        return out

    def _monomial_nf(self, m: Monomial, basis, memo: dict) -> Poly:
        """A monomial no lead divides is in normal form; any other has the
        normal form of cof*(g - lead) for the first lead dividing it."""
        if m not in memo:
            out = frozenset({m})
            for lead, g in basis:
                if mono_divides(lead, m):
                    cof = mono_quotient(m, lead)
                    out = ZERO
                    for gm in g:
                        if gm != lead:
                            out ^= self._monomial_nf(mono_mul(cof, gm), basis, memo)
                    break
            memo[m] = out
        return memo[m]

    def _buchberger(self, relations) -> tuple:
        basis = []
        for r in relations:
            if r:
                basis.append((self.leading_monomial(r), r))
        pairs = list(itertools.combinations(range(len(basis)), 2))
        while pairs:
            i, j = pairs.pop()
            li, fi = basis[i]
            lj, fj = basis[j]
            if all(a == 0 or b == 0 for a, b in zip(li, lj)):
                continue  # coprime leading monomials: S-pair reduces to zero
            s = self._reduce(s_polynomial(li, fi, lj, fj), basis)
            if s:
                basis.append((self.leading_monomial(s), s))
                pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
        # the unique reduced basis: keep each element whose lead no other lead
        # divides (the first of equal leads), then reduce its tail by the rest
        minimal = [
            (l, g) for i, (l, g) in enumerate(basis)
            if not any(mono_divides(k, l) and (k != l or j < i)
                       for j, (k, _) in enumerate(basis) if j != i)
        ]
        basis = sorted(
            ((l, self._reduce(g, [b for b in minimal if b[0] != l])) for l, g in minimal),
            key=lambda t: self.order_key(t[0]),
        )
        # confluence certificate: every S-polynomial of the final basis -> 0
        for (li, fi), (lj, fj) in itertools.combinations(basis, 2):
            if self._reduce(s_polynomial(li, fi, lj, fj), basis):
                raise ArithmeticError("Groebner basis failed the confluence check")
        return tuple(basis)

    def normal_form(self, p: Poly) -> Poly:
        return self._reduce(frozenset(p), self.groebner)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return self.normal_form(poly_mul(a, b))

    def power(self, a: Poly, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative power")
        out = self.one()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def is_normal(self, m: Monomial) -> bool:
        """Whether the monomial m is a normal form: no Groebner lead divides it."""
        return not any(mono_divides(lead, m) for lead in self.leads)

    # -- graded pieces -------------------------------------------------------
    def monomials_of_degree(self, d: int) -> tuple:
        """Normal-form monomials of weighted degree d, order-descending: the
        exponent tuples of ``monomial_basis`` no Groebner lead divides, as a
        Groebner basis's normal forms are its standard monomials.  Within one
        degree ``monomial_basis`` is lexicographically descending, which is
        the monomial order's descending listing.  Cached per degree; a
        negative d raises ValueError."""
        if d not in self._graded_cache:
            basis = monomial_basis(d, self.gen_degrees)
            self._graded_cache[d] = tuple(filter(self.is_normal, basis))
        return self._graded_cache[d]

    def basis_index(self, d: int) -> dict:
        """{monomial: bit} over monomials_of_degree(d), built on the first call
        for that degree; the cached dict itself, which callers only read."""
        if d not in self._basis_indexes:
            self._basis_indexes[d] = {m: i for i, m in enumerate(self.monomials_of_degree(d))}
        return self._basis_indexes[d]

    def coordinates(self, p: Poly, d: int) -> int:
        """Bitmask over monomials_of_degree(d) of an element already in normal form.

        Raises ValueError on any monomial outside the degree-d normal-form
        basis, so a reducible or wrong-degree monomial fails loudly.
        """
        index = self.basis_index(d)
        mask = 0
        for m in p:
            if m not in index:
                raise ValueError(
                    f"not a degree-{d} normal-form element: {self.format(p)}"
                )
            mask |= 1 << index[m]
        return mask

    def from_mask(self, mask: int, d: int) -> Poly:
        monos = self.monomials_of_degree(d)
        return frozenset(monos[i] for i in range(mask.bit_length()) if mask >> i & 1)

    def first_nonmember(self, elements, generators):
        """The index of the first of ``elements`` outside the subalgebra that
        ``generators`` generate, or None.  An element of degree d lies there
        when its normal form is in the span of the products of generator
        powers of degree d, one per exponent tuple of ``monomial_basis`` in
        the generator degrees: one GF(2) solve.  Zero and a generator pass at
        once.  Raises ValueError on a generator that is zero, inhomogeneous
        or of degree 0, naming its index, and on an inhomogeneous element."""
        gens = [self.normal_form(g) for g in generators]
        degrees = [{self.degree(m) for m in g} for g in gens]
        for i, found in enumerate(degrees):
            if len(found) != 1 or found == {0}:
                raise ValueError(f"generator {i} " + ("is zero" if not found else
                                 "has degree 0" if found == {0} else "is inhomogeneous"))
        degrees = [found.pop() for found in degrees]
        for i, p in enumerate(map(self.normal_form, elements)):
            if p and p not in gens:
                d = self.poly_degree(p)
                columns = [self.coordinates(functools.reduce(self.mul, (
                    self.power(g, k) for g, k in zip(gens, e) if k), self.one()), d)
                    for e in monomial_basis(d, degrees)]
                if gf2.solve_affine(columns, self.coordinates(p, d)) is None:
                    return i
        return None

    def with_relations(self, extra, name: str | None = None) -> "PresentedAlgebra":
        """Quotient by additional homogeneous relations (e.g. truncations)."""
        return PresentedAlgebra(
            name or f"{self.name}-quotient",
            list(zip(self.gen_names, self.gen_degrees)),
            list(self.relations) + list(extra),
        )


class AlgebraMap:
    """Degree-preserving algebra map given by generator images.

    Construction verifies the well-definedness certificate: every source
    relation must map to zero in the target.
    """

    def __init__(self, name, source: PresentedAlgebra, target: PresentedAlgebra, images):
        self.name = name
        self.source = source
        self.target = target
        imgs = {}
        for gname, value in images.items():
            if gname not in source.gen_names:
                raise MapNotWellDefined(f"{name}: {gname} is not a generator of {source.name}")
            p = target.parse(value) if isinstance(value, str) else frozenset(value)
            p = target.normal_form(p)
            gdeg = source.gen_degrees[source.gen_names.index(gname)]
            pdeg = target.poly_degree(p)
            if pdeg is not None and pdeg != gdeg:
                raise MapNotWellDefined(
                    f"{name}: image of {gname} has degree {pdeg}, expected {gdeg}"
                )
            imgs[gname] = p
        missing = set(source.gen_names) - set(imgs)
        if missing:
            raise MapNotWellDefined(f"{name}: no image for generators {sorted(missing)}")
        self.images = imgs
        # _powers[gidx][j] is the image of generator gidx to the power j + 1
        self._powers = [[imgs[g]] for g in source.gen_names]
        for r in source.relations:
            value = self.apply(r)
            if value:
                raise MapNotWellDefined(
                    f"{name}: relation {source.format(r)} maps to {target.format(value)}"
                )

    def _gen_power(self, gidx: int, k: int) -> Poly:
        """The image of generator gidx to the power k >= 1; each power not yet
        cached is one product of the power below it and the image."""
        powers = self._powers[gidx]
        while len(powers) < k:
            powers.append(self.target.mul(powers[-1], powers[0]))
        return powers[k - 1]

    def apply(self, p: Poly) -> Poly:
        """The image of p: the XOR over its monomials of the product of their
        generators' image powers.  Each product comes from ``mul``, so it is a
        normal form, and so is the XOR; no reduction follows."""
        out = ZERO
        for m in p:
            powers = [self._gen_power(gidx, e) for gidx, e in enumerate(m) if e]
            out ^= functools.reduce(self.target.mul, powers) if powers else self.target.one()
        return out


# -- plain-text corpus loader -------------------------------------------------

def load_algebra(text: str, name: str) -> PresentedAlgebra:
    """Parse ``gen <name> <deg>`` and ``rel <polynomial>`` lines.

    The listing order of the generators fixes the monomial order (first is highest).
    """
    gens, rels = [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "gen" and len(words) == 3 and words[2].isdecimal():
            gens.append((words[1], int(words[2])))
        elif line.startswith("rel "):
            rels.append(line[4:].strip())
        else:
            raise ValueError(f"bad presentation line: {raw!r}")
    return PresentedAlgebra(name, gens, rels)


def load_map_tables(text: str) -> dict:
    """Parse ``map src -> tgt: gen = poly`` lines into nested dicts."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, colon, assign = line[4:].partition(":")
        ends, sides = head.split("->"), assign.split("=", 1)
        if not line.startswith("map ") or not colon or len(ends) != 2 or len(sides) != 2:
            raise ValueError(f"bad map line: {raw!r}")
        src, tgt, gname, value = (part.strip() for part in ends + sides)
        out.setdefault((src, tgt), {})[gname] = value
    return out
