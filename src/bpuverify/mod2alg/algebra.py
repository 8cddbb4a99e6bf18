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
        e = [0] * len(self.gen_names)
        e[self.gen_names.index(name)] = 1
        return frozenset({tuple(e)})

    def one(self) -> Poly:
        return frozenset({(0,) * len(self.gen_names)})

    def monomial(self, exponents) -> Poly:
        return frozenset({tuple(exponents)})

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

    # -- graded pieces -------------------------------------------------------
    def monomials_of_degree(self, d: int) -> tuple:
        """Normal-form monomials of weighted degree d, order-descending: the
        exponent tuples of ``monomial_basis`` no Groebner lead divides, as a
        Groebner basis's normal forms are its standard monomials.  Within one
        degree ``monomial_basis`` is lexicographically descending, which is
        the monomial order's descending listing.  Cached per degree; a
        negative d raises ValueError."""
        if d not in self._graded_cache:
            leads = [lead for lead, _ in self.groebner]
            self._graded_cache[d] = tuple([
                m for m in monomial_basis(d, self.gen_degrees)
                if not any(mono_divides(lead, m) for lead in leads)
            ])
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

    def subalgebra_ranks(self, generators, max_degree: int) -> list:
        """(rank, count) for each degree 0..max_degree: the GF(2) rank of the
        span of the monomials in the generators h_0, h_1, ... of that degree,
        and how many there are.  The rank is the dimension of the generated
        subalgebra in that degree; rank < count marks a linear dependence.

        A generator monomial of degree d whose last generator is h_i is one of
        degree d - deg h_i whose last generator is at most i, times h_i.  So
        its coordinate mask is the XOR, over the set bits k of the lower mask,
        of the column of m_k * h_i: the XOR over the terms t of h_i of the
        masks of nf(m_k * t).  Each degree numbers its normal-form monomials
        as they first appear, not as ``monomials_of_degree`` lists them, and
        keeps one product -> mask dict and one ``_monomial_nf`` memo, dropped
        with that degree; a new monomial of the wrong degree or divisible by
        a Groebner lead raises ValueError.  Masks and each degree's monomial
        list are kept for the last max(deg h) degrees.

        Raises ValueError on a generator that is zero, inhomogeneous or of
        degree 0, naming its index.
        """
        gens = [self.normal_form(g) for g in generators]
        degrees = []
        for i, g in enumerate(gens):
            if not g:
                raise ValueError(f"generator {i} is zero")
            try:
                degree = self.poly_degree(g)
            except ValueError:
                raise ValueError(f"generator {i} is inhomogeneous") from None
            if degree == 0:
                raise ValueError(f"generator {i} has degree 0")
            degrees.append(degree)
        depth = max(degrees, default=0)
        # by_last[d] = (monos, lists): monos[k] is the monomial of bit k, and
        # lists[i + 1] holds the masks of the degree-d generator monomials whose
        # last generator is h_i; lists[0] is the empty monomial's in degree 0
        by_last = {}
        out = []
        for d in range(max_degree + 1):
            index, products, memo = {}, {}, {}

            def mask_of(p):
                mask = 0
                for m in p:
                    if m not in index:
                        degree = sum(map(operator.mul, m, self.gen_degrees))
                        if degree != d or any(mono_divides(g, m) for g, _ in self.groebner):
                            raise ValueError(
                                f"not a degree-{d} normal-form element: {self.format(p)}"
                            )
                        index[m] = len(index)
                    mask |= 1 << index[m]
                return mask

            if d == 0:
                lists = [[mask_of(self.one())]] + [[] for _ in gens]
            else:
                lists = [[]]
                for i, (h, w) in enumerate(zip(gens, degrees)):
                    masks = []
                    if d - w in by_last:
                        lower_monos, lower = by_last[d - w]
                        columns = {}
                        for v in itertools.chain.from_iterable(lower[: i + 2]):
                            mask = 0
                            while v:
                                k = (v & -v).bit_length() - 1
                                if k not in columns:
                                    columns[k] = 0
                                    for t in h:
                                        prod = mono_mul(lower_monos[k], t)
                                        if prod not in products:
                                            nf = self._monomial_nf(prod, self.groebner, memo)
                                            products[prod] = mask_of(nf)
                                        columns[k] ^= products[prod]
                                mask ^= columns[k]
                                v ^= 1 << k
                            masks.append(mask)
                    lists.append(masks)
            by_last[d] = list(index), lists
            by_last.pop(d - depth, None)
            vectors = list(itertools.chain.from_iterable(lists))
            out.append((gf2.rank(vectors), len(vectors)))
        return out

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
