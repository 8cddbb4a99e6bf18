"""Steenrod squares on presented GF(2) algebras: one generator rule, Adem and
Cartan.

An action is given by a rule on generators, rule(i, name), which returns the
normal form of Sq^i of that generator or None where it gives no value.  Free
rings of Stiefel-Whitney or mod-2 Chern classes carry a complete rule from the
Wu formulas (with generalized binomial coefficients, so instability falls out
of class truncation automatically); presented rings carry a finite table of
squares, read by ``table_rule``.

Instability is applied before the rule: Sq^0 g = g, Sq^|g| g = g^2 and
Sq^i g = 0 for i > |g|.  Any other square the rule leaves open, Sq^i with
i = 2^k + m and 0 < m < 2^k, is derived from the Adem relation for
Sq^m Sq^(2^k), whose c = 0 coefficient binom(2^k - 1, m) is odd:

    Sq^i = Sq^m Sq^(2^k) + sum_(c >= 1) binom(2^k - c - 1, m - 2c) Sq^(i-c) Sq^c.

Every index on the right applied to a generator is below i, so the recursion
ends.  A missing Sq^(2^k) raises UnderdeterminedSquare rather than guessing.

The Cartan formula is applied to the terms of an element as given, so Sq^i of
an unreduced defining relation is a real check of the table, not Sq^i of zero.
"""

from __future__ import annotations

import math

from .. import gf2
from .algebra import Poly, PresentedAlgebra, poly_mul


class UnderdeterminedSquare(ValueError):
    """A requested square is not derivable from the generator rule."""


def binom_general(m: int, b: int) -> int:
    """Binomial coefficient with arbitrary integer upper argument."""
    if b < 0:
        return 0
    num = 1
    for t in range(b):
        num *= m - t
    den = 1
    for t in range(1, b + 1):
        den *= t
    return num // den


class SteenrodAction:
    """Squares on a presented algebra from a generator rule, extended to every
    index by Adem and to every element by Cartan."""

    def __init__(self, algebra: PresentedAlgebra, rule):
        self.algebra = algebra
        self.rule = rule
        self._gen_cache = {}
        self._mono_cache = {}

    # -- squares on generators ----------------------------------------------
    def sq_gen(self, i: int, gidx: int) -> Poly:
        g = self.algebra.gen(self.algebra.gen_names[gidx])
        if i == 0:
            return g
        deg = self.algebra.gen_degrees[gidx]
        if i > deg:
            return frozenset()
        if i == deg:
            return self.algebra.mul(g, g)
        key = (i, gidx)
        if key in self._gen_cache:
            return self._gen_cache[key]
        value = self.rule(i, self.algebra.gen_names[gidx])
        if value is None:
            top = 1 << (i.bit_length() - 1)
            m = i - top
            if not m:
                raise UnderdeterminedSquare(
                    f"Sq^{i} on {self.algebra.gen_names[gidx]} is not given by the rule"
                )
            # the Adem relation for Sq^m Sq^top, solved for its c = 0 term Sq^i
            value = self.sq(m, self.sq_gen(top, gidx))
            for c in range(1, m // 2 + 1):
                if math.comb(top - c - 1, m - 2 * c) % 2:
                    value = value ^ self.sq(i - c, self.sq_gen(c, gidx))
        self._gen_cache[key] = value
        return value

    # -- Cartan extension ----------------------------------------------------
    def sq(self, i: int, p: Poly) -> Poly:
        """Sq^i(p) by Cartan on the terms of p as given, not reduced first: a
        normal form for i > 0 (each term's square is one), p itself for i = 0."""
        if i < 0:
            raise ValueError("negative square index")
        out = frozenset()
        for m in p:
            out = out ^ self._sq_monomial(i, m)
        return out

    def _sq_monomial(self, i: int, m) -> Poly:
        if i == 0:
            return frozenset({m})
        key = (i, m)
        if key in self._mono_cache:
            return self._mono_cache[key]
        gidx = next((g for g, e in enumerate(m) if e), None)
        if gidx is None:
            value = frozenset()  # Sq^i(1) = 0 for i > 0
        else:
            rest = list(m)
            rest[gidx] -= 1
            rest = tuple(rest)
            acc = set()
            for j in range(0, min(i, self.algebra.gen_degrees[gidx]) + 1):
                cof = self._sq_monomial(i - j, rest)
                if not cof:
                    continue
                a = self.sq_gen(j, gidx)
                if a:
                    acc ^= poly_mul(a, cof)
            value = self.algebra.normal_form(frozenset(acc))
        self._mono_cache[key] = value
        return value


def table_rule(algebra: PresentedAlgebra, table: dict):
    """Generator rule from a finite table {generator name: {i: value text}}.

    Each value is parsed, checked to have degree |g| + i, and normalized once;
    squares that instability fixes (i <= 0 or i >= |g|) are refused, and
    unlisted squares are None.
    """
    values = {}
    for gname, entries in table.items():
        if gname not in algebra.gen_names:
            raise ValueError(f"{gname} is not a generator of {algebra.name}")
        deg = algebra.gen_degrees[algebra.gen_names.index(gname)]
        for i, text in entries.items():
            if not 0 < i < deg:
                raise ValueError(f"Sq^{i}({gname}) is fixed by instability, not by a table")
            value = algebra.parse(text)
            if value and algebra.poly_degree(value) != deg + i:
                raise ValueError(f"Sq^{i}({gname}) = {text} is not of degree {deg + i}")
            values[i, gname] = algebra.normal_form(value)
    return lambda i, gname: values.get((i, gname))


# -- Wu formulas ---------------------------------------------------------------

def _wu_rule(algebra: PresentedAlgebra, class_index: dict, step: int):
    """Wu formula for classes c_k of degree step * k: Sq^(step * i)(c_k) is the
    sum of binom(k - j - 1, i - j) c_(k+i-j) c_j, and Sq^m vanishes for m not
    a multiple of step."""
    by_index = {k: name for name, k in class_index.items()}

    def class_poly(k: int) -> Poly:
        if k == 0:
            return algebra.one()
        if k in by_index:
            return algebra.gen(by_index[k])
        return frozenset()  # unlisted classes: w_1, and those above the top index

    def rule(index: int, gname: str) -> Poly:
        if index % step:
            return frozenset()
        i = index // step
        k = class_index[gname]
        out = frozenset()
        for j in range(0, i + 1):
            if binom_general(k - j - 1, i - j) % 2:
                out = out ^ algebra.mul(class_poly(k + i - j), class_poly(j))
        return out

    return rule


def stiefel_whitney_rule(algebra: PresentedAlgebra, class_index: dict):
    """Complete generator rule for a ring of Stiefel-Whitney classes.

    ``class_index`` maps generator name -> k for w_k; w_0 = 1, w_1 = 0 and
    classes above the top listed index vanish.
    """
    return _wu_rule(algebra, class_index, 1)


def chern_rule(algebra: PresentedAlgebra, class_index: dict):
    """Complete generator rule for mod-2 Chern classes; odd squares vanish
    because the ring is concentrated in even degrees."""
    return _wu_rule(algebra, class_index, 2)


# -- candidate solving ---------------------------------------------------------

def _solutions(algebra: PresentedAlgebra, vectors, target: int, d: int) -> list:
    """Every degree-d element whose coordinates choose a subset of ``vectors``
    that XORs to ``target``."""
    solved = gf2.solve_affine(vectors, target)
    masks = [] if solved is None else gf2.enumerate_affine(*solved)
    return [algebra.from_mask(mask, d) for mask in masks]


def sq1_preimages(algebra: PresentedAlgebra, action: SteenrodAction, target: Poly, d: int) -> list:
    """Every degree-d element s with Sq^1(s) = target.  Sq^1 is additive, so
    they solve one affine system on the Sq^1 images of the degree's monomials."""
    images = [
        algebra.coordinates(action.sq(1, frozenset({m})), d + 1)
        for m in algebra.monomials_of_degree(d)
    ]
    return _solutions(algebra, images, algebra.coordinates(target, d + 1), d)


def solve_sq(
    source: PresentedAlgebra,
    maps,  # list of (AlgebraMap, SteenrodAction on the target)
    sq1_action: SteenrodAction,
    gen_name: str,
    i: int,
):
    """All degree-(deg g + i) elements s with F(s) = Sq^i(F(g)) for every
    listed map F, filtered by the forced Sq^1 compatibilities.

    Filters applied: for i = 1 the candidate must satisfy Sq^1(s) = 0
    (Sq^1 Sq^1 = 0); for even i with deg g = i + 1 it must satisfy
    Sq^1(s) = g^2 (the top-square constraint Sq^1 Sq^i = Sq^(i+1)).
    """
    g = source.gen(gen_name)
    gdeg = source.gen_degrees[source.gen_names.index(gen_name)]
    d = gdeg + i
    basis = source.monomials_of_degree(d)
    # stack the coordinate blocks of the listed maps into single bitmask vectors
    stacked = [0] * len(basis)
    target = 0
    offset = 0
    for fmap, taction in maps:
        tgt = fmap.target
        target |= tgt.coordinates(taction.sq(i, fmap.apply(g)), d) << offset
        for bi, m in enumerate(basis):
            stacked[bi] |= tgt.coordinates(fmap.apply(frozenset({m})), d) << offset
        offset += len(tgt.monomials_of_degree(d))
    candidates = _solutions(source, stacked, target, d)
    # forced Sq^1 compatibility filters
    if i == 1:
        candidates = [s for s in candidates if not sq1_action.sq(1, s)]
    elif i % 2 == 0 and gdeg == i + 1:
        square = source.mul(g, g)
        candidates = [s for s in candidates if sq1_action.sq(1, s) == square]
    candidates.sort(key=lambda s: sorted(s, key=source.order_key), reverse=False)
    return candidates
