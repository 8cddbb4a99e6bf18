"""Sparse multivariate polynomials with exact coefficients over Z or Z/m.

A polynomial is a dict mapping exponent tuples (one entry per ring variable)
to nonzero integer coefficients.  Coefficients over Z are plain Python ints,
so there is no overflow anywhere; over Z/m they are kept as canonical
representatives in [0, m).

Every value is immutable after construction and every operation is a pure
function.

Text syntax (used by the CLI, data files and golden fixtures): terms joined
by `+` / `-`, `*` between factors (required), `^` for exponents, variable
names like ``v1``, ``s1``, ``c1``, ``w2``, ``wp2``, ``y2``, ``x3``, ``eta``.
Example: ``8*s2 - 3*s1^2``.
"""

from __future__ import annotations

import functools
import math
import operator

Exponents = tuple  # tuple[int, ...], one entry per ring variable


class RingMismatchError(ValueError):
    """Raised when operands live in different rings."""


# Not a dataclass: importing dataclasses costs a CLI call more than a small suite's run.
class Ring:
    """A coefficient/variable context: named variables with integer weights.

    ``modulus`` 0 means coefficients in Z; m >= 2 means Z/m.
    """

    __slots__ = ("variables", "weights", "modulus")

    def __init__(self, variables: tuple, weights: tuple, modulus: int = 0):
        if len(variables) != len(weights):
            raise ValueError("one weight per variable required")
        if modulus < 0 or modulus == 1:
            raise ValueError("modulus must be 0 (for Z) or >= 2")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.variables, self.weights, self.modulus = variables, weights, modulus

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Ring) and (
            (self.variables, self.weights, self.modulus)
            == (other.variables, other.weights, other.modulus)
        )

    def __hash__(self):
        return hash((self.variables, self.weights, self.modulus))

    @property
    def nvars(self):
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "Polynomial":
        e = [0] * self.nvars
        e[self.index(name)] = 1
        return Polynomial(self, {tuple(e): 1})

    def monomial(self, exponents: Exponents, coeff: int = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exponents): coeff})

    def degree_of(self, exponents: Exponents) -> int:
        return sum(e * w for e, w in zip(exponents, self.weights))


class Polynomial:
    """Immutable sparse polynomial over a :class:`Ring`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        canonical = {}
        m, n = ring.modulus, ring.nvars
        for exp, c in terms.items():
            if len(exp) != n:
                raise ValueError("exponent tuple length mismatch")
            if m:
                c %= m
            if c:
                canonical[tuple(exp)] = c
        self.ring = ring
        self.terms = canonical

    # -- queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self):
        """Weighted degree if homogeneous; None for the zero polynomial.

        Raises ValueError on inhomogeneous input: the zero polynomial is the
        only element whose degree is undefined rather than an error.
        """
        if not self.terms:
            return None
        degs = {self.ring.degree_of(e) for e in self.terms}
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous polynomial, degrees {sorted(degs)}")
        return degs.pop()

    def coefficient(self, exponents: Exponents) -> int:
        return self.terms.get(tuple(exponents), 0)

    def graded_part(self, degree: int) -> "Polynomial":
        return Polynomial(
            self.ring,
            {e: c for e, c in self.terms.items() if self.ring.degree_of(e) == degree},
        )

    # -- arithmetic ------------------------------------------------------
    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring.variables}/{self.ring.modulus} "
                f"vs {other.ring.variables}/{other.ring.modulus}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial(self.ring, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus / maps --------------------------------------------------
    def partial_derivative(self, index: int) -> "Polynomial":
        """Formal d/d(variable index); coefficient picks up the old exponent."""
        if not 0 <= index < self.ring.nvars:
            raise IndexError(f"variable index {index} out of range")
        out = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            e2 = e[:index] + (k - 1,) + e[index + 1 :]
            out[e2] = out.get(e2, 0) + c * k
        return Polynomial(self.ring, out)

    def substitute(self, images: dict) -> "Polynomial":
        """Evaluate the algebra homomorphism sending each variable to its image.

        ``images`` maps variable names to polynomials of one common target
        ring; every variable actually occurring must have an image.
        """
        target = None
        for img in images.values():
            if target is None:
                target = img.ring
            elif img.ring != target:
                raise RingMismatchError("substitution images live in different rings")
        used = [i for i in range(self.ring.nvars) if any(e[i] for e in self.terms)]
        for i in used:
            if self.ring.variables[i] not in images:
                raise KeyError(f"no image for variable {self.ring.variables[i]!r}")
        if target is None:
            if not used and self.terms:
                raise KeyError("constant substitution requires a target ring image")
            target = self.ring
        out = target.zero()
        for e, c in self.terms.items():
            term = target.const(c)
            for i, k in enumerate(e):
                if k:
                    term = term * images[self.ring.variables[i]] ** k
            out = out + term
        return out

    def reduce_coefficients(self, m: int) -> "Polynomial":
        """Image in the same variables over Z/m (zero terms dropped)."""
        if m < 2:
            raise ValueError("modulus must be >= 2")
        if self.ring.modulus:
            raise ValueError("reduce_coefficients expects a Z-coefficient input")
        target = Ring(self.ring.variables, self.ring.weights, m)
        return Polynomial(target, self.terms)

    # -- formatting --------------------------------------------------------
    def sorted_terms(self):
        """Terms in graded-lex descending order (the canonical print order)."""
        return sorted(
            self.terms.items(),
            key=lambda item: (self.ring.degree_of(item[0]), item[0]),
            reverse=True,
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.ring.variables, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mono = "*".join(factors)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def monomial_basis(degree: int, weights) -> tuple:
    """All exponent tuples of the given weighted degree, one entry per weight.

    Deterministic order: lexicographic descending on the exponent tuple
    (all entries share the degree, so this is graded-lex).  The tuple is
    cached, and callers only read it.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    weights = tuple(weights)
    if not weights:
        return ((),) if degree == 0 else ()
    return _completions(weights, degree)


def _distinct_leads(expos, leads) -> bool:
    """Whether the products of powers ``expos`` of factors with lead
    monomials ``leads`` have distinct leads.  Over a domain, and under any
    monomial order, the lead of a product is the product of the leads, so
    products with distinct leads are linearly independent."""
    columns = tuple(zip(*leads))  # each variable's exponent in every lead
    return len(expos) == len({
        tuple([sum(map(operator.mul, e, col)) for col in columns]) for e in expos})


def _first_lead_clash(bases, leads, kernel=None):
    """The index of the first exponent list in ``bases`` with two products
    sharing a lead (see ``_distinct_leads``), or None.  No list is swept if
    exponents -> lead is injective on them: the leads are independent over Q,
    or ``kernel`` is a primitive relation spanning all of theirs and every
    first exponent is below its first entry."""
    if (rank := _rank(leads)) == len(leads) or kernel and rank == len(leads) - 1 \
            and math.gcd(*kernel) == 1 and all(e[0] < kernel[0] for b in bases for e in b) \
            and not any(sum(map(operator.mul, kernel, col)) for col in zip(*leads)):
        return None
    return next((i for i, expos in enumerate(bases) if not _distinct_leads(expos, leads)), None)


def _rank(vectors) -> int:
    """The rank over Q of integer vectors, by fraction-free elimination."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return 0
    pivot = rows.pop()
    j = next(j for j, x in enumerate(pivot) if x)
    return 1 + _rank([pivot[j] * x - r[j] * y for x, y in zip(r, pivot)] for r in rows)


@functools.lru_cache(maxsize=None)
def _completions(weights: tuple, remaining: int) -> tuple:
    """The exponent tuples of weighted degree ``remaining`` in the nonempty
    ``weights``, lexicographically descending: largest first exponent first,
    then the completions of the other weights, which are themselves cached,
    so each suffix of the weights is enumerated once per remaining degree."""
    w = weights[0]
    if len(weights) == 1:
        return ((remaining // w,),) if remaining % w == 0 else ()
    rest = weights[1:]
    return tuple([(k,) + t for k in range(remaining // w, -1, -1)
                  for t in _completions(rest, remaining - k * w)])


# -- text syntax -----------------------------------------------------------

def _scan(text: str) -> list:
    """The tokens of polynomial text in one pass: ("num", int) for a run of
    digits, ("name", str) for ASCII letters and the digits after them, and
    ("op", char) for one of ``-+*^()``, with whitespace between them skipped."""
    pos, n, out = 0, len(text), []
    while pos < n:
        start = pos
        while pos < n and text[pos].isspace():
            pos += 1
        c, end = text[pos:pos + 1], pos + 1
        letters = c.isascii() and c.isalpha()
        if letters or c.isdecimal():
            while letters and end < n and text[end].isascii() and text[end].isalpha():
                end += 1
            while end < n and text[end].isdecimal():
                end += 1
            out.append(("name", text[pos:end]) if letters else ("num", int(text[pos:end])))
        elif c and c in "-+*^()":
            out.append(("op", c))
        elif c:
            raise ValueError(f"bad polynomial syntax near {text[start:start+12]!r}")
        pos = end
    return out


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse the plain-text polynomial syntax into ``ring``, summing its terms in one dict."""
    tokens, terms, i = _scan(text), {}, 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] in (("op", "+"), ("op", "-")):
            sign, i = -sign if tokens[i][1] == "-" else sign, i + 1
        if i >= n:
            raise ValueError("dangling sign in polynomial text")
        coeff, exps = sign, [0] * ring.nvars
        while True:  # a factor, then '*' and the next factor or the end of the term
            kind, val = tokens[i]
            if kind == "num":
                coeff, i = coeff * val, i + 1
            elif kind == "name":
                idx, i, power = ring.index(val), i + 1, 1
                if i < n and tokens[i] == ("op", "^"):
                    if i + 1 >= n or tokens[i + 1][0] != "num":
                        raise ValueError("exponent must be a literal integer")
                    power, i = tokens[i + 1][1], i + 2
                exps[idx] += power
            else:
                raise ValueError("'*' must stand between two factors" if val == "*"
                                 else "empty term in polynomial text")
            if i < n and tokens[i] == ("op", "*"):
                if i + 1 >= n or tokens[i + 1][0] == "op":
                    raise ValueError("'*' must stand between two factors")
                i += 1
            elif i < n and tokens[i][0] != "op":
                raise ValueError("factors must be joined by '*'")
            else:
                break
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    return Polynomial(ring, terms)
