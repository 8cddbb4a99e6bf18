"""The six-generator GF(2) differential graded algebra and its homology.

The algebra W has generators x2, x3, x5, x8, x9, x12 (degree = subscript)
and relations x2*x3, x2*x5, x2*x9, x9^2 + x3^2*x12 + x5^2*x8 + x3^3*x9 +
x3*x5^3; it is isomorphic to the six-generator mod-2 cohomology ring via
x_i -> y_i (i = 2,3,5,9), x8 -> y8 + y3*y5, x12 -> y12 + y3*y9, and the
degree-raising differential D (Leibniz extension of x5 -> x3^2, x9 -> x5^2)
corresponds to Sq^1 under that identification.

A projection onto the monomial families {x2^a x8^b x12^c} and
{x8^b x12^c x3} and a degree-lowering operator P give the chain-homotopy
identity P D + D P = projection + identity, which pins the homology to
Z/2[x2, x8, x12] + Z/2[x8, x12]*x3.

D, P and the projection are tables of (guards, shift) entries on a
monomial's exponents, read by ``_d_rule``, ``_p_rule`` and
``_projection_rule``; ``differential``, ``homotopy_p`` and
``lambda_projection`` are their GF(2) linear extensions.  The tables read
each exponent only through thresholds and parities and move it by bounded
shifts, so the suite's checks hold in every degree once they hold on a
finite box of exponent cells (``_Box``), and first fail in the degree of
their first failing cell; the counts it prints are series over the same
exponent classes.

The rules take and return normal forms.  The Groebner leads of W are x2*x3,
x2*x5, x2*x9 and x9^2, so a normal-form monomial with x3, x5 or x9 has no
x2 and at most one x9, and the exponent shifts of D and P keep it so.  A
rule value outside the target degree's normal-form basis raises ValueError.
"""

from __future__ import annotations

import functools
import itertools
import operator

from . import gf2
from .mod2alg.algebra import AlgebraMap, Monomial, Poly, PresentedAlgebra, mono_mul
from .mod2alg.rings import toda_action, toda_ring
from .report import VerificationReport
from .series import geometric_product


@functools.lru_cache(maxsize=None)
def w_algebra() -> PresentedAlgebra:
    return PresentedAlgebra(
        "W",
        [("x9", 9), ("x12", 12), ("x8", 8), ("x5", 5), ("x3", 3), ("x2", 2)],
        ["x2*x3", "x2*x5", "x2*x9", "x9^2 + x3^2*x12 + x5^2*x8 + x3^3*x9 + x3*x5^3"],
    )


# generator positions in W's monomials
_X2, _X3, _X5, _X9 = (w_algebra().gen_names.index(g) for g in ("x2", "x3", "x5", "x9"))

_EMPTY: Poly = frozenset()

# A guard (g, op, c) reads the exponent e of generator g: e >= c, e < c or
# e % 2 == c for op ">=", "<" or "%2".  A rule's value on a monomial is the
# XOR of the monomial moved by the shift ({generator: change}) of each entry
# whose guards all hold.
# D: x5 -> x3^2 on an odd x5 exponent, x9 -> x5^2 on an odd x9 exponent; in
# char 2 an even exponent differentiates to zero
_D_TABLE = (
    (((_X5, "%2", 1),), {_X5: -1, _X3: 2}),
    (((_X9, "%2", 1),), {_X9: -1, _X5: 2}),
)
# P on n * x3^i x5^j x9^k, n in the x2/x8/x12 subring (k <= 1 on normal forms):
#   i >= 2                        -> n * x3^(i-2) x5^(j+1) x9^k
#   i <= 1, j >= 2, j and k even  -> n * x3^i x5^(j-2) x9^(k+1)
_P_TABLE = (
    (((_X3, ">=", 2),), {_X3: -2, _X5: 1}),
    (((_X3, "<", 2), (_X5, ">=", 2), (_X5, "%2", 0), (_X9, "%2", 0)), {_X5: -2, _X9: 1}),
)
# the projection: the identity on x2^a x8^b x12^c and on x8^b x12^c x3
_PROJECTION_TABLE = (
    (((_X3, "<", 1), (_X5, "<", 1), (_X9, "<", 1)), {}),
    (((_X2, "<", 1), (_X3, ">=", 1), (_X3, "<", 2), (_X5, "<", 1), (_X9, "<", 1)), {}),
)


def _apply(table, m: Monomial) -> list:
    out = []
    for guards, shift in table:
        for g, op, c in guards:
            e = m[g]
            if not (e >= c if op == ">=" else e < c if op == "<" else e % 2 == c):
                break
        else:
            t = list(m)
            for g, k in shift.items():
                t[g] += k
            out.append(tuple(t))
    return out


def _d_rule(m: Monomial) -> list:
    return _apply(_D_TABLE, m)


def _p_rule(m: Monomial) -> list:
    return _apply(_P_TABLE, m)


def _projection_rule(m: Monomial) -> list:
    return _apply(_PROJECTION_TABLE, m)


def _linear(rule, p: Poly) -> Poly:
    """The GF(2) linear extension of a monomial rule: the XOR of its values."""
    out = set()
    for m in p:
        for t in rule(m):
            out ^= {t}
    return frozenset(out)


def differential(p: Poly) -> Poly:
    """Leibniz extension of x5 -> x3^2, x9 -> x5^2 (zero on x2, x3, x8, x12);
    normal forms in, normal forms out."""
    return _linear(_d_rule, p)


def lambda_projection(p: Poly) -> Poly:
    """Identity on monomials x2^a x8^b x12^c and x8^b x12^c x3, zero otherwise;
    normal forms in, normal forms out."""
    return _linear(_projection_rule, p)


def homotopy_p(p: Poly) -> Poly:
    """The degree-lowering chain homotopy, by ``_p_rule``'s case table on each
    normal-form monomial; normal forms in, normal forms out."""
    return _linear(_p_rule, p)


class _Box:
    """The exponent cells of the all-degree certificate, and the rule values on them.

    An exponent read by a guard or a Groebner lead has threshold T, its
    largest guard constant (0 for a parity) or lead exponent, and moves by at
    most S under one shift.  The rules and the normal-form test read it the
    same at e + s and e - 2 + s for |s| <= S once e >= T + S + 2, so its cells
    are 0..T+S+1; an exponent nothing reads has the one cell 0.  The cells
    are the box's normal forms, in degree-sweep order.
    """

    def __init__(self):
        alg = self.alg = w_algebra()
        self.rules = {"D": (_d_rule, 1), "P": (_p_rule, -1), "projection": (_projection_rule, 0)}
        self.leads = [lead for lead, _ in alg.groebner]
        entries = [e for t in (_D_TABLE, _P_TABLE, _PROJECTION_TABLE) for e in t]
        n = len(alg.gen_degrees)
        threshold, shift = [None] * n, [0] * n
        reads = [(g, 0 if op == "%2" else c) for guards, _ in entries for g, op, c in guards]
        if {op for guards, _ in entries for _, op, _ in guards} - {">=", "<", "%2"}:
            raise ValueError("a guard's op must be '>=', '<' or '%2'")
        for g, c in reads + [(g, e) for lead in self.leads for g, e in enumerate(lead) if e]:
            threshold[g] = max(threshold[g] or 0, c)
        for g, k in ((g, k) for _, moves in entries for g, k in moves.items()):
            shift[g] = max(shift[g], abs(k))
        box = [(0,) if t is None else range(t + s + 2) for t, s in zip(threshold, shift)]
        cells = set(itertools.product(*box)).difference(
            *(itertools.product(*(r[e:] for r, e in zip(box, lead))) for lead in self.leads))
        self.cells = sorted(sorted(cells, reverse=True), key=self.degree)
        self.threshold, self._values = threshold, {name: {} for name in self.rules}

    def degree(self, m: Monomial) -> int:
        return sum(map(operator.mul, m, self.alg.gen_degrees))

    def normal(self, m: Monomial) -> bool:
        return min(m) >= 0 and not any(all(map(operator.le, lead, m)) for lead in self.leads)

    def value(self, name: str, p) -> Poly:
        """The rule's value on an element given by its normal-form monomials."""
        values, out = self._values[name], None
        for m in p:
            image = values.get(m)
            if image is None:
                image = values[m] = _linear(self.rules[name][0], (m,))
            out = image if out is None else out ^ image
        return _EMPTY if out is None else out

    def checked(self, name: str, m: Monomial) -> Poly:
        """The rule's value on the normal-form monomial m, which must be a
        normal form of the target degree; checked on the cells, that holds on
        every normal form."""
        image, e = self.value(name, (m,)), self.degree(m) + self.rules[name][1]
        if image and any(self.degree(t) != e or not self.normal(t) for t in image):
            raise ValueError(f"not a degree-{e} normal-form element: "
                             f"{self.alg.format(image)} = {name}({self.alg.format({m})})")
        return image

    @functools.cached_property
    def _generator_values(self) -> list:
        n = len(self.alg.gen_degrees)
        units = [tuple(int(k == g) for k in range(n)) for g in range(n)]
        values = [(g, tuple(-k for k in u), self.value("D", (u,))) for g, u in enumerate(units)]
        return [value for value in values if value[2]]

    def leibniz(self, m: Monomial) -> Poly:
        """The Leibniz extension of D's values on the generators at any
        monomial m: the XOR of (m / x_g) * D(x_g) over the x_g with an odd
        exponent in m, the only terms char 2 keeps."""
        out = set()
        for g, unit, image in self._generator_values:
            if m[g] % 2:
                cof = mono_mul(m, unit)
                out ^= {mono_mul(cof, t) for t in image}
        return frozenset(out)

    @functools.cached_property
    def first_failures(self) -> dict:
        """{check: (cell, lhs, rhs)} at the first cell where each check fails:
        D against the Leibniz rule, the homotopy identity, the chain map, and
        the projection as the identity on its image with D zero there.  The
        rule values at the cells are checked on the way, in sweep order."""
        value, checked, first = self.value, self.checked, {}
        for m in self.cells:
            mono = frozenset((m,))
            d, p, proj = checked("D", m), checked("P", m), checked("projection", m)
            d_proj = value("D", proj)
            for check, lhs, rhs in (
                ("leibniz", d, self.leibniz(m)),
                ("identity", value("P", d) ^ value("D", p), proj ^ mono),
                ("chain", d_proj, value("projection", d)),
                ("image", (proj, d_proj), (proj & mono, _EMPTY)),
            ):
                if lhs != rhs and check not in first:
                    first[check] = (m, lhs, rhs)
        return first

    def series(self, max_degree: int) -> tuple:
        """Per-degree counts through max_degree of the normal-form monomials
        and of those the projection fixes, which read a read exponent e only
        as itself below its threshold T and as e + 2k from T on: the sum over
        the cells with every such e <= T + 1 of t^(degree) over 1 - t^(2 deg
        x_g) for each e >= T and 1 - t^(deg x_g) for each unread x_g."""
        groups, degrees = ({}, {}), self.alg.gen_degrees
        for m in self.cells:
            if self.degree(m) > max_degree or any(t is not None and e > t + 1
                                                  for e, t in zip(m, self.threshold)):
                continue
            steps = tuple(w if t is None else 2 * w
                          for e, t, w in zip(m, self.threshold, degrees) if t is None or e >= t)
            for group in groups[:1 + (self.value("projection", (m,)) == {m})]:
                group.setdefault(steps, [0] * (max_degree + 1))[self.degree(m)] += 1
        out = []
        for group in groups:
            total = [0] * (max_degree + 1)
            for steps, coeffs in group.items():
                for s in steps:
                    for d in range(s, max_degree + 1):
                        coeffs[d] += coeffs[d - s]
                total = list(map(operator.add, total, coeffs))
            out.append(total)
        return tuple(out)


def _leibniz_witness(box: _Box, max_degree: int) -> str:
    """D against the Leibniz rule at its first failing cell through max_degree, or ''."""
    bad = box.first_failures.get("leibniz")
    if bad and box.degree(bad[0]) <= max_degree:
        return "D({}) = {}, the Leibniz rule gives {}".format(*map(box.alg.format, ({bad[0]}, *bad[1:])))
    return ""


def _d_squared_witness(box: _Box, max_degree: int) -> str:
    """Why D^2 = 0 through max_degree is not certified, or ''.

    Where D is the Leibniz extension L of its generator values through degree
    max_degree + 1 (the first failing cell's degree is the first failing
    degree), D^2 = L^2 through max_degree, a derivation in char 2, so zero
    once zero on the generators; and D maps W's relations into the ideal."""
    alg = box.alg
    if bad := _leibniz_witness(box, max_degree + 1):
        return bad
    for r in alg.relations:
        value = alg.normal_form(functools.reduce(operator.xor, map(box.leibniz, r)))
        if value:
            return f"D({alg.format(r)}) = {alg.format(value)} mod the relations"
    for name, w in zip(alg.gen_names, alg.gen_degrees):
        square = box.value("D", box.value("D", alg.gen(name)))
        if w <= max_degree and square:
            return f"D^2({name}) = {alg.format(square)}"
    return ""


def verify_differential_squares_to_zero(max_degree: int, box: _Box | None = None) -> bool:
    """D^2 = 0 on all normal-form monomials through degree max_degree, by
    the generator-and-relations certificate of ``_d_squared_witness``."""
    return not _d_squared_witness(box or _Box(), max_degree)


def homology_dimension(d: int) -> int:
    """dim ker(D at degree d) - dim im(D from degree d-1), over GF(2), from
    the ranks of D; D^2 = 0 from degree d - 1 to d + 1 is checked first."""
    alg, image = w_algebra(), lambda m: differential(frozenset({m}))
    if d and any(differential(image(m)) for m in alg.monomials_of_degree(d - 1)):
        raise ArithmeticError("the differential does not square to zero")
    ranks = [gf2.rank([alg.coordinates(image(m), e + 1) for m in alg.monomials_of_degree(e)])
             for e in (d - 1, d) if e >= 0]
    return len(alg.monomials_of_degree(d)) - sum(ranks)


def stated_answer_series(max_degree: int) -> list:
    """Coefficients of (1 + t^3) / ((1-t^2)(1-t^8)(1-t^12)): the series of the
    nominal answer ring Z/2[x2,x8,x12] (x) E[x3], which ignores that x2*x3
    vanishes in the algebra."""
    base = geometric_product((2, 8, 12), max_degree)
    return [c + (base[d - 3] if d >= 3 else 0) for d, c in enumerate(base)]


def homology_series(max_degree: int) -> list:
    """Coefficients of 1/((1-t^2)(1-t^8)(1-t^12)) + t^3/((1-t^8)(1-t^12)),
    the series of the projection's image Z/2[x2,x8,x12] + Z/2[x8,x12]*x3: the
    nominal series less the x2^a*x3 (a >= 1) monomials, zero in the algebra."""
    main, odd = geometric_product((2, 8, 12), max_degree), geometric_product((8, 12), max_degree)
    return [c + (odd[d - 3] if d >= 3 else 0) for d, c in enumerate(main)]


def _certificate_checks(box: _Box, counts: list, image: list) -> VerificationReport:
    """The four homotopy lines and the two findings through the degree of
    the two series, read off the box certificate: a check fails through that
    degree exactly when it fails on a cell of degree at most that."""
    report = VerificationReport("dga")
    alg, max_degree = box.alg, len(counts) - 1
    failing = {k: bad for k, bad in box.first_failures.items() if box.degree(bad[0]) <= max_degree}
    squares_zero = verify_differential_squares_to_zero(max_degree + 1, box)
    report.add("d-squared", squares_zero,
               f"D^2 = 0 on all normal-form monomials through degree {max_degree + 1}",
               witness="" if squares_zero else _d_squared_witness(box, max_degree + 1))
    # a degree sweep checks the monomials up to the first failing one
    checked, witness = sum(counts), ""
    if "identity" in failing:
        m, lhs, rhs = failing["identity"]
        d = box.degree(m)
        checked = sum(counts[:d]) + alg.monomials_of_degree(d).index(m) + 1
        witness = f"{alg.format({m})}: lhs {alg.format(lhs)} rhs {alg.format(rhs)}"
    report.add("homotopy-identity", not witness,
               f"P*D + D*P = projection + id on all {checked} normal-form monomials "
               f"through degree {max_degree}", witness=witness)
    chain = failing.get("chain")
    report.add("projection-chain-map", chain is None,
               f"the projection commutes with D through degree {max_degree}",
               witness=chain and "{}: D*projection {} projection*D {}".format(
                   *map(alg.format, ({chain[0]}, *chain[1:]))) or "")
    # with the three lines above, and D zero on the projection's image, the
    # homotopy identifies the homology with that image: its fixed monomials
    mismatches = [(d, image[d], s) for d, s in enumerate(homology_series(max_degree))
                  if image[d] != s]
    if report.failures:
        witness = "rests on d-squared, homotopy-identity and projection-chain-map"
    elif "image" in failing:
        m, (proj, d_proj), _ = failing["image"]
        witness = (f"{alg.format({m})}: projection {alg.format(proj)}, "
                   f"D*projection {alg.format(d_proj)}")
    else:
        witness = str(mismatches[:4]) if mismatches else ""
    report.add("homology-dimensions", not witness,
               f"homology dimensions equal the series of Z/2[x2,x8,x12] + Z/2[x8,x12]*x3 "
               f"through degree {max_degree}", witness=witness)
    nominal = stated_answer_series(max_degree)
    first_diff = next((d for d in range(max_degree + 1) if image[d] != nominal[d]), None)
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


KERNEL_GENERATORS = ("x2", "x8", "x12", "x3", "x5^2", "x3^2*x9 + x5^3")


@functools.lru_cache(maxsize=None)
def toda_identification() -> AlgebraMap:
    """The isomorphism onto the six-generator cohomology ring."""
    return AlgebraMap("w-identification", w_algebra(), toda_ring(), {
        "x2": "y2", "x3": "y3", "x5": "y5", "x9": "y9", "x8": "y8 + y3*y5", "x12": "y12 + y3*y9"})


def _sq1_witness(box: _Box, max_degree: int) -> str:
    """Why ``verify_sq1_correspondence`` fails through max_degree, or ''.

    Sq^1 is a derivation (Cartan, in char 2), taken term by term, so with the
    relations through max_degree sent into the ideal it is a derivation of
    the cohomology ring there; iso*D and Sq^1*iso, derivations along the ring
    map iso, then agree there once they agree on the generators."""
    alg, ring, iso, act = box.alg, toda_ring(), toda_identification(), toda_action()
    if bad := _leibniz_witness(box, max_degree):
        return bad
    for r in ring.relations:
        if ring.poly_degree(r) <= max_degree and (value := act.sq(1, r)):
            return f"Sq^1({ring.format(r)}) = {ring.format(value)} mod the relations"
    for name in (g for g, w in zip(alg.gen_names, alg.gen_degrees) if w <= max_degree):
        image, square = iso.apply(box.value("D", alg.gen(name))), act.sq(1, iso.apply(alg.gen(name)))
        if image != square:
            return (f"D({name}) maps to {ring.format(image)}, "
                    f"Sq^1 of the image of {name} is {ring.format(square)}")
    return ""


def verify_sq1_correspondence(max_degree: int, box: _Box | None = None) -> bool:
    """D corresponds to Sq^1 under the identification iso on every normal form
    through max_degree, certified on generators: D is the Leibniz extension of
    its generator values there, Sq^1 of each cohomology-ring relation of degree
    at most max_degree reduces to 0, and iso(D(x)) = Sq^1(iso(x)) on each
    generator x of W of degree at most max_degree."""
    return not _sq1_witness(box or _Box(), max_degree)


def dga_suite(max_degree: int) -> VerificationReport:
    """The homotopy certificate, read through max_degree, with ker D checked
    against the subalgebra on ``KERNEL_GENERATORS`` through min(30,
    max_degree), and D against Sq^1 through N = min(20, max_degree) by the
    generator certificate of ``verify_sq1_correspondence``: D is Leibniz
    through N, Sq^1 of each ring relation of degree at most N reduces to 0,
    and D and Sq^1 agree on each generator of degree at most N.

    The dimension of ker D comes from the certified homology h and the
    normal-form counts w: k_d = h_d + rank D_(d-1) = h_d + w_(d-1) - k_(d-1)."""
    box = _Box()
    counts, image = box.series(max_degree)
    report = _certificate_checks(box, counts, image)
    alg, top, kernel = box.alg, min(30, max_degree), []
    for d in range(top + 1):
        kernel.append(image[d] + (counts[d - 1] - kernel[-1] if d else 0))
    ranks = alg.subalgebra_ranks([alg.parse(s) for s in KERNEL_GENERATORS], top)
    first_bad = next(((d, kernel[d], sub) for d, (sub, _) in enumerate(ranks)
                      if sub != kernel[d]), None)
    witness = first_bad and "degree {}: kernel {} vs subalgebra {}".format(*first_bad) or ""
    if report.failures:
        witness = "rests on homology-dimensions"
    report.add("kernel-generators", not witness,
               f"ker D dimensions match the six-generator subalgebra through degree {top}",
               witness=witness)
    sweep = min(20, max_degree)
    witness = _sq1_witness(box, sweep)
    report.add("sq1-correspondence", not witness,
               "D matches Sq^1 on the six-generator cohomology ring under the "
               f"alphabet identification (basis sweep to degree {sweep})", witness=witness)
    return report
