"""The six-generator GF(2) differential graded algebra and its homology.

The algebra W has generators x2, x3, x5, x8, x9, x12 (degree = subscript)
and relations x2*x3, x2*x5, x2*x9, x9^2 + x3^2*x12 + x5^2*x8 + x3^3*x9 +
x3*x5^3; it is isomorphic to the six-generator mod-2 cohomology ring via
x_i -> y_i (i = 2,3,5,9), x8 -> y8 + y3*y5, x12 -> y12 + y3*y9, and the
degree-raising differential D (Leibniz extension of x5 -> x3^2, x9 -> x5^2)
corresponds to Sq^1 under that identification.

A projection onto the monomial families {x2^a x8^b x12^c} and
{x8^b x12^c x3}, together with an explicit degree-lowering operator P, gives
the chain-homotopy identity P D + D P = projection + identity on every
normal-form monomial, which pins the homology to Z/2[x2, x8, x12] (x) E[x3].

D, P and the projection are each one rule on a normal-form monomial's
exponent tuple: the Leibniz rule on odd x5 and x9 exponents, P's case table,
and the projection's two families.  ``differential``, ``homotopy_p`` and
``lambda_projection`` are their GF(2) linear extensions.  A suite call
evaluates each rule once per normal-form monomial into its own table: for
each degree d, the D columns as bitmasks over degree d + 1, the P columns
over degree d - 1 and the projection over degree d.  D^2 = 0, the homotopy
identity, the chain map and the ranks of D are XORs and GF(2) ranks of
those masks.

The rules take and return normal forms.  The Groebner leads of W are x2*x3,
x2*x5, x2*x9 and x9^2, so a normal-form monomial with x3^2, x5 or x9 has no
x2 and at most one x9, and the exponent shifts of D and P keep it so.  A
rule value outside the target degree's normal-form basis raises ValueError.
"""

from __future__ import annotations

import functools

from . import gf2
from .mod2alg.algebra import AlgebraMap, Monomial, Poly, PresentedAlgebra
from .mod2alg.rings import toda_action, toda_ring
from .report import VerificationReport
from .series import geometric_product, series_mul


@functools.lru_cache(maxsize=None)
def w_algebra() -> PresentedAlgebra:
    return PresentedAlgebra(
        "W",
        [("x9", 9), ("x12", 12), ("x8", 8), ("x5", 5), ("x3", 3), ("x2", 2)],
        [
            "x2*x3",
            "x2*x5",
            "x2*x9",
            "x9^2 + x3^2*x12 + x5^2*x8 + x3^3*x9 + x3*x5^3",
        ],
    )


# generator positions in W's monomials; D takes x5 to x3^2 and x9 to x5^2
_X2, _X3, _X5, _X9 = (w_algebra().gen_names.index(g) for g in ("x2", "x3", "x5", "x9"))
_D_SQUARES = ((_X5, _X3), (_X9, _X5))


def _d_rule(m: Monomial) -> list:
    """The monomials of D(m): the Leibniz rule on an odd x5 or x9 exponent,
    x5 -> x3^2 and x9 -> x5^2; in char 2 an even exponent differentiates to
    zero."""
    out = []
    for g, h in _D_SQUARES:
        if m[g] % 2:
            t = list(m)
            t[g] -= 1
            t[h] += 2
            out.append(tuple(t))
    return out


def _p_rule(m: Monomial) -> tuple:
    """The monomials of P(m), by the case table on m = n * x3^i x5^j x9^k
    with n in the x2/x8/x12 subring:
      i >= 2                      -> n * x3^(i-2) x5^(j+1) x9^k
      i <= 1, j,k even, j != 0    -> n * x3^i x5^(j-2) x9^(k+1)
      otherwise                   -> 0

    k <= 1 on normal forms, since x9^2 is a Groebner lead of W.
    """
    i, j, k = m[_X3], m[_X5], m[_X9]
    if i >= 2:
        new = list(m)
        new[_X3] -= 2
        new[_X5] += 1
    elif j % 2 == 0 and k % 2 == 0 and j != 0:
        new = list(m)
        new[_X5] -= 2
        new[_X9] += 1
    else:
        return ()
    return (tuple(new),)


def _projection_rule(m: Monomial) -> tuple:
    """m itself on x2^a x8^b x12^c and x8^b x12^c x3, nothing otherwise."""
    if m[_X5] or m[_X9] or m[_X3] > 1 or (m[_X3] and m[_X2]):
        return ()
    return (m,)


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


class _Tables:
    """D, P and the projection on W's normal-form bases, filled one degree at
    a time on first use; a sweep drops the degrees it has passed.

    ``d_cols(e)``, ``p_cols(e)`` and ``proj_cols(e)`` hold, for each monomial
    of ``monomials_of_degree(e)`` in order, the mask of its image over degree
    e + 1, e - 1 and e; each rule runs once per monomial.  A table lives for
    one suite call, so it always reads the rules as they are at that call.
    """

    def __init__(self):
        self.alg = w_algebra()
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
                            f"{alg.format(_linear(rule, {m}))} = {name}({alg.format({m})})"
                        )
                    mask ^= 1 << bit
                columns.append(mask)
            self._columns[key] = columns
        return self._columns[key]

    def d_cols(self, d: int) -> list:
        return self._fill("D", _d_rule, d, d + 1)

    def p_cols(self, d: int) -> list:
        return self._fill("P", _p_rule, d, d - 1)

    def proj_cols(self, d: int) -> list:
        return self._fill("projection", _projection_rule, d, d)

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


def verify_differential_squares_to_zero(max_degree: int) -> bool:
    return _Tables().squares_to_zero_through(max_degree)


def homology_dimension(d: int) -> int:
    """dim ker(D at degree d) - dim im(D from degree d-1), over GF(2).

    D^2 = 0 is certified through degree d + 1 before ranks are taken.
    """
    return _Tables().homology_dimension(d)


def stated_answer_series(max_degree: int) -> list:
    """Coefficients of (1 + t^3) / ((1-t^2)(1-t^8)(1-t^12)): the series of the
    nominal answer ring Z/2[x2,x8,x12] (x) E[x3], which ignores that x2*x3
    vanishes in the algebra."""
    base = geometric_product((2, 8, 12), max_degree)
    return series_mul(base, [1, 0, 0, 1], max_degree)


def homology_series(max_degree: int) -> list:
    """Coefficients of 1/((1-t^2)(1-t^8)(1-t^12)) + t^3/((1-t^8)(1-t^12)).

    This is the series of the projection's actual image
    Z/2[x2,x8,x12] + Z/2[x8,x12]*x3, which the chain homotopy identifies
    with the homology; it differs from the nominal tensor-ring series
    exactly in the x2^a*x3 (a >= 1) monomials, which are zero in the
    algebra."""
    main = geometric_product((2, 8, 12), max_degree)
    odd = geometric_product((8, 12), max_degree)
    out = list(main)
    for d in range(3, max_degree + 1):
        out[d] += odd[d - 3]
    return out


def verify_homotopy(max_degree: int) -> VerificationReport:
    """P D + D P = projection + identity on every normal-form monomial."""
    return _homotopy_checks(_Tables(), max_degree)


def _homotopy_checks(tables: _Tables, max_degree: int) -> VerificationReport:
    report = VerificationReport("dga")
    alg = tables.alg
    # one ascending pass over the degrees: D^2 = 0 and the rank of D, and per
    # monomial m of degree d (bit i), with masks for elements,
    #   P(D m) + D(P m) against projection(m) + m, over degree d, and
    #   D(projection m) against projection(D m), over degree d + 1,
    # each check stopping at its first failure; the columns of degree d - 1
    # are dropped after degree d, so the tables hold a few degrees at a time
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
    series = homology_series(max_degree)
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
    nominal = stated_answer_series(max_degree)
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


KERNEL_GENERATORS = ("x2", "x8", "x12", "x3", "x5^2", "x3^2*x9 + x5^3")


def ker_d_generators_check(max_degree: int) -> VerificationReport:
    """ker D equals the subalgebra on the six listed elements, degreewise."""
    return _kernel_generators_check(_Tables(), max_degree)


def _kernel_generators_check(tables: _Tables, max_degree: int) -> VerificationReport:
    report = VerificationReport("dga-kernel")
    alg = tables.alg
    gens = [alg.parse(s) for s in KERNEL_GENERATORS]
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


@functools.lru_cache(maxsize=None)
def toda_identification() -> AlgebraMap:
    """The isomorphism onto the six-generator cohomology ring."""
    return AlgebraMap(
        "w-identification",
        w_algebra(),
        toda_ring(),
        {
            "x2": "y2",
            "x3": "y3",
            "x5": "y5",
            "x9": "y9",
            "x8": "y8 + y3*y5",
            "x12": "y12 + y3*y9",
        },
    )


def verify_sq1_correspondence(max_degree: int) -> bool:
    """D corresponds to Sq^1 under the identification, on a basis sweep."""
    alg = w_algebra()
    iso = toda_identification()
    act = toda_action()
    for d in range(max_degree + 1):
        for m in alg.monomials_of_degree(d):
            mono = frozenset({m})
            if iso.apply(differential(mono)) != act.sq(1, iso.apply(mono)):
                return False
    return True


def dga_suite(max_degree: int) -> VerificationReport:
    """The homotopy suite through max_degree, with the kernel generators
    checked through min(30, max_degree)."""
    tables = _Tables()
    report = _homotopy_checks(tables, max_degree)
    report.extend(_kernel_generators_check(tables, min(30, max_degree)))
    report.add(
        "sq1-correspondence",
        verify_sq1_correspondence(min(20, max_degree)),
        "D matches Sq^1 on the six-generator cohomology ring under the "
        "alphabet identification (basis sweep to degree 20)",
    )
    return report
