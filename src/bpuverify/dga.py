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
"""

from __future__ import annotations

import functools

from . import gf2
from .mod2alg.algebra import AlgebraMap, Poly, PresentedAlgebra, poly_mul
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


@functools.lru_cache(maxsize=None)
def _w_parse(text: str) -> Poly:
    """An element of W from its text, parsed once per text."""
    return w_algebra().parse(text)


_DIFFERENTIAL_TABLE = {"x5": "x3^2", "x9": "x5^2"}


def differential(p: Poly) -> Poly:
    """Leibniz extension of x5 -> x3^2, x9 -> x5^2 (zero on x2, x3, x8, x12)."""
    alg = w_algebra()
    out = frozenset()
    for m in alg.normal_form(p):
        for gidx, e in enumerate(m):
            if not e:
                continue
            name = alg.gen_names[gidx]
            if name not in _DIFFERENTIAL_TABLE:
                continue
            if e % 2 == 0:
                continue  # char 2: even exponents differentiate to zero
            rest = list(m)
            rest[gidx] -= 1
            image = _w_parse(_DIFFERENTIAL_TABLE[name])
            out = out ^ poly_mul(frozenset({tuple(rest)}), image)
    return alg.normal_form(out)


def _split_monomial(m):
    """(x2-exp, x8-exp, x12-exp, i, j, k) for m = n * x3^i x5^j x9^k."""
    alg = w_algebra()
    names = alg.gen_names
    get = {name: m[names.index(name)] for name in names}
    return get["x2"], get["x8"], get["x12"], get["x3"], get["x5"], get["x9"]


def lambda_projection(p: Poly) -> Poly:
    """Identity on monomials x2^a x8^b x12^c and x8^b x12^c x3, zero otherwise."""
    alg = w_algebra()
    out = set()
    for m in alg.normal_form(p):
        a, b, c, i, j, k = _split_monomial(m)
        if (i, j, k) == (0, 0, 0) or (a, i, j, k) == (0, 1, 0, 0):
            out.add(m)
    return frozenset(out)


def homotopy_p(p: Poly) -> Poly:
    """The degree-lowering chain homotopy, defined on normal-form monomials.

    For m = n * x3^i x5^j x9^k with n in the x2/x8/x12 subring:
      i >= 2                      -> n * x3^(i-2) x5^(j+1) x9^k
      i <= 1, j,k even, j != 0    -> n * x3^i x5^(j-2) x9^(k+1)
      i <= 1, j = 0, k >= 2 even  -> n * x3^i x9^(k-2) (x5*x12 + x8*x9 + x3*x5*x9)
      otherwise                   -> 0
    """
    alg = w_algebra()
    names = alg.gen_names
    ix3, ix5, ix9 = names.index("x3"), names.index("x5"), names.index("x9")
    out = frozenset()
    for m in alg.normal_form(p):
        _, _, _, i, j, k = _split_monomial(m)
        if i >= 2:
            new = list(m)
            new[ix3] -= 2
            new[ix5] += 1
            out = out ^ alg.normal_form(frozenset({tuple(new)}))
        elif j % 2 == 0 and k % 2 == 0 and j != 0:
            new = list(m)
            new[ix5] -= 2
            new[ix9] += 1
            out = out ^ alg.normal_form(frozenset({tuple(new)}))
        elif j == 0 and k >= 2 and k % 2 == 0:
            new = list(m)
            new[ix9] -= 2
            tail = _w_parse("x5*x12 + x8*x9 + x3*x5*x9")
            out = out ^ alg.normal_form(poly_mul(frozenset({tuple(new)}), tail))
    return out


def verify_differential_squares_to_zero(max_degree: int) -> bool:
    alg = w_algebra()
    for d in range(max_degree + 1):
        for m in alg.monomials_of_degree(d):
            if differential(differential(frozenset({m}))):
                return False
    return True


def _rank_of_d(d: int) -> int:
    """GF(2) rank of D from degree d to degree d + 1."""
    alg = w_algebra()
    return gf2.rank(
        [alg.coordinates(differential(frozenset({m})), d + 1)
         for m in alg.monomials_of_degree(d)]
    )


def homology_dimension(d: int) -> int:
    """dim ker(D at degree d) - dim im(D from degree d-1), over GF(2).

    D^2 = 0 is certified through degree d + 1 before ranks are taken.
    """
    if not verify_differential_squares_to_zero(d + 1):
        raise ArithmeticError("the differential does not square to zero")
    kernel_dim = len(w_algebra().monomials_of_degree(d)) - _rank_of_d(d)
    if d == 0:
        return kernel_dim
    return kernel_dim - _rank_of_d(d - 1)


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


def verify_homotopy(max_degree: int = 40) -> VerificationReport:
    """P D + D P = projection + identity on every normal-form monomial."""
    report = VerificationReport("dga")
    alg = w_algebra()
    report.add(
        "d-squared",
        verify_differential_squares_to_zero(max_degree + 1),
        f"D^2 = 0 on all normal-form monomials through degree {max_degree + 1}",
    )
    bad = None
    checked = 0
    for d in range(max_degree + 1):
        for m in alg.monomials_of_degree(d):
            mono = frozenset({m})
            lhs = homotopy_p(differential(mono)) ^ differential(homotopy_p(mono))
            rhs = lambda_projection(mono) ^ mono
            checked += 1
            if lhs != rhs:
                bad = (mono, lhs, rhs)
                break
        if bad:
            break
    report.add(
        "homotopy-identity",
        bad is None,
        f"P*D + D*P = projection + id on all {checked} normal-form monomials "
        f"through degree {max_degree}",
        witness=""
        if bad is None
        else f"{alg.format(bad[0])}: lhs {alg.format(bad[1])} rhs {alg.format(bad[2])}",
    )
    chain_ok = True
    for d in range(max_degree + 1):
        for m in alg.monomials_of_degree(d):
            mono = frozenset({m})
            if differential(lambda_projection(mono)) != lambda_projection(differential(mono)):
                chain_ok = False
                break
        if not chain_ok:
            break
    report.add(
        "projection-chain-map",
        chain_ok,
        f"the projection commutes with D through degree {max_degree}",
    )
    dims = [homology_dimension(d) for d in range(max_degree + 1)]
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


def ker_d_generators_check(max_degree: int = 30) -> VerificationReport:
    """ker D equals the subalgebra on the six listed elements, degreewise."""
    report = VerificationReport("dga-kernel")
    alg = w_algebra()
    gens = [alg.parse(s) for s in KERNEL_GENERATORS]
    first_bad = None
    for d, (sub_dim, _) in enumerate(alg.subalgebra_ranks(gens, max_degree)):
        kernel_dim = len(alg.monomials_of_degree(d)) - _rank_of_d(d)
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


def verify_sq1_correspondence(max_degree: int = 20) -> bool:
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


def dga_suite(max_degree: int = 40) -> VerificationReport:
    """The homotopy suite through max_degree, with the kernel generators
    checked through min(30, max_degree)."""
    report = verify_homotopy(max_degree)
    report.extend(ker_d_generators_check(min(30, max_degree)))
    report.add(
        "sq1-correspondence",
        verify_sq1_correspondence(min(20, max_degree)),
        "D matches Sq^1 on the six-generator cohomology ring under the "
        "alphabet identification (basis sweep to degree 20)",
    )
    report.suite = "dga"
    return report
