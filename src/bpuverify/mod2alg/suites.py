"""Verification suites for the mod-2 structure: the Steenrod table on the
six-generator ring, the restriction images along BPU(2), and the image of
the integral classes under mod-2 reduction."""

from __future__ import annotations

from ..poly import Polynomial, Ring, _first_lead_clash, monomial_basis
from ..report import VerificationReport
from .algebra import Poly, PresentedAlgebra, poly_mul
from .rings import (
    bso3_action,
    bso3_ring,
    bso3_truncated,
    bso3_truncated_action,
    bso6_action,
    bso6_ring,
    bu4_action,
    bu4_ring,
    delta_star,
    phi_star,
    pi_star,
    reduction_map,
    restriction_maps,
    toda_action,
    toda_ring,
)
from .steenrod import solve_sq, sq1_preimages

SQUARE_INDICES = (1, 2, 4, 8)

# Z[p1, W3]; the relation 2*W3 = 0 is imposed by vanishes_mod_2w3.
INTEGRAL_SW = Ring(("p1", "W3"), (4, 3))

# Under lex with w6 > w4 > w5 > w3 > w2 the leads of g1..g4 are w3, w5^2, w4^2
# and w6^2, powers of four distinct variables, so no two g-monomials share a
# lead.  Under bso6's own order g3 leads with w5*w3, and g1^2*g2 and g3^2 share
# the lead w5^2*w3^2 in degree 16.
G_LEAD_ORDER = ("w6", "w4", "w5", "w3", "w2")

# The stated seven generators of the reduction-image subalgebra in the toda ring.
STATED_IMAGE_GENERATORS = (
    "y2^2", "y2^3", "y3", "y5^2", "y8 + y3*y5", "y12 + y3*y9", "y3^2*y9 + y5^3",
)


def vanishes_mod_2w3(f: Polynomial) -> bool:
    """Whether f is zero in Z[p1, W3]/(2*W3): its W3-free part is zero and
    every other coefficient is even."""
    return all(e[1] and c % 2 == 0 for e, c in f.terms.items())


def mod2_image(f: Polynomial) -> Poly:
    """Reduction to the Stiefel-Whitney ring mod (wp3^6): p1 -> wp2^2, W3 -> wp3."""
    target = bso3_truncated(6)
    odd = frozenset((b, 2 * a) for (a, b), c in f.terms.items() if c % 2)  # gens (wp3, wp2)
    return target.normal_form(odd)


def expected_square(algebra: PresentedAlgebra, gname: str, i: int) -> Poly:
    """Sq^i of a generator of the six-generator ring under its action: the
    tabled value, or the instability-forced one (g^2 at i = deg, 0 above)."""
    return toda_action().sq_gen(i, algebra.gen_names.index(gname))


def verify_steenrod_theorem() -> VerificationReport:
    """Re-derive every tabled square from the three restriction maps.

    For each (generator, i) with i in {1,2,4,8}: the candidate set of
    solve_sq must be exactly {tabled value}; afterwards Sq^i of every
    defining relation must reduce to zero (well-definedness of the action).
    """
    report = VerificationReport("steenrod")
    T = toda_ring()
    act = toda_action()
    for gname in ("y2", "y3", "y5", "y8", "y9", "y12"):
        for i in SQUARE_INDICES:
            expected = expected_square(T, gname, i)
            candidates = solve_sq(T, restriction_maps(), act, gname, i)
            hit = expected in candidates
            unique = len(candidates) == 1
            detail = (
                f"Sq^{i}({gname}) = {T.format(expected)}; "
                f"{len(candidates)} candidate(s) from the map constraints"
            )
            witness = "; ".join(T.format(c) for c in candidates[:4])
            report.add(f"square/{gname}/Sq{i}", hit and unique, detail, witness)
    for r in T.relations:
        for i in SQUARE_INDICES:
            value = act.sq(i, r)
            report.add(
                f"relation/Sq{i}/{T.format(frozenset({T.leading_monomial(r)}))}",
                not value,
                f"Sq^{i}({T.format(r)}) reduces to {T.format(value)}",
            )
    report.finding(
        "notation/sq1-y8",
        "the source table writes Sq^1(y_8) = x_3^3, mixing alphabets; "
        "read as y3^3, consistently with the ring-map computation",
    )
    return report


def verify_restriction_square_identities() -> VerificationReport:
    """The intermediate square computations in the three target rings."""
    report = VerificationReport("restriction-squares")
    T = toda_ring()
    B, W6, W3 = bu4_ring(), bso6_ring(), bso3_ring()
    pa, wa, da = bu4_action(), bso6_action(), bso3_action()
    pi, phi, dl = pi_star(), phi_star(), delta_star()

    def chk(name, lhs, rhs, algebra):
        report.add(
            name,
            lhs == rhs,
            f"{algebra.format(lhs)} == {algebra.format(rhs)}",
        )

    y = {g: T.gen(g) for g in T.gen_names}
    chk("pi/Sq2-y8", pa.sq(2, pi.apply(y["y8"])), frozenset(), B)
    chk("pi/Sq2-y12", pa.sq(2, pi.apply(y["y12"])), pi.apply(T.parse("y2*y12")), B)
    chk("pi/Sq4-y8", pa.sq(4, pi.apply(y["y8"])), pi.apply(T.parse("y2^2*y8 + y12")), B)
    chk("pi/Sq4-y12", pa.sq(4, pi.apply(y["y12"])), pi.apply(T.parse("y2^2*y12")), B)
    chk("pi/Sq8-y12", pa.sq(8, pi.apply(y["y12"])), pi.apply(T.parse("y8*y12")), B)

    chk("delta/Sq2-y8", da.sq(2, dl.apply(y["y8"])), W3.parse("wp2^2*wp3^2"), W3)
    chk("delta/Sq2-y9", da.sq(2, dl.apply(y["y9"])), W3.parse("wp2*wp3^3"), W3)
    chk("delta/Sq4-y8", da.sq(4, dl.apply(y["y8"])), W3.parse("wp3^4 + wp2^3*wp3^2"), W3)
    chk("delta/Sq4-y9", da.sq(4, dl.apply(y["y9"])), W3.parse("wp2^2*wp3^3"), W3)
    chk("delta/Sq4-y12", da.sq(4, dl.apply(y["y12"])), W3.parse("wp2^2*wp3^4"), W3)

    chk(
        "phi/Sq2-y12",
        wa.sq(2, phi.apply(y["y12"])),
        W6.parse("w2^4*w3^2 + w2*w3^4 + w3^2*w4^2"),
        W6,
    )
    lhs = wa.sq(8, phi.apply(y["y12"]))
    rhs = poly_mul(phi.apply(y["y8"]), phi.apply(y["y12"])) ^ W6.parse("w3^4*w4^2")
    residue = lhs ^ W6.normal_form(rhs)
    w2_idx = W6.gen_names.index("w2")
    divisible = all(m[w2_idx] >= 1 for m in residue)
    report.add(
        "phi/Sq8-y12-mod-w2",
        divisible,
        "Sq^8(phi(y12)) == phi(y8)*phi(y12) + w3^4*w4^2 modulo (w2)",
        witness=W6.format(residue),
    )
    return report


def verify_bpu2_images() -> VerificationReport:
    """The restriction images x_{2,k} |-> w2^(2^(k+1)-1) w3 for k <= 3 and
    their nonvanishing consequences."""
    report = VerificationReport("bpu2")
    full = bso3_ring()
    full_act = bso3_action()

    # k = 0 in the untruncated ring: w2*w3 is the only nonzero element of
    # degree 5 and its Sq^1 is w3^2 (the image of the square of the degree-3
    # class).
    dim5 = len(full.monomials_of_degree(5))
    report.add("k0/degree5-dimension", dim5 == 1, f"dim H^5(BSO(3)) = {dim5}")
    claimed0 = full.parse("wp2*wp3")
    report.add(
        "k0/sq1",
        full_act.sq(1, claimed0) == full.parse("wp3^2"),
        "Sq^1(wp2*wp3) == wp3^2",
    )

    trunc = bso3_truncated(3)
    tact = bso3_truncated_action(3)
    for k in range(1, 4):
        deg = 2 ** (k + 2) + 1
        claimed = trunc.parse(f"wp2^{2**(k+1)-1}*wp3")
        target = trunc.parse(f"wp2^{2**(k+1)-2}*wp3^2")
        ok_sq = tact.sq(1, claimed) == target
        # uniqueness: every element of that degree mod (wp3^3) with that Sq^1
        hits = sq1_preimages(trunc, tact, target, deg)
        report.add(
            f"k{k}/sq1-induction",
            ok_sq and hits == [claimed],
            f"wp2^{2**(k+1)-1}*wp3 is the unique degree-{deg} element with "
            f"Sq^1 = wp2^{2**(k+1)-2}*wp3^2 mod (wp3^3); {len(hits)} solution(s)",
        )

    for k in range(0, 4):
        claimed = full.parse(f"wp2^{2**(k+1)-1}*wp3")
        ok = True
        for i in range(5):
            for j in range(5):
                value = full.mul(full.power(full.gen("wp3"), i), full.power(claimed, j))
                if not value:
                    ok = False
        report.add(
            f"k{k}/products-nonzero",
            ok,
            f"wp3^i * (wp2^{2**(k+1)-1}*wp3)^j != 0 for all i, j <= 4",
        )

    p1, w3 = INTEGRAL_SW.var("p1"), INTEGRAL_SW.var("W3")
    for k in range(0, 4):
        base = p1 ** (2 ** k - 1) * w3 ** 2
        ok = True
        for i in range(5):
            for j in range(5):
                if vanishes_mod_2w3(w3 ** i * base ** j):
                    ok = False
        # the integral class reduces to the square of the mod-2 one (mod W3^6)
        expected = bso3_truncated(6).parse(f"wp2^{2**(k+1)-2}*wp3^2")
        report.add(
            f"k{k}/integral-class",
            ok and mod2_image(base) == expected,
            f"W3^i * (p1^{2**k-1}*W3^2)^j != 0 in Z[p1,W3]/(2W3), and the class "
            f"reduces to wp2^{2**(k+1)-2}*wp3^2 mod (wp3^6)",
        )

    # resolution of the degree-9 restriction image: the Sq^4 candidate set
    # collapses the two a-priori choices to y3^3 + y9.
    T = toda_ring()
    candidates = solve_sq(T, restriction_maps(), toda_action(), "y5", 4)
    resolved = candidates == [T.parse("y3^3 + y9")]
    report.add(
        "x21-resolution",
        resolved,
        "the two degree-9 preimage choices collapse to y3^3 + y9 under the "
        "Sq^4 computation in the Stiefel-Whitney ring",
        witness="; ".join(T.format(c) for c in candidates),
    )
    return report


def _phi_rho_generators():
    """Images under the composite of reduction and restriction to BSO(6)."""
    T = toda_ring()
    phi = phi_star()
    rho = reduction_map()
    shadow = rho.source
    def img(name):
        return phi.apply(rho.apply(shadow.gen(name)))
    return {
        "g1": img("x1"),
        "g2": img("y21"),
        "g3": img("a4"),
        "g4": img("a6"),
        "g5": img("y210"),
    }


def _lead_independence_failure(algebra, gens, max_degree: int, order) -> str:
    """Empty when, in each degree d <= max_degree, the monomials in the
    nonzero homogeneous ``gens`` are linearly independent by the lead-term
    certificate; otherwise the fact that failed.

    The certificate needs a free algebra (an empty Groebner basis), a domain,
    so under lex with variables compared in ``order`` distinct leads of the
    degree-d monomials make them independent; no product is expanded, and the
    degrees are swept only for dependent leads (``poly._first_lead_clash``).
    """
    if algebra.groebner:
        return f"{algebra.name} has relations, so it is not known to be a domain"
    positions = [algebra.gen_names.index(v) for v in order]
    leads = [max(h, key=lambda m: [m[i] for i in positions]) for h in gens]
    weights = [algebra.poly_degree(h) for h in gens]
    clash = _first_lead_clash((monomial_basis(d, weights) for d in range(max_degree + 1)), leads)
    return "" if clash is None else (
        f"two monomials of degree {clash} share a lead under lex {' > '.join(order)}")


def _equal_subalgebras_failure(algebra, image, stated) -> str:
    """Empty when ``image`` and ``stated`` generate the same subalgebra: each
    stated generator lies in S(image) and each image generator in S(stated).
    Otherwise the first generator outside the other side's subalgebra.  Both
    memberships run first, so a bad generator on either side is refused."""
    outside = (algebra.first_nonmember(stated, image), algebra.first_nonmember(image, stated))
    sides = (("stated", stated, "image"), ("image", image, "stated"))
    for i, (name, gens, other) in zip(outside, sides):
        if i is not None:
            return f"{name} generator {algebra.format(gens[i])} lies outside the {other} subalgebra"
    return ""


def verify_reduction_image_claims(max_degree: int) -> VerificationReport:
    """The computational identities behind the integral presentation's
    quartic relation and the reduction-image subalgebra.

    (a) and (b) are single identities.  (c) shows g1..g4 algebraically
    independent through ``max_degree`` by their leads in the free ring bso6:
    the g-monomials of each degree have distinct leads under
    ``G_LEAD_ORDER``.  (d) shows the reduction-image subalgebra equal to the
    stated seven-generator one, hence of the same dimension in every degree,
    from each generator of either lying in the other's subalgebra.  Neither
    expands a product above the largest generator degree.
    """
    report = VerificationReport("reduction-image")
    T = toda_ring()
    rho = reduction_map()
    shadow = rho.source

    # (a) the quartic combination of integral generators reduces to zero
    y_expr = shadow.parse("x1^6*a6 + x1^4*y21*a4 + x1^5*y210 + y21^3 + y210^2")
    value = rho.apply(y_expr)
    report.add(
        "rho-quartic",
        not value,
        f"rho(x1^6*a6 + x1^4*y21*a4 + x1^5*y210 + y21^3 + y210^2) = {T.format(value)}",
    )

    # (b) the corresponding identity among the g_i in the Stiefel-Whitney ring
    W6 = bso6_ring()
    g = _phi_rho_generators()
    h = (
        W6.mul(W6.power(g["g1"], 6), g["g4"])
        ^ W6.mul(W6.mul(W6.power(g["g1"], 4), g["g2"]), g["g3"])
        ^ W6.mul(W6.power(g["g1"], 5), g["g5"])
        ^ W6.power(g["g2"], 3)
        ^ W6.power(g["g5"], 2)
    )
    h = W6.normal_form(h)
    report.add(
        "g-identity",
        not h,
        f"g1^6*g4 + g1^4*g2*g3 + g1^5*g5 + g2^3 + g5^2 = {W6.format(h)}",
    )

    # (c) algebraic independence of g1..g4, from their leads
    gens = [g[name] for name in ("g1", "g2", "g3", "g4")]
    failure = _lead_independence_failure(W6, gens, max_degree, G_LEAD_ORDER)
    report.add(
        "g-independence",
        not failure,
        f"all monomials in g1..g4 are linearly independent through degree {max_degree}",
        failure,
    )

    # (d) the reduction-image subalgebra equals the stated seven-generator one
    image_gens = [rho.apply(shadow.gen(n)) for n in shadow.gen_names]
    stated = [T.parse(s) for s in STATED_IMAGE_GENERATORS]
    failure = _equal_subalgebras_failure(T, image_gens, stated)
    report.add(
        "image-subalgebra-dimensions",
        not failure,
        f"reduction-image dimensions match the seven-generator list through degree {max_degree}",
        witness=failure,
    )
    return report
