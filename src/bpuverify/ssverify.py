"""The finitely many spectral-sequence linear-algebra facts the arguments use.

No general page machinery: each check is a bespoke exact statement about the
divergence operator between two graded pieces, with the torsion annotation
of the relevant entry recorded explicitly.  The third-page differential on
the symmetric-function column is divergence followed by multiplication with
the degree-3 class.
"""

from __future__ import annotations

from . import gf2
from .intlinalg import rank_mod_p
from .poly import Polynomial, Ring
from .report import VerificationReport
from .symfun import (
    SymmetricContext,
    alpha_generators,
    h3_order,
    nabla_matrix,
)


def verify_E4_9_4() -> VerificationReport:
    """The bidegree (9,4) entry of the fourth page vanishes.

    Over GF(2) (the column of the cubed degree-3 class is 2-torsion):
    the kernel of the divergence on the degree-2 piece is spanned by s1^2,
    and s1*s2 maps onto it, so kernel = image.
    """
    report = VerificationReport("E4-9-4")
    ctx = SymmetricContext(4)
    a = nabla_matrix(ctx, 2)
    columns = [
        sum((row[j] % 2) << i for i, row in enumerate(a.entries)) for j in range(a.cols)
    ]
    _, nullspace = gf2.solve_affine(columns, 0)
    kernel = [tuple(mask >> j & 1 for j in range(a.cols)) for mask in nullspace]
    basis = ctx.sigma_basis(2)
    report.add(
        "kernel",
        kernel == [(1, 0)],
        f"mod-2 kernel on the degree-2 piece is spanned by s1^2 "
        f"(basis {[str(Polynomial(ctx.sigma_ring, {m: 1})) for m in basis]}, "
        f"kernel {kernel})",
    )
    image = ctx.nabla_sigma(ctx.sigma(1) * ctx.sigma(2))
    image_mod2 = image.reduce_coefficients(2)
    s1sq = (ctx.sigma(1) ** 2).reduce_coefficients(2)
    report.add(
        "image",
        image_mod2 == s1sq,
        f"divergence(s1*s2) = {image} = s1^2 mod 2",
    )
    report.add(
        "conclusion",
        kernel == [(1, 0)] and image_mod2 == s1sq,
        "kernel equals image, so the (9,4) entry of page four is zero "
        "(2-torsion column annotation)",
    )
    return report


def verify_E4_11_2() -> VerificationReport:
    """The bidegree (11,2) entry of the fourth page vanishes mod 3."""
    report = VerificationReport("E4-11-2")
    ctx = SymmetricContext(4)
    image = ctx.nabla_sigma(ctx.sigma(1) ** 2)
    image_mod3 = image.reduce_coefficients(3)
    minus_s1 = (-ctx.sigma(1)).reduce_coefficients(3)
    report.add(
        "image",
        image_mod3 == minus_s1,
        f"divergence(s1^2) = {image} = 2*s1 = -s1 mod 3",
    )
    # the target entry is one-dimensional (Z/3 on the degree-1 piece)
    target_dim = len(ctx.sigma_basis(1))
    report.add("target-dimension", target_dim == 1, f"target is rank {target_dim}")
    onto = rank_mod_p(nabla_matrix(ctx, 2), 3) == 1
    report.add(
        "conclusion",
        onto and image_mod3 == minus_s1,
        "the differential hits the generator, so the (11,2) entry of page "
        "four vanishes (3-torsion annotation)",
    )
    return report


def verify_chern_pullbacks() -> VerificationReport:
    """Component identities of the diagonal restriction of the total Chern
    class, and the divergence-free generators' images under it."""
    report = VerificationReport("chern-pullback")
    prime = Ring(("d1", "d2"), (1, 2))  # restricted Chern classes
    d1, d2 = prime.var("d1"), prime.var("d2")
    one = prime.one()
    total = (one + d1 + d2) ** 2
    components = {d: total.graded_part(d) for d in range(0, 5)}
    expected = {
        0: one,
        1: 2 * d1,
        2: d1 ** 2 + 2 * d2,
        3: 2 * d1 * d2,
        4: d2 ** 2,
    }
    for d in range(0, 5):
        report.add(
            f"component/degree{d}",
            components[d] == expected[d],
            f"degree-{d} part of the squared total class is {components[d]}",
        )
    report.add(
        "whitney-reassembly",
        sum(components.values(), prime.zero()) == total,
        "the graded components sum back to the squared total class",
    )
    report.finding(
        "displayed-c2-pullback",
        "the displayed degree-2 pullback reads 2*c2'*c1'^2, which is "
        "dimensionally inconsistent; the Whitney square gives c1'^2 + 2*c2' "
        "and no guess is made about the intended notation",
    )

    ctx = SymmetricContext(4)
    al = alpha_generators(ctx)
    images = {f"s{k}": expected[k] for k in range(1, 5)}

    def pull(f):
        return f.substitute(images)

    pulled_a4 = pull(al.a4)
    target = (d1 ** 2 - 4 * d2) ** 2
    report.add(
        "alpha4-pullback",
        pulled_a4 == target,
        f"the degree-4 generator restricts to (d1^2 - 4*d2)^2 = {target}",
    )
    for name, gen in (("a2", al.a2), ("a3", al.a3), ("a6", al.a6)):
        value = pull(gen)
        even = all(c % 2 == 0 for c in value.terms.values())
        report.add(
            f"{name}-pullback-even",
            even,
            f"the restriction of {name} is divisible by 2 ({value})",
        )
    return report


def spectral_suite() -> VerificationReport:
    report = VerificationReport("spectral")
    n = 4
    order = h3_order(n)
    report.add(
        "h3-order",
        order == n,
        f"divergence(s1) = {order} in {n} variables: the degree-3 class "
        f"generates a cyclic group of order {n}",
    )
    report.extend(verify_E4_9_4(), prefix="E4-9-4/")
    report.extend(verify_E4_11_2(), prefix="E4-11-2/")
    report.extend(verify_chern_pullbacks(), prefix="chern/")
    return report
