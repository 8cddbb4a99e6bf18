"""Acceptance criteria, one test per criterion, each printing a verdict line.

Two criteria certify defects in the source material, each through a witness
and a second, independent route to the same numbers:

* criterion 3: the four displayed kernel generators do not span the kernel
  lattice integrally.  The index of the generator-monomial lattice in the
  kernel lattice is read off the raw coordinate stack; it is a power of 3,
  and ``lattice/dNN`` must pass exactly where it is 1.  The degree-4 witness
  is u = (a2^2 - 64*a4)/3, an integral kernel element outside the span of
  a2^2 and a4.
* criterion 9: the homology of the differential graded algebra is the
  series of the projection's image, and the stated tensor-ring series
  overcounts it by exactly the x2^a*x3 (a >= 1) monomials, which vanish
  because x2*x3 = 0.  The degree-5 witness: the only normal-form monomial
  is x5 and D(x5) = x3^2 != 0, so H^5 = 0 where the stated series gives 1.

The remaining nine criteria pass at their stated tolerances.
"""

import math
import re
import time

from bpuverify import dga as dga_mod
from bpuverify.intlinalg import IntMatrix, smith_normal_form, solve_integer
from bpuverify.mod2alg.rings import toda_ring
from bpuverify.mod2alg.suites import (
    verify_restriction_square_identities,
    verify_reduction_image_claims,
    verify_steenrod_theorem,
)
from bpuverify.poly import monomial_basis
from bpuverify.series import geometric_product
from bpuverify.ssverify import spectral_suite
from bpuverify.symfun import (
    SymmetricContext,
    alpha_generators,
    certify_k4_presentation,
    coker_order,
    coordinates,
    theta_map,
    vistoli_delta_check,
)

from oracles import (
    alpha_monomial,
    delta_polynomial,
    ker_d_generators_check,
    toda_dimension_oracle,
    verify_homotopy,
)

CTX = SymmetricContext(4)
ALPHA = alpha_generators(CTX)


def _verdict(number, ok, summary, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s) - {summary}")
    return ok


def test_criterion_01_defining_relation():
    t0 = time.perf_counter()
    residue = 64 * ALPHA.a6 - ALPHA.a2 ** 3 - 27 * ALPHA.a3 ** 2 + 48 * ALPHA.a2 * ALPHA.a4
    elapsed = time.perf_counter() - t0
    ok = residue.is_zero() and elapsed < 1.0
    assert _verdict(1, ok, "64*a6 - a2^3 - 27*a3^2 + 48*a2*a4 == 0 exactly", elapsed)


def test_criterion_02_generators_are_divergence_free():
    t0 = time.perf_counter()
    images = {name: CTX.nabla_sigma(g) for name, g in ALPHA.as_dict().items()}
    elapsed = time.perf_counter() - t0
    ok = all(v.is_zero() for v in images.values()) and elapsed < 1.0
    assert _verdict(2, ok, "divergence kills a2, a3, a4, a6", elapsed)


def _generator_lattice_index(d):
    """(rank, index) of the degree-d generator-monomial lattice in the kernel.

    The rows are the raw sigma-coordinates of the monomials
    a2^i * a3^j * a4^k * a6^l of degree d.  They lie in the kernel, and the
    kernel of an integer matrix is saturated; so when the stack has the
    kernel's rank, the index is the product of its nonzero invariant factors.
    """
    expos = monomial_basis(d, (2, 3, 4, 6))
    if not expos:
        return 0, 1
    rows = [coordinates(CTX, alpha_monomial(ALPHA, e), d) for e in expos]
    snf = smith_normal_form(IntMatrix(rows))
    return snf.rank, math.prod(f for f in snf.invariant_factors if f)


def _is_power_of_3(n):
    while n > 1 and n % 3 == 0:
        n //= 3
    return n == 1


def test_criterion_03_kernel_ranks_and_lattices_to_degree_16():
    t0 = time.perf_counter()
    report = certify_k4_presentation(16)
    elapsed = time.perf_counter() - t0
    status = {c.name: c.status for c in report.checks}
    problems = [
        f"{c.name} is {c.status}"
        for c in report.checks
        if c.status != "pass"
        and (
            c.name.startswith(("rank/", "hilbert/", "divergence/"))
            or c.name == "relation"
        )
    ]

    series = geometric_product((2, 3, 4), 16)
    index = {}
    for d in range(17):
        rank, index[d] = _generator_lattice_index(d)
        if rank != series[d]:
            problems.append(
                f"degree {d}: generator monomials have rank {rank}, the "
                f"kernel series {series[d]}"
            )
        if not _is_power_of_3(index[d]):
            problems.append(f"degree {d}: index {index[d]} is not a power of 3")
        lattice = status.get(f"lattice/d{d:02d}")
        if lattice != ("pass" if index[d] == 1 else "fail"):
            problems.append(f"lattice/d{d:02d} is {lattice} but the index is {index[d]}")

    defect_degrees = [d for d in range(17) if index[d] > 1]
    findings = [c for c in report.checks if c.name == "three-primary-defect"]
    named = None
    if len(findings) == 1 and findings[0].status == "finding":
        match = re.search(r"at degrees \[([0-9, ]*)\]", findings[0].detail)
        if match:
            named = [int(x) for x in match.group(1).split(",")]
    if named != defect_degrees:
        problems.append(
            f"the three-primary-defect finding names degrees {named}, the "
            f"index exceeds 1 at {defect_degrees}"
        )

    # The degree-4 witness: the only generator monomials are a2^2 and a4.
    s1, s2, s3, s4 = (CTX.sigma(k) for k in range(1, 5))
    u = 3 * s1 ** 4 - 16 * s1 ** 2 * s2 + 64 * s1 * s3 - 256 * s4
    if not (3 * u - (ALPHA.a2 ** 2 - 64 * ALPHA.a4)).is_zero():
        problems.append("degree 4: 3*u != a2^2 - 64*a4")
    if not CTX.nabla_sigma(u).is_zero():
        problems.append("degree 4: u is not divergence-free")
    span = [list(coordinates(CTX, g, 4)) for g in (ALPHA.a2 ** 2, ALPHA.a4)]
    if solve_integer(span, coordinates(CTX, u, 4)) is not None:
        problems.append("degree 4: u is an integer combination of a2^2 and a4")

    ok = not problems and elapsed < 60.0
    _verdict(
        3,
        ok,
        "kernel ranks match the series through degree 16; the generator-"
        "monomial lattice has 3-power index, lattice/dNN passes exactly where "
        "it is 1, and (a2^2 - 64*a4)/3 is an integral kernel element outside "
        "the span of a2^2 and a4",
        elapsed,
    )
    assert not problems, "; ".join(problems)
    assert elapsed < 60.0


def test_criterion_04_cokernel_orders():
    t0 = time.perf_counter()
    cases = {
        "1": CTX.sigma_ring.one(),
        "a4": ALPHA.a4,
        "a6": ALPHA.a6,
        "a4^2": ALPHA.a4 ** 2,
        "a4*a6": ALPHA.a4 * ALPHA.a6,
    }
    orders = {name: coker_order(CTX, f) for name, f in cases.items()}
    elapsed = time.perf_counter() - t0
    ok = all(v == 4 for v in orders.values()) and elapsed < 30.0
    assert _verdict(4, ok, f"cokernel orders {orders} are all 4", elapsed)


def test_criterion_05_cyclic_restriction_of_the_alternating_product():
    t0 = time.perf_counter()
    ctx3 = SymmetricContext(3)
    image = theta_map(ctx3, delta_polynomial(ctx3))
    report = vistoli_delta_check(3)
    elapsed = time.perf_counter() - t0
    ok = image == 2 and report.passed and elapsed < 5.0
    assert _verdict(5, ok, f"theta(delta) = {image}*eta^6 = -eta^6 mod 3", elapsed)


def test_criterion_06_steenrod_squares():
    t0 = time.perf_counter()
    report = verify_steenrod_theorem()
    elapsed = time.perf_counter() - t0
    squares = [c for c in report.checks if c.name.startswith("square/")]
    relations = [c for c in report.checks if c.name.startswith("relation/")]
    ok = (
        report.passed
        and len(squares) == 24
        and all("1 candidate(s)" in c.detail for c in squares)
        and len(relations) == 16
        and elapsed < 60.0
    )
    assert _verdict(
        6,
        ok,
        "all tabled squares re-derived as singleton candidate sets; "
        "Sq^i kills all four relations for i in {1,2,4,8}",
        elapsed,
    )


def test_criterion_07_restriction_square_identities():
    t0 = time.perf_counter()
    report = verify_restriction_square_identities()
    elapsed = time.perf_counter() - t0
    names = {c.name for c in report.checks}
    required = {
        "pi/Sq2-y8",
        "pi/Sq8-y12",
        "delta/Sq4-y9",
        "phi/Sq2-y12",
        "phi/Sq8-y12-mod-w2",
    }
    ok = report.passed and required <= names and elapsed < 30.0
    assert _verdict(7, ok, "intermediate square identities reproduced exactly", elapsed)


def test_criterion_08_reduction_image_suite():
    t0 = time.perf_counter()
    report = verify_reduction_image_claims(24)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 120.0
    assert _verdict(
        8,
        ok,
        "rho-quartic vanishes; g-identity holds; g1..g4 independent and the "
        "image subalgebra dimensions match through degree 24",
        elapsed,
    )


def test_criterion_09_dga_homotopy_and_homology():
    t0 = time.perf_counter()
    homotopy = verify_homotopy(40)
    kernel = ker_d_generators_check(30)
    dims = [dga_mod.homology_dimension(d) for d in range(41)]
    stated = dga_mod.stated_answer_series(40)
    elapsed = time.perf_counter() - t0
    by_name = {c.name: c.status for c in homotopy.checks}
    structural_ok = (
        by_name["d-squared"] == "pass"
        and by_name["homotopy-identity"] == "pass"
        and kernel.passed
    )

    # The verified chain homotopy identifies the homology with the image of
    # the projection; the stated series adds the x2^a*x3 (a >= 1) monomials,
    # counted by t^5/((1-t^2)(1-t^8)(1-t^12)).
    image = dga_mod.homology_series(40)
    dropped = [0] * 5 + geometric_product((2, 8, 12), 35)
    problems = []
    for d in range(41):
        if dims[d] != image[d]:
            problems.append(
                f"degree {d}: homology {dims[d]}, projection image {image[d]}"
            )
        if stated[d] - dims[d] != dropped[d]:
            problems.append(
                f"degree {d}: stated series exceeds the homology by "
                f"{stated[d] - dims[d]}, x2^a*x3 monomials {dropped[d]}"
            )

    # The degree-5 witness: W is {x5} there and D(x5) = x3^2 != 0.
    alg = dga_mod.w_algebra()
    x5 = alg.gen("x5")
    x3_squared = alg.parse("x3^2")
    if alg.monomials_of_degree(5) != tuple(x5):
        problems.append(
            f"degree 5: normal-form basis {alg.monomials_of_degree(5)}, not {{x5}}"
        )
    if alg.normal_form(alg.parse("x2*x3")):
        problems.append("degree 5: x2*x3 does not reduce to 0")
    if alg.normal_form(x3_squared) != x3_squared or dga_mod.differential(x5) != x3_squared:
        problems.append(
            f"degree 5: D(x5) = {alg.format(dga_mod.differential(x5))}, not x3^2"
        )
    if (dims[5], stated[5]) != (0, 1):
        problems.append(f"degree 5: homology {dims[5]}, stated {stated[5]}; expected 0, 1")

    ok = structural_ok and not problems and elapsed < 120.0
    _verdict(
        9,
        ok,
        "D^2 = 0 and P*D + D*P = projection + id through degree 40; kernel "
        "generators match through degree 30; the homology equals the series "
        "of the projection's image, and the stated series overcounts it by "
        "the x2^a*x3 monomials (H^5 = 0, stated 1)",
        elapsed,
    )
    assert structural_ok, f"homotopy checks {by_name}; kernel generators {kernel.failures}"
    assert elapsed < 120.0
    assert not problems, "; ".join(problems)


def test_criterion_10_spectral_checks():
    t0 = time.perf_counter()
    report = spectral_suite()
    elapsed = time.perf_counter() - t0
    names = {c.name: c.status for c in report.checks}
    ok = (
        report.passed
        and names.get("h3-order") == "pass"
        and names.get("E4-9-4/conclusion") == "pass"
        and names.get("E4-11-2/conclusion") == "pass"
        and names.get("chern/displayed-c2-pullback") == "finding"
        and elapsed < 10.0
    )
    assert _verdict(
        10,
        ok,
        "divergence(s1) = 4; both fourth-page entries vanish; Whitney "
        "components match with the degree-2 display discrepancy as a finding",
        elapsed,
    )


def test_criterion_11_graded_piece_dimensions_against_the_oracle():
    t0 = time.perf_counter()
    T = toda_ring()
    ok_dims = all(
        len(T.monomials_of_degree(d)) == toda_dimension_oracle(d) for d in range(25)
    )
    elapsed = time.perf_counter() - t0
    ok = ok_dims and elapsed < 30.0
    assert _verdict(
        11,
        ok,
        "presented-ring dimensions equal the independent enumeration through "
        "degree 24",
        elapsed,
    )
