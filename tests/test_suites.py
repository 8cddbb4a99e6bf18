from bpuverify.mod2alg.rings import toda_ring
from bpuverify.mod2alg.suites import (
    expected_square,
    verify_bpu2_images,
    verify_restriction_square_identities,
    verify_reduction_image_claims,
    verify_steenrod_theorem,
)


def test_steenrod_suite_all_squares_unique():
    report = verify_steenrod_theorem()
    assert report.passed
    square_checks = [c for c in report.checks if c.name.startswith("square/")]
    assert len(square_checks) == 24  # six generators x four square indices
    assert all("1 candidate(s)" in c.detail for c in square_checks)
    relation_checks = [c for c in report.checks if c.name.startswith("relation/")]
    assert len(relation_checks) == 16  # four relations x four square indices
    assert any(c.status == "finding" and c.name == "notation/sq1-y8" for c in report.checks)


def test_expected_square_covers_table_and_instability():
    T = toda_ring()
    assert expected_square(T, "y8", 1) == T.parse("y3^3")
    assert expected_square(T, "y2", 2) == T.parse("y2^2")
    assert expected_square(T, "y8", 8) == T.parse("y8^2")
    assert expected_square(T, "y3", 8) == frozenset()


def test_restriction_square_identities():
    report = verify_restriction_square_identities()
    assert report.passed
    names = {c.name for c in report.checks}
    assert "pi/Sq8-y12" in names and "phi/Sq8-y12-mod-w2" in names


def test_bpu2_images():
    report = verify_bpu2_images()
    assert report.passed
    names = {c.name for c in report.checks}
    assert "k0/degree5-dimension" in names
    assert "k3/sq1-induction" in names
    assert "x21-resolution" in names


def test_reduction_image_claims():
    report = verify_reduction_image_claims(24)
    assert report.passed
    assert {c.name for c in report.checks} == {
        "rho-quartic",
        "g-identity",
        "g-independence",
        "image-subalgebra-dimensions",
    }
