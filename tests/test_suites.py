import os
import subprocess
import sys
from pathlib import Path

from bpuverify import cli
from bpuverify.mod2alg import PresentedAlgebra, suites
from bpuverify.mod2alg.rings import bso6_ring, reduction_map, toda_ring
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


# -- the two section10 certificates, against the per-degree route they replace


def _g_generators():
    g = suites._phi_rho_generators()
    return [g[name] for name in ("g1", "g2", "g3", "g4")]


def _image_and_stated(stated=suites.STATED_IMAGE_GENERATORS):
    rho = reduction_map()
    image = [rho.apply(rho.source.gen(n)) for n in rho.source.gen_names]
    T = toda_ring()
    return image, [T.parse(s) for s in stated]


# y3^2*y9 in place of y3^2*y9 + y5^3: y5^3 is in the image subalgebra only
SHORT_STATED = suites.STATED_IMAGE_GENERATORS[:-1] + ("y3^2*y9",)


def test_g_leads_are_powers_of_distinct_variables():
    W6 = bso6_ring()
    key = [W6.gen_names.index(v) for v in suites.G_LEAD_ORDER]
    leads = [max(h, key=lambda m: [m[i] for i in key]) for h in _g_generators()]
    assert [W6.format(frozenset({m})) for m in leads] == ["w3", "w5^2", "w4^2", "w6^2"]


def test_lead_certificate_fails_under_the_ring_order_at_degree_16():
    W6 = bso6_ring()
    failure = suites._lead_independence_failure(W6, _g_generators(), 40, W6.gen_names)
    assert failure == "two monomials of degree 16 share a lead under lex w6 > w5 > w4 > w3 > w2"
    assert suites._lead_independence_failure(W6, _g_generators(), 15, W6.gen_names) == ""


def test_g_independence_line_names_the_clashing_degree(monkeypatch):
    monkeypatch.setattr(suites, "G_LEAD_ORDER", bso6_ring().gen_names)
    by_name = {c.name: c for c in verify_reduction_image_claims(24).checks}
    line = by_name["g-independence"]
    assert line.status == "fail" and "degree 16" in line.witness
    assert line.detail == "all monomials in g1..g4 are linearly independent through degree 24"


def test_lead_certificate_refuses_a_ring_with_relations():
    T = toda_ring()
    failure = suites._lead_independence_failure(T, [T.gen("y3"), T.gen("y5")], 10, T.gen_names)
    assert failure == "toda has relations, so it is not known to be a domain"


def test_equality_certificate_refuses_a_short_stated_generator(monkeypatch):
    image, stated = _image_and_stated(SHORT_STATED)
    T = toda_ring()
    assert suites._equal_subalgebras_failure(T, image, stated) == (
        "dimensions at degree 15: image 3, stated 3, both together 4")
    # the old per-degree dimension comparison sees it only at degree 30
    old_image = [rank for rank, _ in T.subalgebra_ranks(image, 32)]
    old_stated = [rank for rank, _ in T.subalgebra_ranks(stated, 32)]
    assert old_image[:30] == old_stated[:30] and old_image[30] != old_stated[30]
    monkeypatch.setattr(suites, "STATED_IMAGE_GENERATORS", SHORT_STATED)
    by_name = {c.name: c for c in verify_reduction_image_claims(16).checks}
    line = by_name["image-subalgebra-dimensions"]
    assert line.status == "fail" and line.witness.startswith("dimensions at degree 15:")


def test_certificates_agree_with_the_per_degree_route_through_degree_32():
    W6, T = bso6_ring(), toda_ring()
    assert suites._lead_independence_failure(W6, _g_generators(), 32, suites.G_LEAD_ORDER) == ""
    assert all(rank == count for rank, count in W6.subalgebra_ranks(_g_generators(), 32))
    image, stated = _image_and_stated()
    assert suites._equal_subalgebras_failure(T, image, stated) == ""
    assert ([rank for rank, _ in T.subalgebra_ranks(image, 32)]
            == [rank for rank, _ in T.subalgebra_ranks(stated, 32)])


def test_section10_sweeps_no_subalgebra_above_the_generator_degrees(monkeypatch, capsys):
    degrees = []
    real = PresentedAlgebra.subalgebra_ranks

    def spy(self, generators, max_degree):
        degrees.append(max_degree)
        return real(self, generators, max_degree)

    monkeypatch.setattr(PresentedAlgebra, "subalgebra_ranks", spy)
    assert cli.main(["section10", "--max-degree", "80"]) == 0
    out = capsys.readouterr().out
    assert "pass g-independence: " in out and "pass image-subalgebra-dimensions: " in out
    assert degrees and max(degrees) <= 15


def _spy_on_monomial_basis(monkeypatch) -> list:
    degrees = []
    real = suites.monomial_basis

    def spy(degree, weights):
        degrees.append(degree)
        return real(degree, weights)

    monkeypatch.setattr(suites, "monomial_basis", spy)
    return degrees


def test_g_independence_sweeps_no_degree_when_the_leads_have_full_rank(monkeypatch, capsys):
    degrees = _spy_on_monomial_basis(monkeypatch)
    assert cli.main(["section10", "--max-degree", "200"]) == 0
    assert "pass g-independence: " in capsys.readouterr().out
    assert degrees == []


def test_g_independence_sweeps_when_the_leads_are_dependent(monkeypatch):
    """Under bso6's own order the leads are w3, w5^2, w5*w3 and w6^2, whose
    exponent vectors are dependent (twice that of w5*w3 is that of w5^2 plus
    twice that of w3), so the degrees are swept to name the clash."""
    degrees = _spy_on_monomial_basis(monkeypatch)
    W6 = bso6_ring()
    failure = suites._lead_independence_failure(W6, _g_generators(), 200, W6.gen_names)
    assert failure == "two monomials of degree 16 share a lead under lex w6 > w5 > w4 > w3 > w2"
    assert degrees == list(range(17))


def test_mod2alg_does_not_import_symfun():
    probe = "import sys, bpuverify.mod2alg.suites; print('bpuverify.symfun' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
