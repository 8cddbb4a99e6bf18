import random

from bpuverify.intlinalg import IntMatrix, rank_mod_p
from bpuverify.ssverify import (
    spectral_suite,
    verify_chern_pullbacks,
    verify_E4_9_4,
    verify_E4_11_2,
)
from bpuverify.symfun import SymmetricContext, alpha_generators, nabla_matrix

from oracles import expand, nabla, to_sigma


CTX = SymmetricContext(4)


def d3_image(ctx, f):
    """Third-differential image of a symmetric class: its divergence, read as
    the coefficient of the degree-3 class."""
    if f.ring == ctx.sigma_ring:
        return ctx.nabla_sigma(f)
    return nabla(ctx, f)


def test_d3_image_basics():
    al = alpha_generators(CTX)
    for k in range(1, 5):
        image = d3_image(CTX, CTX.sigma(k))
        expected = (4 - k + 1) * (CTX.sigma(k - 1) if k >= 2 else CTX.sigma_ring.one())
        assert image == expected
    assert d3_image(CTX, al.a6).is_zero()
    assert d3_image(CTX, CTX.sigma_ring.one()).is_zero()


def test_d3_image_agrees_with_the_expansion_route():
    rng = random.Random(91)
    basis_pool = [CTX.sigma(k) for k in range(1, 5)]
    for _ in range(100):
        f = CTX.sigma_ring.zero()
        for _ in range(rng.randint(1, 3)):
            term = CTX.sigma_ring.const(rng.randint(-4, 4))
            for _ in range(rng.randint(0, 3)):
                term = term * rng.choice(basis_pool)
            f = f + term
        via_sigma = d3_image(CTX, f)
        via_vs = to_sigma(CTX, nabla(CTX, expand(CTX, f)))
        assert via_sigma == via_vs


def test_e4_9_4():
    report = verify_E4_9_4()
    assert report.passed
    assert {c.name for c in report.checks} == {"kernel", "image", "conclusion"}


def test_e4_11_2():
    report = verify_E4_11_2()
    assert report.passed


def test_chern_pullbacks_components_and_finding():
    report = verify_chern_pullbacks()
    assert report.passed
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["displayed-c2-pullback"] == "finding"
    assert statuses["alpha4-pullback"] == "pass"
    assert statuses["a3-pullback-even"] == "pass"


def test_rank_stable_under_basis_permutation():
    rng = random.Random(92)
    for degree, p in ((2, 2), (2, 3), (3, 2)):
        mat = nabla_matrix(CTX, degree)
        base = rank_mod_p(mat, p)
        for _ in range(5):
            rows = [list(r) for r in mat.entries]
            cols = list(range(mat.cols))
            rng.shuffle(cols)
            rng.shuffle(rows)
            shuffled = IntMatrix([[row[j] for j in cols] for row in rows])
            assert rank_mod_p(shuffled, p) == base


def test_spectral_suite_aggregates():
    report = spectral_suite()
    assert report.passed
    assert report.checks[0].name == "h3-order"
    # determinism: two runs produce identical check streams
    again = spectral_suite()
    assert [(c.name, c.status, c.detail) for c in report.checks] == [
        (c.name, c.status, c.detail) for c in again.checks
    ]
