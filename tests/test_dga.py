import random

import pytest

from bpuverify import cli, dga
from bpuverify.dga import (
    dga_suite,
    differential,
    homology_dimension,
    homology_series,
    homotopy_p,
    ker_d_generators_check,
    lambda_projection,
    stated_answer_series,
    toda_identification,
    verify_differential_squares_to_zero,
    verify_homotopy,
    verify_sq1_correspondence,
    w_algebra,
)
from bpuverify.mod2alg.rings import toda_action, toda_ring
from oracles import dga_homology_dimension, dga_rank_of_d, dga_squares_to_zero_at


def test_differential_examples():
    alg = w_algebra()
    assert differential(alg.gen("x5")) == alg.parse("x3^2")
    assert differential(alg.parse("x5^2")) == frozenset()
    assert differential(alg.parse("x5*x9")) == alg.parse("x3^2*x9 + x5^3")
    for name in ("x2", "x3", "x8", "x12"):
        assert differential(alg.gen(name)) == frozenset()


def test_differential_is_a_derivation():
    alg = w_algebra()
    rng = random.Random(42)
    gens = [alg.gen(n) for n in alg.gen_names]

    def random_element():
        out = frozenset()
        for _ in range(rng.randint(1, 2)):
            term = alg.one()
            for _ in range(rng.randint(1, 3)):
                term = alg.mul(term, rng.choice(gens))
            out = out ^ term
        return alg.normal_form(out)

    for _ in range(20):
        a, b = random_element(), random_element()
        lhs = differential(alg.mul(a, b))
        rhs = alg.normal_form(
            alg.mul(differential(a), b) ^ alg.mul(a, differential(b))
        )
        assert lhs == rhs


def test_projection_examples():
    alg = w_algebra()
    assert lambda_projection(alg.parse("x2^3*x8")) == alg.parse("x2^3*x8")
    assert lambda_projection(alg.parse("x8*x12*x3")) == alg.parse("x8*x12*x3")
    assert lambda_projection(alg.parse("x5^2")) == frozenset()
    assert lambda_projection(alg.gen("x3")) == alg.gen("x3")


def test_homotopy_case_table():
    alg = w_algebra()
    assert homotopy_p(alg.parse("x3^2")) == alg.gen("x5")
    assert homotopy_p(alg.parse("x5^2")) == alg.gen("x9")
    assert homotopy_p(alg.parse("x2*x8")) == frozenset()
    assert homotopy_p(alg.gen("x5")) == frozenset()  # odd x5-exponent


def test_homotopy_identity_hand_cases():
    alg = w_algebra()
    for text in ("x3^2", "x2", "x9", "x5*x9", "x3*x9", "x5^2*x9", "x8*x12"):
        m = alg.parse(text)
        lhs = homotopy_p(differential(m)) ^ differential(homotopy_p(m))
        rhs = lambda_projection(m) ^ m
        assert lhs == rhs, text


def test_d_squared_and_homology_dimensions():
    assert verify_differential_squares_to_zero(20)
    assert homology_dimension(0) == 1
    assert homology_dimension(1) == 0
    assert homology_dimension(2) == 1
    assert homology_dimension(3) == 1
    # degree 5 is zero: the only candidate monomial x2*x3 dies in the algebra
    assert homology_dimension(5) == 0
    assert homology_dimension(11) == 1
    series = homology_series(24)
    for d in range(25):
        assert homology_dimension(d) == series[d], d


def test_series_disagree_exactly_at_x2_x3_multiples():
    nominal = stated_answer_series(24)
    actual = homology_series(24)
    diffs = [d for d in range(25) if nominal[d] != actual[d]]
    # the dropped monomials x2^a*x3 (a >= 1) live in the odd degrees >= 5
    assert diffs == [5, 7, 9, 11, 13, 15, 17, 19, 21, 23]
    assert nominal[5] == 1 and actual[5] == 0


def test_identification_with_the_cohomology_ring():
    alg = w_algebra()
    T = toda_ring()
    iso = toda_identification()  # constructor certifies the relations die
    for d in range(21):
        assert len(alg.monomials_of_degree(d)) == len(T.monomials_of_degree(d)), d
    assert verify_sq1_correspondence(16)


def test_normal_form_shape():
    alg = w_algebra()
    for d in range(30):
        for m in alg.monomials_of_degree(d):
            a, b, c, i, j, k = (
                m[alg.gen_names.index(n)]
                for n in ("x2", "x8", "x12", "x3", "x5", "x9")
            )
            assert k <= 1
            assert a == 0 or (i, j, k) == (0, 0, 0)


def test_mod2_functions_take_and_return_normal_forms(monkeypatch):
    """The rules of D, P and the projection are only handed normal-form
    monomials by the suite, and return normal forms; Sq^i of a raw relation's
    terms is a normal form too."""
    alg = w_algebra()
    seen = {}

    def recording(name, rule):
        def wrapper(m):
            out = rule(m)
            seen.setdefault(name, []).extend((frozenset({m}), frozenset(out)))
            return out
        return wrapper

    for name in ("_d_rule", "_p_rule", "_projection_rule"):
        monkeypatch.setattr(dga, name, recording(name, getattr(dga, name)))
    assert dga_suite(30).passed
    assert sorted(seen) == ["_d_rule", "_p_rule", "_projection_rule"]
    for name, elements in seen.items():
        for p in elements:
            assert alg.normal_form(p) == p, (name, alg.format(p))
    T, act = toda_ring(), toda_action()
    for r in T.relations:
        for i in (1, 2, 4, 8):
            for value in [act.sq(i, r)] + [act.sq(i, frozenset({m})) for m in r]:
                assert T.normal_form(value) == value, (i, T.format(r))


def test_each_rule_runs_once_per_normal_form_monomial(monkeypatch):
    """verify_homotopy(30) reads D through degree 32 (D^2 on degree 31) and
    P and the projection through degree 31, each rule once per monomial."""
    calls = {}

    def counting(name, rule):
        def wrapper(m):
            calls.setdefault(name, []).append(m)
            return rule(m)
        return wrapper

    for name in ("_d_rule", "_p_rule", "_projection_rule"):
        monkeypatch.setattr(dga, name, counting(name, getattr(dga, name)))
    assert verify_homotopy(30).passed
    alg = w_algebra()
    through = {"_d_rule": 32, "_p_rule": 31, "_projection_rule": 31}
    for name, top in through.items():
        expected = [m for d in range(top + 1) for m in alg.monomials_of_degree(d)]
        assert sorted(calls[name]) == sorted(expected), name


def test_suite_and_kernel_generators():
    report = verify_homotopy(24)
    assert report.passed
    kernel = ker_d_generators_check(24)
    assert kernel.passed
    full = dga_suite(28)
    assert full.passed
    assert any(c.status == "finding" for c in full.checks)


def _two_sweep_oracle(max_degree):
    """The former two sweeps of verify_homotopy, kept as the oracle: the
    monomials checked up to the first homotopy failure, that failure, and
    whether the projection commutes with D."""
    alg = w_algebra()
    monos = [frozenset({m}) for d in range(max_degree + 1) for m in alg.monomials_of_degree(d)]
    bad, checked = None, 0
    for mono in monos:
        lhs = dga.homotopy_p(dga.differential(mono)) ^ dga.differential(dga.homotopy_p(mono))
        rhs = dga.lambda_projection(mono) ^ mono
        checked += 1
        if lhs != rhs:
            bad = (mono, lhs, rhs)
            break
    chain_ok = all(
        dga.differential(dga.lambda_projection(mono)) == dga.lambda_projection(dga.differential(mono))
        for mono in monos
    )
    return checked, bad, chain_ok


def _monomial(alg, text):
    (m,) = alg.parse(text)
    return m


def _corrupt_homotopy(original, alg, text):
    broken = _monomial(alg, text)
    return lambda m: () if m == broken else original(m)


def _corrupt_projection(original, alg, text):
    extra = _monomial(alg, text)
    return lambda m: (m,) if m == extra else original(m)


@pytest.mark.parametrize(
    "corruptions, chain_holds",
    [
        # the homotopy identity fails at x5*x8 in degree 13; D commutes with
        # the projection
        ([("_p_rule", _corrupt_homotopy, "x3^2*x8")], True),
        # keeping x3^2 breaks the chain map at x5 in degree 5, before the
        # homotopy identity fails at x3^2 in degree 6
        ([("_projection_rule", _corrupt_projection, "x3^2")], False),
        # the homotopy identity fails in degree 13 and the chain map only at
        # x5*x12 in degree 17, so the sweep must go on after the first failure
        (
            [
                ("_p_rule", _corrupt_homotopy, "x3^2*x8"),
                ("_projection_rule", _corrupt_projection, "x3^2*x12"),
            ],
            False,
        ),
    ],
    ids=["homotopy", "projection", "both"],
)
def test_one_sweep_matches_the_two_sweep_oracle_on_failures(monkeypatch, corruptions, chain_holds):
    alg = w_algebra()
    for name, corrupt, text in corruptions:
        monkeypatch.setattr(dga, name, corrupt(getattr(dga, name), alg, text))
    checked, bad, chain_ok = _two_sweep_oracle(20)
    assert bad is not None and chain_ok == chain_holds
    checks = {c.name: c for c in verify_homotopy(20).checks}
    identity = checks["homotopy-identity"]
    assert identity.status == "fail"
    assert f"on all {checked} normal-form monomials" in identity.detail
    assert identity.witness == (
        f"{alg.format(bad[0])}: lhs {alg.format(bad[1])} rhs {alg.format(bad[2])}"
    )
    assert checks["projection-chain-map"].status == ("pass" if chain_ok else "fail")


def test_tables_match_the_per_monomial_oracle_through_degree_40():
    tables = dga._Tables()
    for d in range(41):
        assert tables.squares_to_zero(d) == dga_squares_to_zero_at(d), d
        assert tables.rank(d) == dga_rank_of_d(d), d
        assert homology_dimension(d) == dga_homology_dimension(d), d


def _parity_blind_d_rule(m):
    """D with the parity test dropped: x5^j -> x5^(j-1)*x3^2 for every j >= 1,
    so D(x5^2) = x3^2*x5, and D^2 is first nonzero in degree 9, on x9."""
    out = []
    for g, h in dga._D_SQUARES:
        if m[g]:
            t = list(m)
            t[g] -= 1
            t[h] += 2
            out.append(tuple(t))
    return out


def test_both_routes_fail_d_squared_at_the_same_first_degree(monkeypatch):
    monkeypatch.setattr(dga, "_d_rule", _parity_blind_d_rule)
    tables = dga._Tables()
    table_verdicts = [tables.squares_to_zero(d) for d in range(41)]
    assert table_verdicts == [dga_squares_to_zero_at(d) for d in range(41)]
    assert table_verdicts.index(False) == 9
    assert verify_differential_squares_to_zero(8) and not verify_differential_squares_to_zero(9)
    # ranks are read only where D^2 = 0 is shown through one degree above
    assert homology_dimension(7) == 0
    for run in (lambda: homology_dimension(8), lambda: verify_homotopy(20)):
        with pytest.raises(ArithmeticError, match="does not square to zero"):
            run()


def _inhomogeneous_d_rule(original):
    """D with x9 -> x5^2 + x3^3, whose x3^3 has degree 9, not 10."""
    def rule(m):
        out = list(original(m))
        if m[dga._X9] % 2:
            t = list(m)
            t[dga._X9] -= 1
            t[dga._X3] += 3
            out.append(tuple(t))
        return out
    return rule


def test_an_inhomogeneous_d_rule_is_refused_by_both_routes(monkeypatch):
    """x9 -> x5^2 + x3^3 keeps D a derivation with D^2 = 0, so neither route
    fails d-squared on it; the oracle's coordinates and the table both refuse
    the degree-9 term in the image of x9, naming the element."""
    monkeypatch.setattr(dga, "_d_rule", _inhomogeneous_d_rule(dga._d_rule))
    assert all(dga_squares_to_zero_at(d) for d in range(21))
    with pytest.raises(ValueError, match=r"degree-10 normal-form element: x5\^2 \+ x3\^3$"):
        dga_rank_of_d(9)
    with pytest.raises(ValueError, match=r"degree-10 normal-form element: x5\^2 \+ x3\^3 = D\(x9\)"):
        dga._Tables().rank(9)


def _reducible_p_rule(original, alg):
    """P with P(x3^2) = x3*x2, a monomial the Groebner lead x2*x3 divides."""
    x3_squared, x2_x3 = _monomial(alg, "x3^2"), _monomial(alg, "x2*x3")
    return lambda m: (x2_x3,) if m == x3_squared else original(m)


def test_an_off_basis_rule_value_is_a_value_error(monkeypatch):
    alg = w_algebra()
    monkeypatch.setattr(dga, "_p_rule", _reducible_p_rule(dga._p_rule, alg))
    with pytest.raises(ValueError, match=r"not a degree-5 normal-form element: x3\*x2 = P\(x3\^2\)"):
        verify_homotopy(20)


def test_an_off_basis_rule_value_is_an_internal_error_in_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(dga, "_p_rule", _reducible_p_rule(dga._p_rule, w_algebra()))
    assert cli.main(["dga", "--max-degree", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not a degree-5 normal-form element: x3*x2")
