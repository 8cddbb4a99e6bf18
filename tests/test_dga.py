import random

import pytest

from bpuverify import cli, dga
from bpuverify.dga import (
    dga_suite,
    differential,
    homology_dimension,
    homology_series,
    homotopy_p,
    lambda_projection,
    stated_answer_series,
    toda_identification,
    verify_differential_squares_to_zero,
    verify_sq1_correspondence,
    w_algebra,
)
from bpuverify.mod2alg import rings
from bpuverify.mod2alg.algebra import AlgebraMap, PresentedAlgebra
from bpuverify.mod2alg.rings import toda_action, toda_ring
from bpuverify.mod2alg.steenrod import SteenrodAction
from oracles import (
    DgaTables,
    dga_homology_dimension,
    dga_rank_of_d,
    dga_squares_to_zero_at,
    ker_d_generators_check,
    sweep_sq1_correspondence,
    verify_homotopy,
)


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


def test_sq1_line_states_its_sweep_bound(capsys):
    # the sweep runs through min(20, --max-degree), and the line says so
    for bound, top in ((8, 8), (20, 20), (54, 20)):
        assert cli.main(["dga", "--max-degree", str(bound)]) == 0
        line = capsys.readouterr().out.splitlines()[-2]
        assert line.startswith("pass sq1-correspondence: "), line
        assert line.endswith(f"(basis sweep to degree {top})"), line


def _sq1_verdicts():
    """The generator certificate's and the sweep's verdicts at each bound 0..20."""
    box = dga._Box()
    return ([verify_sq1_correspondence(n, box) for n in range(21)],
            [sweep_sq1_correspondence(n) for n in range(21)])


def _sq1_line(capsys):
    assert cli.main(["dga", "--max-degree", "20"]) == 1
    return next(line for line in capsys.readouterr().out.splitlines() if "sq1-correspondence" in line)


def test_sq1_certificate_matches_the_sweep_on_clean_tables():
    certified, swept = _sq1_verdicts()
    assert certified == swept == [True] * 21


@pytest.fixture
def fresh_toda_action():
    rings.toda_action.cache_clear()  # the action is shared by every test
    yield
    rings.toda_action.cache_clear()


@pytest.mark.parametrize("gen, value, own_witness, top_witness", [
    ("y3", "y2^2", "D(x3) maps to 0, Sq^1 of the image of x3 is y2^2",
     "Sq^1(y3*y2) = y2^3 mod the relations"),
    ("y5", "y2^3", "D(x5) maps to y3^2, Sq^1 of the image of x5 is y2^3",
     "Sq^1(y5*y2) = y2^4 mod the relations"),
    ("y8", "y9", "D(x8) maps to 0, Sq^1 of the image of x8 is y9 + y3^3",
     "Sq^1(y9^2 + y12*y3^2 + y8*y5^2) = y9*y5^2 + y5^2*y3^3 mod the relations"),
    ("y9", "y2^5", "D(x9) maps to y5^2, Sq^1 of the image of x9 is y2^5",
     "Sq^1(y9*y2) = y2^6 mod the relations"),
    ("y12", "y5*y8", "D(x12) maps to 0, Sq^1 of the image of x12 is y8*y5 + y5^2*y3",
     "Sq^1(y9^2 + y12*y3^2 + y8*y5^2) = y8*y5*y3^2 + y5^2*y3^3 mod the relations"),
])
def test_a_corrupted_generator_square_fails_the_certificate_where_the_sweep_fails(
        monkeypatch, capsys, fresh_toda_action, gen, value, own_witness, top_witness):
    """Sq^1 of one generator replaced by another value of its degree: the
    certificate fails from that degree on, as the sweep does, on the
    generator while the relation carrying it lies above the bound and on
    the relation after."""
    monkeypatch.setitem(rings.TODA_SQ_TABLE[gen], 1, value)
    certified, swept = _sq1_verdicts()
    assert certified == swept
    degree = int(gen[1:])
    assert certified == [True] * degree + [False] * (21 - degree)
    assert dga._sq1_witness(dga._Box(), degree) == own_witness
    assert dga._sq1_witness(dga._Box(), 20) == top_witness
    assert _sq1_line(capsys).startswith("fail sq1-correspondence: ")


def test_a_d_table_breaking_leibniz_fails_the_certificate_where_the_sweep_fails(monkeypatch, capsys):
    """D(x5^2) = x5*x3^2 keeps degrees but is no Leibniz value: both routes
    fail from degree 10 on."""
    monkeypatch.setattr(dga, "_D_TABLE", _parity_blind_d_table())
    certified, swept = _sq1_verdicts()
    assert certified == swept == [True] * 10 + [False] * 11
    assert dga._sq1_witness(dga._Box(), 20) == "D(x5^2) = x5*x3^2, the Leibniz rule gives 0"
    assert _sq1_line(capsys).startswith("fail sq1-correspondence: ")


def test_sq1_is_certified_with_no_basis_listing_and_no_call_per_monomial(monkeypatch, capsys):
    listed = []
    real_listing = PresentedAlgebra.monomials_of_degree
    monkeypatch.setattr(PresentedAlgebra, "monomials_of_degree",
                        lambda self, d: listed.append(d) or real_listing(self, d))
    assert cli.main(["dga", "--max-degree", "54"]) == 0
    assert listed == []
    # built before the spies, so that only the certificate's own calls count
    box = dga._Box()
    assert not box.first_failures and toda_action() and toda_identification()
    calls = {"sq": 0, "apply": 0}
    for owner, name in ((SteenrodAction, "sq"), (AlgebraMap, "apply")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda self, *args, name=name, real=real:
                            calls.update({name: calls[name] + 1}) or real(self, *args))
    assert verify_sq1_correspondence(20, box)
    assert listed == []
    # Sq^1 of each relation and each generator's image; the images of each
    # generator and of its D; against 69 normal-form monomials through degree 20
    W = w_algebra()
    assert calls == {"sq": len(toda_ring().relations) + len(W.gen_names), "apply": 2 * len(W.gen_names)}
    assert sum(len(W.monomials_of_degree(d)) for d in range(21)) == 69


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


def _lines(report):
    return {c.name: c for c in report.checks}


def test_rule_calls_do_not_grow_with_the_degree_bound(monkeypatch):
    """The suite reads P and the projection on the box cells and their
    D-neighbours only, once each, and D there and in the Sq^1 sweep to degree
    20: the same calls at bound 54 as at 300."""
    calls = {}

    def counting(name, rule):
        def wrapper(m):
            calls[name].append(m)
            return rule(m)
        return wrapper

    for name in ("_d_rule", "_p_rule", "_projection_rule"):
        monkeypatch.setattr(dga, name, counting(name, getattr(dga, name)))
    seen = []
    for bound in (54, 300):
        calls.update((name, []) for name in ("_d_rule", "_p_rule", "_projection_rule"))
        assert dga_suite(bound).passed
        seen.append({name: sorted(ms) for name, ms in calls.items()})
    assert seen[0] == seen[1]
    box = dga._Box()
    near = set(box.cells) | {t for m in box.cells for t in box.value("D", {m})}
    for name in ("_p_rule", "_projection_rule"):
        made = seen[0][name]
        assert len(set(made)) == len(made) < 150 and set(made) <= near, name


def test_suite_and_kernel_generators():
    report = verify_homotopy(24)
    assert report.passed
    kernel = ker_d_generators_check(24)
    assert kernel.passed
    full = dga_suite(28)
    assert full.passed
    assert any(c.status == "finding" for c in full.checks)


def test_the_certificate_matches_the_sweep_oracle_through_degree_60():
    """Every line of the suite, the counts and the first divergence
    included, equals the oracle's per-degree sweep."""
    for bound in (1, 2, 4, 5, 6, 9, 13, 20, 31, 40, 54, 60):
        expected = verify_homotopy(bound)
        expected.extend(ker_d_generators_check(min(30, bound)))
        got = dga_suite(bound).checks[:-1]
        assert [(c.name, c.status, c.detail, c.witness) for c in got] == [
            (c.name, c.status, c.detail, c.witness) for c in expected.checks
        ], bound


def test_series_match_the_normal_form_counts_and_the_ranks_through_degree_60():
    """The certificate's counts: W's Hilbert series from the leads, and the
    projection's image from its table; the kernel dimensions they give by
    k_d = h_d + w_(d-1) - k_(d-1) are those of the ranks of D."""
    alg = w_algebra()
    counts, image = dga._Box().series(60)
    assert counts == [len(alg.monomials_of_degree(d)) for d in range(61)]
    assert image == homology_series(60) == [dga_homology_dimension(d) for d in range(61)]
    kernel = 0
    for d in range(61):
        kernel = image[d] + (counts[d - 1] - kernel if d else 0)
        assert kernel == counts[d] - dga_rank_of_d(d), d


def test_the_box_is_read_off_the_tables(monkeypatch):
    """Thresholds 2 and shifts 2 on x3 and x5 give them the cells 0..5, x9
    stops below its lead x9^2, x2 has threshold 1 and no shift, and x8 and
    x12 are read by nothing; raising a threshold widens its exponent."""
    box = dga._Box()
    alg = box.alg
    spans = [sorted({m[g] for m in box.cells}) for g in range(6)]
    assert dict(zip(alg.gen_names, spans)) == {
        "x9": [0, 1], "x12": [0], "x8": [0], "x5": list(range(6)), "x3": list(range(6)), "x2": [0, 1, 2],
    }
    assert len(box.cells) == 74
    assert [box.degree(m) for m in box.cells] == sorted(box.degree(m) for m in box.cells)
    monkeypatch.setattr(dga, "_P_TABLE", _replace_guard(dga._P_TABLE, 0, (dga._X3, ">=", 2),
                                                        (dga._X3, ">=", 3)))
    assert max(m[dga._X3] for m in dga._Box().cells) == 6


def test_an_unknown_guard_op_is_refused(monkeypatch):
    monkeypatch.setattr(dga, "_P_TABLE", _replace_guard(dga._P_TABLE, 0, (dga._X3, ">=", 2),
                                                        (dga._X3, ">", 1)))
    with pytest.raises(ValueError, match="guard's op"):
        dga_suite(20)


def _replace_guard(table, index, old, new):
    entries = list(table)
    guards, shift = entries[index]
    entries[index] = (tuple(new if g == old else g for g in guards), shift)
    return tuple(entries)


def _exactly(alg, text):
    """Guards that hold on the one monomial ``text``."""
    (m,) = alg.parse(text)
    return tuple(guard for g, e in enumerate(m) for guard in ((g, ">=", e), (g, "<", e + 1)))


def _p_blind_to_x8(alg):
    """P zero on n * x3^i with i >= 2 once x8 divides n."""
    guards, shift = dga._P_TABLE[0]
    return "_P_TABLE", (((*guards, (alg.gen_names.index("x8"), "<", 1)), shift),) + dga._P_TABLE[1:]


def _projection_keeping(alg, text):
    return "_PROJECTION_TABLE", dga._PROJECTION_TABLE + ((_exactly(alg, text), {}),)


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


@pytest.mark.parametrize(
    "corruptions, chain_cell",
    [
        # the homotopy identity fails at x5*x8 in degree 13; D commutes with
        # the projection
        ([_p_blind_to_x8], None),
        # keeping x3^2 breaks the chain map at x5 in degree 5, before the
        # homotopy identity fails at x3^2 in degree 6
        ([lambda alg: _projection_keeping(alg, "x3^2")], "x5"),
        # the homotopy identity fails in degree 13 and the chain map only at
        # x5*x12 in degree 17, so the sweep must go on after the first failure
        ([_p_blind_to_x8, lambda alg: _projection_keeping(alg, "x3^2*x12")], "x12*x5"),
    ],
    ids=["homotopy", "projection", "both"],
)
def test_one_sweep_matches_the_two_sweep_oracle_on_failures(monkeypatch, corruptions, chain_cell):
    """The oracle's one sweep and the certificate both match the two-sweep
    oracle on corrupted tables: the same first failure, count and witness."""
    alg = w_algebra()
    for corrupt in corruptions:
        monkeypatch.setattr(dga, *corrupt(alg))
    checked, bad, chain_ok = _two_sweep_oracle(20)
    assert bad is not None and chain_ok == (chain_cell is None)
    identity_line = (
        "fail",
        f"P*D + D*P = projection + id on all {checked} normal-form monomials through degree 20",
        f"{alg.format(bad[0])}: lhs {alg.format(bad[1])} rhs {alg.format(bad[2])}",
    )
    for report in (verify_homotopy(20), dga_suite(20)):
        lines = _lines(report)
        identity = lines["homotopy-identity"]
        assert (identity.status, identity.detail, identity.witness) == identity_line
        assert lines["projection-chain-map"].status == ("pass" if chain_ok else "fail")
    certified = _lines(dga_suite(20))
    assert certified["homology-dimensions"].status == "fail"
    if chain_cell:
        assert certified["projection-chain-map"].witness.startswith(chain_cell + ": ")


def test_tables_match_the_per_monomial_oracle_through_degree_40():
    tables = DgaTables()
    for d in range(41):
        assert tables.squares_to_zero(d) == dga_squares_to_zero_at(d), d
        assert tables.rank(d) == dga_rank_of_d(d), d
        assert homology_dimension(d) == dga_homology_dimension(d) == tables.homology_dimension(d), d


def _parity_blind_d_table():
    """D with the parity test dropped: x5^j -> x5^(j-1)*x3^2 for every j >= 1,
    so D(x5^2) = x3^2*x5, and D^2 is first nonzero in degree 9, on x9."""
    return tuple(((((g, ">=", 1),), shift) for ((g, _, _),), shift in dga._D_TABLE))


def test_both_routes_fail_d_squared_at_the_same_first_degree(monkeypatch):
    monkeypatch.setattr(dga, "_D_TABLE", _parity_blind_d_table())
    tables = DgaTables()
    table_verdicts = [tables.squares_to_zero(d) for d in range(41)]
    assert table_verdicts == [dga_squares_to_zero_at(d) for d in range(41)]
    assert table_verdicts.index(False) == 9
    assert verify_differential_squares_to_zero(8) and not verify_differential_squares_to_zero(9)
    lines = _lines(dga_suite(20))
    assert lines["d-squared"].status == "fail"
    assert lines["d-squared"].witness == "D(x5^2) = x5*x3^2, the Leibniz rule gives 0"
    assert lines["homology-dimensions"].status == "fail"
    assert _lines(dga_suite(7))["d-squared"].status == "pass"
    # the rank route checks D^2 = 0 into the degree it reads
    assert homology_dimension(9) == 0
    for run in (lambda: homology_dimension(10), lambda: verify_homotopy(20)):
        with pytest.raises(ArithmeticError, match="does not square to zero"):
            run()


def _inhomogeneous_d_table():
    """D with x9 -> x5^2 + x3^3, whose x3^3 has degree 9, not 10."""
    return dga._D_TABLE + ((((dga._X9, "%2", 1),), {dga._X9: -1, dga._X3: 3}),)


def test_an_inhomogeneous_d_rule_is_refused_by_both_routes(monkeypatch, capsys):
    """x9 -> x5^2 + x3^3 keeps D a derivation with D^2 = 0, so neither route
    fails d-squared on it; the oracle's coordinates and the certificate both
    refuse the degree-9 term in the image of x9, naming the element, and the
    CLI exits 2."""
    monkeypatch.setattr(dga, "_D_TABLE", _inhomogeneous_d_table())
    assert all(dga_squares_to_zero_at(d) for d in range(21))
    with pytest.raises(ValueError, match=r"degree-10 normal-form element: x5\^2 \+ x3\^3$"):
        dga_rank_of_d(9)
    with pytest.raises(ValueError, match=r"degree-10 normal-form element: x5\^2 \+ x3\^3 = D\(x9\)"):
        dga_suite(20)
    assert cli.main(["dga", "--max-degree", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not a degree-10 normal-form element: x5^2 + x3^3 = D(x9)")


def _reducible_p_table():
    """P with P(x3^2) = x3*x2, a monomial the Groebner lead x2*x3 divides."""
    (guards, _), *rest = dga._P_TABLE
    return ((guards, {dga._X3: -1, dga._X2: 1}), *rest)


def test_an_off_basis_rule_value_is_a_value_error(monkeypatch):
    monkeypatch.setattr(dga, "_P_TABLE", _reducible_p_table())
    with pytest.raises(ValueError, match=r"not a degree-5 normal-form element: x3\*x2 = P\(x3\^2\)"):
        dga_suite(20)


def test_an_off_basis_rule_value_is_an_internal_error_in_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(dga, "_P_TABLE", _reducible_p_table())
    assert cli.main(["dga", "--max-degree", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not a degree-5 normal-form element: x3*x2")


def test_p_case_raised_to_i_at_least_3_fails_the_homotopy_identity_at_its_cell(monkeypatch):
    """P's first case moved from i >= 2 to i >= 3 leaves P(x3^2) = 0, so the
    identity fails at x5, whose D is x3^2; as the oracle sweep finds."""
    table = _replace_guard(dga._P_TABLE, 0, (dga._X3, ">=", 2), (dga._X3, ">=", 3))
    monkeypatch.setattr(dga, "_P_TABLE", table)
    lines = _lines(dga_suite(54))
    identity = lines["homotopy-identity"]
    assert identity.status == "fail"
    assert identity.witness == "x5: lhs 0 rhs x5"
    assert identity.detail == _lines(verify_homotopy(54))["homotopy-identity"].detail
    assert _lines(dga_suite(4))["homotopy-identity"].status == "pass"


@pytest.mark.parametrize("guard, failing", [((dga._X2, ">=", 1), True), (None, False)],
                         ids=["a-at-least-1", "a-unrestricted"])
def test_the_projection_family_with_x2(monkeypatch, guard, failing):
    """The projection's second family with a >= 1 names only monomials that
    are zero in W, so x3 leaves the image and the homology lines fail; with
    a unrestricted it is the same projection on the normal forms."""
    x2_guard = (dga._X2, "<", 1)
    first, (guards, shift) = dga._PROJECTION_TABLE
    guards = tuple(g for g in guards if g != x2_guard) + ((guard,) if guard else ())
    monkeypatch.setattr(dga, "_PROJECTION_TABLE", (first, (guards, shift)))
    lines = _lines(dga_suite(54))
    assert lines["homology-dimensions"].status == ("fail" if failing else "pass")
    assert lines["homotopy-identity"].status == ("fail" if failing else "pass")
    if failing:
        assert lines["homotopy-identity"].witness == "x3: lhs 0 rhs x3"


def _extra_guard(table_name, index, guard):
    def corrupt():
        entries = list(getattr(dga, table_name))
        guards, shift = entries[index]
        entries[index] = ((*guards, guard), shift)
        return table_name, tuple(entries)
    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _extra_guard("_P_TABLE", 0, (dga._X5, "<", 4)),
        _extra_guard("_P_TABLE", 0, (dga._X3, "<", 5)),
        _extra_guard("_P_TABLE", 0, (dga._X9, "%2", 0)),
        _extra_guard("_P_TABLE", 1, (dga._X5, ">=", 4)),
        _extra_guard("_P_TABLE", 1, (dga._X2, "<", 1)),
        _extra_guard("_PROJECTION_TABLE", 0, (dga._X2, "<", 3)),
        _extra_guard("_PROJECTION_TABLE", 1, (dga._X3, "<", 1)),
    ],
    ids=["p-x5-below-4", "p-x3-below-5", "p-x9-even", "p-j-from-4", "p-x2-free", "proj-x2-below-3", "proj-no-x3"],
)
def test_the_certificate_matches_the_sweep_oracle_on_corrupted_tables(monkeypatch, corrupt):
    """Guards with other thresholds, parities and generators: the box read
    off the corrupted tables finds the sweep's first failure, count and
    witness, and the same chain-map verdict, through degree 60."""
    monkeypatch.setattr(dga, *corrupt())
    expected, got = _lines(verify_homotopy(60)), _lines(dga_suite(60))
    for name in ("d-squared", "homotopy-identity"):
        assert (got[name].status, got[name].detail, got[name].witness) == (
            expected[name].status, expected[name].detail, expected[name].witness), name
    assert got["projection-chain-map"].status == expected["projection-chain-map"].status


def test_d_squared_fails_from_the_first_degree_the_leibniz_rule_does(monkeypatch):
    """D(x5^3) = 0 breaks the Leibniz rule at x5^3 (degree 15), and D^2 first
    fails one degree lower, at x9*x5, whose D has x5^3 as a term; the
    certificate needs the Leibniz rule one degree above its bound."""
    (guards, shift), rest = dga._D_TABLE[0], dga._D_TABLE[1:]
    monkeypatch.setattr(dga, "_D_TABLE", ((guards + ((dga._X5, "<", 2),), shift), *rest))
    tables = DgaTables()
    expected = [tables.squares_to_zero(d) for d in range(21)]
    assert expected.index(False) == 14
    assert [verify_differential_squares_to_zero(d) for d in range(21)] == [
        all(expected[:d + 1]) for d in range(21)]


def _exactly_x3_squared_first(alg):
    """P's first case split into disjoint entries that skip x3^2 itself and
    nothing else: i >= 3, or i = 2 and the first other exponent set is g's."""
    (guards, shift), rest = dga._P_TABLE[0], dga._P_TABLE[1:]
    others = [g for g in range(6) if g != dga._X3]
    beside = [(guards + ((dga._X3, "<", 3), (g, ">=", 1), *((h, "<", 1) for h in others[:k])), shift)
              for k, g in enumerate(others)]
    return ((guards + ((dga._X3, ">=", 3),), shift), *beside, *rest)


def test_d_on_the_projection_image_is_checked(monkeypatch):
    """With P(x3^2) = 0 and the projection keeping x5 and x3^2, the identity
    and the chain map still hold, but D(x5) = x3^2 inside the image, so the
    image is not the homology and homology-dimensions names the cell."""
    alg = w_algebra()
    monkeypatch.setattr(dga, "_P_TABLE", _exactly_x3_squared_first(alg))
    monkeypatch.setattr(dga, "_PROJECTION_TABLE", dga._PROJECTION_TABLE + (
        (_exactly(alg, "x5"), {}), (_exactly(alg, "x3^2"), {})))
    lines = _lines(dga_suite(20))
    assert [lines[n].status for n in ("d-squared", "homotopy-identity", "projection-chain-map")] == [
        "pass"] * 3
    assert lines["homology-dimensions"].status == "fail"
    assert lines["homology-dimensions"].witness == "x5: projection x5, D*projection x3^2"
    assert _lines(verify_homotopy(20))["homotopy-identity"].status == "pass"
