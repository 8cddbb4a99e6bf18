import contextlib
import itertools
import math
import random
import signal

import pytest

from bpuverify import gf2, intlinalg
from bpuverify.intlinalg import (
    IntMatrix,
    check_cokernel_witness,
    element_order_in_cokernel,
    hermite_normal_form,
    integer_kernel,
    rank_mod_p,
    smith_normal_form,
    solve_integer,
)
from bpuverify.symfun import (
    SymmetricContext,
    alpha_generators,
    coordinates,
    nabla_matrix,
)

from oracles import (
    _RANK_PRIME,
    dense_eliminate_mod_prime_power,
    determinant,
    generator_monomial_stack,
    local_elimination_from,
    local_row_form,
    nonzero_invariant_factors,
    row_reduce_mod_p,
)


def test_snf_examples():
    assert smith_normal_form(IntMatrix([[2, 0], [0, 3]])).invariant_factors == (1, 6)
    assert smith_normal_form(IntMatrix([[0, 0], [0, 0]])).invariant_factors == (0, 0)
    assert smith_normal_form(IntMatrix([[8, 3]])).invariant_factors == (1,)


def test_kernel_examples():
    assert integer_kernel(IntMatrix([[8, 3]])) == [(3, -8)]
    assert integer_kernel(IntMatrix.identity(3)) == []
    assert len(integer_kernel(IntMatrix([[0, 0]]))) == 2


def cokernel_invariants(a):
    """Invariant factors of Z^rows / column-span(A), 0 marking free summands."""
    snf = smith_normal_form(a)
    out = list(snf.invariant_factors)
    out.extend([0] * (a.rows - len(out)))
    return out


def test_cokernel_examples():
    assert cokernel_invariants(IntMatrix([[4]])) == [4]
    assert cokernel_invariants(IntMatrix.identity(3)) == [1, 1, 1]
    assert cokernel_invariants(IntMatrix([[2, 0], [0, 0]])) == [2, 0]


def test_rank_mod_p_examples():
    a = IntMatrix([[8, 3]])
    assert rank_mod_p(a, 2) == 1
    assert rank_mod_p(a, 3) == 1
    assert rank_mod_p(IntMatrix.zero(3, 2), 5) == 0
    with pytest.raises(ValueError):
        rank_mod_p(a, 4)
    with pytest.raises(ValueError):
        rank_mod_p(a, 1)


def test_element_order_examples():
    assert element_order_in_cokernel(IntMatrix([[4]]), (1,)) == 4
    assert element_order_in_cokernel(IntMatrix([[1, 0], [0, 1]]), (3, 5)) == 1
    assert element_order_in_cokernel(IntMatrix([[0]]), (1,)) is None
    with pytest.raises(ValueError):
        element_order_in_cokernel(IntMatrix([[4]]), (1, 2))


def _random_matrix(rng, max_dim=5, span=9):
    m, n = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return IntMatrix([[rng.randint(-span, span) for _ in range(n)] for _ in range(m)])


def test_snf_certificates_random():
    rng = random.Random(101)
    for _ in range(120):
        a = _random_matrix(rng)
        snf = smith_normal_form(a)
        assert (snf.u @ a) @ snf.v == snf.d
        assert abs(determinant(snf.u)) == 1
        assert abs(determinant(snf.v)) == 1
        facs = snf.invariant_factors
        for x, y in zip(facs, facs[1:]):
            assert x >= 0 and y >= 0
            if x:
                assert y % x == 0
            else:
                assert y == 0


def test_kernel_is_saturated_and_exact_random():
    rng = random.Random(102)
    for _ in range(100):
        a = _random_matrix(rng)
        kern = integer_kernel(a)
        for v in kern:
            assert all(x == 0 for x in a.apply(v))
        snf = smith_normal_form(a)
        assert len(kern) + snf.rank == a.cols
        if kern:
            stack = smith_normal_form(IntMatrix(kern))
            assert stack.rank == len(kern)
            assert all(f == 1 for f in stack.invariant_factors[: stack.rank])


def test_rank_mod_p_equals_factors_coprime_to_p():
    rng = random.Random(103)
    for _ in range(60):
        a = _random_matrix(rng, max_dim=4)
        snf = smith_normal_form(a)
        for p in (2, 3, 5):
            expected = sum(1 for f in snf.invariant_factors if f != 0 and f % p != 0)
            assert rank_mod_p(a, p) == expected


def _gf2_nullspace(a):
    """The kernel of A over GF(2) as choice masks over its columns: the
    nullspace of ``gf2.solve_affine`` on the columns reduced mod 2."""
    columns = [sum((row[j] % 2) << i for i, row in enumerate(a.entries)) for j in range(a.cols)]
    return gf2.solve_affine(columns, 0)[1]


def test_nullspace_mod_p():
    rng = random.Random(104)
    for _ in range(40):
        a = _random_matrix(rng, max_dim=4)
        basis = _gf2_nullspace(a)
        assert len(basis) == a.cols - rank_mod_p(a, 2)
        assert gf2.rank(basis) == len(basis)
        for mask in basis:
            assert all(x % 2 == 0 for x in a.apply([mask >> j & 1 for j in range(a.cols)]))


def _rref_mod_p(a, p):
    # the former route, kept as the oracle: full reduced row echelon form
    m, n = a.rows, a.cols
    rows = [[x % p for x in row] for row in a.entries]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        pivot = next((i for i in range(rank, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    nullspace = []
    for j in range(n):
        if j in pivots:
            continue
        vec = [0] * n
        vec[j] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rows[r][j]) % p
        nullspace.append(tuple(vec))
    return len(pivots), nullspace


def test_forward_elimination_matches_the_rref_oracle():
    ctx = SymmetricContext(4)
    rng = random.Random(106)
    matrices = [nabla_matrix(ctx, d) for d in range(1, 13)]
    matrices += [_random_matrix(rng, max_dim=5) for _ in range(40)]
    for a in matrices:
        for p in (2, 3, 2**31 - 1):
            rank, nullspace = _rref_mod_p(a, p)
            assert rank_mod_p(a, p) == rank
        # the GF(2) kernel spans the same space as the oracle's
        _, nullspace = _rref_mod_p(a, 2)
        oracle = [sum(1 << j for j, x in enumerate(v) if x) for v in nullspace]
        ours = _gf2_nullspace(a)
        assert len(ours) == len(oracle) == gf2.rank(oracle)
        assert gf2.rank(ours + oracle) == len(ours)


def test_exponent_one_elimination_matches_the_gf_p_oracle():
    ctx = SymmetricContext(4)
    rng = random.Random(111)
    matrices = [nabla_matrix(ctx, d) for d in range(1, 13)]
    matrices += [_random_matrix(rng, max_dim=6) for _ in range(60)]
    for a in matrices:
        for p in (2, 3, 5, 2**31 - 1):
            cols, _ = row_reduce_mod_p(a, p)
            valuations, rows, pivot_cols, _ = intlinalg._eliminate_mod_prime_power(
                a.sparse_rows(), p, 1, a.rows)
            assert len(valuations) == len(rows) == len(pivot_cols) == len(cols)
            assert valuations == (0,) * len(cols)
            minor = IntMatrix([[a[i, j] for j in pivot_cols] for i in rows], len(cols))
            assert determinant(minor) % p != 0, (a, p)


# in each, the first pivot at p = 2 and 3 lies in row 1, which shares a column
# with row 0, so the swap moves a row that the pivot then updates; in the
# first, that update also clears row 0's column 1
SWAPPED_PIVOT_ROWS = (
    IntMatrix([[6, 12, 0], [1, 2, 5], [3, 0, 1]]),
    IntMatrix([[6, 6, 12, 0], [0, 1, 0, 3], [1, 5, 2, 0], [0, 1, 6, 3]]),
)


def test_sparse_elimination_matches_the_dense_oracle():
    rng = random.Random(112)
    cases = [nabla_matrix(SymmetricContext(n), d) for n in (3, 4, 5) for d in range(1, 13)]
    cases.append(nabla_matrix(SymmetricContext(4), 24))
    cases += _full_row_rank_matrices(rng, 40)
    cases += _rank_deficient_matrices(rng, 20)
    cases += SWAPPED_PIVOT_ROWS
    settings = [(p, e) for p in (2, 3, 5) for e in (1, 8)] + [(2 ** 31 - 1, 1)]
    for a in cases:
        for p, exponent in settings:
            sparse = intlinalg._eliminate_mod_prime_power(a.sparse_rows(), p, exponent, a.rows)
            assert sparse == dense_eliminate_mod_prime_power(a, p, exponent, a.rows), (a, p)
    for a in SWAPPED_PIVOT_ROWS:
        for p in (2, 3):
            (i, rows, _), *_ = intlinalg._eliminate_mod_prime_power(a.sparse_rows(), p, 8, a.rows)[3]
            assert i == 1 and 1 in rows, (a, p)


def test_rank_prime_is_prime():
    # has_full_row_rank takes it as prime without a check
    assert intlinalg._is_prime(_RANK_PRIME)


def test_hermite_transform_contract():
    rng = random.Random(105)
    for _ in range(60):
        a = _random_matrix(rng)
        h, u = hermite_normal_form(a)
        assert u @ a == h
        assert abs(determinant(u)) == 1
        lead_cols = []
        for row in h.entries:
            nz = [j for j, x in enumerate(row) if x]
            if nz:
                assert row[nz[0]] > 0
                lead_cols.append(nz[0])
        assert lead_cols == sorted(lead_cols)


def test_solve_integer_round_trip():
    rng = random.Random(106)
    for _ in range(60):
        dim = rng.randint(1, 5)
        k = rng.randint(1, 4)
        cols = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(k)]
        coeffs = [rng.randint(-5, 5) for _ in range(k)]
        target = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(dim)]
        sol = solve_integer(cols, target)
        assert sol is not None
        assert [sum(s * col[i] for s, col in zip(sol, cols)) for i in range(dim)] == target


def test_solve_integer_detects_non_members():
    assert solve_integer([[2, 0], [0, 2]], (1, 0)) is None
    assert solve_integer([[2, 4]], (3, 6)) is None
    assert solve_integer([], (0, 0)) == ()
    assert solve_integer([], (1, 0)) is None


def _dense_product_smith(a):
    """The alternating-Hermite route that keeps U and V by dense products."""
    def diagonal(m):
        return all(not x for i, row in enumerate(m.entries) for j, x in enumerate(row) if i != j)

    work, u, v = a, IntMatrix.identity(a.rows), IntMatrix.identity(a.cols)
    while True:
        work, u1 = hermite_normal_form(work)
        u = u1 @ u
        if diagonal(work):
            break
        ht, v1 = hermite_normal_form(work.transpose())
        work, v = ht.transpose(), v @ v1.transpose()
        if diagonal(work):
            break
    # work is diagonal, nonnegative and zeros-last, so smith_normal_form(work)
    # runs only the shared divisibility tail; compose its transforms
    tail = smith_normal_form(work)
    return tail.u @ u, tail.d, v @ tail.v


# the matrices with no rows or no columns keep their shape, so U, D and V
# come out as 0x0, 0x3 and 3x3 for the first and 3x3, 3x0 and 0x0 for the
# second on both routes
SMALL_MATRICES = (
    IntMatrix.zero(0, 3),
    IntMatrix([[], [], []]),
    IntMatrix.zero(2, 3),
    IntMatrix([[2, 0], [0, 3]]),
    IntMatrix([[2, 4, 6], [1, 2, 3], [3, 6, 9]]),
    IntMatrix([[2, 4, 4], [-6, 6, 12]]),
    IntMatrix([[6, 0], [0, 4], [2, 2]]),
)


def test_smith_transforms_match_the_dense_product_route():
    ctx = SymmetricContext(4)
    cases = list(SMALL_MATRICES) + [nabla_matrix(ctx, d) for d in range(1, 13)]
    for a in cases:
        snf = smith_normal_form(a)
        u, d, v = _dense_product_smith(a)
        assert (snf.u.entries, snf.d.entries, snf.v.entries) == (
            u.entries, d.entries, v.entries
        ), a


def test_determinant_bareiss():
    assert determinant(IntMatrix([[2, 0], [0, 3]])) == 6
    assert determinant(IntMatrix([[1, 2], [3, 4]])) == -2
    assert determinant(IntMatrix([[0, 1], [1, 0]])) == -1
    rng = random.Random(107)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        # expansion by minors as the oracle
        def minor_det(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = 0
            for j in range(len(rows)):
                sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
                term = rows[0][j] * minor_det(sub)
                total += term if j % 2 == 0 else -term
            return total

        assert determinant(a) == minor_det([list(r) for r in a.entries])


def test_matrices_without_rows_keep_their_width():
    empty = IntMatrix.zero(0, 3)
    assert (empty.rows, empty.cols) == (0, 3)
    assert empty != IntMatrix.zero(0, 0)
    tall = empty.transpose()
    assert (tall.rows, tall.cols) == (3, 0)
    assert tall.transpose() == empty
    assert tall @ IntMatrix.zero(0, 2) == IntMatrix.zero(3, 2)
    assert integer_kernel(empty) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert integer_kernel(tall) == []
    snf = smith_normal_form(empty)
    shapes = [(x.rows, x.cols) for x in (snf.u, snf.d, snf.v)]
    assert shapes == [(0, 0), (0, 3), (3, 3)]
    snf = smith_normal_form(tall)
    shapes = [(x.rows, x.cols) for x in (snf.u, snf.d, snf.v)]
    assert shapes == [(3, 3), (3, 0), (0, 0)]
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], 3)


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _full_row_rank_matrices(rng, count):
    out = []
    while len(out) < count:
        a = _random_matrix(rng, max_dim=5, span=12)
        if a.rows <= a.cols and smith_normal_form(a).rank == a.rows:
            out.append(a)
    return out


def _steps_transform(steps, m, q):
    """The rows of U built densely: each step's swap and row subtractions
    applied to the rows of the m x m identity modulo q."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for r, (i, rows, factors) in enumerate(steps):
        u[r], u[i] = u[i], u[r]
        for k, c in zip(rows, factors):
            u[k] = [(x - c * y) % q for x, y in zip(u[k], u[r])]
    return u


def test_local_row_form_matches_the_smith_oracle():
    ctx = SymmetricContext(4)
    rng = random.Random(108)
    cases = [nabla_matrix(ctx, d) for d in range(1, 13)]
    cases += _full_row_rank_matrices(rng, 40)
    cases.append(IntMatrix([[2 ** 40, 3]]))
    for a in cases:
        snf = smith_normal_form(a)
        rows = a.sparse_rows()
        for p in (2, 3, 5):
            form = local_row_form(a, p)
            q = p ** form.exponent
            expected = sorted(_valuation(f, p) for f in snf.invariant_factors)
            assert sorted(form.valuations) == expected
            assert max(form.valuations, default=0) < form.exponent
            transform = _steps_transform(form.steps, a.rows, q)
            for v, u in zip(form.valuations, transform):
                y = [p ** (form.exponent - v) * t for t in u]
                assert all(s % q == 0 for s in a.transpose().apply(y))
            # a witness exists exactly when the element's order has a factor p
            for _ in range(6):
                x = [rng.randint(-9, 9) for _ in range(a.rows)]
                y = form.witness(x)
                assert (y is None) == (element_order_in_cokernel(a, x) % p != 0)
                if y is not None:
                    check_cokernel_witness(rows, y, x, q)
                # the first entry of U*x that p^(v_r) does not divide picks y
                first = next((r for r, (v, u) in enumerate(zip(form.valuations, transform))
                              if v and sum(s * t for s, t in zip(u, x)) % p ** v), None)
                if first is not None:
                    scale = p ** (form.exponent - form.valuations[first])
                    assert y == tuple(scale * t % q for t in transform[first])


def test_local_elimination_valuations_do_not_depend_on_the_start():
    # factors 1, 3^9 and 2 * 3^10 fall short at E = 8, so the start 8 reruns at 16
    rng = random.Random(111)
    d = IntMatrix([[1, 0, 0, 0], [0, 3 ** 9, 0, 0], [0, 0, 2 * 3 ** 10, 0]])
    for _ in range(5):
        a = (_random_unimodular(rng, 3) @ d) @ _random_unimodular(rng, 4)
        runs = {start: local_elimination_from(a, 3, 3, start) for start in (1, 8, 16, 32)}
        assert intlinalg._local_elimination(a.sparse_rows(), 3, 3) == runs[8]
        assert {start: e for start, (e, _) in runs.items()} == {1: 16, 8: 16, 16: 16, 32: 32}
        assert all(found[0] == (0, 9, 10) for _, found in runs.values())


def test_pivot_search_skips_empty_valuation_levels():
    # invariant factors 1, 27 = 3^3 and 162 = 2 * 3^4: after the unit pivot
    # the least valuation in the block jumps from 0 to 3, then to 4
    rng = random.Random(110)
    d = IntMatrix([[1, 0, 0, 0], [0, 27, 0, 0], [0, 0, 162, 0]])
    for _ in range(10):
        u = _random_unimodular(rng, 3)
        v = _random_unimodular(rng, 4)
        a = (u @ d) @ v
        expected = sorted(_valuation(f, 3) for f in smith_normal_form(a).invariant_factors)
        assert expected == [0, 3, 4]
        rows = a.sparse_rows()
        assert intlinalg._eliminate_mod_prime_power(rows, 3, 8, 3)[0] == (0, 3, 4)
        form = local_row_form(a, 3)
        q = 3 ** form.exponent
        assert (form.valuations, form.exponent) == ((0, 3, 4), 8)
        transform = _steps_transform(form.steps, a.rows, q)
        for val, row in zip(form.valuations, transform):
            y = [3 ** (form.exponent - val) * t for t in row]
            assert all(s % q == 0 for s in a.transpose().apply(y))
        xs = [[int(i == j) for j in range(3)] for i in range(3)]
        xs += [[rng.randint(-9, 9) for _ in range(3)] for _ in range(6)]
        for x in xs:
            y = form.witness(x)
            assert (y is None) == (element_order_in_cokernel(a, x) % 3 != 0)
            if y is not None:
                check_cokernel_witness(rows, y, x, q)


def _random_unimodular(rng, n):
    """A product of random elementary row operations on the n x n identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, k = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[k])]
    return IntMatrix(rows)


def test_local_row_form_doubles_the_exponent():
    form = local_row_form(IntMatrix([[2 ** 40, 6]]), 2)
    assert (form.valuations, form.exponent) == ((1,), 8)
    form = local_row_form(IntMatrix([[2 ** 40]]), 2)
    assert (form.valuations, form.exponent) == ((40,), 64)
    with pytest.raises(ValueError):
        local_row_form(IntMatrix([[4]]), 4)


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "a",
    [
        IntMatrix([[2, 4], [1, 2]]),
        IntMatrix.zero(2, 3),
        IntMatrix([[0, 0]]),
        IntMatrix([[4, 8, 0], [0, 0, 4], [4, 8, 4]]),
    ],
)
def test_local_row_form_rejects_rank_deficient_matrices(a):
    # the doubling of E would never end on these, so a time limit turns a
    # missing rank check into a failure instead of a hang
    with _time_limit(20):
        for p in (2, 3):
            with pytest.raises(ArithmeticError):
                local_row_form(a, p)


def test_flipped_cokernel_witness_is_rejected():
    ctx = SymmetricContext(4)
    a = nabla_matrix(ctx, 5)
    rows = a.sparse_rows()
    form = local_row_form(a, 2)
    q = 2 ** form.exponent
    x = [2 * t for t in coordinates(ctx, alpha_generators(ctx).a4, 4)]
    y = form.witness(x)
    assert y is not None
    check_cokernel_witness(rows, y, x, q)
    for i in range(len(y)):
        flipped = list(y)
        flipped[i] += 1
        with pytest.raises(ArithmeticError):
            check_cokernel_witness(rows, flipped, x, q)
    with pytest.raises(ArithmeticError):
        check_cokernel_witness(rows, y, [4 * t for t in x], q)


def test_cokernel_witness_lengths_must_equal_the_row_count():
    a = IntMatrix([[1, 0], [0, 2]])
    rows = a.sparse_rows()
    check_cokernel_witness(rows, (0, 1), (0, 1), 2)
    for y, x in (((0, 1), (0, 1, 5)), ((0, 1, 0), (0, 1)), ((0,), (1,))):
        with pytest.raises(ValueError):
            check_cokernel_witness(rows, y, x, 2)
    form = local_row_form(a, 2)
    assert form.witness((0, 1)) is not None
    for x in ((0, 1, 5), (1,)):
        with pytest.raises(ValueError):
            form.witness(x)


def _determinantal_factors(a):
    """Invariant factors as quotients d_k / d_(k-1) of the determinantal
    divisors, d_k the gcd of all k x k minors, zeros after the rank."""
    n = min(a.rows, a.cols)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(a.rows), k):
            for cols in itertools.combinations(range(a.cols), k):
                minor = IntMatrix([[a[i, j] for j in cols] for i in rows])
                g = math.gcd(g, determinant(minor))
        if g == 0:
            break
        divisors.append(g)
    factors = [x // y for x, y in zip(divisors[1:], divisors)]
    return tuple(factors + [0] * (n - len(factors)))


def _square_core(a):
    """An r x r matrix with the determinantal divisors of A, r = rank A: the
    nonzero rows of A's row Hermite form, then the nonzero columns of their
    column Hermite form.  Both transforms are checked unimodular, so every
    d_k is unchanged, and the minors stay few enough to enumerate."""
    h, u = hermite_normal_form(a)
    assert abs(determinant(u)) == 1
    rows = IntMatrix([row for row in h.entries if any(row)], a.cols)
    h, u = hermite_normal_form(rows.transpose())
    assert abs(determinant(u)) == 1
    return IntMatrix([row for row in h.entries if any(row)], rows.rows).transpose()


def _k4_stacks(max_degree):
    ctx = SymmetricContext(4)
    al = alpha_generators(ctx)
    stacks = (generator_monomial_stack(ctx, al, d) for d in range(1, max_degree + 1))
    return [IntMatrix(stack.values()) for stack in stacks if stack]


# diagonal inputs whose divisibility repair must chain: each repair leaves a
# gcd that no longer divides some earlier or later neighbour
CHAINED_REPAIRS = (
    IntMatrix([[2, 0, 0], [0, 4, 0], [0, 0, 3]]),
    IntMatrix([[6, 0, 0], [0, 10, 0], [0, 0, 15]]),
    IntMatrix([[4, 0, 0], [0, 6, 0], [0, 0, 9]]),
    IntMatrix([[9, 0, 0, 0], [0, 6, 0, 0], [0, 0, 4, 0], [0, 0, 0, 0]]),
    IntMatrix([[3, 0], [0, 2], [0, 0]]),
)


def test_invariant_factors_are_determinantal_divisor_quotients():
    rng = random.Random(109)
    cases = [_random_matrix(rng) for _ in range(80)] + list(CHAINED_REPAIRS)
    for a in cases:
        assert smith_normal_form(a).invariant_factors == _determinantal_factors(a), a


def test_k4_stack_factors_are_determinantal_divisor_quotients():
    for a in _k4_stacks(12):
        snf = smith_normal_form(a)
        core = _determinantal_factors(_square_core(a))
        assert snf.invariant_factors == core + (0,) * (len(snf.invariant_factors) - len(core)), a


def _alternating_diagonal(a):
    """The alternating row and column Hermite passes, down to a diagonal."""
    def diagonal(m):
        return all(not x for i, row in enumerate(m.entries) for j, x in enumerate(row) if i != j)

    work = a
    while True:
        work = hermite_normal_form(work)[0]
        if diagonal(work):
            return work
        work = hermite_normal_form(work.transpose())[0].transpose()
        if diagonal(work):
            return work


def _gcd_fold_repair(work):
    """The former divisibility repair, kept as the oracle: on a nonnegative,
    zeros-last diagonal matrix, add column i+1 to column i wherever d_i does
    not divide d_(i+1), then clear the 2x2 block by a row Euclid and one
    column step.  Returns (U, D, V) with U*work*V == D."""
    m, n = work.rows, work.cols
    d = [list(row) for row in work.entries]
    u = [list(row) for row in IntMatrix.identity(m).entries]
    vt = [list(row) for row in IntMatrix.identity(n).entries]

    def add_row(src, dst, q):
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        vt[dst] = [x + q * y for x, y in zip(vt[dst], vt[src])]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    rank = sum(1 for i in range(min(m, n)) if d[i][i])
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = d[i][i], d[i + 1][i + 1]
            if di and dj % di != 0:
                changed = True
                add_col(i + 1, i, 1)
                while d[i + 1][i]:
                    if abs(d[i + 1][i]) <= abs(d[i][i]):
                        add_row(i + 1, i, -(d[i][i] // d[i + 1][i]))
                        swap_rows(i, i + 1)
                    else:
                        add_row(i, i + 1, -(d[i + 1][i] // d[i][i]))
                add_col(i, i + 1, -(d[i][i + 1] // d[i][i]))
                if d[i][i] < 0:
                    negate_row(i)
                if d[i + 1][i + 1] < 0:
                    negate_row(i + 1)
    return IntMatrix(u, m), IntMatrix(d, n), IntMatrix(zip(*vt), n)


def test_smith_diagonal_matches_the_gcd_fold_repair():
    ctx = SymmetricContext(4)
    cases = [nabla_matrix(ctx, d) for d in range(1, 13)] + _k4_stacks(22)
    cases += list(SMALL_MATRICES) + list(CHAINED_REPAIRS)
    for a in cases:
        work = _alternating_diagonal(a)
        u, d, v = _gcd_fold_repair(work)
        assert (u @ work) @ v == d
        assert smith_normal_form(a).d == d, a


def _rank_deficient_matrices(rng, count):
    """Products B*D*C of rank k below min(m, n): B is m x k and C is k x n,
    each with an identity block among its shuffled rows (columns of C) and
    entries in [-3, 3] elsewhere, and D is diagonal with a factor 997 among
    its choices.  Every k x k minor is det(D) times a k x k minor of B and one
    of C, each at most 6^4 by Hadamard's bound, so the cofactor left after
    the primes of det(D) stays below 2^32 and trial division below 2^16
    always finishes it."""
    out = []
    for _ in range(count):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        k = rng.randint(1, min(m, n) - 1)

        def spanning(rows, width):
            block = [[int(i == j) for j in range(width)] for i in range(width)]
            block += [[rng.randint(-3, 3) for _ in range(width)] for _ in range(rows - width)]
            rng.shuffle(block)
            return IntMatrix(block)

        b, c = spanning(m, k), spanning(n, k).transpose()
        d = IntMatrix([
            [rng.choice((1, 2, 3, 4, 6, 997)) if i == j else 0 for j in range(k)]
            for i in range(k)
        ])
        out.append(b @ d @ c)
    return out


def test_nonzero_invariant_factors_match_the_smith_oracle():
    ctx = SymmetricContext(4)
    cases = _k4_stacks(22) + [nabla_matrix(ctx, d) for d in range(1, 13)]
    cases += list(SMALL_MATRICES) + list(CHAINED_REPAIRS)
    cases += _rank_deficient_matrices(random.Random(110), 40)
    # a factor of p-valuation 40 needs E = 8 doubled three times
    cases.append(IntMatrix([[2 ** 40, 0, 0], [0, 6, 0], [0, 0, 0]]))
    assert any(997 in smith_normal_form(a).invariant_factors for a in cases)
    # a missing rank stop or doubling would loop forever on these
    with _time_limit(60):
        for a in cases:
            snf = smith_normal_form(a)
            expected = snf.invariant_factors[: snf.rank]
            assert nonzero_invariant_factors(a, snf.rank) == expected, a


def test_nonzero_invariant_factors_check_the_rank_bound():
    a = IntMatrix([[2, 0], [0, 3]])
    with pytest.raises(ArithmeticError):
        nonzero_invariant_factors(a, 1)
    # a rank mod 2^31 - 1 below the bound: either the rank is lower or the
    # prime divides a factor, and the two are not told apart
    assert nonzero_invariant_factors(a, 3) is None
    assert nonzero_invariant_factors(IntMatrix([[2 ** 31 - 1]]), 1) is None


def test_nonzero_invariant_factors_reject_an_unfactored_gcd():
    big = 2 ** 61 - 1  # prime, and far above the square of the trial bound
    with pytest.raises(ArithmeticError):
        nonzero_invariant_factors(IntMatrix([[big]]), 1)
    # a prime between the trial bound and its square is proved prime by it
    assert nonzero_invariant_factors(IntMatrix([[65537, 0], [0, 2]]), 2) == (1, 2 * 65537)


def test_nonzero_invariant_factors_cross_check_the_valuations(monkeypatch):
    eliminate = intlinalg._eliminate_mod_prime_power

    def shifted(*args):
        valuations, *pivots = eliminate(*args)
        return (tuple(v + 1 for v in valuations), *pivots)

    monkeypatch.setattr(intlinalg, "_eliminate_mod_prime_power", shifted)
    with pytest.raises(ArithmeticError, match="disagree with the rank"):
        nonzero_invariant_factors(IntMatrix([[2, 0], [0, 3]]), 2)
