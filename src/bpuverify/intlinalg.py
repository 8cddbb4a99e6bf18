"""Exact linear algebra over Z, Z/p and Z/p^E: Smith normal form, kernels,
cokernels, determinants, local row forms, and the p-parts of invariant
factors.

Everything uses arbitrary-precision Python ints.  The Smith and Hermite forms
are dense, on small matrices, and every Smith decomposition is re-verified,
U*A*V == D, before it is returned.  One sparse row elimination over Z/p^E,
on rows held as {column: entry} dicts, serves every rank, invariant factor
and cokernel witness: at E = 1 it gives the rank modulo p, and at larger E
the p-parts of the invariant factors and the steps of a local row form.
"""

from __future__ import annotations

import functools
import math


class IntMatrix:
    """Immutable dense integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        """``entries`` are rows of ints, kept as given.  ``cols`` gives the width
        of a matrix with no rows (default 0), else it must equal theirs."""
        rows = tuple(map(tuple, entries))
        width = len(rows[0]) if rows else (cols or 0)
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != width:
            raise ValueError(f"rows have length {width}, expected {cols}")
        self.entries = rows
        self.rows = len(rows)
        self.cols = width

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix([[0] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(_identity_rows(n))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        bt = list(zip(*other.entries)) if other.rows else [()] * other.cols
        return IntMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in bt]
                for row in self.entries
            ],
            other.cols,
        )

    def sparse_rows(self) -> list:
        """Each row as a {column: entry} dict of its nonzero entries."""
        return [{j: x for j, x in enumerate(row) if x} for row in self.entries]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.entries) if self.rows else [()] * self.cols, self.rows)

    def apply(self, vector) -> tuple:
        vector = tuple(vector)
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.entries)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


class SnfDecomposition:
    """Certified U*A*V == D with D diagonal in divisibility order."""

    __slots__ = ("u", "d", "v", "invariant_factors")

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix, invariant_factors: tuple):
        self.u, self.d, self.v, self.invariant_factors = u, d, v, invariant_factors

    @property
    def rank(self) -> int:
        return sum(1 for x in self.invariant_factors if x != 0)


def _identity_rows(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _is_diagonal(entries) -> bool:
    for i, row in enumerate(entries):
        for j, x in enumerate(row):
            if i != j and x:
                return False
    return True


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form with unimodular transform certificate.

    Diagonalization alternates size-reduced row and column Hermite passes
    (pivots are smallest nonzero absolute values, ties at the lowest index),
    which keeps transform entries far smaller than an unstructured two-sided
    elimination.  Each pass applies its row operations in place to U, or to
    the rows of V transposed for a column pass.  Wherever d_i does not divide
    d_(i+1), column i+1 is added to column i and the same passes clear that
    2x2 block to gcd and lcm; each such repair lowers d_i, so repairs end.
    The result is re-multiplied and compared against the input.
    """
    m, n = a.rows, a.cols
    u = _identity_rows(m)
    vt = _identity_rows(n)  # V transposed: column passes act on its rows
    d = _diagonalize([list(row) for row in a.entries], u, vt)
    # a Hermite pass leaves positive pivots and its zero rows last, so the
    # diagonal is positive up to the rank and zero after it
    rank = sum(1 for i in range(min(m, n)) if d[i][i])
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = d[i][i], d[i + 1][i + 1]
            if dj % di:
                changed = True
                vt[i] = [x + y for x, y in zip(vt[i], vt[i + 1])]
                rows_u, rows_vt = u[i:i + 2], vt[i:i + 2]
                block = _diagonalize([[di, 0], [dj, dj]], rows_u, rows_vt)
                u[i:i + 2], vt[i:i + 2] = rows_u, rows_vt
                d[i][i], d[i + 1][i + 1] = block[0][0], block[1][1]

    um, dm, vm = IntMatrix(u, m), IntMatrix(d, n), IntMatrix(zip(*vt), n)
    if (um @ a) @ vm != dm:
        raise ArithmeticError("Smith normal form certificate failed")
    diag = tuple(dm[i, i] for i in range(min(m, n)))
    for i in range(len(diag) - 1):
        if diag[i] == 0 and diag[i + 1] != 0:
            raise ArithmeticError("zero invariant factor precedes a nonzero one")
        if diag[i] and diag[i + 1] % diag[i] != 0:
            raise ArithmeticError("divisibility chain violated")
    return SnfDecomposition(um, dm, vm, diag)


def _diagonalize(d: list, u: list, vt: list) -> list:
    """Alternate row and column Hermite passes on the row list ``d`` until it
    is diagonal, applying row passes to ``u`` and column passes to ``vt`` in
    place; returns the diagonal row list."""
    for _ in range(200):
        _hermite_rows(d, u)
        if _is_diagonal(d):
            return d
        dt = [list(col) for col in zip(*d)]
        _hermite_rows(dt, vt)
        d = [list(row) for row in zip(*dt)]
        if _is_diagonal(d):
            return d
    raise ArithmeticError("diagonalization did not stabilize")


def hermite_normal_form(a: IntMatrix):
    """Row Hermite normal form with transform: returns (H, U) with U A = H.

    H is in row-echelon form with positive pivots and the entries above each
    pivot reduced into [0, pivot); U is unimodular.  Entries are size-reduced
    as the elimination proceeds, which keeps the transform far smaller than
    an unstructured two-sided reduction would.
    """
    h = [list(row) for row in a.entries]
    u = _identity_rows(a.rows)
    _hermite_rows(h, u)
    return IntMatrix(h, a.cols), IntMatrix(u, a.rows)


def _hermite_rows(h: list, companion: list) -> None:
    """Bring the row list ``h`` to row Hermite form in place, applying every
    row operation to the row list ``companion`` as well."""
    m = len(h)
    row = 0
    for col in range(len(h[0]) if h else 0):
        while True:
            support = [i for i in range(row, m) if h[i][col]]
            if not support:
                break
            best = min(support, key=lambda i: (abs(h[i][col]), i))
            if best != row:
                h[row], h[best] = h[best], h[row]
                companion[row], companion[best] = companion[best], companion[row]
            clean = True
            for i in range(row + 1, m):
                if h[i][col]:
                    q = h[i][col] // h[row][col]
                    if q:
                        h[i] = [x - q * y for x, y in zip(h[i], h[row])]
                        companion[i] = [x - q * y for x, y in zip(companion[i], companion[row])]
                    if h[i][col]:
                        clean = False
            if clean:
                if h[row][col] < 0:
                    h[row] = [-x for x in h[row]]
                    companion[row] = [-x for x in companion[row]]
                for i in range(row):
                    q = h[i][col] // h[row][col]
                    if q:
                        h[i] = [x - q * y for x, y in zip(h[i], h[row])]
                        companion[i] = [x - q * y for x, y in zip(companion[i], companion[row])]
                row += 1
                break


def integer_kernel(a: IntMatrix) -> list:
    """Basis of the full kernel lattice {x : A x = 0} (saturated by construction).

    Computed from the Hermite form of the transpose: the transform rows
    opposite the zero rows of H are a basis; a second Hermite pass turns them
    into the canonical (unique) reduced basis of the lattice.
    """
    if a.cols == 0:
        return []
    h, u = hermite_normal_form(a.transpose())
    rank = sum(1 for row in h.entries if any(row))
    vectors = [u.entries[i] for i in range(rank, a.cols)]
    if not vectors:
        return []
    reduced, _ = hermite_normal_form(IntMatrix(vectors))
    return [row for row in reduced.entries if any(row)]


@functools.lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix, a list of rows, by
    fraction-free (Bareiss) elimination with row swaps."""
    rows, sign, prev = [list(row) for row in rows], 1, 1
    n = len(rows)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot], sign = rows[pivot], rows[k], -sign
        for i in range(k + 1, n):
            rows[i] = [(a * rows[k][k] - rows[i][k] * b) // prev
                       for a, b in zip(rows[i], rows[k])]
        prev = rows[k][k]
    return sign * prev


def rank_mod_p(a: IntMatrix, p: int) -> int:
    """Rank of A over the field with p elements (Gaussian elimination)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return len(_eliminate_mod_prime_power(a.sparse_rows(), p, 1, a.rows)[0])


class LocalRowForm:
    """Row elimination of a full-row-rank A over Z/p^E: U*A == H (mod p^E),
    U kept as steps: step r swaps rows r and i, then subtracts c * row r
    from row k for each k and c of its parallel lists.

    Row r of H has p-valuation at least ``valuations[r]`` in every entry, so
    the functional p^(E - v_r) * u_r, with u_r row r of U, vanishes on A
    modulo p^E.  Every v_r is below E, so the v_r are the p-valuations of
    A's invariant factors, p^E kills the p-part of the cokernel, and these
    functionals detect every vector outside the column span of A over Z
    localized at p.
    """

    __slots__ = ("prime", "exponent", "valuations", "steps")

    def __init__(self, prime: int, exponent: int, valuations: tuple, steps: tuple):
        self.prime, self.exponent, self.valuations, self.steps = prime, exponent, valuations, steps

    def witness(self, x) -> tuple | None:
        """The first functional p^(E - v_r) * u_r that is nonzero on x modulo
        p^E, or None when x lies in the column span of A localized at p.
        Steps after r fix entry r of U*x and the row e_r, so u_r = e_r * U
        comes from steps r, r - 1, ..., 0 alone."""
        p, e, x = self.prime, self.exponent, list(x)
        q = p ** e
        if len(x) != len(self.valuations):
            raise ValueError("vector length must equal the row count")
        for r, (v, (i, rows, factors)) in enumerate(zip(self.valuations, self.steps)):
            x[r], x[i] = x[i], x[r]
            for k, c in zip(rows, factors):
                x[k] = (x[k] - c * x[r]) % q
            if v and x[r] % p ** v:
                break
        else:
            return None
        u = [0] * len(x)
        u[r] = 1
        for s in range(r, -1, -1):
            i, rows, factors = self.steps[s]
            u[s] = (u[s] - sum(c * u[k] for k, c in zip(rows, factors))) % q
            u[s], u[i] = u[i], u[s]
        return tuple(p ** (e - v) * t % q for t in u)


def full_rank_local_row_form(rows: list, p: int) -> LocalRowForm:
    """Row elimination over Z/p^E of the matrix with the given sparse rows,
    each a {column: entry} dict, each pivot the entry of least p-valuation in
    the block of rows and columns not yet pivoted.  The caller has shown that
    the matrix has full row rank over Q, else the doubling of E never ends."""
    exponent, (valuations, _, _, steps) = _local_elimination(rows, p, len(rows))
    return LocalRowForm(p, exponent, valuations, steps)


def _local_elimination(rows: list, p: int, rank: int):
    """E and the elimination modulo p^E of the sparse ``rows``, E = 8 doubled
    until ``rank`` pivots are found, which ends when they have rank ``rank``
    over Q.  The pivot valuations are all below E, so they do not depend on
    the start."""
    exponent = 8
    while len((found := _eliminate_mod_prime_power(rows, p, exponent, rank))[0]) < rank:
        exponent *= 2
    return exponent, found


def _eliminate_mod_prime_power(rows: list, p: int, exponent: int, rank: int):
    """Row elimination modulo p^exponent of the matrix whose rows are the
    {column: entry} dicts ``rows``, each pivot an entry of least p-valuation
    in the block not yet pivoted, for at most ``rank`` pivots.

    Returns (valuations, rows, cols, steps): the pivots' valuations and their
    row and column indices in A, and the steps of ``LocalRowForm``.  It stops
    early when the rest of the block is zero, so at exponent 1 it finds the
    rank modulo p, and the minor of A on its pivots is a unit modulo p.  The
    pivot is the first column of the first row, in the order of the rows
    after the swaps so far, whose entry has the least valuation.  A column
    index keyed by row id, not position, finds the rows a pivot updates, so
    only those are touched.
    """
    q = p ** exponent
    h = [{j: x % q for j, x in row.items() if x % q} for row in rows]
    m = len(h)
    holders = {}  # column -> ids of the unpivoted rows with an entry there
    for k, row in enumerate(h):
        for j in row:
            holders.setdefault(j, set()).add(k)
    order = list(range(m))  # position -> row id
    position = list(range(m))  # row id -> position
    valuations, pivot_cols, steps = [], [], []
    # low[k] bounds row k's least valuation from below, since a row operation
    # with a pivot of least valuation never lowers it
    low = [0] * m
    level = 0  # the least valuation in the block, which never decreases
    r = start = 0
    while r < rank and level < exponent:
        # every block entry has valuation at least level, so the first one
        # not divisible by p^(level + 1) has valuation exactly level; the
        # rows at positions r..start - 1 have none at this level
        above = p ** (level + 1)
        for i in range(start, m):
            k = order[i]
            if low[k] > level:
                continue
            j = None  # the least such column; an explicit loop beats min() on short rows
            for t, x in h[k].items():
                if x % above and (j is None or t < j):
                    j = t
            if j is not None:
                break
            low[k] = level + 1
        else:
            level += 1
            start = r
            continue
        # the rows passed over, and the row swapped to i, stay above level
        start = i + 1
        pivot, moved = order[i], order[r]
        order[r], order[i] = pivot, moved
        position[pivot], position[moved] = r, i
        pivot_row = h[pivot]
        for t in pivot_row:
            holders[t].discard(pivot)
        scale = p ** level
        inverse = pow(pivot_row[j] // scale, -1, q)
        rest = [(t, y) for t, y in pivot_row.items() if t != j]
        targets = sorted(holders.pop(j), key=position.__getitem__)
        factors = []
        for k in targets:
            row = h[k]
            c = row.pop(j) // scale * inverse % q
            for t, y in rest:
                x = (row.get(t, 0) - c * y) % q
                if x:
                    if t not in row:
                        holders[t].add(k)
                    row[t] = x
                elif t in row:
                    del row[t]
                    holders[t].discard(k)
            factors.append(c)
        valuations.append(level)
        pivot_cols.append(j)
        steps.append((i, [position[k] for k in targets], factors))
        r += 1
    return tuple(valuations), order[:r], pivot_cols, tuple(steps)


def check_cokernel_witness(rows: list, y, x, modulus: int) -> None:
    """Raise ArithmeticError unless y*A == 0 and y*x != 0 modulo ``modulus``,
    with A the matrix whose rows are the {column: entry} dicts ``rows``,
    which together prove that x is not in the column span of A over Z; a
    ValueError unless y and x both have one entry per row of A."""
    if not len(y) == len(rows) == len(x):
        raise ValueError("witness and vector lengths must equal the row count")
    image = {}
    for c, row in zip(y, rows):
        if c:
            for j, t in row.items():
                image[j] = image.get(j, 0) + c * t
    if any(s % modulus for s in image.values()):
        raise ArithmeticError("cokernel witness does not vanish on the matrix")
    if sum(c * t for c, t in zip(y, x)) % modulus == 0:
        raise ArithmeticError("cokernel witness vanishes on the vector")


def element_order_in_cokernel(a: IntMatrix, x) -> int | None:
    """Least k >= 1 with k*x in the column span of A; None means infinite order."""
    x = tuple(int(t) for t in x)
    if len(x) != a.rows:
        raise ValueError("vector length must equal the row count")
    snf = smith_normal_form(a)
    y = snf.u.apply(x)
    order = 1
    for i, yi in enumerate(y):
        di = snf.invariant_factors[i] if i < len(snf.invariant_factors) else 0
        if di == 0:
            if yi != 0:
                return None
        elif yi % di:
            order = math.lcm(order, di // math.gcd(di, yi % di))
    return order


def solve_integer(columns: list, target) -> tuple | None:
    """Solve sum x_j * columns[j] == target exactly over Z, or None.

    ``columns`` is a list of equal-length integer vectors.  Membership in the
    lattice they span is decided by forward substitution against the Hermite
    form of the stacked generators.
    """
    target = tuple(int(t) for t in target)
    if not columns:
        return () if all(t == 0 for t in target) else None
    h, u = hermite_normal_form(IntMatrix(columns))
    pivots = []
    for i, row in enumerate(h.entries):
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None:
            pivots.append((i, lead))
    work = list(target)
    y = [0] * h.rows
    for i, lead in pivots:
        c = work[lead]
        if c % h.entries[i][lead]:
            return None
        y[i] = c // h.entries[i][lead]
        if y[i]:
            work = [w - y[i] * x for w, x in zip(work, h.entries[i])]
    if any(work):
        return None
    return u.transpose().apply(y)
