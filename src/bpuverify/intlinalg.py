"""Exact linear algebra over Z and Z/p: Smith normal form, kernels, cokernels.

Everything is dense and uses arbitrary-precision Python ints.  The matrices
that show up here (graded pieces of symmetric-function operators) stay small,
so no sparsity machinery is warranted.  Every Smith decomposition is
self-certifying: U*A*V == D is re-verified by multiplication before it is
returned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional


class IntMatrix:
    """Immutable dense integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.entries = rows
        self.rows = len(rows)
        self.cols = width

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(_identity_rows(n))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        bt = list(zip(*other.entries)) if other.entries else []
        return IntMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in bt]
                for row in self.entries
            ]
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.entries)) if self.entries else [])

    def apply(self, vector) -> tuple:
        vector = tuple(vector)
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.entries)

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SnfDecomposition:
    """Certified U*A*V == D with D diagonal in divisibility order."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    invariant_factors: tuple

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
    the rows of V transposed for a column pass.  The divisibility chain is
    then enforced by gcd-folding adjacent diagonal entries.  The result is
    re-multiplied and compared against the input before being returned.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = _identity_rows(m)
    vt = _identity_rows(n)  # V transposed: column passes act on its rows
    for _ in range(200):
        _hermite_rows(d, u)
        if _is_diagonal(d):
            break
        dt = [list(col) for col in zip(*d)]
        _hermite_rows(dt, vt)
        d = [list(row) for row in zip(*dt)]
        if _is_diagonal(d):
            break
    else:
        raise ArithmeticError("diagonalization did not stabilize")

    def add_row(src, dst, q):
        if q:
            d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
            u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        if q:
            for row in d:
                row[dst] += q * row[src]
            vt[dst] = [x + q * y for x, y in zip(vt[dst], vt[src])]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    # a Hermite pass leaves positive pivots and its zero rows last, so the
    # diagonal is nonnegative with its zeros behind the nonzero entries
    rank = sum(1 for i in range(min(m, n)) if d[i][i])
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = d[i][i], d[i + 1][i + 1]
            if di and dj % di != 0:
                changed = True
                add_col(i + 1, i, 1)  # entry (i+1, i) becomes dj
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

    um, dm, vm = IntMatrix(u), IntMatrix(d), IntMatrix(zip(*vt))
    if (um @ a) @ vm != dm:
        raise ArithmeticError("Smith normal form certificate failed")
    diag = tuple(dm[i, i] for i in range(min(m, n)))
    for i in range(len(diag) - 1):
        if diag[i] == 0 and diag[i + 1] != 0:
            raise ArithmeticError("zero invariant factor precedes a nonzero one")
        if diag[i] and diag[i + 1] % diag[i] != 0:
            raise ArithmeticError("divisibility chain violated")
    return SnfDecomposition(um, dm, vm, diag)


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
    return IntMatrix(h), IntMatrix(u)


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


def _row_reduce_mod_p(a: IntMatrix, p: int):
    """Row echelon form of A over GF(p) with unit pivots: (rows, pivot columns)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
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
        for i in range(rank + 1, m):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    return rows, pivots


def rank_mod_p(a: IntMatrix, p: int) -> int:
    """Rank of A over the field with p elements (Gaussian elimination)."""
    return len(_row_reduce_mod_p(a, p)[1])


def nullspace_mod_p(a: IntMatrix, p: int) -> list:
    """Basis of the kernel of A over GF(p), as vectors of entries in [0, p)."""
    rows, pivots = _row_reduce_mod_p(a, p)
    basis = []
    for j in range(a.cols):
        if j in pivots:
            continue
        vec = [0] * a.cols
        vec[j] = 1
        for r in range(len(pivots) - 1, -1, -1):  # back-substitute, last pivot first
            pc = pivots[r]
            vec[pc] = -sum(x * y for x, y in zip(rows[r][pc + 1:], vec[pc + 1:])) % p
        basis.append(tuple(vec))
    return basis


def element_order_in_cokernel(a: IntMatrix, x) -> Optional[int]:
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


def solve_integer(columns: list, target) -> Optional[tuple]:
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
