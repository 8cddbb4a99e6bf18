"""Exact linear algebra over Z, Z/p and Z/p^E: Smith normal form, kernels,
cokernels, local row forms, and invariant factors without transforms.

Everything is dense and uses arbitrary-precision Python ints.  The matrices
that show up here (graded pieces of symmetric-function operators) stay small,
so no sparsity machinery is warranted.  Every Smith decomposition is
self-certifying: U*A*V == D is re-verified by multiplication before it is
returned.  ``nonzero_invariant_factors`` carries no transform: it bounds the
primes of the factors by the gcd of two minors and takes each prime's part
from an elimination modulo a power of that prime, cross-checked against the
rank modulo the prime.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional


class IntMatrix:
    """Immutable dense integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable, cols: Optional[int] = None):
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

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.entries) if self.rows else [()] * self.cols, self.rows)

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


def _row_reduce_mod_p(a: IntMatrix, p: int):
    """Forward elimination of A over GF(p): (pivot columns, pivot rows), the
    pivot rows as row indices of A in pivot order.  The minor of A on the
    pivot rows and pivot columns is nonzero mod p."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    m, n = a.rows, a.cols
    rows = [[x % p for x in row] for row in a.entries]
    order = list(range(m))
    pivots = []
    for col in range(n):
        rank = len(pivots)
        pivot = next((i for i in range(rank, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        order[rank], order[pivot] = order[pivot], order[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(rank + 1, m):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    return pivots, order[:len(pivots)]


def rank_mod_p(a: IntMatrix, p: int) -> int:
    """Rank of A over the field with p elements (Gaussian elimination)."""
    return len(_row_reduce_mod_p(a, p)[0])


_RANK_PRIME = 2 ** 31 - 1
_TRIAL_BOUND = 2 ** 16


def has_full_row_rank(a: IntMatrix) -> bool:
    """Whether A is shown to have full row rank: its rank modulo the prime
    2^31 - 1, which never exceeds its rank over Q, equals its row count."""
    return rank_mod_p(a, _RANK_PRIME) == a.rows


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@dataclass(frozen=True)
class LocalRowForm:
    """Row elimination of a full-row-rank A over Z/p^E: U*A == H (mod p^E).

    Row r of H has p-valuation at least ``valuations[r]`` in every entry, so
    the functional p^(E - v_r) * u_r, with u_r row r of the invertible U,
    vanishes on A modulo p^E.  Every v_r is below E, so the v_r are the
    p-valuations of A's invariant factors, p^E kills the p-part of the
    cokernel, and these functionals detect every vector outside the column
    span of A over Z localized at p.
    """

    prime: int
    exponent: int
    valuations: tuple
    transform: tuple

    def witness(self, x) -> Optional[tuple]:
        """The first functional p^(E - v_r) * u_r that is nonzero on x modulo
        p^E, or None when x lies in the column span of A localized at p."""
        p, e = self.prime, self.exponent
        for v, u in zip(self.valuations, self.transform):
            if v and sum(a * b for a, b in zip(u, x)) % p ** v:
                return tuple(p ** (e - v) * a % p ** e for a in u)
        return None


def local_row_form(a: IntMatrix, p: int) -> LocalRowForm:
    """Row elimination of A over Z/p^E, each pivot the entry of least
    p-valuation in the block of rows and columns not yet pivoted.

    Full row rank is checked first, by one rank modulo 2^31 - 1, so that some
    E exceeds every invariant factor's p-valuation; E starts at 8 and doubles
    until every pivot valuation is below it.  Raises ArithmeticError when A is
    not of full row rank.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not has_full_row_rank(a):
        raise ArithmeticError("matrix is not of full row rank")
    exponent = 8
    while True:
        u = _identity_rows(a.rows)
        valuations = _eliminate_mod_prime_power(a, p, exponent, a.rows, u)
        if valuations is not None:
            return LocalRowForm(p, exponent, valuations, tuple(tuple(row) for row in u))
        exponent *= 2


def _eliminate_mod_prime_power(a: IntMatrix, p: int, exponent: int, rank: int,
                               companion: list):
    """The valuations of the first ``rank`` pivots of A's elimination modulo
    p^exponent, applying every row operation to the row list ``companion``
    as well; None when some pivot would have valuation exponent or more (the
    rest of the block is zero)."""
    q = p ** exponent
    m = a.rows
    h = [[x % q for x in row] for row in a.entries]
    valuations = []
    # the rows of h keep only the columns not yet pivoted; low[i] bounds row
    # i's least valuation from below, since a row operation with a pivot of
    # least valuation never lowers it
    low = [0] * m
    level = 0  # the least valuation in the block, which never decreases
    for r in range(rank):
        pivot = None
        while pivot is None:
            for i in range(r, m):
                if low[i] > level:
                    continue
                least = exponent
                for j, x in enumerate(h[i]):
                    if x:
                        v = _valuation(x, p)
                        if v < least:
                            least, col = v, j
                            if v == level:
                                break
                low[i] = least
                if least == level:
                    pivot = i, col
                    break
            else:
                level = min(low[r:])
                if level == exponent:
                    return None
        i, j = pivot
        low[r], low[i] = low[i], low[r]
        h[r], h[i] = h[i], h[r]
        companion[r], companion[i] = companion[i], companion[r]
        pivot_row, pivot_companion = h[r], companion[r]
        scale = p ** level
        inverse = pow(pivot_row[j] // scale, -1, q)
        for i in range(r + 1, m):
            row = h[i]
            if row[j]:
                c = row[j] // scale * inverse % q
                h[i] = row = [(x - c * y) % q for x, y in zip(row, pivot_row)]
                companion[i] = [(x - c * y) % q for x, y in zip(companion[i], pivot_companion)]
            del row[j]
        valuations.append(level)
    return tuple(valuations)


def nonzero_invariant_factors(a: IntMatrix, rank: int) -> Optional[tuple]:
    """The nonzero invariant factors of A, in divisibility order, computed
    without a unimodular transform; ``rank`` bounds the rank of A from above.

    The rank of A modulo 2^31 - 1 bounds it from below: an ArithmeticError
    when that exceeds ``rank``, and None when it falls short (then either the
    rank of A is below ``rank`` or 2^31 - 1 divides a factor).  Otherwise the
    factors' product divides every rank x rank minor, so it divides the gcd
    g of two minors that are units mod 2^31 - 1, their pivots found scanning
    A forward and backward.  g is factored by trial division; a cofactor with
    no prime below 2^16 that is not thereby proved prime is an
    ArithmeticError.  For each prime p of g, elimination modulo p^E (E starts
    at 8 and doubles) gives the p-valuations of the factors as those of its
    first ``rank`` pivots, and the count of valuation 0 must equal the rank
    of A modulo p.
    """
    cols, rows = _row_reduce_mod_p(a, _RANK_PRIME)
    if len(cols) > rank:
        raise ArithmeticError(
            f"rank modulo {_RANK_PRIME} is {len(cols)}, above the rank bound {rank}"
        )
    if len(cols) < rank:
        return None
    m, n = a.rows, a.cols
    flipped = IntMatrix([row[::-1] for row in reversed(a.entries)], n)
    back_cols, back_rows = _row_reduce_mod_p(flipped, _RANK_PRIME)
    g = 0
    for rows, cols in (
        (rows, cols),
        ([m - 1 - i for i in back_rows], [n - 1 - j for j in back_cols]),
    ):
        minor = IntMatrix([[a.entries[i][j] for j in cols] for i in rows], rank)
        g = math.gcd(g, minor.determinant())
    factors = [1] * rank
    for p in _trial_primes(g):
        exponent = 8
        while (valuations := _eliminate_mod_prime_power(
                a, p, exponent, rank, [()] * m)) is None:
            exponent *= 2
        if valuations.count(0) != rank_mod_p(a, p):
            raise ArithmeticError(f"valuations at {p} disagree with the rank modulo {p}")
        factors = [f * p ** v for f, v in zip(factors, valuations)]
    return tuple(factors)


def _trial_primes(g: int) -> list:
    """The primes of g > 0 by trial division below 2^16; an ArithmeticError
    when a cofactor is left that has no prime below the bound and is too
    large to be proved prime by it."""
    primes = []
    f = 2
    while f * f <= g:
        if f >= _TRIAL_BOUND:
            raise ArithmeticError(
                f"minor gcd cofactor {g} has no prime factor below {_TRIAL_BOUND}"
            )
        if g % f == 0:
            primes.append(f)
            while g % f == 0:
                g //= f
        f += 1 if f == 2 else 2
    if g > 1:
        primes.append(g)
    return primes


def check_cokernel_witness(a: IntMatrix, y, x, modulus: int) -> None:
    """Raise ArithmeticError unless y*A == 0 and y*x != 0 modulo ``modulus``,
    which together prove that x is not in the column span of A over Z."""
    image = [0] * a.cols
    for c, row in zip(y, a.entries):
        if c:
            image = [s + c * t for s, t in zip(image, row)]
    if any(s % modulus for s in image):
        raise ArithmeticError("cokernel witness does not vanish on the matrix")
    if sum(c * t for c, t in zip(y, x)) % modulus == 0:
        raise ArithmeticError("cokernel witness vanishes on the vector")


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
