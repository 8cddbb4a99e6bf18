"""GF(2) linear algebra on bitmask-encoded vectors.

A vector over GF(2) is a Python int whose bit i is coordinate i; matrices
are lists of such ints.  XOR is vector addition, which keeps ranks, spans
and affine solves both exact and fast.
"""

from __future__ import annotations

def reduce_against(v: int, basis) -> int:
    """Fully reduce ``v`` against an echelonized basis (largest leading bit first)."""
    for b in basis:
        if v ^ b < v:
            v ^= b
    return v


def echelon_basis(vectors) -> list:
    """Echelonized spanning set: distinct leading bits, sorted descending."""
    basis = []
    for v in vectors:
        v = reduce_against(v, basis)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def rank(vectors) -> int:
    return len(echelon_basis(vectors))


def in_span(v: int, basis_echelon) -> bool:
    return reduce_against(v, basis_echelon) == 0


def solve_affine(vectors, target: int):
    """All (x_0..x_{k-1}) in GF(2)^k with XOR of chosen vectors == target.

    Returns (particular, nullspace) where ``particular`` is one solution as a
    choice bitmask over the input vectors and ``nullspace`` is a basis of
    homogeneous solutions (also choice bitmasks), or None if inconsistent.
    """
    rows = []  # (vector residue, choice mask)
    for idx, v in enumerate(vectors):
        rows.append((v, 1 << idx))
    basis = []  # list of (residue with unique leading bit, mask)
    null = []
    for v, mask in rows:
        for bv, bm in basis:
            if v ^ bv < v:
                v ^= bv
                mask ^= bm
        if v:
            basis.append((v, mask))
            basis.sort(key=lambda t: t[0], reverse=True)
        else:
            null.append(mask)
    t = target
    tmask = 0
    for bv, bm in basis:
        if t ^ bv < t:
            t ^= bv
            tmask ^= bm
    if t:
        return None
    return tmask, null


def enumerate_affine(particular: int, nullspace, limit: int = 4096):
    """All solution masks particular + span(nullspace); capped at ``limit``."""
    if len(nullspace) > limit.bit_length():
        raise ValueError(f"solution space too large to enumerate ({2**len(nullspace)})")
    out = []
    for bits in range(1 << len(nullspace)):
        mask = particular
        b = bits
        i = 0
        while b:
            if b & 1:
                mask ^= nullspace[i]
            b >>= 1
            i += 1
        out.append(mask)
        if len(out) > limit:
            raise ValueError("solution space too large to enumerate")
    return out
