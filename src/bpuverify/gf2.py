"""GF(2) linear algebra on bitmask-encoded vectors.

A vector over GF(2) is a Python int whose bit i is coordinate i; matrices
are lists of such ints.  XOR is vector addition, which keeps ranks, spans
and affine solves both exact and fast.
"""

from __future__ import annotations

def _reduce(v: int, pivots: dict) -> int:
    """Clear every pivot's leading bit from ``v``, top down, visiting only set bits."""
    rest = v
    while rest:
        top = rest.bit_length() - 1
        if top in pivots:
            v ^= pivots[top]
        rest = v & ((1 << top) - 1)
    return v


def reduce_against(v: int, basis) -> int:
    """Fully reduce ``v`` against an echelonized basis (distinct leading bits)."""
    return _reduce(v, {b.bit_length() - 1: b for b in basis})


def echelon_basis(vectors) -> list:
    """Echelonized spanning set: distinct leading bits, sorted descending."""
    pivots = {}
    for v in vectors:
        v = _reduce(v, pivots)
        if v:
            pivots[v.bit_length() - 1] = v
    return sorted(pivots.values(), reverse=True)


def rank(vectors) -> int:
    """Rank on pivots keyed by leading bit: a vector meets only those at its leading bits."""
    pivots = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def in_span(v: int, basis_echelon) -> bool:
    return reduce_against(v, basis_echelon) == 0


def solve_affine(vectors, target: int):
    """All (x_0..x_{k-1}) in GF(2)^k with XOR of chosen vectors == target.

    Returns (particular, nullspace) where ``particular`` is one solution as a
    choice bitmask over the input vectors and ``nullspace`` is a basis of
    homogeneous solutions (also choice bitmasks), or None if inconsistent.
    Each vector carries its choice bit below its own bits, so one echelon
    basis tracks both: the members with no vector bits left span the
    homogeneous solutions.
    """
    k = len(vectors)
    basis = echelon_basis((v << k) | (1 << i) for i, v in enumerate(vectors))
    particular = reduce_against(target << k, basis)
    if particular >> k:
        return None
    return particular, [b for b in basis if not b >> k]


ENUMERATION_LIMIT = 4096  # most solutions enumerate_affine will list


def enumerate_affine(particular: int, nullspace):
    """All solution masks particular + span(nullspace), at most ENUMERATION_LIMIT."""
    if 1 << len(nullspace) > ENUMERATION_LIMIT:
        raise ValueError(f"solution space too large to enumerate ({2**len(nullspace)})")
    out = [particular]
    for n in nullspace:
        out += [mask ^ n for mask in out]
    return out
