"""GF(2) linear algebra on bitmask-encoded vectors.

A vector over GF(2) is a Python int whose bit i is coordinate i; matrices
are lists of such ints.  XOR is vector addition, which keeps ranks, spans
and affine solves both exact and fast.

Every elimination here files vectors in one pivot table, a dict keyed by
leading bit, so a vector meets only the pivots at its own leading bits.
Ranks count the table's entries, and affine solves read their solutions off
a table of vectors that carry choice bits.
"""

from __future__ import annotations


def _insert(pivots: dict, v: int) -> int:
    """XOR the pivot at v's leading bit until that bit is free, then file v
    there; returns what is left of v, 0 when v lay in the span."""
    while v:
        top = v.bit_length() - 1
        if top not in pivots:
            pivots[top] = v
            break
        v ^= pivots[top]
    return v


def rank(vectors) -> int:
    """Rank of the span of ``vectors``: the size of their pivot table."""
    pivots = {}
    for v in vectors:
        _insert(pivots, v)
    return len(pivots)


def solve_affine(vectors, target: int):
    """All (x_0..x_{k-1}) in GF(2)^k with XOR of chosen vectors == target.

    Returns (particular, nullspace) where ``particular`` is one solution as a
    choice bitmask over the input vectors and ``nullspace`` is a basis of
    homogeneous solutions (also choice bitmasks), or None if inconsistent.
    Each vector is filed as (v << k) | (1 << i), carrying its choice bit
    below its own bits: one whose own bits all clear is filed below bit k and
    is a homogeneous solution.  The target's own bits are then cleared
    against the table; a bit with no pivot leaves no solution.
    """
    k = len(vectors)
    pivots = {}
    for i, v in enumerate(vectors):
        _insert(pivots, (v << k) | (1 << i))
    nullspace = [p for top, p in pivots.items() if top < k]
    particular = _insert(pivots, target << k)
    if particular >> k:
        return None
    return particular, nullspace


ENUMERATION_LIMIT = 4096  # most solutions enumerate_affine will list


def enumerate_affine(particular: int, nullspace):
    """All solution masks particular + span(nullspace), at most ENUMERATION_LIMIT."""
    if 1 << len(nullspace) > ENUMERATION_LIMIT:
        raise ValueError(f"solution space too large to enumerate ({2**len(nullspace)})")
    out = [particular]
    for n in nullspace:
        out += [mask ^ n for mask in out]
    return out
