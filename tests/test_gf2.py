import itertools

import pytest

from bpuverify import gf2


def _xor_of(vectors, mask):
    out = 0
    for i, v in enumerate(vectors):
        if mask >> i & 1:
            out ^= v
    return out


def test_solve_affine_matches_brute_force():
    # every list of up to three 3-bit vectors, against every 3-bit target
    for k in range(4):
        for vectors in itertools.product(range(8), repeat=k):
            for target in range(8):
                expected = {m for m in range(1 << k) if _xor_of(vectors, m) == target}
                solved = gf2.solve_affine(list(vectors), target)
                if not expected:
                    assert solved is None, (vectors, target)
                    continue
                assert solved is not None, (vectors, target)
                masks = gf2.enumerate_affine(*solved)
                assert len(masks) == len(expected), (vectors, target)
                assert set(masks) == expected, (vectors, target)


def test_enumerate_affine_refuses_a_too_large_solution_space():
    assert len(gf2.enumerate_affine(*gf2.solve_affine([0] * 12, 0))) == 4096
    with pytest.raises(ValueError):
        gf2.enumerate_affine(*gf2.solve_affine([0] * 13, 0))
