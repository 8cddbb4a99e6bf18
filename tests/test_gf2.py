import itertools
import random

import pytest

from bpuverify import gf2

from oracles import list_scan_echelon, list_scan_solve_affine


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


def _random_sets():
    """Seeded vector lists, dense and sparse, up to 4,000 bits wide, with
    zeros, duplicates and sums of earlier vectors mixed in."""
    rng = random.Random(2010)
    sets = []
    for width in (1, 7, 64, 300, 2049, 4000):
        for _ in range(8):
            if rng.random() < 0.5:
                fresh = [rng.getrandbits(width) for _ in range(rng.randint(0, 25))]
            else:
                fresh = [sum(1 << rng.randrange(width) for _ in range(3))
                         for _ in range(rng.randint(0, 25))]
            vectors = list(fresh)
            for _ in range(rng.randint(0, 15)):
                kind = rng.randrange(3)
                if kind == 0 or not vectors:
                    vectors.append(0)
                elif kind == 1:
                    vectors.append(rng.choice(vectors))
                else:
                    vectors.append(rng.choice(vectors) ^ rng.choice(vectors))
            rng.shuffle(vectors)
            sets.append((width, vectors))
    return sets


def test_random_sets_are_dependent_and_wide():
    sets = _random_sets()
    assert any(width > 2000 and len(list_scan_echelon(v)) < len(v) for width, v in sets)
    assert any(0 in v for _, v in sets)
    assert any(len(set(v)) < len(v) for _, v in sets if 0 not in v)


def test_rank_matches_the_list_scan_oracle():
    for width, vectors in _random_sets():
        assert gf2.rank(vectors) == len(list_scan_echelon(vectors)), (width, vectors)


def test_solve_affine_matches_the_list_scan_oracle():
    # same solution space, in whatever basis each route returns it
    rng = random.Random(2012)
    for width, vectors in _random_sets():
        k = len(vectors)
        inside = 0
        for v in vectors:
            if rng.random() < 0.5:
                inside ^= v
        for target in (inside, rng.getrandbits(width), 0):
            case = (width, vectors, target)
            solved = gf2.solve_affine(vectors, target)
            expected = list_scan_solve_affine(vectors, target)
            assert (solved is None) == (expected is None), case
            if solved is None:
                continue
            particular, nullspace = solved
            assert particular >> k == 0 and all(n >> k == 0 for n in nullspace), case
            assert _xor_of(vectors, particular) == target, case
            assert all(_xor_of(vectors, n) == 0 for n in nullspace), case
            assert len(nullspace) == k - gf2.rank(vectors), case
            assert gf2.rank(nullspace) == len(nullspace), case
