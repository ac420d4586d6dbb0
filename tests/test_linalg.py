import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graph_iwasawa import (TowerSpec, cayley_serre, derived_cover,
                           kappa_exact, linalg, spanning_tree_count)
from oracles import det_leibniz

matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n, max_size=n))


@given(matrices)
@settings(max_examples=150)
def test_bareiss_matches_leibniz(m):
    assert linalg.det_bareiss(m) == det_leibniz(m)


def test_bareiss_edges():
    assert linalg.det_bareiss([]) == 1
    assert linalg.det_bareiss([[7]]) == 7
    assert linalg.det_bareiss([[0, 1], [1, 0]]) == -1  # needs a pivot swap
    assert linalg.det_bareiss([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        linalg.det_bareiss([[1, 2], [3]])


def test_bareiss_nondestructive():
    m = [[2, 1], [1, 2]]
    linalg.det_bareiss(m)
    assert m == [[2, 1], [1, 2]]


def test_primes():
    ps = linalg.crt_primes(10)
    assert len(set(ps)) == 10
    assert all(linalg._is_prime(p) and p.bit_length() == 31 for p in ps)
    assert not linalg._is_prime(1)
    assert linalg._is_prime(2)
    assert not linalg._is_prime(3215031751)  # strong pseudoprime to 2,3,5,7


def test_det_crt_matches_bareiss():
    rng = random.Random(7)
    for trial in range(20):
        n = rng.randint(1, 30)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        expected = linalg.det_bareiss(m)
        got = linalg.det_crt(np.array(m, dtype=np.int64))
        assert got == expected, trial


def test_det_crt_nonnegative_mode():
    # SPD-style matrix, det known positive
    m = np.array([[4, -1, 0], [-1, 4, -1], [0, -1, 4]], dtype=np.int64)
    expected = linalg.det_bareiss(m.tolist())
    assert expected > 0
    assert linalg.det_crt(m, nonnegative=True) == expected


def test_det_crt_large_banded():
    # tridiagonal Laplacian-like matrix of a path: det = n + 1 pattern check
    n = 400
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, i] = 2
        if i:
            m[i, i - 1] = m[i - 1, i] = -1
    assert linalg.det_crt(m, nonnegative=True) == n + 1


def _spy_det_mod_p(monkeypatch):
    seen = []
    real = linalg._det_mod_p

    def spy(matrix, p):
        seen.append(p)
        return real(matrix, p)

    monkeypatch.setattr(linalg, "_det_mod_p", spy)
    return seen


def test_det_crt_permuted_band_with_corner():
    # a band of half-width 3 plus the wrap-around corner of a circulant,
    # hidden by a random symmetric permutation
    rng = random.Random(11)
    for trial in range(3):
        n, b = rng.randint(200, 300), 3
        m = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(max(0, i - b), min(n, i + b + 1)):
                m[i, j] = rng.randint(-3, 3)
            m[i, i] = rng.randint(5, 9)
        for c in range(b):
            m[c, n - 1 - c] = rng.randint(-3, 3)
            m[n - 1 - c, c] = rng.randint(-3, 3)
        perm = list(range(n))
        rng.shuffle(perm)
        m = m[np.ix_(perm, perm)]
        assert linalg.det_crt(m) == linalg.det_bareiss(m.tolist()), trial


def test_det_crt_zero_pivot_falls_back_for_that_prime(monkeypatch):
    # Cuthill-McKee starts at row 0 (least degree, lowest index), whose
    # pivot vanishes mod the first CRT prime only
    p0 = linalg.crt_primes(1)[0]
    n = 50
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, i] = 3
        if i:
            m[i, i - 1] = m[i - 1, i] = -1
    m[0, 0] = p0
    seen = _spy_det_mod_p(monkeypatch)
    assert linalg.det_crt(m) == linalg.det_bareiss(m.tolist())
    assert seen == [p0]


def test_corpus_cover_needs_no_fallback(monkeypatch):
    spec, n = TowerSpec(2, (3, 5)), 8
    cover = derived_cover(cayley_serre(2 ** n, spec.generators))
    seen = _spy_det_mod_p(monkeypatch)
    assert spanning_tree_count(cover) == kappa_exact(spec, n)
    assert seen == []


def test_hadamard_bound_dominates():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        bound = linalg.hadamard_bound(np.array(m, dtype=np.int64))
        assert abs(det_leibniz(m)) <= bound or bound == 0
