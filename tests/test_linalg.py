import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from graph_iwasawa import (TowerSpec, cayley_serre, cycle_graph, cyclotomic,
                           derived_cover, ihara_h, kappa_exact, linalg,
                           spanning_tree_count, verify_integer_decomposition,
                           verify_product_formula, zeta)
from graph_iwasawa.serre import adjacency_matrix
from oracles import det_bareiss, det_leibniz, random_voltage_graph

ROOT = Path(__file__).resolve().parents[1]
# Properties of the lane kernel report their first failing example as it
# is: shrinking would rerun the Bareiss oracle for minutes before a report.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n, max_size=n))


@given(matrices)
@settings(max_examples=150)
def test_bareiss_matches_leibniz(m):
    assert det_bareiss(m) == det_leibniz(m)


def test_bareiss_edges():
    assert det_bareiss([]) == 1
    assert det_bareiss([[7]]) == 7
    assert det_bareiss([[0, 1], [1, 0]]) == -1  # needs a pivot swap
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3]])


def test_bareiss_nondestructive():
    m = [[2, 1], [1, 2]]
    det_bareiss(m)
    assert m == [[2, 1], [1, 2]]


def test_primes():
    ps = linalg.crt_primes(10)
    assert len(set(ps)) == 10
    assert all(cyclotomic.is_prime(p) and p.bit_length() == 31 for p in ps)
    assert not cyclotomic.is_prime(1)
    assert cyclotomic.is_prime(2)
    assert not cyclotomic.is_prime(3215031751)  # strong pseudoprime to 2,3,5,7


def _det_stack(stack):
    """The determinants of a dense (k, n, n) stack: linalg.det_residues on
    its values at the union of their patterns, with the primes of the
    largest Hadamard bound shared by all k, then linalg._crt."""
    n = stack.shape[1]
    rows, cols = np.nonzero(stack.any(axis=0))
    vals = stack[:, rows, cols]
    bound = max(linalg._hadamard_bound(n, rows, v) for v in vals)
    if not bound:
        return [0] * len(stack)  # every matrix has a zero row
    primes = linalg._primes_above(2 * bound + 1)
    return linalg._crt(primes, linalg.det_residues(n, rows, cols, vals,
                                                   primes), bound)


def _det_crt(matrix):
    """linalg.det_pattern on the nonzeros of one dense matrix."""
    rows, cols = np.nonzero(matrix)
    return linalg.det_pattern(matrix.shape[0], rows, cols,
                              matrix[rows, cols])


def test_det_crt_matches_bareiss():
    rng = random.Random(7)
    for trial in range(20):
        n = rng.randint(1, 30)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        expected = det_bareiss(m)
        got = _det_crt(np.array(m, dtype=np.int64))
        assert got == expected, trial


def test_det_crt_positive_det_in_signed_range():
    # SPD-style matrix, det known positive: the signed CRT range holds it
    m = np.array([[4, -1, 0], [-1, 4, -1], [0, -1, 4]], dtype=np.int64)
    expected = det_bareiss(m.tolist())
    assert expected > 0
    assert _det_crt(m) == expected


def test_det_crt_large_banded():
    # tridiagonal Laplacian-like matrix of a path: det = n + 1 pattern check
    n = 400
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, i] = 2
        if i:
            m[i, i - 1] = m[i - 1, i] = -1
    assert _det_crt(m) == n + 1


def _spy_inverses(monkeypatch):
    """Per det_residues call: [runs, lanes, inverses], with runs the
    (pivot steps, updating pivot pairs, lanes, distinct primes) of each
    _det_band call in it, lanes its count of (matrix, prime) lanes and
    inverses the modular inverses it took outside the pivoting fallback.
    pow may never get a zero: ValueError would reach the CLI as "invalid
    input"."""
    calls = []
    counting = [False]
    real_residues = linalg.det_residues
    real_band, real_swaps = linalg._det_band, linalg._det_swaps

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            assert base % mod, "pow asked to invert 0"
            if counting[0]:
                calls[-1][2] += 1
        return pow(base, exp, mod)

    def residues(n, rows, cols, vals, primes):
        calls.append([[], len(vals) * len(primes), 0])
        counting[0] = True
        try:
            return real_residues(n, rows, cols, vals, primes)
        finally:
            counting[0] = False

    def band(w, span, reach, places, vals, js, primes, held=0):
        top = len(reach) - held
        pairs = sum(reach[k + 1] > k + 1 for k in range(0, top - 1, 2))
        calls[-1][0].append((-(-top // 2), pairs, len(primes),
                             len(set(primes))))
        return real_band(w, span, reach, places, vals, js, primes, held)

    def swaps(*args):
        counting[0] = False
        try:
            return real_swaps(*args)
        finally:
            counting[0] = True

    monkeypatch.setattr(linalg, "pow", counting_pow, raising=False)
    monkeypatch.setattr(linalg, "det_residues", residues)
    monkeypatch.setattr(linalg, "_det_band", band)
    monkeypatch.setattr(linalg, "_det_swaps", swaps)
    return calls


def _path_laplacian_like(n, diag):
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, i] = diag
        if i:
            m[i, i - 1] = m[i - 1, i] = -1
    return m


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
        assert _det_crt(m) == det_bareiss(m.tolist()), trial


def test_det_crt_zero_pivot_falls_back_for_that_prime(monkeypatch,
                                                        fallbacks):
    # Cuthill-McKee starts at row 0 (least degree, lowest index); the first
    # pivot block [[1, -1], [-1, p0 + 1]] has determinant p0, so it
    # vanishes mod the first CRT prime only
    p0 = linalg.crt_primes(1)[0]
    m = _path_laplacian_like(50, 3)
    m[0, 0], m[1, 1] = 1, p0 + 1
    inverses = _spy_inverses(monkeypatch)
    assert _det_crt(m) == det_bareiss(m.tolist())
    assert fallbacks == [(0, p0)]
    [(runs, lanes, taken)] = inverses
    assert taken == lanes - 1  # none for the failed lane


def test_det_crt_zero_scalar_pivot_needs_no_fallback(monkeypatch, fallbacks):
    # m[0, 0] = p0 vanishes mod p0, but the first pivot block
    # [[p0, -1], [-1, 3]] does not
    p0 = linalg.crt_primes(1)[0]
    m = _path_laplacian_like(50, 3)
    m[0, 0] = p0
    inverses = _spy_inverses(monkeypatch)
    assert _det_crt(m) == det_bareiss(m.tolist())
    assert fallbacks == []
    [(runs, lanes, taken)] = inverses
    assert taken == lanes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10])
def test_det_crt_odd_and_even_sizes(n):
    # an odd n ends on one single pivot after the pivot pairs
    rng = random.Random(n)
    for trial in range(3):
        m = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(max(0, i - 2), min(n, i + 3)):
                m[i, j] = rng.randint(-5, 5)
        assert _det_crt(m) == det_bareiss(m.tolist()), trial


@pytest.mark.parametrize("corner", [1, linalg.crt_primes(1)[0] + 1])
def test_det_crt_split_pivot_block_that_vanishes(monkeypatch, fallbacks,
                                                  corner):
    # rows 0 and 1 form a component of their own, where Cuthill-McKee
    # starts: reach[1] = 1, so their pivot block [[1, 1], [1, corner]]
    # updates no row.  Its determinant, 0 or p0, vanishes mod p0 and enters
    # det as it is, with no inverse and no fallback.
    m = np.zeros((20, 20), dtype=np.int64)
    m[:2, :2] = [[1, 1], [1, corner]]
    m[2:, 2:] = _path_laplacian_like(18, 3)
    inverses = _spy_inverses(monkeypatch)
    assert _det_crt(m) == det_bareiss(m.tolist())
    assert fallbacks == []
    [(runs, lanes, taken)] = inverses
    assert taken == lanes


@pytest.mark.parametrize("n", [5, 6, 12])
def test_det_crt_worst_case_residues(fallbacks, n):
    # 3I - J mod p0, the largest CRT prime 2 147 483 629: every
    # off-diagonal residue is p0 - 1, and the first pivot block P = [[2,
    # -1], [-1, 2]] has -adj(P) = [[-2, -1], [-1, -2]], so the two products
    # of each entry of -C adj(P) are (p0 - 1)(p0 - 2) and (p0 - 1)^2
    assert linalg.crt_primes(1)[0] == 2147483629
    m = 3 * np.eye(n, dtype=np.int64) - 1
    assert _det_crt(m) == det_bareiss(m.tolist()) == 3 ** (n - 1) * (3 - n)
    assert fallbacks == []


def test_corpus_cover_needs_no_fallback(fallbacks):
    spec, n = TowerSpec(2, (3, 5)), 8
    cover = derived_cover(cayley_serre(2 ** n, spec.generators))
    assert spanning_tree_count(cover) == kappa_exact(spec, n)
    assert fallbacks == []


def _hadamard_bound(matrix):
    rows, cols = np.nonzero(matrix)
    return linalg._hadamard_bound(matrix.shape[0], rows, matrix[rows, cols])


def test_hadamard_bound_dominates():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        bound = _hadamard_bound(np.array(m, dtype=np.int64))
        assert abs(det_leibniz(m)) <= bound or bound == 0


def test_hadamard_bound_past_int64_squares():
    # entries near 2^40: a row's squared norm is near 2^80
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randint(1, 8)
        m = [[rng.choice((-1, 1)) * ((1 << 40) - rng.randint(0, 99))
              for _ in range(n)] for _ in range(n)]
        arr = np.array(m, dtype=np.int64)
        det = det_bareiss(m)
        assert abs(det) <= _hadamard_bound(arr)
        assert _det_crt(arr) == det


def test_det_crt_divides_rows_by_their_contents():
    # random rows times row factors of either sign, some of them 1, and
    # some rows with a factor only in part of their entries
    rng = random.Random(17)
    for trial in range(20):
        n = rng.randint(1, 12)
        m = np.array([[rng.randint(-5, 5) for _ in range(n)]
                      for _ in range(n)], dtype=np.int64)
        m[np.arange(n), np.arange(n)] = rng.randint(1, 5)
        factors = [rng.choice((1, -1, 2, -3, 6, 10 ** 6)) for _ in range(n)]
        m *= np.array(factors, dtype=np.int64)[:, None]
        assert _det_crt(m) == det_bareiss(m.tolist()), trial


def _spy_det_residues(monkeypatch):
    """Record (rows, cols, values, prime count) of every det_residues call."""
    seen = []
    real = linalg.det_residues

    def spy(n, rows, cols, vals, primes):
        seen.append((rows.copy(), cols.copy(), vals.copy(), len(primes)))
        return real(n, rows, cols, vals, primes)

    monkeypatch.setattr(linalg, "det_residues", spy)
    return seen


def test_det_crt_row_contents_shed_bound_bits(monkeypatch):
    # 6 x the path Laplacian: every row has content 6, so the bound of the
    # divided matrix is 6^-n times the bound of m
    m = 6 * _path_laplacian_like(40, 2)
    seen = _spy_det_residues(monkeypatch)
    assert _det_crt(m) == 6 ** 40 * 41
    [(_, _, vals, count)] = seen
    assert set(vals.ravel().tolist()) == {2, -1}
    # the bound is the Hadamard bound of m // 6, 5 6^19, two primes, where
    # that of m itself, 6^40 times it, would take six
    bound = _hadamard_bound(m // 6)
    assert bound == 5 * 6 ** 19
    assert count == len(linalg._primes_above(2 * bound + 1)) == 2
    assert len(linalg._primes_above(2 * _hadamard_bound(m) + 1)) == 6
    # a bound stated by the caller, m's diagonal product 12^40, sheds the
    # contents too: 2^40 is left
    rows, cols = np.nonzero(m)
    assert linalg._det_bounded(40, rows, cols, m[rows, cols],
                               12 ** 40) == 6 ** 40 * 41
    assert seen[-1][-1] == len(linalg._primes_above(2 * 2 ** 40 + 1))


def test_det_crt_all_zero_pattern_row(monkeypatch):
    # row 2 is in the pattern, with values 0 there: content 0, determinant
    # 0, before any division or kernel run
    m = _path_laplacian_like(6, 3)
    rows, cols = np.nonzero(m)
    vals = m[rows, cols]
    vals[rows == 2] = 0
    monkeypatch.setattr(linalg, "det_residues", None)
    with np.errstate(all="raise"):
        assert linalg.det_pattern(6, rows, cols, vals) == 0


def test_det_crt_uniform_multiplicity_cover_takes_fewer_primes(monkeypatch):
    # l = 2, a = (1, 1): every edge doubled, so the reduced Laplacian's rows
    # (4, -2, -2) have content 2, and the divided diagonal bounds det by
    # 2^1023, where the undivided one would bound it by 4^1023
    cover = derived_cover(cayley_serre(2 ** 10, (1, 1)))
    seen = _spy_det_residues(monkeypatch)
    assert spanning_tree_count(cover) == kappa_exact(TowerSpec(2, (1, 1)), 10)
    assert [count for *_, count in seen] == [34]
    assert len(linalg._primes_above(2 * 4 ** 1023 + 1)) == 67


@pytest.mark.parametrize("spec, n, hadamard, primes", [
    # every edge doubled: the rows (4, -2, -2) have content 2, so the bound
    # is 2^1023 against a Hadamard bound of 6^(1023 / 2)
    (TowerSpec(2, (1, 1)), 10, 43, 34),
    # the rows (4, -1, -1, -1, -1): 4^511 against 20^(511 / 2)
    (TowerSpec(2, (3, 5)), 9, 36, 34),
])
def test_reduced_laplacian_takes_the_primes_of_its_diagonal(
        monkeypatch, spec, n, hadamard, primes):
    # a reduced Laplacian is symmetric with a nonnegative, weakly dominant
    # diagonal, so 0 <= det <= the product of its content-divided diagonal
    cover = derived_cover(cayley_serre(spec.ell ** n, spec.generators))
    seen = _spy_det_residues(monkeypatch)
    assert spanning_tree_count(cover) == kappa_exact(spec, n)
    [(rows, _, vals, count)] = seen
    assert count == primes
    bound = linalg._hadamard_bound(2 ** n - 1, rows, vals[0])
    assert len(linalg._primes_above(2 * bound + 1)) == hadamard


def test_unsymmetric_matrix_keeps_the_hadamard_bound(monkeypatch):
    # a dominant diagonal of 4, with -2 above it and -1 below: the primes
    # are those of the Hadamard bound 21^30, five, not the four of 4^60;
    # its transpose is the same case.  Made symmetric with -2 both sides,
    # content 2 leaves rows (2, -1, -1): det_pattern takes the three primes
    # of their Hadamard bound 5 6^29 whatever the matrix's shape, and the
    # diagonal 4^60, stated by its caller, leaves 2^60, two primes
    m = (4 * np.eye(60, dtype=np.int64) - 2 * np.eye(60, k=1, dtype=np.int64)
         - np.eye(60, k=-1, dtype=np.int64))
    sym = m - np.eye(60, k=-1, dtype=np.int64)
    seen = _spy_det_residues(monkeypatch)
    for matrix in (m, m.T, sym):
        assert _det_crt(matrix) == det_bareiss(matrix.tolist())
    rows, cols = np.nonzero(sym)
    assert linalg._det_bounded(60, rows, cols, sym[rows, cols],
                               4 ** 60) == det_bareiss(sym.tolist())
    assert [count for *_, count in seen] == [5, 5, 3, 2]
    assert _hadamard_bound(m) == linalg._isqrt_ceil(20 * 21 ** 58 * 17)
    assert _hadamard_bound(sym // 2) == 5 * 6 ** 29
    assert len(linalg._primes_above(2 * 4 ** 60 + 1)) == 4


def test_orbit_values_keep_their_bound(monkeypatch):
    # h(1, Psi_7) of the voltage bouquet with jumps (1, 2) mod 7: a block of
    # companion matrix powers, under the Hadamard bound of its divided
    # rows; the count of its 7-vertex cover takes its diagonal's primes
    vg = cayley_serre(7, (1, 2))
    seen = _spy_det_residues(monkeypatch)
    assert verify_integer_decomposition(vg).ok
    [(rows, cols, vals, count), (o_rows, _, o_vals, o_count)] = seen
    diagonal = math.prod(vals[0][rows == cols].tolist())
    assert diagonal == 4 ** 6
    assert count == len(linalg._primes_above(2 * diagonal + 1))
    bound = linalg._hadamard_bound(int(o_rows.max()) + 1, o_rows, o_vals[0])
    assert o_count == len(linalg._primes_above(2 * bound + 1))


# The primes each det_residues call takes on the benchmark's cover-oracle
# inputs at seed 0: the matrix-tree counts of five corpus covers, (l, a, n)
# of 243-1024 vertices, under their diagonals' bounds ...
_MATRIX_TREE_PRIMES = [((3, (1, 4, 20), 5), 21), ((2, (3, 5), 9), 34),
                       ((5, (3, 5, 7, 11), 4), 61), ((3, (5, 7, 11), 6), 61),
                       ((2, (1, 1), 10), 34)]
# ... and the product formula's and the integer decomposition's calls on
# the first ten criterion-5 voltage graphs whose covers have 24-32
# vertices: the cover's pencil or count, then the base's, then one a
# nontrivial orbit, orbit values under the Hadamard bound
_VOLTAGE_PRIMES = [([2, 1, 1, 1, 1], [2, 1, 1, 1, 1])] * 5 + [
    ([2, 1, 2], [2, 1, 2]), ([2, 1, 1, 1, 1], [2, 1, 1, 1, 1]),
    ([2, 1, 2], [2, 1, 2]), ([2, 1, 1, 1, 1], [2, 1, 1, 1, 1]),
    ([2, 1, 2], [1, 1, 2])]


def test_cover_oracle_calls_keep_their_primes(monkeypatch):
    seen = _spy_det_residues(monkeypatch)
    for (ell, gens, n), primes in _MATRIX_TREE_PRIMES:
        seen.clear()
        spanning_tree_count(derived_cover(cayley_serre(ell ** n, gens)))
        assert [count for *_, count in seen] == [primes], (ell, gens, n)
    rng = random.Random(20240801)
    graphs = []
    while len(graphs) < len(_VOLTAGE_PRIMES):
        vg = random_voltage_graph(rng, max_vertices=4, max_modulus=12,
                                  max_edges=10)
        if 24 <= vg.base.num_vertices * vg.modulus <= 32:
            graphs.append(vg)
    for i, (vg, expected) in enumerate(zip(graphs, _VOLTAGE_PRIMES)):
        counts = []
        for verify in (verify_product_formula, verify_integer_decomposition):
            seen.clear()
            assert verify(vg).ok, i
            counts.append([count for *_, count in seen])
        assert tuple(counts) == expected, i


def _stack_on_pattern(rng, k, n, density):
    pattern = [(i, j) for i in range(n) for j in range(n)
               if i == j or rng.random() < density]
    stack = np.zeros((k, n, n), dtype=np.int64)
    for mat in stack:
        for i, j in pattern:
            mat[i, j] = rng.randint(-6, 6)
    return stack


def test_det_stack_matches_bareiss():
    rng = random.Random(13)
    for trial in range(12):
        k, n = rng.randint(1, 6), rng.randint(1, 25)
        stack = _stack_on_pattern(rng, k, n, rng.choice((0.1, 0.3, 0.8)))
        expected = [det_bareiss(m.tolist()) for m in stack]
        assert _det_stack(stack) == expected, trial


def _scaled_paths():
    """Path-like matrices scaled by 1, 10^3 and 10^6, so of Hadamard
    bounds far apart; they share the primes of the largest."""
    return np.stack([_path_laplacian_like(50, 3) * c
                     for c in (1, 10 ** 3, 10 ** 6)])


def test_det_stack_falls_back_for_one_matrix_and_prime(monkeypatch,
                                                        fallbacks):
    # only matrix 1's first pivot block (rows 0 and 1, where Cuthill-McKee
    # starts), [[1, -10^3], [-10^3, p0 + 10^6]], vanishes mod p0, beside
    # the two other lanes of p0
    p0 = linalg.crt_primes(1)[0]
    stack = _scaled_paths()
    stack[1, 0, 0], stack[1, 1, 1] = 1, p0 + 10 ** 6
    inverses = _spy_inverses(monkeypatch)
    assert _det_stack(stack) == [det_bareiss(m.tolist()) for m in stack]
    assert fallbacks == [(1, p0)]
    [(runs, lanes, taken)] = inverses
    assert taken == lanes - 1  # none for the failed lane


def test_det_stack_zero_scalar_pivot_needs_no_fallback(monkeypatch,
                                                        fallbacks):
    # matrix 1's first entry vanishes mod p0, its first pivot block does not
    p0 = linalg.crt_primes(1)[0]
    stack = _scaled_paths()
    stack[1, 0, 0] = p0
    inverses = _spy_inverses(monkeypatch)
    assert _det_stack(stack) == [det_bareiss(m.tolist()) for m in stack]
    assert fallbacks == []
    [(runs, lanes, taken)] = inverses
    assert taken == lanes


def test_det_stack_with_zero_matrices():
    a = _path_laplacian_like(30, 3)
    zero = np.zeros_like(a)
    assert _det_stack(np.stack([a, zero, 2 * a])) == [
        det_bareiss(a.tolist()), 0, 2 ** 30 * det_bareiss(a.tolist())]
    assert _det_stack(np.stack([zero, zero])) == [0, 0]
    assert _det_stack(np.zeros((2, 0, 0), dtype=np.int64)) == [1, 1]


def test_det_stack_singular_node_at_u_equal_1():
    # the h(u) node matrices I - A u + (D - I) u^2 of a cover; at u = 1
    # the matrix is the Laplacian, singular
    cover = derived_cover(cayley_serre(2 ** 4, (3, 5)))
    n = cover.num_vertices
    a = np.array(adjacency_matrix(cover), dtype=np.int64)
    d = np.diag(cover.valencies()).astype(np.int64)
    ident = np.eye(n, dtype=np.int64)
    us = (0, 1, -1, 2, -2)
    stack = np.stack([ident - a * u + (d - ident) * u * u for u in us])
    dets = _det_stack(stack)
    assert dets[1] == 0 and dets[0] == 1
    assert dets == [det_bareiss(m.tolist()) for m in stack]


def test_pencil_stack_takes_at_most_one_inverse_per_lane(monkeypatch,
                                                         fallbacks):
    # the pencil's node matrices share each prime, and each lane that did
    # not fail takes one inverse, at the end of the call: none is taken at
    # a pivot pair
    cover = derived_cover(cayley_serre(2 ** 4, (3, 5)))
    inverses = _spy_inverses(monkeypatch)
    zeta.ihara_h(cover)
    [(runs, lanes, taken)] = inverses
    assert all(distinct < run_lanes for *_, run_lanes, distinct in runs)
    assert taken == lanes - len(fallbacks)


def test_det_crt_takes_at_most_one_inverse_per_lane(monkeypatch, fallbacks):
    # the 1024-vertex l = 2, a = (1, 1) count: one matrix of n = 1023 rows
    # and w = 1 on 34 primes, cut into 510 rows from each end and g = 3
    # between.  The ends run takes 255 pivot pairs, all updating rows, on 68
    # lanes, and the middle run 2 steps on 34, so 257 sequential steps,
    # about n / 4 + g / 2, where one run from the top took 511 updating
    # pairs; then one inverse a lane
    spec, n = TowerSpec(2, (1, 1)), 10
    cover = derived_cover(cayley_serre(2 ** n, spec.generators))
    inverses = _spy_inverses(monkeypatch)
    assert spanning_tree_count(cover) == kappa_exact(spec, n)
    assert fallbacks == []
    [(runs, lanes, taken)] = inverses
    assert runs == [(255, 255, 68, 34), (2, 1, 34, 34)]
    assert sum(steps for steps, *_ in runs) <= 1023 / 4 + 3 / 2
    assert taken == lanes == 34


@st.composite
def stacks(draw):
    """k <= 8 matrices of size n <= 16 on one random pattern, each scaled
    by 1, 10^3 or 10^6, some of them zero or with two equal rows."""
    k, n = draw(st.integers(1, 8)), draw(st.integers(1, 16))
    pattern = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    mask = np.array(pattern).reshape(n, n) | np.eye(n, dtype=bool)
    stack = np.zeros((k, n, n), dtype=np.int64)
    for mat in stack:
        values = draw(st.lists(st.integers(-9, 9), min_size=n * n,
                               max_size=n * n))
        mat[...] = np.array(values).reshape(n, n) * mask
        mat *= draw(st.sampled_from((1, 10 ** 3, 10 ** 6)))
        kind = draw(st.sampled_from(("plain", "zero", "singular")))
        if kind == "zero":
            mat[...] = 0
        elif kind == "singular" and n > 1:
            mat[1] = mat[0]
    return stack


@given(stacks())
@settings(phases=NO_SHRINK)
def test_det_stack_property(stack):
    assert _det_stack(stack) == [det_bareiss(m.tolist()) for m in stack]


def _sliding_dets(stack, mask, monkeypatch):
    """The determinants of a (k, n, n) stack on the pattern mask (with the
    stack's own nonzeros) by linalg.det_residues, then linalg._crt; the
    lane count k len(primes); and (w, span, lanes, held, rows) of each
    kernel call."""
    n = stack.shape[1]
    rows, cols = np.nonzero(mask | stack.any(axis=0))
    vals = stack[:, rows, cols]
    bound = max(linalg._hadamard_bound(n, rows, v) for v in vals)
    if not bound:
        return [0] * len(stack), 0, []  # every matrix has a zero row
    primes = linalg._primes_above(2 * bound + 1)
    calls = []
    real_band = linalg._det_band

    def band(w, span, reach, places, vals, js, primes, held=0):
        calls.append((w, span, len(primes), held, len(reach)))
        return real_band(w, span, reach, places, vals, js, primes, held)

    monkeypatch.setattr(linalg, "_det_band", band)
    residues = linalg.det_residues(n, rows, cols, vals, primes)
    return linalg._crt(primes, residues, bound), len(vals) * len(primes), calls


def _band_mask(n, b):
    return abs(np.subtract.outer(range(n), range(n))) <= b


@st.composite
def banded_stacks(draw):
    """(stack, mask): k <= 4 matrices on one random pattern mask inside the
    band of half-width 1 <= b <= 3 that holds the diagonals next to the
    main one, of size 66 <= n <= 73, each scaled by 1, 10^3 or 10^6, some
    of them zero or with two equal rows.  So the band is cut into its two
    ends and a middle, and each end, of 32 rows or more, is longer than the
    kernel's buffer, of 32 rows at w = 1 and fewer for wider bands.  The
    pattern and values come from a Random of drawn seed."""
    b = draw(st.integers(1, 3))
    k, n = draw(st.integers(1, 4)), draw(st.integers(66, 73))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    pattern = [rng.random() < 0.5 for _ in range(n * n)]
    mask = (np.array(pattern).reshape(n, n) & _band_mask(n, b)
            | _band_mask(n, 1))
    stack = np.zeros((k, n, n), dtype=np.int64)
    for mat in stack:
        values = [rng.randint(-9, 9) for _ in range(n * n)]
        mat[...] = np.array(values).reshape(n, n) * mask
        mat *= draw(st.sampled_from((1, 10 ** 3, 10 ** 6)))
        kind = draw(st.sampled_from(("plain", "zero", "singular")))
        if kind == "zero":
            mat[...] = 0
        elif kind == "singular":
            mat[1] = mat[0]
    return stack, mask


@given(banded_stacks())
@settings(max_examples=30, phases=NO_SHRINK)
def test_det_stack_slides_property(case):
    # the two ends of every lane in one chunk at the real cap, with a
    # buffer that holds fewer rows than each end, and the middles in another
    stack, mask = case
    with pytest.MonkeyPatch.context() as mp:
        dets, total, calls = _sliding_dets(stack, mask, mp)
    assert dets == [det_bareiss(m.tolist()) for m in stack]
    if calls:
        [(w, span, lanes, held, rows), middle] = calls
        assert lanes == 2 * total and held and span < rows
        assert middle[2:4] == (total, 0)


def _vanish_mod(mat, lead, t, p):
    """Set mat[t, t], t in lead, so that the principal minor of mat on the
    rows and columns lead vanishes mod p: it is mat[t, t] C + R, C the
    minor without t and R the minor with mat[t, t] = 0.  Left as it is
    when C vanishes mod p."""
    without = [r for r in lead if r != t]
    minor = det_bareiss(mat[np.ix_(without, without)].tolist()) % p
    if minor:
        mat[t, t] = 0
        rest = det_bareiss(mat[np.ix_(lead, lead)].tolist())
        mat[t, t] = -rest * pow(minor, -1, p) % p


@st.composite
def split_bands(draw):
    """(w, stack, ends): k <= 3 matrices on the whole band of half-width
    1 <= w <= 6, which Cuthill-McKee leaves in its order, with entries in
    -9..9, of size n >= 35 + w past the split for every n mod 4: 16 rows or
    more at each end, with g = w + (n - w) mod 4 rows between.  One pivot
    block of each may be made to vanish mod p0: a pair of the top (a
    leading minor), of the bottom (a trailing minor) or the first of the
    middle (the minor on the ends and its first two rows); ends holds the
    matrices so made to fail at an end."""
    w = draw(st.integers(1, 6))
    k, n = draw(st.integers(1, 3)), draw(st.integers(35 + w, 38 + w))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    g = w + (n - w) % 4
    c = (n - g) // 2
    p0 = linalg.crt_primes(1)[0]
    stack = np.array([[[rng.randint(-9, 9) for _ in range(n)]
                       for _ in range(n)] for _ in range(k)])
    stack *= _band_mask(n, w)
    ends = []
    for j, mat in enumerate(stack):
        where = draw(st.sampled_from(("none", "top", "bottom", "middle")))
        pair = 2 * draw(st.integers(0, c // 2 - 1))
        if where == "top":
            _vanish_mod(mat, range(pair + 2), pair + 1, p0)
        elif where == "bottom":
            _vanish_mod(mat, range(n - pair - 2, n), n - pair - 2, p0)
        elif where == "middle":
            lead = [*range(c + min(g, 2)), *range(c + g, n)]
            _vanish_mod(mat, lead, c + min(g, 2) - 1, p0)
        if where in ("top", "bottom"):
            ends.append(j)
    return w, stack, ends


@given(split_bands())
@settings(max_examples=40, phases=NO_SHRINK)
def test_two_ended_residues_property(case):
    # det_residues on the band cut in two ends and a middle, mod p0 and mod
    # 7, where pivot blocks vanish in all three by chance too: every lane
    # is det mod p, by the kernel or by the pivoting fallback, and a lane
    # made to fail at an end falls back
    w, stack, ends = case
    n = stack.shape[1]
    rows, cols = np.nonzero(_band_mask(n, w))
    assert linalg._cuthill_mckee(rows, cols, n) == list(range(n))
    p0 = linalg.crt_primes(1)[0]
    held, fell = [], []
    real_band, real_swaps = linalg._det_band, linalg._det_swaps

    def band(*args):
        held.append(args[7])
        return real_band(*args)

    def swaps(n, w, places, vals, j, p):
        fell.append((j, p))
        return real_swaps(n, w, places, vals, j, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_det_band", band)
        mp.setattr(linalg, "_det_swaps", swaps)
        got = linalg.det_residues(n, rows, cols, stack[:, rows, cols],
                                  [p0, 7])
    assert got == [[det_bareiss(m.tolist()) % p for p in (p0, 7)]
                   for m in stack]
    assert held[0] and not held[-1]
    assert {(j, p0) for j in ends} <= set(fell)


def test_det_stack_falls_back_after_a_slide(monkeypatch, fallbacks):
    # 100 x 100 paths, cut into 48 rows at each end and 4 between: matrix
    # 1's pivot block of rows 40 and 41 vanishes mod p0 once the rows above
    # it are eliminated.  Over the rationals that block's determinant is
    # D_42 / D_40, D_i the leading minors, and d_41 is chosen so that
    # D_42 = d_41 D_41 - c^2 D_40 = 0 mod p0
    p0 = linalg.crt_primes(1)[0]
    stack = np.stack([_path_laplacian_like(100, 3) * c
                      for c in (1, 10 ** 3, 10 ** 6)])
    c, d = 10 ** 3, stack[1].diagonal()
    minors = [1, int(d[0])]
    for i in range(1, 41):
        minors.append(int(d[i]) * minors[-1] - c * c * minors[-2])
    assert all(m % p0 for m in minors[::2])  # no earlier pivot block vanishes
    stack[1, 41, 41] = c * c * minors[40] * pow(minors[41], -1, p0) % p0
    inverses = _spy_inverses(monkeypatch)
    dets, _, calls = _sliding_dets(stack, _band_mask(100, 1), monkeypatch)
    assert dets == [det_bareiss(m.tolist()) for m in stack]
    assert fallbacks == [(1, p0)]
    [(w, span, _, held, rows), _] = calls
    assert (w, held, rows) == (1, 4, 52)
    assert 40 + w + 2 > span  # pair 40 runs after a slide
    [(runs, lanes, taken)] = inverses
    assert taken == lanes - 1  # none for the failed lane


@st.composite
def envelopes(draw):
    """(w, reach, matrices): k <= 3 matrices of size n, odd or even, whose
    nonzeros lie in the symmetric envelope reach, in the order the kernel
    eliminates: (r, c) with max(r, c) <= reach[min(r, c)].  Between pivot
    pairs reach grows by 0 to w columns (at least to the diagonal, at most
    to the band of half-width w), so a pair's window adds columns to rows
    that earlier pairs have scaled, by uneven steps.  n > 2 (w + 2), so the
    kernel's buffer of 2 (w + 2) rows slides.  The steps and values come
    from one drawn Random, so that every example differs.  The kernel may
    hold the last 0 to 3 rows, an even count before them."""
    w = draw(st.integers(1, 5))
    k, n = draw(st.integers(1, 3)), draw(st.integers(2 * w + 5, 2 * w + 14))
    rng = draw(st.randoms(use_true_random=False))
    reach = []
    for r in range(0, n, 2):
        # rows r, r + 1: reach[r + 1] is the edge of pair r's window
        lo = reach[-1] if reach else 0
        edge = min(r + 1 + w, max(r + 1, lo + rng.randint(0, w)))
        reach += [rng.randint(max(r, lo), min(edge, r + w)), edge]
    reach = [min(r, n - 1) for r in reach[:n]]
    inside = np.array([[max(r, c) <= reach[min(r, c)] for c in range(n)]
                       for r in range(n)])
    mats = np.array([[[rng.randint(-9, 9) for _ in range(n)]
                      for _ in range(n)] for _ in range(k)]) * inside
    return w, reach, mats, draw(st.sampled_from(
        [g for g in range(4) if (n - g) % 2 == 0 or g == 0]))


def _band_residues(num, den, primes):
    """num / den mod each lane's prime, None where den = 0."""
    return [x * pow(y, -1, p) % p if y else None
            for x, y, p in zip(num.tolist(), den.tolist(), primes)]


@given(envelopes())
@settings(max_examples=60, phases=NO_SHRINK)
def test_row_factors_follow_an_uneven_reach(case):
    # the kernel alone, on the band places of the envelope in its own
    # order, on two 31-bit primes and 7, where pivot blocks often vanish:
    # every lane that does not fail is det mod p, or with g rows held, the
    # leading block's det D over prod(sig), and sig[a] S[a, b] in the rows
    # held, S[a, b] D being the leading block bordered by rows and columns
    # L + a and L + b, L = n - g (Schur)
    w, reach, mats, g = case
    k, n = len(mats), mats.shape[1]
    rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
    keep = np.maximum(rows, cols) <= np.array(reach)[np.minimum(rows, cols)]
    rows, cols = rows[keep], cols[keep]
    places = rows * (2 * w + 1) + cols + w  # row by row, so sorted
    span = min(n + w + 1, 2 * (w + 2))
    assert span < n  # the buffer slides
    primes = linalg.crt_primes(2) + [7]
    js, ps = zip(*[(j, p) for p in primes for j in range(k)])
    num, den, *held = linalg._det_band(
        w, span, reach, places, mats[:, rows, cols], list(js), list(ps), g)
    rest, sig = held or (None, np.ones((0, len(ps)), dtype=np.uint64))
    lead = n - g
    for q, (j, p, residue) in enumerate(zip(js, ps, _band_residues(num, den,
                                                                    ps))):
        if residue is None:
            continue
        m = mats[j].tolist()
        dets = det_bareiss([row[:lead] for row in m[:lead]])
        assert residue * math.prod(sig[:, q].tolist()) % p == dets % p
        if dets % p:
            for a in range(g):
                for b in range(g):
                    keep = [*range(lead), lead + b]
                    border = det_bareiss([[m[r][c] for c in keep]
                                          for r in [*range(lead), lead + a]])
                    assert (int(rest[a, b, q]) * dets
                            - int(sig[a, q]) * border) % p == 0


def test_band_update_at_its_largest_products():
    # the kernel alone, in the natural order, on a dense matrix whose first
    # pivot block is P = [[1, 0], [0, -1]]: delta = p0 - 1 mod p0, and the
    # columns C = (-1, 1) below P give -C adj(P) = (p0 - 1, p0 - 1).  The
    # rest is -1 off the diagonal, so there each of the three products of
    # the first update is (p0 - 1)^2, and their sum passes 2^63
    p0 = linalg.crt_primes(1)[0]
    assert 3 * (p0 - 1) ** 2 >= 1 << 63
    n = w = 7
    m = -np.ones((n, n), dtype=np.int64)
    m[:2, :2] = [[1, 0], [0, -1]]
    m[2:, :2] = [-1, 1]
    m[range(2, n), range(2, n)] = range(2, n)
    rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
    places = rows * (2 * w + 1) + cols + w  # row by row, so sorted
    num, den = linalg._det_band(w, n + w + 1, [n - 1] * n, places,
                                m[rows, cols][None], [0], [p0])
    assert _band_residues(num, den, [p0]) == [det_bareiss(m.tolist()) % p0]


def test_pivot_block_vanishes_after_rows_are_scaled(fallbacks):
    # a pentadiagonal matrix, which Cuthill-McKee leaves in its order, cut
    # into 24 rows at each end and 2 between: each pivot pair updates the
    # two rows below it, so rows 20 and 21 have been scaled before their own
    # pivot block.  Over the rationals that block's
    # determinant is D_22 / D_20, D_i the leading minors, and m[21, 21] is
    # chosen so that D_22 = 0 mod p0: the lane of p0 ends in the pivoting
    # fallback, which must give det mod p0 from the unscaled entries
    p0 = linalg.crt_primes(1)[0]
    n = 50
    m = sum(c * np.eye(n, k=d, dtype=np.int64)
            for d, c in ((-2, -2), (-1, -1), (0, 7), (1, -1), (2, -3)))
    rows, cols = np.nonzero(m)
    assert linalg._cuthill_mckee(rows, cols, n) == list(range(n))
    lead = [det_bareiss(m[:i, :i].tolist()) for i in range(23)]
    assert all(d % p0 for d in lead[2:21:2]) and lead[21] % p0
    m[21, 21] = 0
    base = det_bareiss(m[:22, :22].tolist())
    m[21, 21] = -base * pow(lead[21], -1, p0) % p0
    assert det_bareiss(m[:22, :22].tolist()) % p0 == 0
    det = det_bareiss(m.tolist())
    primes = linalg._primes_above(2 * _hadamard_bound(m) + 1)
    got = linalg.det_residues(n, rows, cols, m[rows, cols][None], primes)
    assert got == [[det % p for p in primes]]
    assert fallbacks == [(0, p0)]
    assert _det_crt(m) == det


def test_one_lane_per_chunk(monkeypatch, fallbacks):
    # at a cap below one lane's working set every chunk holds one lane,
    # with its own buffer and row factors: two at the ends of a lane, one
    # in its middle
    p0 = linalg.crt_primes(1)[0]
    stack = _scaled_paths()
    stack[1, 0, 0], stack[1, 1, 1] = 1, p0 + 10 ** 6
    monkeypatch.setattr(linalg, "BAND_BYTES_CAP", 1)
    inverses = _spy_inverses(monkeypatch)
    dets, total, calls = _sliding_dets(stack, _band_mask(50, 1), monkeypatch)
    assert dets == [det_bareiss(m.tolist()) for m in stack]
    assert fallbacks == [(1, p0)]
    assert len(calls) == 3 * total
    assert all(lanes == 1 for _, _, lanes, _, _ in calls)
    [(runs, lanes, taken)] = inverses
    assert taken == lanes - 1


def test_det_crt_zero_leading_minor_falls_back_on_every_prime(fallbacks):
    # the first pivot block [[1, -1], [-1, 1]] is singular over Z, so it
    # vanishes mod every prime and each lane ends in the pivoting fallback
    m = _path_laplacian_like(50, 3)
    m[0, 0] = m[1, 1] = 1
    primes = linalg._primes_above(2 * _hadamard_bound(m) + 1)
    assert _det_crt(m) == det_bareiss(m.tolist())
    assert fallbacks == [(0, p) for p in primes]


@st.composite
def fallback_stacks(draw):
    """(stack, mask): k <= 3 banded matrices of half-width b <= 3 on one
    pattern mask, diagonal included, under one random symmetric
    permutation.  Some have a leading minor of even order 2m <= 6, in the
    Cuthill-McKee order the kernel eliminates in, that is 0 over Z, so
    every prime fails them, and some are singular: their leading minor of
    order n is 0."""
    b = draw(st.integers(0, 3))
    k, n = draw(st.integers(1, 3)), draw(st.integers(2, 18))
    pattern = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    perm = draw(st.permutations(range(n)))
    mask = (np.array(pattern).reshape(n, n) & _band_mask(n, b)
            | np.eye(n, dtype=bool))[np.ix_(perm, perm)]
    order = linalg._cuthill_mckee(*np.nonzero(mask), n)
    stack = np.zeros((k, n, n), dtype=np.int64)
    for mat in stack:
        values = draw(st.lists(st.integers(-3, 3), min_size=n * n,
                               max_size=n * n))
        mat[...] = np.array(values).reshape(n, n) * mask
        kind = draw(st.sampled_from(("plain", "singular", "minor")))
        if kind != "plain":
            # row t enters the leading minor D_i, i = len(lead), linearly:
            # with its other entries times D_i-1 and -C at (t, t), C the
            # minor with (t, t) = 0, D_i = -C D_i-1 + D_i-1 C = 0
            lead = order[:n if kind == "singular"
                         else 2 * draw(st.integers(1, min(3, n // 2)))]
            t = lead[-1]
            mat[t, t] = 0
            block = mat[np.ix_(lead, lead)].tolist()
            minor = det_bareiss([row[:-1] for row in block[:-1]])
            mat[t] *= minor
            mat[t, t] = -det_bareiss(block)
    return stack, mask


@given(fallback_stacks())
@settings(max_examples=60, phases=NO_SHRINK)
def test_fallback_inputs_property(case):
    # det_pattern per matrix, det_residues over all k with shared primes,
    # and the fallback alone mod 5 and 7, where pivots often vanish
    stack, mask = case
    n = stack.shape[1]
    expected = [det_bareiss(m.tolist()) for m in stack]
    rows, cols = np.nonzero(mask)
    vals = stack[:, rows, cols]
    assert [linalg.det_pattern(n, rows, cols, v) for v in vals] == expected
    with pytest.MonkeyPatch.context() as mp:
        assert _sliding_dets(stack, mask, mp)[0] == expected
    w, brows, bcols = linalg._band_order(n, rows, cols)
    _, places, bvals = linalg._band_form(n, w, brows, bcols, vals)
    for j, det in enumerate(expected):
        for p in (5, 7):
            assert linalg._det_swaps(n, w, places, bvals, j, p) == det % p


def test_fallback_lane_peaks_below_2_mib(monkeypatch):
    # l = 2, a = (1, 3) at 2048 vertices: lane 0 of the first kernel run is
    # made to fail, and only its fallback, on the whole matrix, is traced
    spec, n = TowerSpec(2, (1, 3)), 11
    cover = derived_cover(cayley_serre(2 ** n, spec.generators))
    peaks = []
    real_band, real_swaps = linalg._det_band, linalg._det_swaps

    def band(*args):
        out = real_band(*args)
        if not peaks:
            out[1][0] = 0
            peaks.append(None)
        return out

    def swaps(*args):
        tracemalloc.start()
        try:
            return real_swaps(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(linalg, "_det_band", band)
    monkeypatch.setattr(linalg, "_det_swaps", swaps)
    assert spanning_tree_count(cover) == kappa_exact(spec, n)
    assert len(peaks) == 2 and peaks[1] < 2 << 20


def test_cycle_pencil_needs_no_fallback(fallbacks):
    # on C_512, h = (1 - u^512)^2; the nodes u = +-2^i made leading minors
    # (u^(2m + 2) - 1) / (u^2 - 1) vanish mod the Mersenne prime 2^31 - 1
    h = ihara_h(cycle_graph(512))
    assert h == [1] + [0] * 511 + [-2] + [0] * 511 + [1]
    assert fallbacks == []


@pytest.mark.parametrize("spec, n, mib", [
    # the whole band of its 64 lanes would be 7 MiB
    pytest.param(TowerSpec(3, (5, 7, 11)), 6, 4, id="729-vertices"),
    # w = 1: the residues of all 3067 entries on its 76 lanes would be
    # 1.78 MiB, more than its whole band
    pytest.param(TowerSpec(2, (1, 1)), 10, 1, id="1024-vertices"),
])
def test_count_of_cover_peaks_below_bound(spec, n, mib):
    # the kernel's buffer of 2 (w + 2) rows needs a few hundred kB
    cover = derived_cover(cayley_serre(spec.ell ** n, spec.generators))
    tracemalloc.start()
    try:
        count = spanning_tree_count(cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == kappa_exact(spec, n)
    assert peak < mib << 20


def test_first_determinants_do_not_import_numpy_ma():
    # np.unique without return_counts asks np.ma.is_masked, which imports
    # numpy.ma inside the first determinant of a process
    code = ("import sys; import graph_iwasawa as gi; "
            "cover = gi.derived_cover(gi.cayley_serre(9, (1, 4))); "
            "gi.spanning_tree_count(cover); gi.ihara_h(cover); "
            "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]
