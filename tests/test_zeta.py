import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from graph_iwasawa import (
    bouquet,
    cayley_serre,
    cycle_graph,
    derived_cover,
    euler_characteristic,
    ihara_Z,
    ihara_h,
    spanning_tree_count,
    special_values,
)
from graph_iwasawa import linalg, polys
from graph_iwasawa.zeta import pencil_det
from oracles import (det_poly_matrix, poly_divmod, poly_pow,
                     random_base_multigraph)


def four_edge_join():
    from graph_iwasawa import Multigraph
    return Multigraph(2, [(0, 1)] * 4)


def test_h_bouquet2():
    assert ihara_h(bouquet(2)) == [1, -4, 3]


def test_ihara_Z_examples():
    exp, h = ihara_Z(bouquet(2))
    assert exp == 1 and h == [1, -4, 3]
    # total degree of Z is 2|E|
    assert 2 * exp + (len(h) - 1) == 2 * bouquet(2).num_undirected_edges
    exp, h = ihara_Z(cycle_graph(5))
    assert exp == 0 and len(h) - 1 == 10
    exp, h = ihara_Z(four_edge_join())
    assert exp == 2 and 2 * exp + (len(h) - 1) == 8


def test_degrees_on_random_graphs():
    rng = random.Random(19)
    for _ in range(12):
        g = random_base_multigraph(rng)
        h = ihara_h(g)
        assert len(h) - 1 == 2 * g.num_vertices
        assert h[-1] > 0  # det(D - I) > 0 when valencies >= 2


def test_special_values_bouquet2():
    g = bouquet(2)
    sv = special_values(ihara_h(g), g)
    assert sv.h_at_1 == 0
    assert sv.dh_at_1 == 2
    assert sv.kappa_implied == 1


def test_special_values_four_edge_join():
    g = four_edge_join()
    sv = special_values(ihara_h(g), g)
    assert sv.kappa_implied == 4 == spanning_tree_count(g)


def test_special_values_cycle():
    g = cycle_graph(4)
    sv = special_values(ihara_h(g), g)
    assert sv.dh_at_1 == 0
    assert sv.d2h_at_1 == 32
    assert sv.kappa_implied is None


@pytest.mark.parametrize("g", [1, 2, 3, 5, 8, 13])
def test_cycle_second_derivative(g):
    c = cycle_graph(g)
    sv = special_values(ihara_h(c), c)
    assert sv.d2h_at_1 == 2 * g * g


def test_special_value_identity_random():
    rng = random.Random(57)
    for _ in range(12):
        g = random_base_multigraph(rng)
        sv = special_values(ihara_h(g), g)
        chi = euler_characteristic(g)
        assert sv.h_at_1 == 0
        assert sv.dh_at_1 == -2 * chi * spanning_tree_count(g)


def _regular_h_via_charpoly(g):
    """Independent route for (q+1)-regular graphs:
    h(u) = sum_k charpoly_k (1+q u^2)^k u^(g-k), from the eigenvalue
    factorization prod (1 - lam u + q u^2)."""
    from graph_iwasawa.serre import adjacency_matrix
    vals = g.valencies()
    q = vals[0] - 1
    assert all(v == q + 1 for v in vals)
    n = g.num_vertices
    a = adjacency_matrix(g)
    # charpoly det(xI - A), monic degree n
    mat = [[polys.trim([-a[i][j], 1 if i == j else 0]) for j in range(n)]
           for i in range(n)]
    char = det_poly_matrix(mat, n)
    base = [1, 0, q]  # 1 + q u^2
    acc = []
    for k, ck in enumerate(char):
        term = [ck * c for c in polys.shift(poly_pow(base, k), n - k)]
        acc = polys.add(acc, term)
    return acc


@pytest.mark.parametrize("graph", [
    bouquet(2), bouquet(3), cycle_graph(5),
    derived_cover(cayley_serre(3, (1, 1))),
    derived_cover(cayley_serre(4, (1, 2))),
])
def test_regular_factorization_via_charpoly(graph):
    assert ihara_h(graph) == _regular_h_via_charpoly(graph)


def test_h_at_zero_is_one():
    rng = random.Random(3)
    for _ in range(6):
        g = random_base_multigraph(rng)
        assert ihara_h(g)[0] == 1


def _det_bareiss_poly(m):
    """Fraction-free elimination with polynomial entries; every division is
    an exact polynomial division.  Independent of the interpolation path."""
    n = len(m)
    a = [[list(e) for e in row] for row in m]
    prev = [1]
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    prev = polys.neg(prev)
                    break
            else:
                return []
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = polys.sub(polys.mul(a[k][k], a[i][j]),
                                polys.mul(a[i][k], a[k][j]))
                q, r = poly_divmod(num, prev) if num else ([], [])
                assert not r
                a[i][j] = q
            a[i][k] = []
        prev = a[k][k]
    return a[n - 1][n - 1]


def test_interpolation_agrees_with_polynomial_bareiss():
    rng = random.Random(9)
    for _ in range(8):
        g = random_base_multigraph(rng, max_vertices=3, max_edges=6)
        from graph_iwasawa.serre import adjacency_matrix
        a = adjacency_matrix(g)
        vals = g.valencies()
        n = g.num_vertices
        m = [[polys.trim([1 if i == j else 0, -a[i][j],
                          (vals[i] - 1) if i == j else 0])
              for j in range(n)] for i in range(n)]
        assert ihara_h(g) == _det_bareiss_poly(m)


def _pencil_det(a, delta):
    """zeta.pencil_det of a dense A, on its nonzeros and the diagonal."""
    mask = a != 0
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    return pencil_det(rows, cols, a[rows, cols], delta)


def test_pencil_det_refuses_node_values_past_int64():
    big = 1 << 62
    # the nodes of a 1 x 1 pencil are 0, 1, -1: 1 -+ 2^62 fits, exactly
    assert _pencil_det(np.array([[big]]), np.array([0])) == [1, -big]
    # a 2 x 2 pencil has the node u = -2, where 1 + 2 * 2^62 passes int64
    with pytest.raises(OverflowError):
        _pencil_det(np.array([[0, big], [big, 0]]), np.array([0, 0]))


def _check_pencil(a, delta):
    """pencil_det of a dense A against the oracle, and against two bounds
    on its coefficients: max |h_i| <= H, the Hadamard bound on the unit
    circle, prod_v (sum_j ||m_vj||_1^2)^(1/2) over the polynomial entries
    m_vj, which pencil_det takes its primes from, and the looser
    sum |h_i| <= B = prod_v sum_j ||m_vj||_1, with H <= B."""
    n = len(delta)
    h = _pencil_det(a, delta)
    m = [[polys.trim([1 if i == j else 0, -int(a[i, j]),
                      int(delta[i]) if i == j else 0])
          for j in range(n)] for i in range(n)]
    assert h == det_poly_matrix(m, 2 * n)
    norms = [[sum(abs(c) for c in entry) for entry in row] for row in m]
    squares = math.prod(sum(x * x for x in row) for row in norms)
    hadamard = math.isqrt(squares)
    hadamard += hadamard * hadamard < squares
    bound = math.prod(sum(row) for row in norms)
    assert max(abs(c) for c in h) <= hadamard <= bound
    assert sum(abs(c) for c in h) <= bound


pencils = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.integers(-2, 3), min_size=n, max_size=n)))


# negative entries beside a zero delta, and the largest entries drawn
@given(pencils)
@example(([[-2, 1], [3, 0]], [0, -1]))
@example(([[0, -3, 0], [-3, 0, 3], [0, 3, -3]], [3, 3, 3]))
def test_pencil_det_within_its_coefficient_bound(pencil):
    a, delta = pencil
    _check_pencil(np.array(a, dtype=np.int64), np.array(delta, dtype=np.int64))


def test_pencil_det_falls_back_on_a_node_pivot_block(fallbacks):
    # Cuthill-McKee starts the path 0 - 1 - 2 at vertex 0.  At u = +-1, the
    # node matrices 1 and 2, the first pivot block of I - A u + diag(delta)
    # u^2 is [[1, -+1], [-+1, 1 + p0]], of determinant p0: it vanishes mod
    # the first CRT prime only, and those two node lanes fall back.  The
    # bound asks for two primes, and h = 1 + (p0 - 1)(u^2 + u^4) needs both.
    p0 = linalg.crt_primes(1)[0]
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    delta = np.array([0, p0, 1])
    _check_pencil(a, delta)
    assert fallbacks == [(1, p0), (2, p0)]


def test_ihara_h_stores_only_the_pattern_values(monkeypatch):
    cover = derived_cover(cayley_serre(32, (3, 5)))
    n = cover.num_vertices
    shapes = []
    real = linalg.det_residues

    def spy(*args, **kwargs):
        shapes.append([a.shape for a in args if isinstance(a, np.ndarray)])
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "det_residues", spy)
    h = ihara_h(cover)
    assert len(h) - 1 == 2 * n
    # one call: each row holds its four neighbours (jumps +-3, +-5) and the
    # diagonal, so the values are a (2n + 1) x 5n table
    nnz = 5 * n
    assert shapes == [[(nnz,), (nnz,), (2 * n + 1, nnz)]]


@pytest.mark.parametrize("m,primes", [(32, 3), (128, 9)])
def test_pencil_takes_the_primes_of_its_unit_circle_bound(monkeypatch, m,
                                                           primes):
    # the pencil of the l=2, a=(3,5) cover with m vertices reaches the
    # engine once, with one prime list for all its 2m + 1 node matrices
    cover = derived_cover(cayley_serre(m, (3, 5)))
    seen = []
    real = linalg.det_residues

    def spy(n, rows, cols, vals, ps):
        seen.append((len(vals), len(ps)))
        return real(n, rows, cols, vals, ps)

    monkeypatch.setattr(linalg, "det_residues", spy)
    ihara_h(cover)
    assert seen == [(2 * m + 1, primes)]


@pytest.mark.parametrize("m,primes", [(32, 3), (128, 9)])
def test_interpolation_takes_one_inverse_per_prime(monkeypatch, m, primes):
    # the 2m + 1 nodes need 1 / d mod p for d <= 2m: one inverse of (2m)!
    # per prime gives them all, where one pow per d and prime took
    # 2m primes
    from graph_iwasawa import zeta

    cover = derived_cover(cayley_serre(m, (3, 5)))
    expected = ihara_h(cover)
    taken = []

    def counting_pow(base, exp, mod=None):
        taken.append(exp)
        return pow(base, exp, mod)

    monkeypatch.setattr(zeta, "pow", counting_pow, raising=False)
    assert ihara_h(cover) == expected
    assert taken == [-1] * primes


def test_special_values_signals_inexact_division():
    g = bouquet(2)
    # a polynomial that vanishes at 1 but is not the true h: the implied
    # division by -2 chi cannot be exact
    with pytest.raises(ArithmeticError, match="divisible"):
        special_values([0, 1, -1], g)
    with pytest.raises(ArithmeticError, match="expected 0"):
        special_values([1, 1], g)
