"""Independent oracles used by the test suite.

Everything here is deliberately naive: Leibniz determinants, fraction-free
Bareiss determinants over Z (the reference for the library's multi-modular
engine), determinants of polynomial matrices by Bareiss at integer points
and Lagrange interpolation over Fractions, brute-force spanning-tree
enumeration, the table definition of P_a, Sylvester-matrix resultants over
Fractions, and in-ring Galois-conjugate products.  None of it shares code
paths with the library implementations it checks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from graph_iwasawa import Multigraph, VoltageGraph
from graph_iwasawa.serre import _components


def det_leibniz(m) -> int:
    """Sum over permutations; fine up to 6x6."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for parity
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def det_bareiss(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination.  Non-destructive."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            if mik == 0:
                for j in range(k + 1, n):
                    row_i[j] = (pk * row_i[j]) // prev
            else:
                for j in range(k + 1, n):
                    row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def det_poly_matrix(m, deg_bound: int) -> list[int]:
    """Determinant of a matrix of integer polynomials (ascending coefficient
    lists) of degree <= deg_bound: det_bareiss at the points 0..deg_bound,
    then Lagrange interpolation over Fractions."""
    xs = range(deg_bound + 1)
    ys = [det_bareiss([[sum(c * x ** i for i, c in enumerate(p)) for p in row]
                       for row in m]) for x in xs]
    coeffs = [Fraction(0)] * len(xs)
    for xi, yi in zip(xs, ys):
        # prod over xj != xi of (y - xj) / (xi - xj)
        basis = [Fraction(1)]
        for xj in xs:
            if xj != xi:
                basis = [(lo - xj * hi) / (xi - xj)
                         for lo, hi in zip([0] + basis, basis + [0])]
        coeffs = [c + yi * b for c, b in zip(coeffs, basis)]
    assert all(c.denominator == 1 for c in coeffs)
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def det_fraction_gauss(m) -> int:
    """Gaussian elimination over Fractions; any size, exact."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return int(det)


def spanning_trees_brute(x: Multigraph) -> int:
    """Count subsets of g-1 undirected edges that connect all vertices."""
    g = x.num_vertices
    reps = x.undirected_edges()
    if g == 1:
        return 1
    count = 0
    for subset in itertools.combinations(reps, g - 1):
        parent = list(range(g))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        ok = True
        for e in subset:
            ru, rv = find(x.origin[e]), find(x.terminus[e])
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


def p_poly_table(a: int) -> list[int]:
    """P_a by its table definition, P_0 = 0, P_1 = T and
    P_k = T*(k^2 - sum_{j<k} (k-j) P_j), in plain coefficient lists."""
    table = [[], [0, 1]]
    for k in range(2, a + 1):
        acc = [k * k] + [0] * (k - 1)
        for j in range(1, k):
            for d, c in enumerate(table[j]):
                acc[d] -= (k - j) * c
        table.append([0] + acc)
    return table[a]


def sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) as the determinant of the Sylvester matrix."""
    if not f or not g:
        return 0
    m, n = len(f) - 1, len(g) - 1
    if m == 0 and n == 0:
        return 1
    size = m + n
    rows = []
    frev = list(reversed(f))
    grev = list(reversed(g))
    for i in range(n):
        rows.append([0] * i + frev + [0] * (size - i - m - 1))
    for i in range(m):
        rows.append([0] * i + grev + [0] * (size - i - n - 1))
    return det_fraction_gauss(rows)


def conjugate_product_norm(ell: int, i: int, coeffs) -> int:
    """Norm as the literal product of Galois conjugates, in-ring."""
    from graph_iwasawa import cyc_from_poly, cyc_mul, cyc_one
    m = ell ** i
    f = list(coeffs)
    prod = cyc_one(ell, i)
    for j in range(1, m):
        if math.gcd(j, m) != 1:
            continue
        conj = [0] * m
        for e, c in enumerate(f):
            conj[(e * j) % m] += c
        prod = cyc_mul(prod, cyc_from_poly(ell, i, conj))
    tail = list(prod.coeffs)[1:]
    assert all(c == 0 for c in tail), "conjugate product is not rational"
    return prod.coeffs[0]


def random_base_multigraph(rng, max_vertices=4, max_edges=10) -> Multigraph:
    """Random connected multigraph, min valency 2, chi != 0."""
    while True:
        g = rng.randint(1, max_vertices)
        graph = Multigraph(g)
        for v in range(1, g):
            graph.add_edge(v, rng.randrange(v))
        # top up valency with loops or parallel edges
        guard = 0
        while graph.num_undirected_edges < max_edges and guard < 50:
            guard += 1
            vals = graph.valencies()
            low = [v for v in range(g) if vals[v] < 2]
            if low:
                v = low[0]
                if rng.random() < 0.5:
                    graph.add_loop(v)
                else:
                    graph.add_edge(v, rng.randrange(g))
            elif graph.num_undirected_edges == g or rng.random() < 0.35:
                # ensure chi != 0, then add a little extra at random
                u, v = rng.randrange(g), rng.randrange(g)
                graph.add_edge(u, v)
            else:
                break
        from graph_iwasawa import validate_serre, euler_characteristic
        if (not validate_serre(graph)
                and euler_characteristic(graph) != 0
                and graph.num_undirected_edges <= max_edges):
            return graph


def random_voltage_graph(rng, max_vertices=4, max_modulus=12,
                         max_edges=10) -> VoltageGraph:
    """Random valid voltage graph whose derived cover is connected."""
    from graph_iwasawa import voltage_graph
    while True:
        base = random_base_multigraph(rng, max_vertices, max_edges)
        m = rng.randint(1, max_modulus)
        volts = {e: rng.randrange(m) for e in base.undirected_edges()}
        vg = voltage_graph(base, m, volts)
        from graph_iwasawa.voltage import derived_cover
        if _components(derived_cover(vg, validate=False)) == 1:
            return vg
