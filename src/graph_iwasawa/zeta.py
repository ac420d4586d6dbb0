"""Ihara zeta reciprocals and their special values at u = 1.

The reciprocal zeta of a multigraph X factors as
(1 - u^2)^(-chi(X)) * h_X(u) with h_X(u) = det(I - Au + (D - I)u^2).
Every h this package computes, of a graph or of a character orbit of a
cover (``voltage.orbit_h_poly``), is such a quadratic pencil
det(I - A u + diag(delta) u^2) of an integer matrix A and an integer
vector delta, and ``pencil_det`` is the one place that evaluates it.  It
takes the pencil as a pattern, never as a dense n x n matrix: A's values at
its nonzeros and at the whole diagonal (a graph's comes from
``serre._edge_pattern``).  h is rebuilt by coefficient CRT:

1. a bound on h's coefficients before any work, the Hadamard bound of the
   pencil's entries on the unit circle (``linalg._hadamard_bound`` of
   their l1 norms), which fixes one prime list for the whole pencil;
2. the pattern's values at 2n + 1 integer nodes, and the determinant of
   every node matrix mod every prime in one run of
   ``linalg.det_residues``: (2n + 1) k lanes for k primes;
3. interpolation mod each prime, vectorized over primes and nodes;
4. one CRT per coefficient, which refuses a coefficient past the bound.

No pencil is evaluated at a single node: a special value is read off h's
coefficients, as the integer decomposition takes h(1, Psi_d) as the
coefficient sum of h(u, Psi_d).  At u = 1 a graph's determinant vanishes
(singular Laplacian) and, away from the cycle-graph case chi(X) = 0,
h_X'(1) = -2 chi(X) kappa_X recovers the spanning-tree count.
"""

from __future__ import annotations

import numpy as np

from . import linalg, polys, serre
from ._records import Record
from .serre import Multigraph


def pencil_det(rows: np.ndarray, cols: np.ndarray, a: np.ndarray,
               delta: np.ndarray) -> list[int]:
    """det(I - A u + diag(delta) u^2) for the n x n integer matrix A with
    int64 values a at the distinct positions (rows, cols), which hold every
    diagonal position, and an int64 vector delta of length n: an integer
    polynomial of degree <= 2n and constant term 1.

    The primes are those whose product passes twice H, the Hadamard bound
    of the matrix of the entries' l1 norms (over their coefficients):
    1 + |a_vv| + |delta_v| on the diagonal and |a_vj| off it.  On |u| = 1
    each entry is at most its l1 norm, so |h(u)| <= H there, and every
    |h_i| <= max over |u| = 1 of |h(u)| (Cauchy).  The pattern's values at
    the 2n + 1 nodes 0, 1, -1, ..., n, -n are formed in int64; a node value
    that could pass int64 raises OverflowError instead of wrapping.
    """
    n = len(delta)
    if n == 0:
        return [1]
    size_a = max(int(a.max()), -int(a.min()))
    size_d = max(int(delta.max()), -int(delta.min()))
    # |1 - a u + d u^2| <= 1 + n|a| + n^2|d| at every node |u| <= n
    if 1 + n * size_a + n * n * size_d >= 1 << 63:
        raise OverflowError("h(u) node values would pass int64")
    norms = np.abs(a)
    diag = rows == cols
    norms[diag] += 1 + np.abs(delta[rows[diag]])
    bound = linalg._hadamard_bound(n, rows, norms)
    primes = linalg._primes_above(2 * bound + 1)
    nodes = _nodes(2 * n + 1)
    vals = _pencil_values(rows, cols, a, delta, nodes)
    residues = linalg.det_residues(n, rows, cols, vals, primes)
    coeffs = _interpolate_mod(np.array(residues, dtype=np.int64), primes)
    h = polys.trim(linalg._crt(primes, coeffs.tolist(), bound))
    if not h or h[0] != 1:
        raise ArithmeticError("h(0) must be 1")
    return h


def _interpolate_mod(values: np.ndarray, primes: list[int]) -> np.ndarray:
    """Coefficients mod primes[i], in column i, of the polynomial h of
    degree <= 2n with h(u) = values[v, i] mod primes[i] at the v-th of the
    2n + 1 nodes 0, 1, -1, ..., n, -n (``_nodes``), n >= 1.

    h(u) = E(u^2) + u O(u^2) with E(t) = E(0) + t E'(t): E' and O have
    degree < n, and h(+-v) gives both at t = v^2 for v = 1..n.  They are
    interpolated there together by Newton divided differences, one array
    operation per step over both, every node and every prime: the node
    differences v^2 - w^2 = (v - w)(v + w) are the same for every prime.
    """
    ps = np.array(primes, dtype=np.int64)
    n = (len(values) - 1) // 2
    h = values % ps
    # fact[d] = d! and inv_fact[d] = 1 / d! mod each prime, d <= 2n < p:
    # the running products of 1..2n and of 2n..1, and one inverse of (2n)!
    # per prime, with 1 / d! = (2n)! / d! / (2n)!; then inverse[d] =
    # (d - 1)! / d! = 1 / d, and inverse[0] = 0
    m = 2 * n
    fact = np.ones((m + 1, len(primes)), dtype=np.int64)
    fact[1:] = _running_products(np.arange(1, m + 1)[:, None] % ps, ps)
    down = _running_products(np.arange(m, 0, -1)[:, None] % ps, ps)
    inv_fact = np.empty_like(fact)
    inv_fact[m] = [pow(f, -1, p) for f, p in zip(fact[m].tolist(), primes)]
    inv_fact[:m] = down[::-1] * inv_fact[m] % ps
    inverse = np.zeros_like(fact)
    inverse[1:] = inv_fact[1:] * fact[:-1] % ps
    inv_fact = inv_fact[:n]
    inv_v = inverse[1:n + 1]
    at0, plus, minus = h[0], h[1::2], h[2::2]
    even = (plus + minus) * inverse[2] % ps  # E(v^2)
    even = (even - at0) * inv_v % ps * inv_v % ps  # E'(v^2)
    odd = (plus - minus) * inverse[2:2 * n + 1:2] % ps  # O(v^2)
    c = np.stack([even, odd])
    # Step j divides by (v - w)(v + w) = j (2v - j) with v = i + 1 at
    # node i; the common factor j is left to the end, so column i ends
    # i! times its divided difference.
    for j in range(1, n):
        step = c[:, j:] - c[:, j - 1:-1]
        step *= inverse[j + 2:2 * n - j + 1:2]
        np.remainder(step, ps, out=c[:, j:])
    c = c * inv_fact % ps
    # Newton form to coefficients: p = c[i] + (t - v^2) p, innermost
    # first, with p in out[:, 1:] and out[:, 0] = c[i] to shift it in;
    # -v^2 is reduced first, so each product stays below p^2
    neg_t = -np.arange(1, n + 1, dtype=np.int64)[:, None] ** 2 % ps
    out = np.zeros((2, n + 1, len(primes)), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        top = n - i
        out[:, 0] = c[:, i]
        step = out[:, 1:top + 1] * neg_t[i]
        step += out[:, :top]
        np.remainder(step, ps, out=out[:, 1:top + 1])
    h[2::2], h[1::2] = out[:, 1:]
    return h


def _running_products(a: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """a[i] times every row above it mod ps, in place, in log2(len(a))
    array steps (Hillis and Steele's scan)."""
    s = 1
    while s < len(a):
        a[s:] = a[s:] * a[:-s] % ps
        s *= 2
    return a


def _pencil_values(rows: np.ndarray, cols: np.ndarray, a: np.ndarray,
                   delta: np.ndarray, nodes: list[int]) -> np.ndarray:
    """The values of I - A u + diag(delta) u^2 on the pattern, one row per
    node u."""
    u = np.array(nodes, dtype=np.int64)[:, None]
    return np.where(rows == cols, 1 + u * u * delta[rows], 0) - u * a


def _nodes(k: int) -> list[int]:
    out = [0]
    v = 1
    while len(out) < k:
        out.append(v)
        if len(out) < k:
            out.append(-v)
        v += 1
    return out


def ihara_h(x: Multigraph) -> list[int]:
    """h_X(u) = det(I - Au + (D - I)u^2), an integer polynomial of degree 2g."""
    serre.require_valid(x)
    n, origin = x.num_vertices, x.origin
    return pencil_det(*serre._edge_pattern(n, origin, x.terminus),
                      np.bincount(origin, minlength=n) - 1)


def ihara_Z(x: Multigraph) -> tuple[int, list[int]]:
    """Reciprocal zeta as (exponent, h): Z_X(u) = (1-u^2)**exponent * h_X(u)
    with exponent = -chi(X)."""
    return -serre.euler_characteristic(x), ihara_h(x)


class SpecialValues(Record):
    __slots__ = ("h_at_1", "dh_at_1", "d2h_at_1", "kappa_implied")

    def __init__(self, h_at_1: int, dh_at_1: int, d2h_at_1: int,
                 kappa_implied: int | None):
        self._set(h_at_1, dh_at_1, d2h_at_1, kappa_implied)


def special_values(h: list[int], x: Multigraph) -> SpecialValues:
    """Evaluate h, h', h'' at 1 symbolically and recover the tree count.

    Requires h = ihara_h(x).  kappa_implied = h'(1) / (-2 chi(X)) when
    chi(X) != 0, and None for cycle graphs.  Raises if h(1) != 0 or the
    division is not exact, both of which would mean an internal bug.
    """
    h1 = sum(h)
    if h1 != 0:
        raise ArithmeticError(f"h(1) = {h1}, expected 0")
    dh = sum(i * c for i, c in enumerate(h))
    d2h = sum(i * (i - 1) * c for i, c in enumerate(h))
    chi = serre.euler_characteristic(x)
    kappa = None
    if chi != 0:
        q, r = divmod(dh, -2 * chi)
        if r != 0:
            raise ArithmeticError("h'(1) is not divisible by -2 chi(X)")
        kappa = q
    return SpecialValues(h_at_1=h1, dh_at_1=dh, d2h_at_1=d2h,
                         kappa_implied=kappa)
