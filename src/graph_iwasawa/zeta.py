"""Ihara zeta reciprocals and their special values at u = 1.

The reciprocal zeta of a multigraph X factors as
(1 - u^2)^(-chi(X)) * h_X(u) with h_X(u) = det(I - Au + (D - I)u^2).
Every h this package computes, of a graph or of a character orbit of a
cover (``voltage.orbit_h_poly``), is such a quadratic pencil
det(I - A u + diag(delta) u^2) of an integer matrix A and an integer
vector delta, and ``pencil_det`` is the one place that evaluates it.  It
takes the pencil as a pattern, never as a dense n x n matrix: A's values at
its nonzeros and at the whole diagonal (a graph's comes from
``serre._edge_pattern``).  Only that pattern is evaluated at enough integer
nodes, the determinants of all node matrices are taken in one run of
``linalg.det_pattern``, and the polynomial is rebuilt by integer divided
differences; integrality of the result is asserted rather than assumed.

At u = 1 the determinant vanishes (singular Laplacian) and, away from the
cycle-graph case chi(X) = 0, h_X'(1) = -2 chi(X) kappa_X recovers the
spanning-tree count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, polys, serre
from .serre import Multigraph


def pencil_det(rows: np.ndarray, cols: np.ndarray, a: np.ndarray,
               delta: np.ndarray) -> list[int]:
    """det(I - A u + diag(delta) u^2) for the n x n integer matrix A with
    int64 values a at the distinct positions (rows, cols), which hold every
    diagonal position, and an int64 vector delta of length n: an integer
    polynomial of degree <= 2n and constant term 1.

    The pattern's values at the 2n + 1 nodes 0, 1, -1, ..., n, -n are
    formed in int64; a node value that could pass int64 raises
    OverflowError instead of wrapping.
    """
    n = len(delta)
    if n == 0:
        return [1]
    size_a = max(int(a.max()), -int(a.min()))
    size_d = max(int(delta.max()), -int(delta.min()))
    # |1 - a u + d u^2| <= 1 + n|a| + n^2|d| at every node |u| <= n
    if 1 + n * size_a + n * n * size_d >= 1 << 63:
        raise OverflowError("h(u) node values would pass int64")
    nodes = _nodes(2 * n + 1)
    vals = _pencil_values(rows, cols, a, delta, nodes)
    h = polys.interpolate(list(zip(nodes,
                                   linalg.det_pattern(n, rows, cols, vals))))
    if not h or h[0] != 1:
        raise ArithmeticError("h(0) must be 1")
    return h


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
    n = x.num_vertices
    return pencil_det(*serre._edge_pattern(n, x.origin, x.terminus),
                      np.bincount(x.origin, minlength=n) - 1)


def ihara_Z(x: Multigraph) -> tuple[int, list[int]]:
    """Reciprocal zeta as (exponent, h): Z_X(u) = (1-u^2)**exponent * h_X(u)
    with exponent = -chi(X)."""
    return -serre.euler_characteristic(x), ihara_h(x)


@dataclass(frozen=True)
class SpecialValues:
    h_at_1: int
    dh_at_1: int
    d2h_at_1: int
    kappa_implied: int | None


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
