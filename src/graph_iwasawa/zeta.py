"""Ihara zeta reciprocals and their special values at u = 1.

The reciprocal zeta of a multigraph X factors as
(1 - u^2)^(-chi(X)) * h_X(u) with h_X(u) = det(I - Au + (D - I)u^2).
Every h this package computes, of a graph or of a character orbit of a
cover (``voltage.orbit_h_poly``), is such a quadratic pencil
det(I - A u + diag(delta) u^2) of an integer matrix A and an integer
vector delta, and ``pencil_det`` is the one place that evaluates it: only
the pattern (the nonzeros of A and the diagonal) is evaluated at enough
integer nodes, the determinants of all node matrices are taken in one run
of ``linalg``'s multi-modular engine, and the polynomial is rebuilt by
integer divided differences; integrality of the result is asserted rather
than assumed.

At u = 1 the determinant vanishes (singular Laplacian) and, away from the
cycle-graph case chi(X) = 0, h_X'(1) = -2 chi(X) kappa_X recovers the
spanning-tree count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, polys, serre
from .serre import Multigraph


def pencil_det(a: np.ndarray, delta: np.ndarray) -> list[int]:
    """det(I - A u + diag(delta) u^2) for an n x n int64 matrix A and an
    int64 vector delta of length n: an integer polynomial of degree <= 2n
    and constant term 1.

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
    mask = a != 0
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    nodes = _nodes(2 * n + 1)
    u = np.array(nodes, dtype=np.int64)[:, None]
    vals = (np.where(rows == cols, 1 + u * u * delta[rows], 0)
            - u * a[rows, cols])
    h = polys.interpolate(list(zip(nodes,
                                   linalg._det_stack(n, rows, cols, vals))))
    if not h or h[0] != 1:
        raise ArithmeticError("h(0) must be 1")
    return h


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
    a = np.zeros((n, n), dtype=np.int64)
    np.add.at(a, (x.origin, x.terminus), 1)
    return pencil_det(a, np.bincount(x.origin, minlength=n) - 1)


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
