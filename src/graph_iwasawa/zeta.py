"""Ihara zeta reciprocals and their special values at u = 1.

The reciprocal zeta of a multigraph X factors as
(1 - u^2)^(-chi(X)) * h_X(u) with h_X(u) = det(I - Au + (D - I)u^2).
The polynomial determinant is computed exactly by evaluating the matrix at
enough integer points, taking the integer determinants of all of them in
one run of ``linalg``'s multi-modular engine, and interpolating by integer
divided differences; integrality of the result is asserted rather than
assumed.

At u = 1 the determinant vanishes (singular Laplacian) and, away from the
cycle-graph case chi(X) = 0, h_X'(1) = -2 chi(X) kappa_X recovers the
spanning-tree count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, polys, serre
from .serre import Multigraph


def det_poly_matrix(m: list[list[list[int]]], deg_bound: int) -> list[int]:
    """Determinant of a matrix with integer-polynomial entries.

    Evaluation at deg_bound+1 integer nodes, one exact stacked determinant
    of all node matrices, exact interpolation.  ``deg_bound`` must dominate
    the true degree.
    """
    n = len(m)
    if n == 0:
        return [1]
    pts = _nodes(deg_bound + 1)
    entries = [(i, j, p) for i, row in enumerate(m)
               for j, p in enumerate(row) if p]
    stack = np.zeros((len(pts), n, n), dtype=np.int64)
    if entries:
        rows, cols, ps = zip(*entries)
        # Python ints past int64 raise here rather than wrap
        stack[:, list(rows), list(cols)] = np.array(
            [[polys.evaluate(p, x) for p in ps] for x in pts], dtype=np.int64)
    return polys.interpolate(list(zip(pts, linalg._det_stack(stack))))


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
    a = serre.adjacency_matrix(x)
    vals = x.valencies()
    n = x.num_vertices
    m = [[_entry(a[i][j], vals[i], i == j) for j in range(n)] for i in range(n)]
    h = det_poly_matrix(m, 2 * n)
    if not h or h[0] != 1:
        raise ArithmeticError("h_X(0) must be 1")
    return h


def _entry(aij: int, val_i: int, diag: bool) -> list[int]:
    # (I)_ij - a_ij u + (D - I)_ij u^2
    if diag:
        return polys.trim([1, -aij, val_i - 1])
    return polys.trim([0, -aij, 0])


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
