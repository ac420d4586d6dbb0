"""Cyclic abelian covers via voltage assignments.

A voltage graph is a base multigraph whose directed edges carry residues
mod m, antisymmetric under edge inversion.  Its derived graph is the
degree-m cyclic cover: fibers are copies of Z/mZ and an edge with voltage
s connects fiber level k to k + s.  Cayley-Serre multigraphs are exactly
the derived covers of bouquets.  Every constructor goes through
``voltage_graph``.  A ``VoltageGraph`` checks its base and voltages when it
is built; ``derived_cover`` only builds, and the count or h(u) of a cover
checks its connectivity.

Character-twisted adjacency data is kept exact: characters are never
evaluated numerically.  The orbit L-polynomial for the characters of
order d is the resultant of the d-th cyclotomic polynomial against the
voltage-weighted determinant.  Substituting the companion matrix C of
the cyclotomic polynomial for the voltage variable makes it one integer
pencil, det(I - A u + diag(delta) u^2) with A = sum_sigma A(sigma) (x)
C^sigma and delta = (D - I) (x) 1.  The block C^s is read off one
residue table, the rows y^e mod Phi_d: its columns are y^(s+j) mod Phi_d,
j < phi(d).  A is built dense, since it is only
g * phi(d) on a side, and handed on once as its pattern (its nonzeros and
the diagonal) to ``zeta.pencil_det``.  The h(u, Psi_d) of one voltage
graph are one table (``_orbit_factors``): the product formula multiplies
them, and the integer decomposition takes their coefficient sums.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import polys, serre, zeta
from ._records import InputError, Record, integer, json_int
from .serre import DisconnectedGraphError, Multigraph


class VoltageGraph(Record):
    """Base multigraph plus a residue mod m on every directed edge, checked
    when built and kept as a tuple."""

    __slots__ = ("base", "modulus", "voltage")

    def __init__(self, base: Multigraph, modulus: int, voltage):
        modulus = integer(modulus, "modulus")
        if modulus < 1:
            raise InputError("modulus must be >= 1")
        voltage = tuple(integer(v, "voltage") % modulus for v in voltage)
        if len(voltage) != base.num_directed_edges:
            raise InputError("one voltage per directed edge required")
        problems = serre.validate_serre(base)
        for e, s in enumerate(voltage):
            if voltage[e ^ 1] != -s % modulus:
                problems.append(
                    f"edge {e}: voltage not antisymmetric under inversion")
        if problems:
            raise InputError("invalid voltage graph: " + "; ".join(problems))
        self._set(base, modulus, voltage)


def voltage_graph(base: Multigraph, modulus: int,
                  undirected_voltages: dict) -> VoltageGraph:
    """Build from voltages on canonical undirected representatives."""
    volt = [0] * base.num_directed_edges
    for e, s in undirected_voltages.items():
        e, s = integer(e, "voltage key"), integer(s, "voltage")
        if not 0 <= e < len(volt):
            raise InputError(f"voltage key {e!r} is not a directed edge of "
                             f"the base (0..{len(volt) - 1})")
        volt[e], volt[e ^ 1] = s, -s
    return VoltageGraph(base, modulus, volt)


def cayley_serre(m: int, generators) -> VoltageGraph:
    """Voltage bouquet whose derived cover is the circulant multigraph on
    Z/mZ with jumps ``generators``."""
    m = integer(m, "modulus")
    gens = [integer(a, "generator") for a in generators]
    if not gens:
        raise InputError("need at least one generator")
    if math.gcd(m, *[abs(a) for a in gens]) != 1:
        raise DisconnectedGraphError(
            "generators do not generate Z/mZ: derived cover is disconnected")
    base = serre.bouquet(len(gens))
    return voltage_graph(base, m, dict(zip(base.undirected_edges(), gens)))


def derived_cover(vg: VoltageGraph) -> Multigraph:
    """The degree-m cyclic cover; vertex (v, k) has id k*g + v, and base
    edge i from fiber level k is the cover's undirected edge i*m + k.
    Built unchecked: disconnected when the voltages do not generate Z/mZ."""
    g, m = vg.base.num_vertices, vg.modulus
    return Multigraph(g * m, [(k * g + u, (k + s) % m * g + v)
                              for (u, v), s in zip(vg.base.edges,
                                                   vg.voltage[::2])
                              for k in range(m)])


def artin_A_sigma(vg: VoltageGraph, sigma: int) -> list[list[int]]:
    """Edge counts from the base fiber points (v_i, 0) to their sigma-shifts.

    Entry (i, j) counts directed base edges from v_i to v_j with voltage
    sigma; at sigma = 0 the diagonal doubles the loops, matching the
    adjacency convention.  Summed over sigma this recovers the base
    adjacency matrix.
    """
    s = sigma % vg.modulus
    on = [e for e, v in enumerate(vg.voltage) if v == s]
    origin, terminus = vg.base.origin, vg.base.terminus
    return serre._adjacency_lists(vg.base.num_vertices,
                                  [origin[e] for e in on],
                                  [terminus[e] for e in on])


def _orbit_pencil(vg: VoltageGraph, d: int) -> tuple:
    """(rows, cols, A's values there, delta) with h(u, Psi_d) =
    det(I - A u + diag(delta) u^2), for a divisor d of the modulus:
    A = sum_sigma A(sigma) (x) C**sigma with C the companion matrix of
    Phi_d (C = [[1]] for d = 1), and delta = (D - I) (x) 1.  The pattern
    is A's nonzeros and the whole diagonal."""
    phi_d = polys.cyclotomic_polynomial(d)
    k = len(phi_d) - 1
    # C acts as multiplication by y on Z[y]/(Phi_d) in the basis 1..y^(k-1),
    # so column j of C**s is y^(s+j) mod Phi_d, and y^d = 1 there.  Row e of
    # ys is y^e mod Phi_d, e < d + k - 1: y^(e-1) shifted up one place, less
    # its top coefficient times Phi_d (monic)
    ys = np.zeros((d + k - 1, k), dtype=np.int64)
    ys[:k] = np.eye(k, dtype=np.int64)
    low = np.array(phi_d[:-1], dtype=np.int64)
    for e in range(k, d + k - 1):
        ys[e, 1:] = ys[e - 1, :-1]
        ys[e] -= ys[e - 1, -1] * low
    g = vg.base.num_vertices
    # dense, but only g * phi(d) on a side: each directed edge adds
    # C**voltage to the block of its origin and terminus
    a = np.zeros((g * k, g * k), dtype=np.int64)
    for o, t, s in zip(vg.base.origin, vg.base.terminus, vg.voltage):
        a[o * k:(o + 1) * k, t * k:(t + 1) * k] += ys[s % d:s % d + k].T
    mask = a != 0
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    return (rows, cols, a[rows, cols],
            np.repeat(np.array(vg.base.valencies(), dtype=np.int64) - 1, k))


def orbit_h_poly(vg: VoltageGraph, d: int) -> list[int]:
    """h(u, Psi_d): the integer polynomial collecting all order-d characters.

    Res_y(Phi_d(y), det(I - A(y)u + (D - I)u^2)) with A(y) the voltage-
    weighted adjacency; evaluated by replacing y with the companion matrix
    of Phi_d, which turns the resultant into one exact block determinant.
    For d = 1 this is just the zeta polynomial of the base.
    """
    if d < 1 or vg.modulus % d != 0:
        raise InputError("d must divide the modulus")
    return zeta.pencil_det(*_orbit_pencil(vg, d))


class ProductFormulaReport(Record):
    __slots__ = ("ok", "cover_h", "orbit_product", "orbit_factors")

    def __init__(self, ok: bool, cover_h: list, orbit_product: list,
                 orbit_factors: dict):
        self._set(ok, cover_h, orbit_product, orbit_factors)


# The orbit factors of the last voltage graph checked, for both checks.
@functools.lru_cache(maxsize=1)
def _orbit_factors(vg: VoltageGraph) -> tuple:
    """(d, h(u, Psi_d)) for each divisor d of the modulus, increasing, each
    h a tuple: a report takes lists of its own."""
    return tuple((d, tuple(orbit_h_poly(vg, d)))
                 for d in _divisors(vg.modulus))


def verify_product_formula(vg: VoltageGraph) -> ProductFormulaReport:
    """Check h_cover = prod over divisors d of m of h(u, Psi_d), exactly."""
    lhs = zeta.ihara_h(derived_cover(vg))
    factors = {d: list(h) for d, h in _orbit_factors(vg)}
    rhs = functools.reduce(polys.mul, factors.values(), [1])
    return ProductFormulaReport(ok=(lhs == rhs), cover_h=lhs,
                                orbit_product=rhs, orbit_factors=factors)


class DecompositionReport(Record):
    __slots__ = ("ok", "modulus", "kappa_cover", "kappa_base",
                 "orbit_values")

    def __init__(self, ok: bool, modulus: int, kappa_cover: int,
                 kappa_base: int, orbit_values: dict):
        self._set(ok, modulus, kappa_cover, kappa_base, orbit_values)


def verify_integer_decomposition(
        vg: VoltageGraph,
        cap: int = serre.DEFAULT_VERTEX_CAP) -> DecompositionReport:
    """Check m * kappa_cover = kappa_base * prod_{d | m, d > 1} h(1, Psi_d).

    Requires chi(base) != 0; the special-value argument behind the identity
    breaks down for cycle graphs.
    """
    if serre.euler_characteristic(vg.base) == 0:
        raise InputError("integer decomposition requires chi(base) != 0")
    cover = derived_cover(vg)
    kappa_cover = serre.spanning_tree_count(cover, cap=cap)
    kappa_base = serre.spanning_tree_count(vg.base, cap=cap)
    values = {}
    rhs = kappa_base
    # after both counts: a cover past the cap builds no orbit pencil
    for d, h in _orbit_factors(vg)[1:]:
        val = sum(h)  # h(1, Psi_d)
        if val == 0:
            raise ArithmeticError(
                f"h(1, Psi_{d}) vanished for a nontrivial orbit")
        values[d] = val
        rhs *= val
    return DecompositionReport(ok=(vg.modulus * kappa_cover == rhs),
                               modulus=vg.modulus, kappa_cover=kappa_cover,
                               kappa_base=kappa_base, orbit_values=values)


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def voltage_to_json(vg: VoltageGraph) -> dict:
    return {
        "m": vg.modulus,
        "edges": [{"u": u, "v": v, "voltage": s}
                  for (u, v), s in zip(vg.base.edges, vg.voltage[::2])],
    }


def voltage_from_json(data: dict) -> VoltageGraph:
    return voltage_graph(*_read_voltage_json(data))


def _read_voltage_json(data: dict) -> tuple:
    """(base, m, voltages of its undirected edges) of a voltage file:
    ``voltage_graph``'s arguments, not yet checked."""
    try:
        m = json_int(data["m"])
        recs = [(json_int(rec["u"]), json_int(rec["v"]),
                 json_int(rec["voltage"])) for rec in data["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed voltage JSON: {exc!r}") from exc
    if m < 1:
        raise InputError(f"malformed voltage JSON: modulus {m} < 1")
    base = Multigraph(max((max(u, v) + 1 for u, v, _ in recs), default=0),
                      [(u, v) for u, v, _ in recs])
    return base, m, dict(zip(base.undirected_edges(),
                             [s for _, _, s in recs]))
