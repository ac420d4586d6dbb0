#!/usr/bin/env python3
"""The main event: invariants of abelian l-towers of bouquets.

Fix a prime l and loop jumps a_1..a_t.  Level n of the tower is the
circulant cover on l^n vertices, and ord_l of its spanning-tree count is
eventually exactly mu * l^n + lambda * n + nu.  The pair (mu, lambda)
falls out of the polynomial Q = sum P_{|a_j|}; nu and the threshold are
pinned down by exact computation, with a certified level past which the
formula provably persists.
"""

from graph_iwasawa import (
    TowerSpec,
    build_tower_report,
    cayley_serre,
    derived_cover,
    invariants,
    kappa_exact,
    ord_kappa,
    q_poly,
    spanning_tree_count,
)
from graph_iwasawa.polys import format_poly


def show(ell, gens, n_max):
    spec = TowerSpec(ell, gens)
    print(f"== tower l={ell}, jumps {gens} ==")
    print("Q(T) =", format_poly(q_poly(spec), "T"))
    inv = invariants(spec)
    print(f"mu={inv.mu}  lambda={inv.lam}  nu={inv.nu}  "
          f"certified n0={inv.n0_certified}  observed n0={inv.n0_observed}")
    print(" n   ord_l(kappa_n)   mu*l^n + lambda*n + nu")
    for n in range(n_max + 1):
        o = ord_kappa(spec, n)
        fit = inv.mu * ell ** n + inv.lam * n + inv.nu
        mark = "=" if o == fit else " "
        print(f"{n:>2}   {o:>12}   {mark:>2} {fit}")
    print()


show(2, (1, 1), 8)
show(2, (3, 5), 8)
show(3, (1, 4, 20), 5)

print("== the two routes to kappa agree (Graeffe chain vs matrix-tree) ==")
spec = TowerSpec(2, (3, 5))
for n in range(0, 6):
    direct = spanning_tree_count(derived_cover(cayley_serre(2 ** n, (3, 5))))
    assert direct == kappa_exact(spec, n)
    print(f"  n={n}: kappa = {direct}")

print()
print("== a full machine-readable report ==")
report = build_tower_report(TowerSpec(2, (3, 5)), 5)
for rec in report.levels:
    print(f"  n={rec.n}  ord={rec.ord_kappa:>3}  fit={rec.fit}  "
          f"kappa={rec.kappa}")
print("consistency:", report.consistency_ok, " fit:", report.fit_ok)
