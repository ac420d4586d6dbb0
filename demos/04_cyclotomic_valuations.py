#!/usr/bin/env python3
"""Exact arithmetic with prime-power roots of unity.

The elements eps(a) = (1 - zeta^a)(1 - zeta^(-a)) live in Z[zeta] for
zeta a primitive l^i-th root of unity.  eps(a) is the jump polynomial of
the cycle tower with jump a, so its norm |N(eps(a))| is that tower's level
norm, read off its l-Graeffe chain.  Its valuation at the unique prime
1 - zeta above l, found by dividing by l and then by 1 - zeta, follows a
crisp pattern: 2 when a is coprime to l, 2 l^s when l^s exactly divides a,
infinite when zeta^a = 1.
"""

import math

from graph_iwasawa import INFINITY, TowerSpec, epsilon, level_norm, ord_L
from graph_iwasawa.polys import cyclotomic_polynomial, format_poly

print("== cyclotomic moduli ==")
for ell, i in ((2, 1), (2, 3), (3, 2)):
    print(f"  Phi for l={ell}, i={i}:",
          format_poly(cyclotomic_polynomial(ell ** i), "y"))

print()
print("== eps elements reduce to friendly constants in small rings ==")
print("eps(1) in Z[zeta_3]:", epsilon(3, 1, 1))
print("eps(2) in Z[zeta_4]:", epsilon(2, 2, 2))

print()
print("== |N(eps(a))|, the cycle tower's level norm: l^2 for a prime to l ==")
for ell, a, i in ((3, 1, 1), (5, 2, 1), (3, 2, 2), (7, 3, 1)):
    print(f"  l={ell}, a={a}, i={i}:",
          level_norm(TowerSpec(ell, (a,)), i))

print()
print("== the valuation ladder at l = 3, level i = 3 (m = 27) ==")
for a in range(0, 28):
    v = ord_L(epsilon(3, 3, a))
    shape = "infinite" if v == INFINITY else str(v)
    tag = ("zeta^a = 1" if a % 27 == 0
           else "coprime" if math.gcd(a, 3) == 1
           else f"3^{1 if a % 9 else 2} divides a")
    print(f"  a={a:>2}: ord = {shape:>8}  ({tag})")
