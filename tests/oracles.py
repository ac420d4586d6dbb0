"""Independent oracles used by the test suite.

Everything here is deliberately naive: Leibniz determinants, fraction-free
Bareiss determinants over Z (the reference for the library's multi-modular
engine), determinants of polynomial matrices by Bareiss at integer points
and Lagrange interpolation over Fractions, brute-force spanning-tree
enumeration, polynomial powers, Horner evaluation and exact integer
interpolation by divided differences, the table
definition of P_a, ring arithmetic in Z[zeta] on the library's canonical
elements and Q(eps) by Horner's rule with it (the reference for the level
valuations, which the library takes of f(zeta)),
Sylvester-matrix resultants over Fractions, and the subresultant PRS with
its Res(Phi_{l^i}, f), the reference for the library's Graeffe norms and
its division-by-(1 - zeta) valuations, f~ by squares and the product of
f~ over the l^n-th roots of unity mod a prime by one Euclid, the modular
reference for kappa_n at any depth, mu, lambda and the certified level
from F(T) = f~(1 + T), the reference for those read off Q, trial
division by the primes of a sieve, the reference for the command line's
wheel, polynomial long
division and through it cyclotomic polynomials by dividing y**n - 1 by
those of every proper divisor, and
the orbit pencils from every power of a companion matrix, the reference
for the voltage module's residue table.  None of it
shares code paths with the library implementations it checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from graph_iwasawa import (Multigraph, VoltageGraph, cyc_from_poly,
                           derived_cover, epsilon, polys, serre)


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


def poly_pow(p: list[int], e: int) -> list[int]:
    """p**e by repeated multiplication, e >= 0."""
    out = [1]
    for _ in range(e):
        out = _mul(out, p)
    return out


def poly_eval(p: list[int], x: int) -> int:
    """p(x) by Horner's rule; 0 for the zero polynomial []."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def interpolate(points: list[tuple[int, int]]) -> list[int]:
    """Interpolation through integer points by Newton divided differences
    over Z, asserting an integer polynomial results: the reference for
    ``zeta.pencil_det``, which interpolates mod each CRT prime.

    The divided differences of an integer polynomial at integer nodes are
    integers, so every division is exact exactly when the interpolant has
    integer coefficients.
    """
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    c = [y for _, y in points]
    for j in range(1, len(c)):
        for i in range(len(c) - 1, j - 1, -1):
            q, r = divmod(c[i] - c[i - 1], xs[i] - xs[i - j])
            if r:
                raise ArithmeticError("interpolation produced a non-integer "
                                      "coefficient; degree bound too small?")
            c[i] = q
    # Newton form to coefficients: p = c[i] + (y - x_i) * p, innermost last
    out: list[int] = []
    for i in range(len(c) - 1, -1, -1):
        shifted = [0] + out
        for d, a in enumerate(out):
            shifted[d] -= xs[i] * a
        shifted[0] += c[i]
        out = shifted
    return _trim(out)


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


def _mul(p: list[int], q: list[int]) -> list[int]:
    # schoolbook, so the PRS shares no product with the library
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _trim(p: list[int]) -> list[int]:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


def content(p: list[int]) -> int:
    g = 0
    for c in p:
        g = math.gcd(g, c)
    return g


def divexact_scalar(p: list[int], c: int) -> list[int]:
    out = []
    for a in p:
        q, r = divmod(a, c)
        if r:
            raise ArithmeticError("inexact scalar division of polynomial")
        out.append(q)
    return out


def prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)**(deg a - deg b + 1) * a mod b."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        raise ValueError("prem requires deg a >= deg b")
    lc = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        top = r[db + k]
        for i in range(len(r)):
            r[i] *= lc
        if top:
            for i, bc in enumerate(b):
                r[k + i] -= top * bc
        r[db + k] = 0
    return _trim(r)


def resultant(a: list[int], b: list[int]) -> int:
    """Resultant of two integer polynomials via the subresultant PRS
    (fraction-free, Collins/Brown)."""
    a, b = _trim(list(a)), _trim(list(b))
    if not a or not b:
        return 0
    da, db = len(a) - 1, len(b) - 1
    if da == 0 and db == 0:
        return 1
    sign = 1
    if da < db:
        a, b = b, a
        if (da * db) % 2:
            sign = -sign
        da, db = db, da
    if db == 0:
        return sign * b[0] ** da
    ca, cb = content(a), content(b)
    a = divexact_scalar(a, ca)
    b = divexact_scalar(b, cb)
    acc = sign * ca ** db * cb ** da
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if (da % 2) and (db % 2):
            acc = -acc
        r = prem(a, b)
        if not r:
            return 0
        a = b
        b = divexact_scalar(r, g * h ** delta)
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            hq, hr = divmod(g ** delta, h ** (delta - 1))
            if hr:
                raise ArithmeticError("subresultant PRS bookkeeping failed")
            h = hq
        if len(b) - 1 == 0:
            break
    da = len(a) - 1
    num = b[0] ** da
    if da >= 1:
        q, rem = divmod(num, h ** (da - 1))
        if rem:
            raise ArithmeticError("subresultant PRS bookkeeping failed")
        num = q
    return acc * num


def _strip(r: list[int], e: int, lead: int) -> tuple[list[int], int]:
    # value r / lead**e; peel exact factors of lead to keep sizes down
    if abs(lead) == 1:
        if lead == -1 and e % 2:
            r = [-c for c in r]
        return r, 0
    while e > 0 and r and all(c % lead == 0 for c in r):
        r = [c // lead for c in r]
        e -= 1
    return r, e


def _scaled_reduce(p: list[int], e: int, f: list[int]) -> tuple[list[int], int]:
    d = len(f) - 1
    if len(p) - 1 >= d:
        t = len(p) - 1 - d + 1
        p = prem(p, f)
        e += t
    return _strip(p, e, f[-1])


def _phi_mod_f(ell: int, i: int, f: list[int]) -> tuple[list[int], int]:
    """Phi_{l^i} mod f as a scaled pair (r, e) meaning r / lc(f)**e.

    Dense quotients use one literal pseudo-division of the sparse Phi;
    low-degree f goes through modular exponentiation of y instead.
    """
    step = ell ** (i - 1)
    deg_phi = (ell - 1) * step
    d = len(f) - 1
    cost_literal = (deg_phi - d + 1) * (d + 1)
    cost_modexp = (step.bit_length() + ell) * (d + 1) ** 2 * 4
    if cost_literal <= cost_modexp:
        phi = [0] * (deg_phi + 1)
        for j in range(ell):
            phi[j * step] = 1
        return _scaled_reduce(phi, 0, f)
    # y**step mod f by square-and-multiply, in scaled form
    base, be = _scaled_reduce([0, 1], 0, f)
    out, oe = [1], 0
    e = step
    while e:
        if e & 1:
            out, oe = _scaled_reduce(_mul(out, base), oe + be, f)
        e >>= 1
        if e:
            base, be = _scaled_reduce(_mul(base, base), 2 * be, f)
    # Phi mod f = sum of (y**step)**j for j < l, by Horner
    acc, ae = [1], 0
    for _ in range(ell - 1):
        acc, ae = _scaled_reduce(_mul(acc, out), ae + oe, f)
        acc = list(acc) or [0]
        acc[0] += f[-1] ** ae
        acc = _trim(acc)
    return _strip(acc, ae, f[-1])


def resultant_with_phi(ell: int, i: int, f: list[int]) -> int:
    """Res_y(Phi_{l^i}(y), f(y)) for any integer polynomial f, exact: the
    product of f over all primitive l^i-th roots of unity, i.e. the norm
    of f(zeta) from Q(zeta) down to Q."""
    f = _trim(list(f))
    deg_phi = ell ** i - ell ** (i - 1)
    if not f:
        return 0
    d = len(f) - 1
    if d == 0:
        return f[0] ** deg_phi
    r, e = _phi_mod_f(ell, i, f)
    if not r:
        return 0
    lead = f[-1]
    sign = -1 if (deg_phi % 2) and (d % 2) else 1
    res_fr = resultant(f, r)
    # Res(Phi, f) = sign * lc(f)**(deg_phi - deg r) * Res(f, Phi mod f)
    # and (Phi mod f) = r / lead**e contributes lead**(-e*d).
    exp = deg_phi - (len(r) - 1) - e * d
    if exp >= 0:
        return sign * lead ** exp * res_fr
    q, rem = divmod(sign * res_fr, lead ** (-exp))
    if rem:
        raise ArithmeticError("resultant scaling was not exact")
    return q


def reduced_jump_poly_by_squares(spec) -> list[int]:
    """f~ = f / (y - 1)^2 for f = y^B sum_j (2 - y^b_j - y^-b_j), B =
    max b_j, as -sum_j y^(B - b_j) (1 + y + ... + y^(b_j - 1))^2: each term
    is -y^-b (y^b - 1)^2, and a zero jump gives nothing.  The reference for
    the library's running sums."""
    bs = [abs(a) for a in spec.generators]
    big = max(bs)
    out = [0] * (2 * big - 1)
    for b in bs:
        for i, c in enumerate(_mul([1] * b, [1] * b)):
            out[big - b + i] -= c
    return _trim(out)


def series_invariants(spec) -> tuple[int, int, int]:
    """(mu, lambda, n0_certified) of the tower from its Iwasawa power
    series F(T) = f~(1 + T), with no P_a and no Q (Washington,
    "Introduction to Cyclotomic Fields", 1997, 7.1).  F is the Taylor shift
    of f~ by squares, F_k = sum_i C(i, k) f~_i.  By Weierstrass preparation
    in Z_l[[T]], mu = min ord_l(F_k) and lambda(F) is the first k that
    attains it; f = (y - 1)^2 f~ and the l^n in l^n kappa_n give lambda =
    1 + lambda(F).  At level i, where ord_l(zeta - 1) = 1 / phi(l^i),
    n0_certified is the first i whose term lambda(F) of F(zeta - 1)
    strictly dominates every other: phi(l^i) (v_k - mu) + k - lambda(F) > 0
    for every other nonzero F_k."""
    ell, f = spec.ell, reduced_jump_poly_by_squares(spec)
    shifted = [sum(math.comb(i, k) * c for i, c in enumerate(f))
               for k in range(len(f))]
    vals = []
    for k, c in enumerate(shifted):
        if c:
            v = 0
            while c % ell == 0:
                c, v = c // ell, v + 1
            vals.append((k, v))
    mu = min(v for _, v in vals)
    lam_f = min(k for k, v in vals if v == mu)
    level = 1
    while not all((ell - 1) * ell ** (level - 1) * (v - mu) + k - lam_f > 0
                  for k, v in vals if k != lam_f):
        level += 1
    return mu, 1 + lam_f, level


def _rem_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    # a mod b over F_p, lc(b) a unit mod p
    r, inv = [c % p for c in a], pow(b[-1], -1, p)
    while len(r) >= len(b):
        c = r[-1] * inv % p
        for i, e in enumerate(b, len(r) - len(b)):
            r[i] = (r[i] - c * e) % p
        r = _trim(r)
    return r


def _resultant_mod_p(a: list[int], b: list[int], p: int) -> int:
    # Res(a, b) over F_p by Euclid, b != 0 and lc(b) a unit mod p:
    # Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) for
    # r = a mod b, and Res(a, c) = c^deg a for a constant c (Cohen, "A
    # Course in Computational Algebraic Number Theory", 1993, 3.3)
    out = 1
    while len(b) > 1:
        r = _rem_mod_p(a, b, p)
        if not r:
            return 0
        da, db = len(a) - 1, len(b) - 1
        out = out * (-1) ** (da * db) * pow(b[-1], da - len(r) + 1, p) % p
        a, b = b, r
    return out * pow(b[0], len(a) - 1, p) % p


def chain_values_mod_p(spec, n: int, p: int) -> tuple[int, int]:
    """(g_0, g_n) mod the prime p, g_k the product of f~ over the l^k-th
    roots of unity: the modular reference for kappa_n at any depth, since
    l^n kappa_n = prod N_i makes kappa_n g_0 = +-l^n g_n.

    g_n = Res(y^(l^n) - 1, f~), the first factor monic: y^(l^n) mod f~ by
    binary powering over F_p, then one Euclid, O(n log l deg(f~)^2) work
    whatever l^n is.  p must not divide lc(f~) = -#{j : |a_j| = B}.
    Shares nothing with the library beyond the spec's fields."""
    f = reduced_jump_poly_by_squares(spec)
    g0 = sum(f) % p
    big = spec.ell ** n
    if len(f) == 1:
        return g0, pow(f[0], big, p)
    power, base = [1], _rem_mod_p([0, 1], f, p)
    for bit in bin(big)[2:]:
        power = _rem_mod_p(_mul(power, power), f, p)
        if bit == "1":
            power = _rem_mod_p(_mul(power, base), f, p)
    r = _trim([(power[0] - 1) % p] + power[1:])  # y is a unit mod f~
    if not r:
        return g0, 0
    # Res(y^N - 1, f~) = (-1)^(N d) lc(f~)^(N - deg r) Res(f~, r)
    d = len(f) - 1
    sign = -1 if big * d % 2 else 1
    return g0, sign * pow(f[-1], big - len(r) + 1, p) \
        * _resultant_mod_p(f, r, p) % p


def cyc_add(x, y, k: int = 1):
    """x + k y in Z[y]/Phi_{l^i}."""
    return cyc_from_poly(x.ell, x.level,
                         [a + k * b for a, b in zip(x.coeffs, y.coeffs)])


def cyc_mul(x, y):
    """x y in Z[y]/Phi_{l^i}."""
    return cyc_from_poly(x.ell, x.level,
                         polys.mul(list(x.coeffs), list(y.coeffs)))


def cyc_pow(x, e: int):
    """x^e in Z[y]/Phi_{l^i}, e >= 0, by e products."""
    out = cyc_from_poly(x.ell, x.level, [1])
    for _ in range(e):
        out = cyc_mul(out, x)
    return out


def q_at_epsilon(spec, i: int):
    """Q(eps(1)) in Z[y]/Phi_{l^i}, by Horner's rule over Q's coefficients:
    the element whose valuation is v_i, built from Q, not from the jumps."""
    from graph_iwasawa import q_poly
    eps = epsilon(spec.ell, i, 1)
    acc = cyc_from_poly(spec.ell, i, [])
    for c in reversed(q_poly(spec)):
        acc = cyc_add(cyc_mul(acc, eps), cyc_from_poly(spec.ell, i, [c]))
    return acc


@functools.lru_cache(maxsize=None)
def primes_below(bound: int) -> tuple[int, ...]:
    """The primes below bound, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, bound, i)))
    return tuple(itertools.compress(range(bound), sieve))


def trial_factor_sieve(n: int, bound: int = 10 ** 6):
    """Factor n by trial division with the primes below bound; None if
    that cannot finish it.  A cofactor with no prime factor below bound
    and less than bound^2 is prime."""
    if n < 1:
        return None
    out = []
    rem = n
    for p in primes_below(bound):
        if p * p > rem:
            break
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        if e:
            out.append((p, e))
    if rem == 1:
        return out
    if rem < bound * bound:
        out.append((rem, 1))
        return out
    return None


def random_base_multigraph(rng, max_vertices=4, max_edges=10) -> Multigraph:
    """Random connected multigraph, min valency 2, chi != 0."""
    while True:
        g = rng.randint(1, max_vertices)
        edges = [(v, rng.randrange(v)) for v in range(1, g)]
        # top up valency with loops or parallel edges
        guard = 0
        while len(edges) < max_edges and guard < 50:
            guard += 1
            vals = Multigraph(g, edges).valencies()
            low = [v for v in range(g) if vals[v] < 2]
            if low:
                v = low[0]
                if rng.random() < 0.5:
                    edges.append((v, v))
                else:
                    edges.append((v, rng.randrange(g)))
            elif len(edges) == g or rng.random() < 0.35:
                # ensure chi != 0, then add a little extra at random
                edges.append((rng.randrange(g), rng.randrange(g)))
            else:
                break
        graph = Multigraph(g, edges)
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
        # derived_cover builds without checking; keep the connected ones
        if serre._components(derived_cover(vg)) == 1:
            return vg


def poly_divmod(p: list[int], d: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of p by d != 0 by long division, every
    division by lc(d) exact (d monic, or the quotient known to be in Z[y]):
    the reference for the library's running-sum quotients by 1 - y^d."""
    r, k = list(p), len(d) - 1
    q = [0] * max(len(p) - k, 0)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + k], d[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c
        if c:
            for j, e in enumerate(d):
                r[i + j] -= c * e
    return _trim(q), _trim(r)


@functools.lru_cache(maxsize=None)
def cyclotomic_by_division(n: int) -> tuple[int, ...]:
    """Phi_n by its definition: y**n - 1 divided, one long division each,
    by Phi_d for every proper divisor d of n, recursively.
    The reference for ``polys.cyclotomic_polynomial``."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p, r = poly_divmod(p, list(cyclotomic_by_division(d)))
            assert not r, "cyclotomic division left a remainder"
    return tuple(p)


def orbit_pencil_by_powers(vg: VoltageGraph, d: int) -> tuple:
    """``voltage._orbit_pencil`` built from every power of the companion
    matrix C of Phi_d, C**0..C**(d-1) by repeated matrix products: the
    reference for the library's table of residues y^e mod Phi_d."""
    import numpy as np

    phi_d = cyclotomic_by_division(d)
    k = len(phi_d) - 1
    comp = np.eye(k, k, -1, dtype=np.int64)
    comp[:, -1] = [-c for c in phi_d[:-1]]
    powers = [np.eye(k, dtype=np.int64)]
    for _ in range(1, d):
        powers.append(powers[-1] @ comp)
    g = vg.base.num_vertices
    a = np.zeros((g * k, g * k), dtype=np.int64)
    for o, t, s in zip(vg.base.origin, vg.base.terminus, vg.voltage):
        a[o * k:(o + 1) * k, t * k:(t + 1) * k] += powers[s % d]
    mask = a != 0
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    return (rows, cols, a[rows, cols],
            np.repeat(np.array(vg.base.valencies(), dtype=np.int64) - 1, k))
