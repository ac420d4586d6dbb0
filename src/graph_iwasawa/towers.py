"""Iwasawa-type invariants of abelian l-towers over bouquets.

A tower is specified by a prime l and loop jumps a_1..a_t; level n is the
degree-l^n circulant cover of the bouquet B_t.  The l-adic valuation of
the spanning-tree count kappa_n eventually obeys

    ord_l(kappa_n) = mu * l^n + lambda * n + nu,

and (mu, lambda) can be read off the coefficients of the polynomial
Q(T) = sum_j P_{|a_j|}(T), where the P_a are the integer recursion with
P_a(eps(1)) = eps(a).  This module computes everything exactly:

* kappa_n and the per-level norms N_i from one l-Graeffe chain per spec.
  With f the jump polynomial and f = (y - 1)^2 f~, each step takes G~ to
  the polynomial whose roots are the l-th powers of G~'s, so
  g_k = G~^k(1) is the product of f~ over the l^k-th roots of unity
  (Bostan, Flajolet, Salvy and Schost, "Fast computation of special
  resultants", 2006).  A step (``polys.graeffe``) and the norm r_i of
  G~^(i-1)(zeta_l) (``polys.graeffe_norm``) are each one norm in
  Z[zeta_l], O(log l) products of Galois conjugates with no division,
  taken on half coordinates through the real subfield for l >= 5; at
  l = 2 a step is two squarings.
  N_i = l^2 |r_i|, g_n = g_0 r_1 ... r_n and kappa_n = l^n |r_1 ... r_n|:
  every value is a product, and the chain divides nothing.
* the per-level valuation v_i = ord_L(Q(eps)) = ord_L(f(zeta)), read off
  Q's coefficients as mu * phi(l^i) + lambda + 1 from the certified level
  on and below it by dividing f(zeta) by 1 - zeta inside Z[zeta], with no
  norm: an independent route to ord_l(kappa_n) = -n + sum v_i;
* a certified stabilization level: the smallest i past which the
  ultrametric minimum is attained by a single term, so the affine formula
  provably holds for every larger level, not just the inspected ones.

One level table per spec (``_tower``) holds all three, grown on demand.
Level N is the Cayley graph of Z/l^N, so a read of level N starts the chain
from the jumps mod l^N, needs G~^k only mod z^(l^(N-k)) - 1, and folds a
longer G~^k to that.
The cycle tower (t = 1) takes the same route: Q = P_|a| has the l-unit a^2
as its linear coefficient, so mu = 0, lambda = 1 and n0_certified = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

from . import cyclotomic, polys
from ._records import InputError, Record, integer, json_int
from .cyclotomic import INFINITY, ord_int


class TowerSpec(Record):
    """Prime l and integer loop jumps defining the tower."""

    __slots__ = ("ell", "generators")

    def __init__(self, ell: int, generators: tuple):
        ell = integer(ell, "prime")
        if not cyclotomic.is_prime(ell):
            raise InputError(f"{ell} is not prime")
        gens = tuple(integer(a, "generator") for a in generators)
        if not gens:
            raise InputError("need at least one generator")
        if not any(math.gcd(a, ell) == 1 for a in gens):
            raise InputError(
                "no generator is coprime to the prime; covers are disconnected")
        super().__init__(ell, gens)

    @property
    def t(self) -> int:
        return len(self.generators)

    @property
    def q(self) -> int:
        return 2 * self.t - 1

    @property
    def magnitudes(self) -> tuple:
        return tuple(abs(a) for a in self.generators)

    @property
    def is_cycle_tower(self) -> bool:
        """t = 1 means chi = 0: the tower of cycle graphs."""
        return self.t == 1

    @property
    def zero_generator_indices(self) -> tuple:
        return tuple(j for j, a in enumerate(self.generators) if a == 0)


def p_poly(a: int) -> list[int]:
    """P_a with P_a(eps(1)) = eps(a): P_a(T) = 2 - 2*T_a(1 - T/2).

    eps(a) = 2 - c_a with c_a = z^a + z^-a = 2*T_a(c_1/2), T_a the
    Chebyshev polynomial.  The coefficient b_k of T^k has b_1 = a^2 and
    b_(k+1) = -b_k*(a + k)*(a - k) / ((2k + 1)(2k + 2)), each division
    exact; degree a, zero constant term, leading coefficient (-1)**(a+1).
    """
    if a < 0:
        raise InputError("a must be nonnegative")
    if a == 0:
        return []
    out = _zeros(a, a + 1)
    out[1] = a * a
    for k in range(1, a):
        out[k + 1] = -out[k] * (a + k) * (a - k) // ((2 * k + 1) * (2 * k + 2))
    return out


def _zeros(jump: int, count: int) -> list[int]:
    # the count coefficients a jump needs, refused as input past any list
    # index before any is allocated; below it, an unallocatable count raises
    # MemoryError at once
    if count > sys.maxsize:
        raise InputError(
            f"jump {jump} needs {count} coefficients, past any list index; "
            "a chain read of level n (kappa_exact, kappa_levels, level_norm) "
            "reads the jumps mod l^n")
    return [0] * count


def q_bits_bound(spec: TowerSpec) -> int:
    """Upper bound on the bits of Q's coefficients, sum_j of
    |c_j|.bit_length(), known before any work.

    |coefficient k of P_a| = 2a*C(a+k, 2k)/(a+k) < 2 C(n, n/2) with
    n = a + k, and C(n, n/2) <= 2^n sqrt(2/(pi n)); so for n >= 3 it is
    below 2^(a+k), as it is for a = k = 1, and P_a has at most
    sum_(k<=a) (a + k) = (3a^2 + a)/2 bits.  Adding the t terms carries at
    most ceil(log2 t) more bits into each of Q's max|a| coefficients.
    """
    mags = spec.magnitudes
    return (sum((3 * b * b + b) // 2 for b in mags)
            + max(mags) * (spec.t - 1).bit_length())


def q_poly(spec: TowerSpec) -> list[int]:
    """Q = sum of P over generator magnitudes; coefficient j is c_j."""
    out: list[int] = []
    for b in spec.magnitudes:
        out = polys.add(out, p_poly(b))
    return out


def mu_lambda(q: list[int], ell: int) -> tuple[int, int]:
    """mu = min ord_l(c_j) over nonzero coefficients; lambda = 2*j* - 1 for
    the smallest index j* attaining it."""
    q = polys.trim(list(q))
    if not q:
        raise InputError("zero polynomial has no invariants")
    if q[0] != 0:
        raise InputError("expected zero constant term")
    mu = None
    jstar = None
    for j in range(1, len(q)):
        if q[j] == 0:
            continue
        v = ord_int(q[j], ell)
        if mu is None or v < mu:
            mu, jstar = v, j
    return mu, 2 * jstar - 1


def stabilization_level(q: list[int], ell: int) -> int:
    """Smallest i such that the j* term strictly dominates every other term
    of Q(eps) in the valuation at level i (and hence at all larger levels,
    by monotonicity in phi(l^i))."""
    mu, lam = mu_lambda(q, ell)
    jstar = (lam + 1) // 2
    others = [(j, ord_int(q[j], ell)) for j in range(1, len(q))
              if q[j] != 0 and j != jstar]
    i = 1
    while True:
        phi = cyclotomic.euler_phi_prime_power(ell, i)
        if all(phi * (v - mu) + 2 * (j - jstar) > 0 for j, v in others):
            return i
        i += 1


def level_valuation(spec: TowerSpec, i: int):
    """v_i = ord_L(f(zeta)) inside Z[y]/Phi_{l^i}, f the jump polynomial;
    its norm is +-N_i.

    f(zeta) = zeta^B * L(zeta), B = max|a|, with L = sum_j (2 - y^a_j -
    y^-a_j) = Q(eps(1)) built mod y^(l^i) - 1 from the jumps mod l^i: the
    same element up to a unit, and no Q is built.
    """
    if i < 1:
        raise InputError("level must be >= 1")
    m = spec.ell ** i
    terms = [2 * spec.t] + [0] * (m - 1)
    for a in spec.generators:
        terms[a % m] -= 1
        terms[-a % m] -= 1
    return cyclotomic.ord_L(cyclotomic.cyc_from_poly(spec.ell, i, terms))


def _jump_poly(bs: tuple) -> list[int]:
    # y**B * sum_j (2 - y**b_j - y**(-b_j)) for the jump magnitudes b_j,
    # B = max b_j >= 1: a spec has a jump prime to l, and so has its
    # reduction mod l^n for n >= 1
    big = max(bs)
    f = _zeros(big, 2 * big + 1)
    for b in bs:
        f[big] += 2
        f[big + b] -= 1
        f[big - b] -= 1
    return polys.trim(f)


def _reduced_jump_poly(bs: tuple) -> list[int]:
    # f~ = f / (1 - y)^2: every term 2 - y^b - y^-b vanishes to order 2 at
    # 1.  For p(1) = 0, p / (1 - y) is p's running sums bar the last, p(1).
    f = _jump_poly(bs)
    for _ in range(2):
        *f, last = itertools.accumulate(f)
        if last:
            raise ArithmeticError("jump polynomial has no double root at 1")
    return f


class _Tower:
    """One tower's level table: the Graeffe chain g_k = G~^k(1) = prod
    over the l^k-th roots of unity w of f~(w), for G~^0 = f~ and G~^k =
    Graeffe_l(G~^(k-1)) (the l-th roots of the l^(k-1)-th roots of unity
    are the l^k-th ones), Q's law, and ord_l(kappa_n) from the valuations
    alone.

    The table keeps the level norms r_k = g_k / g_(k-1) and their prefix
    products h_k = r_1 ... r_k, so g_k = g_0 h_k and kappa_n = l^n |h_n|:
    every value is a product and none is divided.
    For j >= k, g_j is the product of G~^k over the l^(j-k)-th roots of
    unity, so a read of level N needs G~^k only mod z^(l^(N-k)) - 1, and
    ``grow`` folds a longer one to that (``polys.fold``).  The r and h
    values read off a folded polynomial are exact and kept; the polynomial
    is not.  The one polynomial kept is the deepest unfolded G~^depth of
    the true jumps, from which a deeper read steps on.

    Level N is the Cayley graph of Z/l^N, so a read of level N starts its
    chain from f~' of the least absolute residues b' of the jumps mod l^N
    (0 is a loop), with B' = max b' against B = max |a|.  For w^(l^N) = 1
    the sum L(w) = sum_j (2 - w^a_j - w^-a_j) reads each jump mod l^N, and
    f(w) = w^B L(w), f'(w) = w^B' L(w); so f~(w) = w^(B - B') f~'(w) for
    w != 1.  The product of the primitive l^k-th roots of unity is 1,
    except -1 when l^k = 2.  So for k <= N the spec's own r_k is r_k',
    except r_1 = s r_1' with s = (-1)^(B - B') at l = 2 (s = 1 otherwise);
    the table stores those, and G~'^k(1) = g_0' r_1' ... r_k' = s g_0' h_k.
    g_0 itself is not a function of the jumps mod l^N.  If no jump moved,
    f~' = f~ and the chain is the true one, kept for every depth; else it
    serves levels up to N only, and a deeper read N' starts again from the
    jumps mod l^N'.  Each step, one norm in Z[zeta_l], has its G~(1)
    checked against s g_0' h_k, which took no step."""

    def __init__(self, spec: TowerSpec):
        self.spec = spec
        self.ell = spec.ell
        self.poly = None  # G~^depth of the true jumps, once a read starts it
        self.depth = 0
        self.g0 = None
        self.ratios = [None]
        self.products = [1]  # h_k
        self._ords = [0]

    def grow(self, n: int) -> None:
        """Read levels 0..n into the table, the polynomial at depth k folded
        to l^(n - k) coefficients before its step.  A fold does not raise the
        l1 norm and a step raises it at most to the power l, so each of those
        coefficients has at most l^k log2 ||f~||_1 bits.  A caller reading
        several levels grows to the deepest first, or a deeper read steps
        again the depths that a shallower one folded or started on moved
        jumps."""
        if n < len(self.products):
            return
        poly, depth, g0, sign = self.poly, self.depth, self.g0, 1
        if poly is None:
            mod = self.ell ** n
            bs = tuple(min(b % mod, -b % mod) for b in self.spec.magnitudes)
            poly, depth = _reduced_jump_poly(bs), 0
            g0 = sum(poly)
            if bs == self.spec.magnitudes:  # no jump moved: the true f~
                self.poly, self.g0 = poly, g0
            elif self.ell == 2 and (max(self.spec.magnitudes) - max(bs)) % 2:
                sign = -1
        while len(self.products) <= n:
            level = len(self.products)
            while depth < level - 1:
                width = self.ell ** (n - depth)
                if len(poly) > width:
                    poly = polys.fold(poly, width)
                step = polys.graeffe(poly, self.ell)
                # two routes to g_(depth+1): the step's G~(1), the product
                # s g_0 h_(depth+1); a step that fails is never kept
                if sum(step) != sign * g0 * self.products[depth + 1]:
                    raise ArithmeticError(
                        f"level {depth + 1}: the Graeffe step's G~(1) and "
                        "the product of the level norms disagree")
                if poly is self.poly:  # unfolded: the true G~^(depth+1)
                    self.poly, self.depth = step, depth + 1
                poly, depth = step, depth + 1
            r = polys.graeffe_norm(poly, self.ell)
            if r == 0:
                raise ArithmeticError(
                    f"level {level} norm vanished; tower invariants are "
                    "violated")
            if level == 1:
                r *= sign
            self.ratios.append(r)
            self.products.append(self.products[-1] * r)

    def norm(self, i: int) -> int:
        # conjugates of f over the primitive l^i-th roots: (w - 1)^2 gives
        # l^2 from the level, f~ gives r_i
        self.grow(i)
        return self.ell ** 2 * abs(self.ratios[i])

    def kappa(self, n: int) -> int:
        # l^n kappa_n = prod_(i<=n) N_i = l^(2n) |h_n|
        self.grow(n)
        return self.ell ** n * abs(self.products[n])

    @functools.cached_property
    def law(self) -> tuple[tuple, int, int, int]:
        """(Q, mu, lambda, n0_certified): Q and what its coefficients give."""
        q = q_poly(self.spec)
        return (tuple(q), *mu_lambda(q, self.ell),
                stabilization_level(q, self.ell))

    def ords(self, n: int) -> list[int]:
        """[ord_l(kappa_m) for m <= n], each -m + v_1 + ... + v_m."""
        while len(self._ords) <= n:
            i = len(self._ords)
            _, mu, lam, istar = self.law
            # from n0_certified on the j* term strictly dominates, and v_i is
            # its valuation exactly; below it, v_i is level_valuation's
            v = (mu * cyclotomic.euler_phi_prime_power(self.ell, i) + lam + 1
                 if i >= istar else level_valuation(self.spec, i))
            if v == INFINITY:
                raise ArithmeticError(f"level {i} valuation is infinite")
            self._ords.append(self._ords[-1] + v - 1)
        return self._ords[:n + 1]


# The level table: one per spec, whichever function asks first.
@functools.lru_cache(maxsize=256)
def _tower(spec: TowerSpec) -> _Tower:
    return _Tower(spec)


def level_norm(spec: TowerSpec, i: int) -> int:
    """N_i: the positive integer with l^n * kappa_n = prod_{i<=n} N_i.

    The norm of the jump polynomial over the primitive l^i-th roots of
    unity, |Res(Phi_{l^i}, f)|, read off the Graeffe chain as l^2 * |r_i|,
    r_i the norm of G~^(i-1)(zeta_l).
    """
    if i < 1:
        raise InputError("level must be >= 1")
    return _tower(spec).norm(i)


class BudgetExceededError(InputError):
    """A level (norm_bits_bound) or a Q(T) (q_bits_bound) whose a-priori
    size is over a caller's budget, refused."""


def norm_bits_bound(spec: TowerSpec, i: int) -> int:
    """Upper bound on level_norm(spec, i).bit_length(), known before any
    work: N_i is a product of phi(l^i) conjugates of sum_j (2 - z^b_j -
    z^-b_j), each at most 4t in absolute value."""
    if i < 1:
        raise InputError("level must be >= 1")
    return (cyclotomic.euler_phi_prime_power(spec.ell, i)
            * (4 * spec.t - 1).bit_length() + 1)


def kappa_exact(spec: TowerSpec, n: int) -> int:
    """Spanning-tree count at level n, via the L-function decomposition:
    l^n kappa_n = N_1 ... N_n, N_i = l^2 |r_i|, so kappa_n = l^n |r_1 ...
    r_n|, a product of the Graeffe chain's level norms with no division,
    and 1 at level 0, the bouquet."""
    if n < 0:
        raise InputError("level must be >= 0")
    return _tower(spec).kappa(n) if n else 1


def kappa_levels(spec: TowerSpec, n: int) -> list[int]:
    """[kappa_0, ..., kappa_n] off one Graeffe chain, grown to level n
    before any level is read, so that it starts on the jumps mod l^n and
    every step folds toward n (``_Tower.grow``); level 0 takes no chain."""
    if n < 0:
        raise InputError("level must be >= 0")
    if not n:
        return [1]
    tower = _tower(spec)
    tower.grow(n)
    return [tower.kappa(m) for m in range(n + 1)]


def ord_kappa(spec: TowerSpec, n: int) -> int:
    """ord_l(kappa_n) as -n + sum of level valuations (no big kappa built)."""
    if n < 0:
        raise InputError("level must be >= 0")
    return _tower(spec).ords(n)[n]


class IwasawaInvariants(Record):
    __slots__ = ("mu", "lam", "nu", "n0_certified", "n0_observed",
                 "cycle_case")

    def __init__(self, mu: int, lam: int, nu: int, n0_certified: int,
                 n0_observed: int, cycle_case: bool = False):
        super().__init__(mu, lam, nu, n0_certified, n0_observed, cycle_case)


def invariants(spec: TowerSpec) -> IwasawaInvariants:
    """Exact (mu, lambda, nu) with a certified stabilization level.

    n0_certified comes from the strict-domination scan; nu is pinned there
    and n0_observed is the earliest level from which the affine formula
    already fits all the way up to n0_certified.
    """
    tower = _tower(spec)
    _, mu, lam, istar = tower.law
    ords = tower.ords(istar)
    nu = ords[istar] - mu * spec.ell ** istar - lam * istar
    n0_obs = istar
    for n in range(istar - 1, 0, -1):
        if ords[n] != mu * spec.ell ** n + lam * n + nu:
            break
        n0_obs = n
    return IwasawaInvariants(mu=mu, lam=lam, nu=nu, n0_certified=istar,
                             n0_observed=n0_obs,
                             cycle_case=spec.is_cycle_tower)


# ---------------------------------------------------------------------------
# Bound verification
# ---------------------------------------------------------------------------

class BoundsReport(Record):
    __slots__ = ("spec", "n_max", "upper_bound_ok", "lower_bound_ok",
                 "divisibility_ok", "mu_bound_ok", "failures")

    def __init__(self, spec: TowerSpec, n_max: int, upper_bound_ok: bool,
                 lower_bound_ok: bool, divisibility_ok: bool,
                 mu_bound_ok: bool, failures: list | None = None):
        super().__init__(spec, n_max, upper_bound_ok, lower_bound_ok,
                         divisibility_ok, mu_bound_ok,
                         [] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return (self.upper_bound_ok and self.lower_bound_ok
                and self.divisibility_ok and self.mu_bound_ok)


def verify_bounds(spec: TowerSpec, n_max: int) -> BoundsReport:
    """Exact big-integer checks for n <= n_max:

    (a) l^n kappa_n <= (1/(4|chi|)) ((q-1)/(q+1)) (2(q+1))**(l^n), cleared
        of denominators (0 <= 0 for the cycle tower, where chi = 0);
    (b) ord_l(kappa_n) >= n;
    (c) kappa_n divides kappa_{n+1}, as kappa_{n+1} = kappa_n l |r_{n+1}|
        for the level norm r_{n+1} of the table, a product, not a remainder;
    and l**mu <= 2(q+1) for the computed mu.  The spec's one level table
    is grown to n_max + 1 before any level is read.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    ell, q, t = spec.ell, spec.q, spec.t
    inv = invariants(spec)  # Q's refusal comes before any chain work
    kappas = kappa_levels(spec, n_max + 1)
    ratios = _tower(spec).ratios
    upper_ok = lower_ok = divisibility_ok = True
    failures = []
    for n in range(n_max + 1):
        lhs = 4 * (t - 1) * (q + 1) * ell ** n * kappas[n]
        rhs = (q - 1) * (2 * (q + 1)) ** (ell ** n)
        if lhs > rhs:
            upper_ok = False
            failures.append(f"upper bound fails at n={n}")
        if ord_int(kappas[n], ell) < n:
            lower_ok = False
            failures.append(f"ord_l(kappa_{n}) < {n}")
        if kappas[n + 1] != kappas[n] * ell * abs(ratios[n + 1]):
            divisibility_ok = False
            failures.append(f"kappa_{n} does not divide kappa_{n + 1}")
    mu_ok = ell ** inv.mu <= 2 * (q + 1)
    if not mu_ok:
        failures.append("mu exceeds log_l(2(q+1))")
    return BoundsReport(spec, n_max, upper_ok, lower_ok, divisibility_ok,
                        mu_ok, failures)


# ---------------------------------------------------------------------------
# Full tower report
# ---------------------------------------------------------------------------

class LevelRecord(Record):
    __slots__ = ("n", "kappa", "ord_kappa", "v", "norm", "fit")


class TowerReport(Record):
    __slots__ = ("spec", "n_max", "q_coeffs", "invariants", "levels",
                 "consistency_ok", "fit_ok")


def build_tower_report(spec: TowerSpec, n_max: int) -> TowerReport:
    """Per-level kappa, valuations, invariants, and fit/consistency flags.

    consistency_ok compares ord_l of kappa_n, read off the Graeffe chain,
    with -n + sum v_i, whose v_i come from Q's coefficients and, below
    n0_certified, from ord_L of f(zeta) in Z[zeta]: two unrelated
    algorithms.
    """
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    inv = invariants(spec)
    tower = _tower(spec)
    tower.grow(n_max)
    ords = tower.ords(n_max)

    levels = []
    consistency_ok = fit_ok = True
    for n in range(n_max + 1):
        kappa = tower.kappa(n)
        o = ord_int(kappa, spec.ell)
        if o != ords[n]:
            consistency_ok = False
        fit = o == inv.mu * spec.ell ** n + inv.lam * n + inv.nu
        if n >= inv.n0_observed and not fit:
            fit_ok = False
        levels.append(LevelRecord(
            n=n, kappa=kappa, ord_kappa=o,
            v=ords[n] - ords[n - 1] + 1 if n > 0 else None,
            norm=tower.norm(n) if n > 0 else None,
            fit=fit))
    return TowerReport(spec=spec, n_max=n_max, q_coeffs=list(tower.law[0]),
                       invariants=inv, levels=levels,
                       consistency_ok=consistency_ok, fit_ok=fit_ok)


# ---------------------------------------------------------------------------
# Serialization: every integer as a decimal string
# ---------------------------------------------------------------------------

def report_to_json(report: TowerReport) -> dict:
    inv = report.invariants
    return {
        "prime": str(report.spec.ell),
        "generators": [str(a) for a in report.spec.generators],
        "t": str(report.spec.t),
        "q": str(report.spec.q),
        "zero_generator_indices": [str(j) for j in
                                   report.spec.zero_generator_indices],
        "cycle_case": inv.cycle_case,
        "n_max": str(report.n_max),
        "q_poly": polys.poly_to_json(report.q_coeffs),
        "invariants": {
            "mu": str(inv.mu), "lambda": str(inv.lam), "nu": str(inv.nu),
            "n0_certified": str(inv.n0_certified),
            "n0_observed": str(inv.n0_observed),
        },
        "levels": [
            {
                "n": str(rec.n),
                "kappa": polys.decimal(rec.kappa),
                "ord_kappa": str(rec.ord_kappa),
                "v": None if rec.v is None else str(rec.v),
                "N": None if rec.norm is None else polys.decimal(rec.norm),
                "fit": rec.fit,
            }
            for rec in report.levels
        ],
        "consistency_ok": report.consistency_ok,
        "fit_ok": report.fit_ok,
    }


def _json_ints(value) -> list[int]:
    # a string would be read digit by digit
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not a JSON array")
    return [json_int(v) for v in value]


def _json_flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not a JSON boolean")
    return value


@polys.unlimited_digits()
def report_from_json(data: dict) -> TowerReport:
    try:
        spec = TowerSpec(json_int(data["prime"]),
                         _json_ints(data["generators"]))
        raw = data["invariants"]
        inv = IwasawaInvariants(
            mu=json_int(raw["mu"]), lam=json_int(raw["lambda"]),
            nu=json_int(raw["nu"]),
            n0_certified=json_int(raw["n0_certified"]),
            n0_observed=json_int(raw["n0_observed"]),
            cycle_case=_json_flag(data["cycle_case"]))
        levels = [
            LevelRecord(
                n=json_int(rec["n"]), kappa=json_int(rec["kappa"]),
                ord_kappa=json_int(rec["ord_kappa"]),
                v=None if rec["v"] is None else json_int(rec["v"]),
                norm=None if rec["N"] is None else json_int(rec["N"]),
                fit=_json_flag(rec["fit"]))
            for rec in data["levels"]
        ]
        return TowerReport(
            spec=spec, n_max=json_int(data["n_max"]),
            q_coeffs=_json_ints(data["q_poly"]),
            invariants=inv, levels=levels,
            consistency_ok=_json_flag(data["consistency_ok"]),
            fit_ok=_json_flag(data["fit_ok"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed tower report JSON: {exc!r}") from exc


def report_to_csv(report: TowerReport) -> str:
    lines = ["n,ord_kappa,fit"]
    for rec in report.levels:
        lines.append(f"{rec.n},{rec.ord_kappa},{'true' if rec.fit else 'false'}")
    return "\n".join(lines) + "\n"
