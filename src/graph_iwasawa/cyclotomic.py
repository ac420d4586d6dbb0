"""Elements of Z[zeta] for prime-power roots of unity, and their valuation
at the prime above l.

Elements of Z[y]/Phi(y), with Phi the (l^i)-th cyclotomic polynomial, are
stored as canonical coefficient vectors of length phi(l^i):
``cyc_from_poly`` reduces any integer polynomial to one.  The module keeps
no ring arithmetic: the towers need only ``cyc_from_poly``, applied to the
jump polynomial, and the valuation ``ord_L``.  ``epsilon`` builds
eps(a) = (1 - zeta^a)(1 - zeta^(-a)) canonically; the towers never call it.

``ord_L`` takes no norm: the prime above l is pi = 1 - zeta, unique and
totally ramified, and the valuation there is read off by dividing out l
and then pi, with pi | y exactly when l | y(1).  Level norms are the
towers module's, off its l-Graeffe chain.
"""

from __future__ import annotations

import math

from . import polys
from ._records import InputError, Record

INFINITY = math.inf

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the least strong pseudoprime to all of _MR_BASES (Sorenson and
# Webster, Math. Comp. 86, 2017): below it the test is a proof.
_MR_PROVEN_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin on bases 2..37, deterministic below psi_12 = 3.1 * 10^23;
    InputError from there on, where it would only be probable."""
    if n >= _MR_PROVEN_BELOW:
        raise InputError(f"{n} is past the proven range of the primality "
                         f"test: Miller-Rabin on bases 2..37 decides only "
                         f"n < {_MR_PROVEN_BELOW}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def euler_phi_prime_power(ell: int, i: int) -> int:
    return ell ** i - ell ** (i - 1)


class CycElem(Record):
    """Canonical residue in Z[y]/Phi_{l^i}(y); coeffs has length phi(l^i)."""

    __slots__ = ("ell", "level", "coeffs")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return (f"CycElem(l={self.ell}, i={self.level}, "
                f"{polys.format_poly(polys.trim(list(self.coeffs)), 'z') or '0'})")


def _reduce(ell: int, i: int, coeffs: list[int]) -> tuple:
    m = ell ** i
    step = ell ** (i - 1)
    deg = (ell - 1) * step
    # Phi divides y**m - 1: fold a longer f to m coefficients, as the
    # Graeffe chain does, pad it to m past the fold's trim, then reduce by
    # y**deg = -(1 + y**step + ... + y**((l-2)*step))
    acc = polys.fold(coeffs, m) if len(coeffs) > m else list(coeffs)
    acc += [0] * (m - len(acc))
    for e in range(m - 1, deg - 1, -1):
        c = acc[e]
        if c:
            acc[e] = 0
            base = e - deg
            for j in range(ell - 1):
                acc[base + j * step] -= c
    return tuple(acc[:deg])


def cyc_from_poly(ell: int, i: int, coeffs) -> CycElem:
    if not is_prime(ell):
        raise InputError(f"{ell} is not prime")
    if i < 1:
        raise InputError("level must be >= 1")
    return CycElem(ell, i, _reduce(ell, i, list(coeffs)))


def epsilon(ell: int, i: int, a: int) -> CycElem:
    """eps(a) = (1 - zeta^a)(1 - zeta^-a) = 2 - y^a - y^-a, canonically."""
    m = ell ** i
    r = a % m
    p = [0] * m
    p[0] = 2
    p[r] -= 1
    p[(m - r) % m] -= 1
    return cyc_from_poly(ell, i, p)


# ---------------------------------------------------------------------------
# Valuations by division by 1 - zeta
# ---------------------------------------------------------------------------

def ord_int(n: int, ell: int):
    """l-adic valuation of an integer; infinity for 0.  Refuses l < 2."""
    if ell < 2:
        raise InputError(f"ord_int needs l >= 2, not {ell}")
    if n == 0:
        return INFINITY
    n = abs(n)
    if ell == 2:
        return (n & -n).bit_length() - 1
    # v < 2^J for the first l^(2^J) not dividing n: read v's bits top down
    powers = [ell]
    while n % powers[-1] == 0:
        powers.append(powers[-1] * powers[-1])
    v = 0
    for k in range(len(powers) - 2, -1, -1):
        q, r = divmod(n, powers[k])
        if not r:
            n, v = q, v + (1 << k)
    return v


def ord_L(x: CycElem):
    """Valuation at the unique prime pi = 1 - zeta above l; INFINITY iff
    x = 0.

    (l) = (pi)^phi, and x lies in l Z[zeta] exactly when l divides every
    power-basis coefficient, so x = l^c * y with y outside l Z[zeta] and
    v(x) = phi * c + v(y), where v(y) < phi.  pi divides y exactly when l
    divides y(1), the sum of y's coefficients; then y - (y(1)/l) * Phi is
    the same element and vanishes at 1, and its quotient by y - 1, negated,
    is y / pi.  No norm is taken.
    """
    if x.is_zero():
        return INFINITY
    ell = x.ell
    phi = euler_phi_prime_power(ell, x.level)
    c = ord_int(math.gcd(*x.coeffs), ell)
    power = ell ** c
    y = [a // power for a in x.coeffs]
    step = ell ** (x.level - 1)
    r = 0
    while True:
        s, rem = divmod(sum(y), ell)
        if rem:
            return phi * c + r
        if r == phi - 1:
            raise ArithmeticError("content-free element divisible by l")
        # q = y - s * Phi, Phi = sum of y^(j*step) for j < l; the top term
        # -s * y^phi is not needed: coefficient k of -q / (y - 1) is the
        # sum of q's coefficients up to k
        for j in range(ell - 1):
            y[j * step] -= s
        acc = 0
        for k in range(phi):
            acc += y[k]
            y[k] = acc
        r += 1


__all__ = [
    "CycElem", "INFINITY", "epsilon", "cyc_from_poly",
    "ord_int", "ord_L", "euler_phi_prime_power", "is_prime",
]
