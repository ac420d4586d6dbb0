"""Exact arithmetic in Z[zeta] for prime-power roots of unity.

Elements of Z[y]/Phi(y), with Phi the (l^i)-th cyclotomic polynomial, are
stored as canonical coefficient vectors of length phi(l^i).  The field
norm down to Q is a resultant with Phi; because the prime above l is
unique and totally ramified, the valuation at that prime of any element x
equals ord_l(|norm(x)|), which is how ``ord_L`` computes it.

The building blocks eps(a) = (1 - zeta^a)(1 - zeta^(-a)) drive the tower
analysis in the towers module; ``epsilon`` constructs them canonically.
The resultant here, a subresultant PRS, serves ``norm`` and ``ord_L``
only: the towers module reads its level norms off a Graeffe chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg, polys

INFINITY = math.inf


def is_prime(n: int) -> bool:
    return linalg._is_prime(n)


def euler_phi_prime_power(ell: int, i: int) -> int:
    return ell ** i - ell ** (i - 1)


def phi_poly(ell: int, i: int) -> list[int]:
    """Cyclotomic polynomial of y**(l^i): sum of y**(j*l^(i-1)), j < l."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if i < 1:
        raise ValueError("level must be >= 1")
    step = ell ** (i - 1)
    deg = (ell - 1) * step
    p = [0] * (deg + 1)
    for j in range(ell):
        p[j * step] = 1
    return p


@dataclass(frozen=True)
class CycElem:
    """Canonical residue in Z[y]/Phi_{l^i}(y); coeffs has length phi(l^i)."""
    ell: int
    level: int
    coeffs: tuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return (f"CycElem(l={self.ell}, i={self.level}, "
                f"{polys.format_poly(polys.trim(list(self.coeffs)), 'z') or '0'})")


def _reduce(ell: int, i: int, coeffs: list[int]) -> tuple:
    m = ell ** i
    step = ell ** (i - 1)
    deg = (ell - 1) * step
    acc = [0] * m
    for e, c in enumerate(coeffs):
        if c:
            acc[e % m] += c
    # y**deg = -(1 + y**step + ... + y**((l-2)*step))
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
        raise ValueError(f"{ell} is not prime")
    if i < 1:
        raise ValueError("level must be >= 1")
    return CycElem(ell, i, _reduce(ell, i, list(coeffs)))


def cyc_zero(ell: int, i: int) -> CycElem:
    return cyc_from_poly(ell, i, [])


def cyc_one(ell: int, i: int) -> CycElem:
    return cyc_from_poly(ell, i, [1])


def cyc_int(ell: int, i: int, n: int) -> CycElem:
    return cyc_from_poly(ell, i, [n])


def zeta_gen(ell: int, i: int) -> CycElem:
    """The residue of y, i.e. the chosen primitive l^i-th root of unity."""
    return cyc_from_poly(ell, i, [0, 1])


def epsilon(ell: int, i: int, a: int) -> CycElem:
    """eps(a) = (1 - zeta^a)(1 - zeta^-a) = 2 - y^a - y^-a, canonically."""
    m = ell ** i
    r = a % m
    p = [0] * m
    p[0] = 2
    p[r] -= 1
    p[(m - r) % m] -= 1
    return cyc_from_poly(ell, i, p)


def _check_match(x: CycElem, y: CycElem) -> None:
    if x.ell != y.ell or x.level != y.level:
        raise ValueError("elements live in different cyclotomic rings")


def cyc_add(x: CycElem, y: CycElem) -> CycElem:
    _check_match(x, y)
    return CycElem(x.ell, x.level,
                   tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))


def cyc_neg(x: CycElem) -> CycElem:
    return CycElem(x.ell, x.level, tuple(-a for a in x.coeffs))


def cyc_sub(x: CycElem, y: CycElem) -> CycElem:
    return cyc_add(x, cyc_neg(y))


def cyc_scale(x: CycElem, k: int) -> CycElem:
    return CycElem(x.ell, x.level, tuple(k * a for a in x.coeffs))


def cyc_mul(x: CycElem, y: CycElem) -> CycElem:
    _check_match(x, y)
    prod = polys.mul(polys.trim(list(x.coeffs)), polys.trim(list(y.coeffs)))
    return CycElem(x.ell, x.level, _reduce(x.ell, x.level, prod))


def cyc_pow(x: CycElem, e: int) -> CycElem:
    if e < 0:
        raise ValueError("negative exponent")
    out = cyc_one(x.ell, x.level)
    base = x
    while e:
        if e & 1:
            out = cyc_mul(out, base)
        e >>= 1
        if e:
            base = cyc_mul(base, base)
    return out


# ---------------------------------------------------------------------------
# Norms via resultants with the sparse modulus
# ---------------------------------------------------------------------------

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
        p = polys.prem(p, f)
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
        phi = phi_poly(ell, i)
        return _scaled_reduce(phi, 0, f)
    # y**step mod f by square-and-multiply, in scaled form
    base, be = _scaled_reduce([0, 1], 0, f)
    out, oe = [1], 0
    e = step
    while e:
        if e & 1:
            out, oe = _scaled_reduce(polys.mul(out, base), oe + be, f)
        e >>= 1
        if e:
            base, be = _scaled_reduce(polys.mul(base, base), 2 * be, f)
    # Phi mod f = sum of (y**step)**j for j < l, by Horner
    acc, ae = [1], 0
    for _ in range(ell - 1):
        acc, ae = _scaled_reduce(polys.mul(acc, out), ae + oe, f)
        lead = f[-1]
        acc = polys.add(acc, [lead ** ae])
    return _strip(acc, ae, f[-1])


def resultant_with_phi(ell: int, i: int, f: list[int]) -> int:
    """Res_y(Phi_{l^i}(y), f(y)) for any integer polynomial f, exact.

    Equals the product of f over all primitive l^i-th roots of unity, i.e.
    the norm of f(zeta) from Q(zeta) down to Q.
    """
    if not is_prime(ell) or i < 1:
        raise ValueError("need a prime and level >= 1")
    f = polys.trim(list(f))
    deg_phi = euler_phi_prime_power(ell, i)
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
    res_fr = polys.resultant(f, r)
    # Res(Phi, f) = sign * lc(f)**(deg_phi - deg r) * Res(f, Phi mod f)
    # and (Phi mod f) = r / lead**e contributes lead**(-e*d).
    exp = deg_phi - (len(r) - 1) - e * d
    if exp >= 0:
        total = sign * lead ** exp * res_fr
    else:
        q, rem = divmod(sign * res_fr, lead ** (-exp))
        if rem:
            raise ArithmeticError("resultant scaling was not exact")
        total = q
    return total


def norm(x: CycElem) -> int:
    """Field norm to Q: the product of all Galois conjugates; norm(0) = 0.
    No size limit: callers bound the result before they ask for it."""
    f = polys.trim(list(x.coeffs))
    if not f:
        return 0
    return resultant_with_phi(x.ell, x.level, f)


def ord_int(n: int, ell: int):
    """l-adic valuation of an integer; infinity for 0."""
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
    """Valuation at the unique (totally ramified) prime above l.

    Computed as ord_l(|norm(x)|): every conjugate has the same valuation,
    and the ramification index equals the field degree, so the two l-adic
    normalizations cancel exactly.  Returns INFINITY iff x = 0.  Like
    ``norm``, it has no size limit.
    """
    if x.is_zero():
        return INFINITY
    n = norm(x)
    if n == 0:
        raise ArithmeticError("nonzero element with zero norm")
    return ord_int(n, x.ell)


def cyc_to_json(x: CycElem) -> dict:
    return {"l": str(x.ell), "i": str(x.level),
            "coeffs": [str(c) for c in x.coeffs]}


def cyc_from_json(data: dict) -> CycElem:
    return cyc_from_poly(int(data["l"]), int(data["i"]),
                         [int(c) for c in data["coeffs"]])


__all__ = [
    "CycElem", "INFINITY", "phi_poly", "epsilon",
    "cyc_from_poly", "cyc_zero", "cyc_one", "cyc_int", "zeta_gen",
    "cyc_add", "cyc_sub", "cyc_neg", "cyc_scale", "cyc_mul", "cyc_pow",
    "norm", "ord_int", "ord_L", "resultant_with_phi",
    "cyc_to_json", "cyc_from_json", "euler_phi_prime_power", "is_prime",
]
