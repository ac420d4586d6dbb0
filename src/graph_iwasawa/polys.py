"""Dense univariate polynomials over arbitrary-precision integers.

Polynomials are plain lists of int coefficients in ascending degree,
always kept trimmed (no trailing zeros); the zero polynomial is the empty
list.  Every operation stays in the integers, and no polynomial is divided:
the one quotient, by 1 - y^d in ``cyclotomic_polynomial``, is a running sum.

``norm``, N(alpha) in Z[zeta_l] by O(log l) products of Galois conjugates
and no division, is the one norm kernel of the package: the l-Graeffe step
G(z) = prod over y^l = z of p(y) (``graeffe``) and the norm G(1) / p(1) of
p(zeta_l) (``graeffe_norm``) are each one norm.  For l >= 5 it walks the
real subfield on half coordinates, and the l = 2 step is two squarings
(``square``).  The towers module runs a chain of them per tower.
"""

from __future__ import annotations

import sys

from ._records import InputError

def trim(p: list[int]) -> list[int]:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


def add(p: list[int], q: list[int]) -> list[int]:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p: list[int]) -> list[int]:
    return [-c for c in p]


def sub(p: list[int], q: list[int]) -> list[int]:
    return add(p, neg(q))


def shift(p: list[int], k: int) -> list[int]:
    """Multiply by y**k."""
    if not p:
        return []
    return [0] * k + list(p)


# Schoolbook below this length, Kronecker from it on (mul and square; graeffe
# at l >= 3 packs itself).  mul packs 6 of the 68 orbit-factor products of
# cover-oracle's 20 voltage graphs (seeds 0 and 1), all 33 x 33, at 37-49 us
# against 38-90 us schoolbook (one Xeon core, timeit, min of 5 x 200).
# square packs only the l = 2 step of an f~ of 64 or more coefficients, on
# no workload: kappa -l 2 -a 1,2000 -n 12 takes 14-22 ms, 460-630 ms by the
# loop (BENCH_real_subfield.json l2_fork: 17.0-18.7 ms).
_KRONECKER_CUTOFF = 32


def mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    if min(len(p), len(q)) < _KRONECKER_CUTOFF:
        return _mul_school(p, q)
    return _mul_kronecker(p, q)


def square(p: list[int]) -> list[int]:
    """mul(p, p) by mul's rule, forming each coefficient product once:
    schoolbook takes each a_i^2 and each 2 a_i a_j, i < j, and Kronecker
    squares its packed integer as x * x, which CPython squares as such."""
    if len(p) >= _KRONECKER_CUTOFF:
        return _mul_kronecker(p, p)
    out = [0] * (2 * len(p) - 1)
    for i, a in enumerate(p):
        if a:
            out[2 * i] += a * a
            a += a  # 2 a_i, times each later a_j
            for k, b in enumerate(p[i + 1:], 2 * i + 1):
                out[k] += a * b
    return trim(out)


def _mul_school(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def _mul_kronecker(p, q):
    # evaluate at X = 2**(8w), multiply, read the signed digits back; p is q
    # packs once and squares
    w = (max(map(abs, p)).bit_length() + max(map(abs, q)).bit_length()
         + min(len(p), len(q)).bit_length() + 9) // 8
    x = _evaluate(p, w)
    y = x if q is p else _evaluate(q, w)
    return _digits(x * y, w, len(p) + len(q) - 1)


# p(X) and its inverse, X = 2**(8w), for digits |c| < X / 2: each digit
# offset by X / 2 is a w-byte unsigned field, so either direction is one
# linear pass over bytes, with no division of big integers.
def _evaluate(p: list[int], w: int) -> int:
    half, halves = _halves(w, len(p))
    raw = b"".join((c + half).to_bytes(w, "little") for c in p)
    return int.from_bytes(raw, "little") - halves


def _digits(x: int, w: int, n: int) -> list[int]:
    """The n signed base-2**(8w) digits of x, each of size below 2**(8w - 1)."""
    half, halves = _halves(w, n)
    raw = (x + halves).to_bytes(n * w, "little")
    return trim([int.from_bytes(raw[i:i + w], "little") - half
                 for i in range(0, n * w, w)])


def _halves(w: int, n: int) -> tuple[int, int]:
    # X / 2 and the sum over i < n of X^i X / 2
    field = bytes(w - 1) + b"\x80"
    return 1 << (8 * w - 1), int.from_bytes(field * n, "little")


def graeffe(p: list[int], ell: int) -> list[int]:
    """G(z) = prod over y^l = z of p(y), of the same degree as p.

    With X = 2^(8w) and F_r(z) = sum_m p_(m*l+r) z^m, alpha = sum_r
    X^r F_r(X^l) zeta^r in Z[zeta_l] has sigma_j(alpha) = p(zeta^j X), so
    G(X^l) = p(X) norm(alpha), whose base-X^l signed digits are G's.  They
    fit: G(y^l) = prod_j p(zeta^j y), and the l1 norm of a product is at
    most the product of the l1 norms, each ||p||_1 as |zeta^j| = 1, so
    ||G||_inf <= ||p||_1^l < X^l / 2 once 8w > log2 ||p||_1 + 1.  For
    l >= 5, norm(alpha) = prod over i < h of sigma_(g^i)(alpha
    sigma_-1(alpha)), g^h = -1: sigma_-1 fixes each factor, sigma_g the
    product, whose image is h paired products (``norm`` proves it).  For
    l = 2 the norm from Q(zeta_2) = Q is trivial: G = F_0^2 - z*F_1^2, two
    squarings that form each a_i a_j once (``square``)."""
    if ell == 2:
        return sub(square(p[0::2]), shift(square(p[1::2]), 1))
    w = sum(map(abs, p)).bit_length() // 8 + 1
    alpha = [_evaluate(p[r::ell], w * ell) << (8 * w * r) for r in range(ell)]
    return _digits(sum(alpha) * norm(alpha, ell), w * ell, len(p))


def graeffe_norm(p: list[int], ell: int) -> int:
    """prod over y^l = 1, y != 1 of p(y), the norm of p(zeta_l) = sum_r s_r
    zeta^r, s_r = sum_m p_(m*l+r): graeffe's G(1) / p(1) with no division,
    |G(1)| <= ||p||_1^l by the same argument.  For l = 2 it is p(-1)."""
    return norm([sum(p[r::ell]) for r in range(ell)], ell)


def norm(a: list[int], ell: int) -> int:
    """N(alpha) = prod over j = 1..l-1 of sigma_j(alpha), sigma_j: zeta ->
    zeta^j, for alpha = sum_r a_r zeta^r in Z[zeta_l], l prime, kept in
    Z[x]/(x^l - 1), which maps onto Z[zeta_l].

    For l >= 5 it goes through the real subfield.  beta = alpha
    sigma_-1(alpha) has beta_k = sum_r a_r a_(r-k) = beta_-k: sigma_-1
    fixes it, and coordinates 0..h, h = (l - 1) / 2, hold it.  A generator
    g of (Z/l)^x has g^h = -1, so the units are g^i and -g^i, i < h, and
    N(alpha) = P_h, P_k = prod over i < k of sigma_(g^i)(beta), taken as
    P_2j = P_j sigma_(g^j)(P_j) and P_2j+1 = P_j+1 sigma_(g^(j+1))(P_j),
    P_j+1 = beta sigma_g(P_j): each a product of sigma_-1-fixed elements,
    forming only coordinates 0..h (``_mul_half``).  sigma_g fixes P_h, as
    it takes the factor sigma_(g^(h-1))(beta) to sigma_-1(beta) = beta, so
    P_h's coordinates past c_0 are one c and its image in Z[zeta] is c_0 -
    c_1 = sum over r mod l of u_r (v_r - v_(r-1)), P_h = u v.  That is half
    of sum over r of (u_r - u_(r-1))(v_r - v_(r-1)), whose terms pair up
    (r = j + 1 with r = -j for j < h, and r = h + 1 gives 0): N(alpha) =
    sum over j < h of (u_j - u_(j+1))(v_j - v_(j+1)), h products.  For
    l = 3 the real subfield is Q: N(alpha) = alpha sigma_-1(alpha), read
    as c_0 - c_1 of its l coordinates; for l = 2, N(alpha) = a_0 - a_1."""
    if ell < 5:  # one product: alpha sigma_-1(alpha), or alpha times 1
        u, v = (a, a[:1] + a[:0:-1]) if ell == 3 else (a, [1, 0])
        return sum(c * (v[-r] - v[1 - r]) for r, c in enumerate(u))
    g, h = _generator(ell), ell // 2
    out = [0] * ell  # a_r a_(r+d) once, into x^d + x^-d
    for r, c in enumerate(a):
        if c:
            for d, b in enumerate(a[r:]):
                out[d] += c * b
    beta = [out[k] + out[-k] for k in range(h + 1)]
    beta[0] = out[0]

    def conjugates(k):  # P_k, k >= 1
        return _mul_half(*factors(k), ell) if k > 1 else beta

    def factors(k):  # two elements whose product is P_k, k >= 2
        j = k // 2
        half = conjugates(j)
        if k % 2:
            return (_mul_half(beta, _sigma(half, g, ell), ell),
                    _sigma(half, pow(g, j + 1, ell), ell))
        return half, _sigma(half, pow(g, j, ell), ell)

    u, v = factors(h)
    return sum((u[j] - u[j + 1]) * (v[j] - v[j + 1]) for j in range(h))


def _mul_half(u: list[int], v: list[int], ell: int) -> list[int]:
    """Coordinates 0..h of u v, u and v fixed by sigma_-1 and held by their
    coordinates 0..h: (x^r + x^-r)(x^s + x^-s) = x^(r+s) + x^-(r+s) +
    x^(r-s) + x^(s-r), so each u_r v_s, r, s >= 1, is formed once."""
    h, u0, v0 = len(u) - 1, u[0], v[0]
    out = [0] * ell
    for r, c in enumerate(u[1:], 1):
        if c:
            for s, b in enumerate(v[1:], 1):
                c_b = c * b
                out[r + s] += c_b
                out[r - s] += c_b
    w = [out[k] + out[-k] + u0 * v[k] + v0 * u[k] for k in range(h + 1)]
    w[0] -= u0 * v0
    return w


def _generator(ell: int) -> int:
    """The least g whose powers mod l run through every unit, l prime."""
    return next(g for g in range(1, ell)
                if len({pow(g, i, ell) for i in range(1, ell)}) == ell - 1)


def _sigma(a: list[int], j: int, ell: int) -> list[int]:
    # x -> x^j on coordinates 0..h of an element fixed by sigma_-1:
    # coordinate j*r is coordinate r, and coordinate -k is k's
    inverse, full = pow(j, -1, ell), a + a[:0:-1]
    return [full[s * inverse % ell] for s in range(len(a))]


def fold(p: list[int], width: int) -> list[int]:
    """p mod y^width - 1.  A Graeffe step takes p mod y^(l*width) - 1 to
    G mod z^width - 1: every y with y^l = z is an (l*width)-th root of
    unity when z is a width-th one."""
    return trim([sum(p[r::width]) for r in range(width)])


def cyclotomic_polynomial(n: int) -> list[int]:
    """The n-th cyclotomic polynomial: Phi_1 = y - 1, and Phi_n(y) =
    Phi_r(y^(n/r)) for r the product of n's primes.  For r > 1, Phi_r is
    the product over d | r of (1 - y^d)^mu(r/d), the Moebius inversion of
    y^r - 1 = prod over d | r of Phi_d(y) (the signs cancel, as the mu(r/d)
    sum to 0), taken as a power series cut at degree phi(r): multiplying
    by 1 - y^d is one pass down the coefficients, dividing by it one
    running-sum pass up, d places apart.  The cut is exact because the
    product is a polynomial of degree phi(r)."""
    if n < 1:
        raise InputError("n must be positive")
    if n == 1:
        return [-1, 1]
    divisors, top, m, q = [(1, 1)], 1, n, 2  # (d, mu(d)) for d | r; phi(r)
    while m > 1:  # trial division
        if m % q == 0:
            divisors += [(d * q, -mu) for d, mu in divisors]
            top *= q - 1
            while m % q == 0:
                m //= q
        q += 1
    r, sign = divisors[-1]
    p = [1] + [0] * top
    for d, mu in divisors:
        if mu == sign:  # mu(r/d) = mu(r) mu(d) = 1: times 1 - y^d
            for i in range(top, d - 1, -1):
                p[i] -= p[i - d]
        else:  # over 1 - y^d
            for i in range(d, top + 1):
                p[i] += p[i - d]
    out = [0] * (top * (n // r) + 1)
    out[::n // r] = p
    return out


def format_poly(p: list[int], var: str = "u") -> str:
    """Human-readable ascending form, e.g. '1 - 4*u + 3*u^2'."""
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = decimal(mag)
        elif i == 1:
            term = f"{var}" if mag == 1 else f"{decimal(mag)}*{var}"
        else:
            term = f"{var}^{i}" if mag == 1 else f"{decimal(mag)}*{var}^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def decimal(n: int) -> str:
    """n in decimal, however many digits it has: the one renderer of every
    kappa, N_i and polynomial coefficient the package prints or writes.

    CPython refuses int/str conversions past 4300 digits, to bound the cost
    of parsing untrusted text.  Exact results outgrow that at modest depth,
    so the limit is lifted around this one conversion and restored after
    it; parsing input files keeps it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        return str(n)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


def poly_to_json(p: list[int]) -> list[str]:
    return [decimal(c) for c in p]
