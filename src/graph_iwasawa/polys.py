"""Dense univariate polynomials over arbitrary-precision integers.

Polynomials are plain lists of int coefficients in ascending degree,
always kept trimmed (no trailing zeros); the zero polynomial is the empty
list.  Every operation stays in the integers: a division that is not exact
raises instead of leaving Z.

``graeffe`` and ``graeffe_norm`` are the one norm kernel of the package:
the l-Graeffe step G(z) = prod over y^l = z of p(y), and the norm
G(1) / p(1) of p(zeta_l), each an l x l fraction-free determinant.  The
towers module runs a chain of them per tower.
"""

from __future__ import annotations

import contextlib
import operator
import sys

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


def scale(p: list[int], c: int) -> list[int]:
    if c == 0:
        return []
    return [c * a for a in p]


def shift(p: list[int], k: int) -> list[int]:
    """Multiply by y**k."""
    if not p:
        return []
    return [0] * k + list(p)


# Schoolbook below this length, Kronecker from it on; either alone is slower
# (kappa_exact to level n, one Xeon core, Python 3.11, median of 7): always
# Kronecker, (2, (3, 5)) n = 13 1.0 -> 4.1 ms and (3, (1, 4, 20)) n = 8
# 24 -> 76 ms; always schoolbook, (2, (1, 1000)) n = 2 11 -> 297 ms.
_KRONECKER_CUTOFF = 32


def mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    if min(len(p), len(q)) < _KRONECKER_CUTOFF:
        return _mul_school(p, q)
    return _mul_kronecker(p, q)


def _mul_school(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def _mul_kronecker(p, q):
    # Pack coefficients into one big integer (evaluation at 2**b), multiply,
    # unpack with an offset so no borrow propagation is needed.
    mp = max(abs(c) for c in p)
    mq = max(abs(c) for c in q)
    b = (mp.bit_length() + mq.bit_length()
         + min(len(p), len(q)).bit_length() + 2)
    b = ((b + 7) // 8) * 8
    prod = _pack(p, b) * _pack(q, b)
    nout = len(p) + len(q) - 1
    half = 1 << (b - 1)
    ones = ((1 << (b * nout)) - 1) // ((1 << b) - 1)
    prod += half * ones
    raw = prod.to_bytes(nout * (b // 8) + 16, "little")
    w = b // 8
    out = [int.from_bytes(raw[i * w:(i + 1) * w], "little") - half
           for i in range(nout)]
    return trim(out)


def _pack(p, b):
    pos = sum(c << (b * i) for i, c in enumerate(p) if c > 0)
    negv = sum((-c) << (b * i) for i, c in enumerate(p) if c < 0)
    return pos - negv


def divmod_exact(p: list[int], d: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of p by d where every division by lc(d) is exact.

    Suitable for monic d or when exact divisibility is known (e.g. computing
    cyclotomic polynomials from y**n - 1).
    """
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    dd = len(d) - 1
    lc = d[-1]
    q = [0] * max(len(p) - dd, 0)
    for k in range(len(r) - 1 - dd, -1, -1):
        c = r[k + dd]
        if c == 0:
            continue
        cq, rem = divmod(c, lc)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[k] = cq
        for i, dc in enumerate(d):
            r[k + i] -= cq * dc
    return trim(q), trim(r)


def _det(m: list, mul, sub, divexact):
    """(sign, d) with det m = sign * d, for a square matrix over an integral
    domain given by its mul, sub and exact division: fraction-free
    (Bareiss) elimination, swapping rows past a zero pivot."""
    n = len(m)
    sign, prev = 1, None
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:  # a zero column: det m is m[k][k], zero
                return 1, m[k][k]
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, pivot_row = m[k][k], m[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                x = mul(pivot, row[j])
                if lead:
                    x = sub(x, mul(lead, pivot_row[j]))
                row[j] = x if prev is None else divexact(x, prev)
        prev = pivot
    return sign, m[-1][-1]


def _divexact_int(x: int, d: int) -> int:
    q, r = divmod(x, d)
    if r:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def _divexact_poly(p: list[int], d: list[int]) -> list[int]:
    q, r = divmod_exact(p, d)
    if r:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def graeffe(p: list[int], ell: int) -> list[int]:
    """G(z) = prod over y^l = z of p(y), of the same degree as p: the
    determinant of multiplication by p on Z[z][y]/(y^l - z), by
    fraction-free elimination over Z[z].  For l = 2 it is
    F_0^2 - z*F_1^2 = p(y)*p(-y)."""
    # in the basis 1, y, ..., y^(l-1): entry (i, j) is F_(i-j) for i >= j
    # and z*F_(i-j+l) above the diagonal, F_r(z) = sum_m p_(m*l+r) z^m
    f = [trim(p[r::ell]) for r in range(ell)]
    m = [[f[i - j] if i >= j else shift(f[i - j + ell], 1)
          for j in range(ell)] for i in range(ell)]
    sign, det = _det(m, mul, sub, _divexact_poly)
    return scale(det, sign)


def graeffe_norm(p: list[int], ell: int) -> int:
    """prod over y^l = 1, y != 1 of p(y), the norm of p(zeta_l): G(1) / p(1)
    with no division.  G(1) is graeffe's matrix at z = 1, the circulant of
    the sums F_r(1); adding every column to the first makes that column
    p(1), so this is the circulant with its first column set to ones.  For
    l = 2 it is p(-1)."""
    s = [sum(p[r::ell]) for r in range(ell)]
    m = [[1] + [s[i - j] for j in range(1, ell)] for i in range(ell)]
    sign, det = _det(m, operator.mul, operator.sub, _divexact_int)
    return sign * det


def fold(p: list[int], width: int) -> list[int]:
    """p mod y^width - 1.  A Graeffe step takes p mod y^(l*width) - 1 to
    G mod z^width - 1: every y with y^l = z is an (l*width)-th root of
    unity when z is a width-th one."""
    return trim([sum(p[r::width]) for r in range(width)])


def cyclotomic_polynomial(n: int) -> list[int]:
    """The n-th cyclotomic polynomial from Phi_1 = y - 1, prime by prime:
    Phi_mq(y) = Phi_m(y**q), divided exactly by Phi_m(y) if q is prime to m."""
    if n < 1:
        raise ValueError("n must be positive")
    p, m = [-1, 1], 1
    for q in range(2, n + 1):
        while n // m % q == 0:  # a composite q never divides: its primes did
            up = [0] * (q * (len(p) - 1) + 1)
            up[::q] = p
            if m % q:
                up, r = divmod_exact(up, p)
                if r:
                    raise ArithmeticError(f"Phi_{m * q} left a remainder")
            p, m = up, m * q
    return p


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
            term = str(mag)
        elif i == 1:
            term = f"{var}" if mag == 1 else f"{mag}*{var}"
        else:
            term = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


@contextlib.contextmanager
def unlimited_digits():
    """Convert integers of any size to and from decimal inside the block.

    CPython refuses int/str conversions past 4300 digits, to bound the cost
    of parsing untrusted text.  Exact results outgrow that at modest depth,
    so the limit is lifted around rendering output and around re-reading
    this package's own reports, never around parsing input files.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def poly_to_json(p: list[int]) -> list[str]:
    return [str(c) for c in p]
