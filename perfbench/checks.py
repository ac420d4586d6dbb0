"""Independent expectations for every job's output.

Nothing here calls graph_iwasawa.  The exact laws come from the acceptance
corpus and the paper; (mu, lambda) and the certified stabilization level
are recomputed from Q(T) = sum_j P_{|a_j|}(T) with the paper's recursion,
so a tower's csv table can be checked by its increments
ord_n - ord_{n-1} = mu (l^n - l^(n-1)) + lambda, which hold past that
level whatever nu is.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re

INT_STR_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion"


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def ord_l(n: int, ell: int) -> int:
    n = abs(n)
    if n == 0:
        raise CheckFailed("valuation of zero")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


# ---------------------------------------------------------------------------
# Laws of the tower, from the paper and the acceptance corpus
# ---------------------------------------------------------------------------

def _p_poly(a: int) -> list[int]:
    # P_1 = T, P_a = T (a^2 - sum_{k<a} (a-k) P_k), ascending coefficients
    table = [[0], [0, 1]]
    for k in range(2, a + 1):
        acc = [k * k] + [0] * k
        for j in range(1, k):
            for i, c in enumerate(table[j]):
                acc[i] -= (k - j) * c
        table.append([0] + acc)
    return table[a]


def tower_law(ell: int, gens) -> tuple[int, int, int]:
    """(mu, lambda, certified stabilization level) of the tower."""
    return _law(ell, tuple(sorted(abs(a) for a in gens)))


@functools.lru_cache(maxsize=None)
def _law(ell: int, mags: tuple) -> tuple[int, int, int]:
    q = [0] * (max(mags) + 2)
    for b in mags:
        for i, c in enumerate(_p_poly(b)):
            q[i] += c
    terms = [(j, ord_l(c, ell)) for j, c in enumerate(q) if j and c]
    mu = min(v for _, v in terms)
    jstar = min(j for j, v in terms if v == mu)
    level = 1
    while not all((ell ** level - ell ** (level - 1)) * (v - mu)
                  + 2 * (j - jstar) > 0 for j, v in terms if j != jstar):
        level += 1
    return mu, 2 * jstar - 1, level


def known_ord(ell: int, gens, n: int) -> int | None:
    """ord_l(kappa_n) where the corpus states it in closed form."""
    key = (ell, tuple(sorted(abs(a) for a in gens)))
    if key == (2, (1, 1)):
        return 2 ** n + n - 1          # kappa_n = 2^(2^n + n - 1)
    if key == (2, (3, 5)) and n >= 4:
        return 9 * n - 11
    if key == (3, (1, 4, 20)) and n >= 1:
        return 5 * n - 2
    return None


def check_kappa(ell: int, gens, n: int, kappa: int) -> None:
    expect(kappa > 0, f"kappa_{n} is not positive")
    if (ell, sorted(abs(a) for a in gens)) == (2, [1, 1]):
        expect(kappa == 2 ** (2 ** n + n - 1), f"kappa_{n} != 2^(2^n+n-1)")
    ord_n = ord_l(kappa, ell)
    expect(ord_n >= n, f"ord(kappa_{n}) = {ord_n} < {n}")
    want = known_ord(ell, gens, n)
    expect(want is None or ord_n == want,
           f"ord(kappa_{n}) = {ord_n}, expected {want}")


def check_ords(ell: int, gens, ords: list[int]) -> None:
    """ords[n] = ord_l(kappa_n) for n = 0..len-1."""
    mu, lam, level = tower_law(ell, gens)
    for n, o in enumerate(ords):
        expect(o >= n, f"ord(kappa_{n}) = {o} < {n}")
        want = known_ord(ell, gens, n)
        expect(want is None or o == want, f"ord(kappa_{n}) = {o}, "
                                          f"expected {want}")
        if n - 1 >= level:
            step = mu * (ell ** n - ell ** (n - 1)) + lam
            expect(o - ords[n - 1] == step,
                   f"ord step at n={n} is {o - ords[n - 1]}, expected {step}")


def check_invariants(ell: int, gens, ords: list[int], mu: int, lam: int,
                     nu: int, n0_certified: int, n0_observed: int) -> None:
    want = tower_law(ell, gens)
    expect((mu, lam, n0_certified) == want,
           f"(mu, lambda, n0) = {(mu, lam, n0_certified)}, expected {want}")
    for n in range(n0_observed, len(ords)):
        expect(ords[n] == mu * ell ** n + lam * n + nu,
               f"affine law fails at n={n}")


def check_kappa_chain(kappas: list[int]) -> None:
    for n in range(len(kappas) - 1):
        expect(kappas[n + 1] % kappas[n] == 0,
               f"kappa_{n} does not divide kappa_{n + 1}")


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def _factored(text: str) -> int:
    value = 1
    for part in text.split(" * "):
        base, _, exp = part.partition("^")
        value *= int(base) ** int(exp or 1)
    return value


def _tower_csv(job, out: str) -> None:
    lines = out.splitlines()
    expect(lines[0] == "n,ord_kappa,fit", "csv header")
    rows = [line.split(",") for line in lines[1:]]
    expect([int(r[0]) for r in rows] == list(range(job["n"] + 1)),
           "csv levels")
    check_ords(job["ell"], job["generators"], [int(r[1]) for r in rows])


def _tower_json(job, out: str) -> None:
    ell, gens = job["ell"], job["generators"]
    data = json.loads(out)
    expect(data["consistency_ok"] and data["fit_ok"], "report flags")
    levels = data["levels"]
    kappas = [int(rec["kappa"]) for rec in levels]
    ords = [int(rec["ord_kappa"]) for rec in levels]
    expect(len(levels) == job["n"] + 1, "json levels")
    prod = 1
    for n, rec in enumerate(levels):
        expect(ord_l(kappas[n], ell) == ords[n], f"ord_kappa at n={n}")
        if n:
            prod *= int(rec["N"])
            expect(prod == ell ** n * kappas[n], f"prod N_i != l^n kappa_{n}")
    check_kappa_chain(kappas)
    check_ords(ell, gens, ords)
    inv = {k: int(v) for k, v in data["invariants"].items()}
    check_invariants(ell, gens, ords, inv["mu"], inv["lambda"], inv["nu"],
                     inv["n0_certified"], inv["n0_observed"])


_ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+(-|\d+)\s+(yes|no)\s+(.+)$")


def _tower_text(job, out: str) -> None:
    ell, gens = job["ell"], job["generators"]
    lines = out.splitlines()
    rows = [m.groups() for m in map(_ROW.match, lines) if m]
    expect([int(r[0]) for r in rows] == list(range(job["n"] + 1)),
           "text levels")
    kappas = [_factored(r[4]) for r in rows]
    ords = [int(r[1]) for r in rows]
    for n, k in enumerate(kappas):
        expect(ord_l(k, ell) == ords[n], f"ord column at n={n}")
    check_kappa_chain(kappas)
    check_ords(ell, gens, ords)
    inv = dict(re.findall(r"(\w+)=(-?\d+)", next(
        line for line in lines if line.startswith("invariants:"))))
    check_invariants(ell, gens, ords, *(int(inv[k]) for k in (
        "mu", "lambda", "nu", "n0_certified", "n0_observed")))
    expect(lines[-2] == "consistency: OK", "consistency line")
    expect(lines[-1].endswith(": OK"), "fit line")


def _kappa(job, out: str) -> None:
    if job["format"] == "json":
        kappa = int(json.loads(out)["kappa"])
    else:
        kappa = int(out.split(" = ")[1])
    check_kappa(job["ell"], job["generators"], job["n"], kappa)


def check_cli(job: dict, code: int, out: bytes, err: bytes) -> dict:
    """Outcome of one CLI job: ok, or failed with the reason and whether
    the failure is the known int-to-str digit limit."""
    text = err.decode(errors="replace").strip()
    if code != 0:
        return {"ok": False, "known": code == 1 and INT_STR_LIMIT in text,
                "error": text.splitlines()[-1] if text else f"exit {code}"}
    try:
        out_text = out.decode()
        if job["command"] == "kappa":
            _kappa(job, out_text)
        else:
            {"csv": _tower_csv, "json": _tower_json,
             "text": _tower_text}[job["format"]](job, out_text)
    except (CheckFailed, ValueError, KeyError, IndexError,
            StopIteration) as exc:
        return {"ok": False, "known": False,
                "error": f"check: {type(exc).__name__}: {exc}"}
    return {"ok": True, "known": False, "error": ""}
