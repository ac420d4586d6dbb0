"""Acceptance suite.

Each criterion runs at its stated tolerance (exact equality throughout)
and prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they complete.  The tower corpus below is the
fixed evaluation set: primes 2, 3, 5, two to four generators, magnitudes
up to 25, with negatives and non-coprime members mixed in.
"""

import contextlib
import math
import random
import sys
import time

import graph_iwasawa as gi
from oracles import cyc_add, cyc_mul, random_voltage_graph


def _announce(capsys, line: str) -> None:
    # step outside pytest's capture so the per-criterion verdicts always show
    with capsys.disabled():
        print(line)
        sys.stdout.flush()

CORPUS = [
    (2, (1, 1)),
    (2, (3, 5)),
    (2, (1, -2, 7, 25)),
    (3, (1, 4, 20)),
    (3, (2, 3)),
    (3, (5, 7, 11)),
    (5, (1, 1)),
    (5, (3, 5, 7, 11)),
    (5, (2, -25)),
]

ORACLE_VERTEX_LIMIT = 2048


def corpus_depth(ell: int) -> int:
    n = 0
    while ell ** (n + 1) <= ORACLE_VERTEX_LIMIT:
        n += 1
    return n


@contextlib.contextmanager
def criterion(capsys, num: int, desc: str, limit: float | None = None):
    t0 = time.time()
    try:
        yield
    except BaseException:
        _announce(capsys,
                  f"ACCEPTANCE {num} FAIL ({time.time() - t0:.1f}s): {desc}")
        raise
    elapsed = time.time() - t0
    assert limit is None or elapsed < limit, \
        f"criterion {num} took {elapsed:.1f}s, limit {limit}s"
    _announce(capsys, f"ACCEPTANCE {num} PASS ({elapsed:.1f}s): {desc}")


def test_criterion_1_golden_tower_one(capsys):
    with criterion(capsys, 1, "tower l=2 a=(1,1): kappa_n = 2^(2^n+n-1) for n <= 12 "
                      "and invariants (1,1,-1)", limit=10.0):
        spec = gi.TowerSpec(2, (1, 1))
        for n in range(13):
            assert gi.kappa_exact(spec, n) == 2 ** (2 ** n + n - 1)
        inv = gi.invariants(spec)
        assert (inv.mu, inv.lam, inv.nu) == (1, 1, -1)
        assert inv.n0_observed == 1


def test_criterion_2_golden_tower_two(capsys):
    with criterion(capsys, 2, "tower l=2 a=(3,5): Q, kappa table to n=5, "
                      "ord = 9n-11 for 4 <= n <= 10", limit=60.0):
        spec = gi.TowerSpec(2, (3, 5))
        assert gi.q_poly(spec) == [0, 34, -56, 36, -10, 1]
        table = [1, 2 ** 2, 2 ** 5, 2 ** 10, 2 ** 25, 2 ** 34 * 577 ** 2]
        for n, expected in enumerate(table):
            assert gi.kappa_exact(spec, n) == expected
        inv = gi.invariants(spec)
        assert (inv.mu, inv.lam, inv.nu, inv.n0_observed) == (0, 9, -11, 4)
        for n in range(4, 11):
            assert gi.ord_kappa(spec, n) == 9 * n - 11
            assert gi.ord_int(gi.kappa_exact(spec, n), 2) == 9 * n - 11


def test_criterion_3_golden_tower_three(capsys):
    with criterion(capsys, 3, "tower l=3 a=(1,4,20): Q prefix/degree, kappa_3, "
                      "ord = 5n-2 for 1 <= n <= 6", limit=120.0):
        spec = gi.TowerSpec(3, (1, 4, 20))
        q = gi.q_poly(spec)
        assert q[1:4] == [417, -13320, 175568]
        assert len(q) - 1 == 20 and q[-1] == -1
        assert gi.kappa_exact(spec, 3) == 2 ** 6 * 3 ** 13 * 176417 ** 2
        inv = gi.invariants(spec)
        assert (inv.mu, inv.lam, inv.nu, inv.n0_observed) == (0, 5, -2, 1)
        for n in range(1, 7):
            assert gi.ord_kappa(spec, n) == 5 * n - 2
            assert gi.ord_int(gi.kappa_exact(spec, n), 3) == 5 * n - 2


def test_criterion_4_oracle_equivalence(capsys):
    with criterion(capsys, 4, "kappa_exact equals the matrix-tree count on every "
                      "corpus cover with l^n <= 2048", limit=600.0):
        for ell, gens in CORPUS:
            spec = gi.TowerSpec(ell, gens)
            for n in range(corpus_depth(ell) + 1):
                cover = gi.derived_cover(gi.cayley_serre(ell ** n, gens))
                assert gi.spanning_tree_count(cover) \
                    == gi.kappa_exact(spec, n), (ell, gens, n)


def test_criterion_5_factorization_identities(capsys):
    with criterion(capsys, 5, "product formula and integer decomposition on 200 "
                      "randomized voltage graphs"):
        rng = random.Random(20240801)
        for trial in range(200):
            vg = random_voltage_graph(rng, max_vertices=4, max_modulus=12,
                                      max_edges=10)
            assert gi.verify_product_formula(vg).ok, trial
            assert gi.verify_integer_decomposition(vg).ok, trial


def _expected_epsilon_valuation(ell, i, a):
    m = ell ** i
    if a % m == 0:
        return gi.INFINITY
    return 2 * ell ** gi.ord_int(a, ell)


def test_criterion_6_valuation_lemmas(capsys):
    with criterion(capsys, 6, "valuation lemma parts (1)-(4) and the recursion "
                      "identity, exhaustive for l in {2,3,5}, i <= 4, "
                      "|a| <= 2 l^i"):
        for ell in (2, 3, 5):
            for i in range(1, 5):
                m = ell ** i
                cache = {}
                for a in range(-2 * m, 2 * m + 1):
                    r = min(a % m, (-a) % m)
                    eps = gi.epsilon(ell, i, a)
                    assert eps == gi.epsilon(ell, i, r)
                    if r not in cache:
                        cache[r] = gi.ord_L(eps)
                    v = cache[r]
                    assert v == _expected_epsilon_valuation(ell, i, a)
                    if a >= 1:
                        assert v >= 2                              # part 1
                    if a != 0 and math.gcd(a, ell) == 1:
                        assert v == 2                              # part 2
                    if a != 0 and a % m != 0:
                        s = gi.ord_int(a, ell)
                        if s < i:
                            assert v == 2 * ell ** s               # part 3
                    if a % m == 0:
                        assert v == gi.INFINITY                    # part 4
                # eps(a) = eps(1) * (a^2 - sum_{k<a} (a-k) eps(k)),
                # swept with running sums
                eps1 = gi.epsilon(ell, i, 1)
                zero = gi.cyc_from_poly(ell, i, [])
                running = zero   # sum_{k<a} (a-k) eps(k)
                total = zero     # sum_{k<a} eps(k)
                for a in range(1, 2 * m + 1):
                    rhs = cyc_mul(eps1, cyc_add(
                        gi.cyc_from_poly(ell, i, [a * a]), running, -1))
                    assert rhs == gi.epsilon(ell, i, a), (ell, i, a)
                    total = cyc_add(total, gi.epsilon(ell, i, a))
                    running = cyc_add(running, total)


def _zeta_corpus():
    graphs = []
    for ell, gens in CORPUS:
        n = 0
        while ell ** n <= 64:
            graphs.append(gi.derived_cover(gi.cayley_serre(ell ** n, gens)))
            n += 1
    for t in (2, 3, 4):
        graphs.append(gi.bouquet(t))
    graphs.append(gi.Multigraph(2, [(0, 1)] * 4))
    return graphs


def test_criterion_7_special_values(capsys):
    with criterion(capsys, 7, "h(1) = 0 and h'(1) = -2 chi kappa on the zeta corpus; "
                      "h''(1) = 2g^2 on cycles up to C_64"):
        for graph in _zeta_corpus():
            chi = gi.euler_characteristic(graph)
            assert chi != 0
            sv = gi.special_values(gi.ihara_h(graph), graph)
            kappa = gi.spanning_tree_count(graph)
            assert sv.h_at_1 == 0
            assert sv.dh_at_1 == -2 * chi * kappa
            assert sv.kappa_implied == kappa
        for g in range(1, 65):
            c = gi.cycle_graph(g)
            sv = gi.special_values(gi.ihara_h(c), c)
            assert sv.h_at_1 == 0
            assert sv.dh_at_1 == 0
            assert sv.d2h_at_1 == 2 * g * g


def test_criterion_8_bounds(capsys):
    with criterion(capsys, 8, "ord lower bound, kappa divisibility, the regular-"
                      "tower upper bound, and the mu bound on the corpus"):
        for ell, gens in CORPUS:
            spec = gi.TowerSpec(ell, gens)
            rpt = gi.verify_bounds(spec, corpus_depth(ell))
            assert rpt.ok, (ell, gens, rpt.failures)
