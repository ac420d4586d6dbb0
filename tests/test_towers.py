import contextlib
import functools
import io
import json
import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from graph_iwasawa import (
    IwasawaInvariants,
    TowerSpec,
    build_tower_report,
    cayley_serre,
    cyc_from_poly,
    derived_cover,
    epsilon,
    invariants,
    kappa_exact,
    level_norm,
    level_valuation,
    mu_lambda,
    norm_bits_bound,
    ord_int,
    ord_kappa,
    p_poly,
    q_poly,
    report_from_json,
    report_to_csv,
    report_to_json,
    spanning_tree_count,
    stabilization_level,
    verify_bounds,
)
from graph_iwasawa.cyclotomic import euler_phi_prime_power
from graph_iwasawa.towers import _jump_poly
from graph_iwasawa import cli, cyclotomic, polys, towers
from oracles import (cyc_add, cyc_mul, p_poly_table, poly_eval, q_at_epsilon,
                     resultant_with_phi, sylvester_resultant)
from test_acceptance import CORPUS, corpus_depth


@pytest.fixture
def fresh_table():
    # the level table outlives a test; start and leave it empty
    towers._tower.cache_clear()
    yield
    towers._tower.cache_clear()


def test_p_poly_table():
    assert p_poly(0) == []
    assert p_poly(1) == [0, 1]
    assert p_poly(2) == [0, 4, -1]
    assert p_poly(3) == [0, 9, -6, 1]
    assert p_poly(4) == [0, 16, -20, 8, -1]
    assert p_poly(5) == [0, 25, -50, 35, -10, 1]


def test_p_poly_recurrence_matches_table():
    for a in range(81):
        assert p_poly(a) == p_poly_table(a), a


@pytest.mark.parametrize("a", range(1, 13))
def test_p_poly_properties(a):
    p = p_poly(a)
    assert len(p) - 1 == a
    assert p[0] == 0
    assert p[1] == a * a
    assert p[-1] == (-1) ** (a + 1)


def test_p_poly_evaluates_to_epsilon():
    # P_a(eps(1)) = eps(a) inside every prime-power cyclotomic ring
    for ell, imax in ((2, 3), (3, 3), (5, 2)):
        for i in range(1, imax + 1):
            eps1 = epsilon(ell, i, 1)
            for a in range(0, 13):
                acc = cyc_from_poly(ell, i, [])
                for c in reversed(p_poly(a)):
                    acc = cyc_add(cyc_mul(acc, eps1),
                                  cyc_from_poly(ell, i, [c]))
                assert acc == epsilon(ell, i, a), (ell, i, a)


def test_q_poly_examples():
    assert q_poly(TowerSpec(2, (1, 1))) == [0, 2]
    assert q_poly(TowerSpec(2, (3, 5))) == [0, 34, -56, 36, -10, 1]
    q = q_poly(TowerSpec(3, (1, 4, 20)))
    assert len(q) - 1 == 20
    assert q[1:4] == [417, -13320, 175568]
    assert q[-1] == -1


def test_q_poly_uses_magnitudes():
    assert q_poly(TowerSpec(2, (-3, 5))) == q_poly(TowerSpec(2, (3, 5)))


def test_spec_validation():
    with pytest.raises(ValueError, match="prime"):
        TowerSpec(4, (1, 1))
    with pytest.raises(ValueError, match="coprime"):
        TowerSpec(2, (2, 4))
    with pytest.raises(ValueError, match="generator"):
        TowerSpec(2, ())
    spec = TowerSpec(2, (1, 0))
    assert spec.zero_generator_indices == (1,)
    assert spec.q == 3 and spec.t == 2


@pytest.mark.parametrize("ell, gens", [
    (2, (1.5, 3)),    # was truncated to the a = (1, 3) tower
    (2, (1.0, 3)),
    (2, (True, 3)),   # was read as 1
    (2, ("7", 3)),    # was parsed
    (2, "13"),
    (2.0, (1,)),      # was a TypeError out of is_prime
    (True, (1,)),
    ("2", (1,)),
])
def test_spec_refuses_non_integers(ell, gens):
    with pytest.raises(ValueError, match="is not an integer"):
        TowerSpec(ell, gens)


def test_spec_takes_numpy_integers():
    np = pytest.importorskip("numpy")
    spec = TowerSpec(np.int64(2), np.array([3, 5]))
    assert spec == TowerSpec(2, (3, 5))
    assert [type(x) for x in (spec.ell, *spec.generators)] == [int] * 3


def test_spec_equality_and_hash():
    # the key of the level table: equal specs share one table
    spec = TowerSpec(2, (3, 5))
    assert repr(spec) == "TowerSpec(ell=2, generators=(3, 5))"
    assert spec == TowerSpec(2, [3, 5]) and spec is not TowerSpec(2, (3, 5))
    assert hash(spec) == hash(TowerSpec(2, [3, 5])) == hash((2, (3, 5)))
    assert spec != TowerSpec(2, (5, 3)) and spec != TowerSpec(3, (3, 5))
    assert spec != (2, (3, 5))
    assert {spec: 1}[TowerSpec(2, (3, 5))] == 1
    with pytest.raises(AttributeError):
        spec.ell = 3
    assert spec.ell == 2


def test_records_compare_by_fields():
    inv = IwasawaInvariants(0, 9, -11, 5, 4)
    assert inv == IwasawaInvariants(mu=0, lam=9, nu=-11, n0_certified=5,
                                    n0_observed=4, cycle_case=False)
    assert hash(inv) == hash((0, 9, -11, 5, 4, False))
    assert inv != IwasawaInvariants(0, 9, -11, 5, 4, cycle_case=True)
    report = build_tower_report(TowerSpec(2, (1, 1)), 1)
    assert report == build_tower_report(TowerSpec(2, (1, 1)), 1)
    assert report != build_tower_report(TowerSpec(2, (1, 1)), 2)
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
    assert repr(report) == (
        "TowerReport(spec=TowerSpec(ell=2, generators=(1, 1)), n_max=1, "
        "q_coeffs=[0, 2], invariants=IwasawaInvariants(mu=1, lam=1, nu=-1, "
        "n0_certified=1, n0_observed=1, cycle_case=False), "
        "levels=[LevelRecord(n=0, kappa=1, ord_kappa=0, v=None, norm=None, "
        "fit=True), LevelRecord(n=1, kappa=4, ord_kappa=2, v=3, norm=8, "
        "fit=True)], consistency_ok=True, fit_ok=True)")


def test_mu_lambda_examples():
    assert mu_lambda(q_poly(TowerSpec(2, (1, 1))), 2) == (1, 1)
    assert mu_lambda(q_poly(TowerSpec(2, (3, 5))), 2) == (0, 9)
    assert mu_lambda(q_poly(TowerSpec(3, (1, 4, 20))), 3) == (0, 5)
    with pytest.raises(ValueError):
        mu_lambda([], 2)
    # zero coefficients never attain the minimum
    assert mu_lambda([0, 8, 0, 2], 2) == (1, 5)


def test_stabilization_examples():
    assert stabilization_level(q_poly(TowerSpec(2, (1, 1))), 2) == 1
    assert stabilization_level(q_poly(TowerSpec(2, (3, 5))), 2) == 5
    assert stabilization_level(q_poly(TowerSpec(3, (1, 4, 20))), 3) == 2
    # l not dividing c_1 forces j* = 1 and immediate domination
    assert stabilization_level(q_poly(TowerSpec(3, (1, 1))), 3) == 1


def test_level_valuation_examples():
    spec = TowerSpec(2, (3, 5))
    assert level_valuation(spec, 1) == 3  # Q(4) = 8
    ones = TowerSpec(2, (1, 1))
    for i in range(1, 7):
        assert level_valuation(ones, i) == euler_phi_prime_power(2, i) + 2


def test_level_valuation_affine_past_stabilization():
    # the formula the level table uses in place of level_valuation
    for ell, gens in CORPUS + [(2, (1,)), (2, (1, 0))]:
        spec = TowerSpec(ell, gens)
        q = q_poly(spec)
        mu, lam = mu_lambda(q, spec.ell)
        istar = stabilization_level(q, spec.ell)
        for i in (istar, istar + 1, istar + 2):
            expected = mu * euler_phi_prime_power(spec.ell, i) + lam + 1
            assert level_valuation(spec, i) == expected


def test_level_valuation_matches_q_at_epsilon_on_the_corpus():
    for ell, gens in CORPUS:
        spec = TowerSpec(ell, gens)
        for i in range(1, invariants(spec).n0_certified + 3):
            assert level_valuation(spec, i) \
                == cyclotomic.ord_L(q_at_epsilon(spec, i)), (ell, gens, i)


def test_sum_of_epsilons_is_q_at_epsilon_and_f_at_zeta():
    # Q(eps(1)) = sum_j eps(a_j) = zeta^-B f(zeta), B = max |a_j|
    for ell, gens in CORPUS + [(2, (1, 0))]:
        spec = TowerSpec(ell, gens)
        for i in range(1, 4):
            total = cyc_from_poly(ell, i, [])
            for a in gens:
                total = cyc_add(total, epsilon(ell, i, a))
            assert total == q_at_epsilon(spec, i), (ell, gens, i)
            shift = cyc_from_poly(ell, i, [0] * max(spec.magnitudes) + [1])
            assert cyc_mul(shift, total) \
                == cyc_from_poly(ell, i, _jump_poly(spec))


def test_level_valuation_builds_no_q(monkeypatch):
    def boom(*args):
        raise AssertionError("level_valuation built Q(eps)")
    monkeypatch.setattr(towers, "q_poly", boom)
    assert level_valuation(TowerSpec(2, (3, 5)), 1) == 3
    assert level_valuation(TowerSpec(2, (3, 301)), 5) == 32


def test_jump_poly_zero_generator_drops_out():
    assert _jump_poly(TowerSpec(2, (1, 0))) == _jump_poly(TowerSpec(2, (1,)))


def test_kappa_examples():
    ones = TowerSpec(2, (1, 1))
    for n in range(0, 9):
        assert kappa_exact(ones, n) == 2 ** (2 ** n + n - 1)
    spec2 = TowerSpec(2, (3, 5))
    table = [1, 2 ** 2, 2 ** 5, 2 ** 10, 2 ** 25, 2 ** 34 * 577 ** 2]
    for n, expected in enumerate(table):
        assert kappa_exact(spec2, n) == expected
    spec3 = TowerSpec(3, (1, 4, 20))
    assert kappa_exact(spec3, 0) == 1
    assert kappa_exact(spec3, 1) == 3 ** 3
    assert kappa_exact(spec3, 2) == 2 ** 6 * 3 ** 8
    assert kappa_exact(spec3, 3) == 2 ** 6 * 3 ** 13 * 176417 ** 2


def test_level_norm_matches_valuation():
    for spec in (TowerSpec(2, (3, 5)), TowerSpec(3, (1, 4, 20)),
                 TowerSpec(5, (2, 5))):
        for i in range(1, 4):
            assert ord_int(level_norm(spec, i), spec.ell) \
                == level_valuation(spec, i)


def test_ord_kappa_examples_and_consistency():
    ones = TowerSpec(2, (1, 1))
    for n in range(0, 8):
        assert ord_kappa(ones, n) == 2 ** n + n - 1
    spec2 = TowerSpec(2, (3, 5))
    for n in range(4, 8):
        assert ord_kappa(spec2, n) == 9 * n - 11
    spec3 = TowerSpec(3, (1, 4, 20))
    for n in range(1, 5):
        assert ord_kappa(spec3, n) == 5 * n - 2
    rng = random.Random(8)
    for _ in range(8):
        ell = rng.choice((2, 3, 5))
        gens = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 3)))
        if not any(g and math.gcd(g, ell) == 1 for g in gens):
            continue
        spec = TowerSpec(ell, gens)
        for n in range(0, 4):
            assert ord_kappa(spec, n) == ord_int(kappa_exact(spec, n), ell)


def test_invariants_examples():
    inv = invariants(TowerSpec(2, (1, 1)))
    assert (inv.mu, inv.lam, inv.nu, inv.n0_observed) == (1, 1, -1, 1)
    inv = invariants(TowerSpec(2, (3, 5)))
    assert (inv.mu, inv.lam, inv.nu) == (0, 9, -11)
    assert inv.n0_certified == 5 and inv.n0_observed == 4
    inv = invariants(TowerSpec(3, (1, 4, 20)))
    assert (inv.mu, inv.lam, inv.nu, inv.n0_observed) == (0, 5, -2, 1)


# repr(invariants(spec)) for the corpus, as the dataclass printed it: a
# benchmark digest hashes these bytes
CORPUS_INVARIANTS_REPR = [
    "IwasawaInvariants(mu=1, lam=1, nu=-1, n0_certified=1, n0_observed=1, "
    "cycle_case=False)",
    "IwasawaInvariants(mu=0, lam=9, nu=-11, n0_certified=5, n0_observed=4, "
    "cycle_case=False)",
    "IwasawaInvariants(mu=0, lam=1, nu=0, n0_certified=1, n0_observed=1, "
    "cycle_case=False)",
    "IwasawaInvariants(mu=0, lam=5, nu=-2, n0_certified=2, n0_observed=1, "
    "cycle_case=False)",
    "IwasawaInvariants(mu=0, lam=1, nu=0, n0_certified=1, n0_observed=1, "
    "cycle_case=False)",
    "IwasawaInvariants(mu=0, lam=3, nu=0, n0_certified=2, n0_observed=1, "
    "cycle_case=False)",
    "IwasawaInvariants(mu=0, lam=1, nu=0, n0_certified=1, n0_observed=1, "
    "cycle_case=False)",
    "IwasawaInvariants(mu=0, lam=1, nu=0, n0_certified=1, n0_observed=1, "
    "cycle_case=False)",
    "IwasawaInvariants(mu=0, lam=1, nu=0, n0_certified=1, n0_observed=1, "
    "cycle_case=False)",
]


def test_corpus_invariants_repr():
    assert [repr(invariants(TowerSpec(ell, gens)))
            for ell, gens in CORPUS] == CORPUS_INVARIANTS_REPR


def test_invariants_coprime_sum_corollary():
    # l not dividing sum of squares: mu = 0, lambda = 1, nu = 0, ord = n
    for ell in (3, 5, 7):
        spec = TowerSpec(ell, (1, 1))
        inv = invariants(spec)
        assert (inv.mu, inv.lam, inv.nu) == (0, 1, 0)
        for n in range(1, 5):
            assert ord_kappa(spec, n) == n


def test_cycle_tower():
    spec = TowerSpec(2, (1,))
    assert spec.is_cycle_tower
    inv = invariants(spec)
    assert inv.cycle_case
    assert (inv.mu, inv.lam, inv.nu) == (0, 1, 0)
    for n in range(0, 6):
        assert kappa_exact(spec, n) == 2 ** n
        cover = derived_cover(cayley_serre(2 ** n, (1,)))
        assert spanning_tree_count(cover) == 2 ** n


def test_cycle_towers_take_the_generic_route(monkeypatch, fresh_table):
    # Q = P_|a| has the l-unit a^2 as its linear coefficient: mu = 0,
    # lambda = 1 and n0_certified = 1, so no level lies below n0
    valuation_calls = _count_calls(monkeypatch, "level_valuation")
    for ell in (2, 3, 5, 7, 11, 13):
        for a in range(-30, 31):
            if a % ell == 0:
                continue
            spec = TowerSpec(ell, (a,))
            assert invariants(spec) == IwasawaInvariants(
                mu=0, lam=1, nu=0, n0_certified=1, n0_observed=1,
                cycle_case=True)
    assert valuation_calls == []


def test_zero_generator_unaffects_kappa():
    with_zero = TowerSpec(2, (1, 0))
    without = TowerSpec(2, (1,))
    for n in range(0, 5):
        assert kappa_exact(with_zero, n) == kappa_exact(without, n)
    inv = invariants(with_zero)
    assert (inv.mu, inv.lam, inv.nu) == (0, 1, 0)
    assert not inv.cycle_case


def test_oracle_equivalence_small():
    rng = random.Random(12)
    for _ in range(6):
        ell = rng.choice((2, 3))
        gens = tuple(rng.randint(-5, 5) for _ in range(2))
        if not any(g and math.gcd(g, ell) == 1 for g in gens):
            continue
        spec = TowerSpec(ell, gens)
        for n in range(0, 4):
            cover = derived_cover(cayley_serre(ell ** n, gens))
            assert spanning_tree_count(cover) == kappa_exact(spec, n)


def test_verify_bounds():
    rpt = verify_bounds(TowerSpec(2, (1, 1)), 4)
    assert rpt.ok and rpt.failures == []
    rpt = verify_bounds(TowerSpec(2, (3, 5)), 5)
    assert rpt.ok
    rpt = verify_bounds(TowerSpec(2, (1,)), 3)  # cycle tower: (a) is 0 <= 0
    assert rpt.ok


def test_upper_bound_spec_example():
    # l=2, a=(1,1), n=3: 8 * kappa_3 against the closed-form right side
    spec = TowerSpec(2, (1, 1))
    kappa3 = kappa_exact(spec, 3)
    q = spec.q
    lhs = 4 * (spec.t - 1) * (q + 1) * 2 ** 3 * kappa3
    rhs = (q - 1) * (2 * (q + 1)) ** (2 ** 3)
    assert lhs <= rhs


def test_divisibility_along_tower():
    spec = TowerSpec(2, (3, 5))
    assert kappa_exact(spec, 4) % kappa_exact(spec, 3) == 0


def test_level_bounds_rejected():
    spec = TowerSpec(2, (3, 5))
    with pytest.raises(ValueError):
        kappa_exact(spec, -1)
    with pytest.raises(ValueError):
        ord_kappa(spec, -1)
    with pytest.raises(ValueError):
        level_valuation(spec, 0)
    with pytest.raises(ValueError):
        build_tower_report(spec, -1)
    with pytest.raises(ValueError):
        verify_bounds(spec, 0)


def test_report_and_serialization():
    spec = TowerSpec(2, (3, 5))
    report = build_tower_report(spec, 6)
    assert report.consistency_ok and report.fit_ok
    assert [rec.kappa for rec in report.levels[:6]] == [
        1, 4, 32, 1024, 2 ** 25, 2 ** 34 * 577 ** 2]
    assert [rec.fit for rec in report.levels[4:]] == [True, True, True]
    data = report_to_json(report)
    assert data["invariants"]["lambda"] == "9"
    assert data["levels"][5]["kappa"] == str(2 ** 34 * 577 ** 2)
    again = report_from_json(json.loads(json.dumps(data)))
    assert report_to_json(again) == data
    csv = report_to_csv(report)
    lines = csv.strip().splitlines()
    assert lines[0] == "n,ord_kappa,fit"
    assert lines[6] == "5,34,true"


_BAD_REPORT_FIELDS = [
    (("prime",), 2.9),                    # was read as 2
    (("prime",), True),
    (("generators",), "35"),              # was the a = (3, 5) tower
    (("generators", 0), 3.0),
    (("n_max",), "two"),
    (("invariants", "mu"), 0.5),
    (("invariants", "lambda"), False),
    (("q_poly",), "0"),
    (("q_poly", 1), 34.0),
    (("levels", 1, "kappa"), 4.0),
    (("levels", 1, "v"), True),
    (("levels", 1, "fit"), "false"),      # was a true fit
    (("cycle_case",), "false"),           # was a true cycle_case
    (("consistency_ok",), 1),
    (("fit_ok",), None),
]


@pytest.mark.parametrize(
    "path, value", _BAD_REPORT_FIELDS,
    ids=[f"{'.'.join(map(str, path))}={value!r}"
         for path, value in _BAD_REPORT_FIELDS])
def test_report_from_json_refuses_bad_types(path, value):
    report = build_tower_report(TowerSpec(2, (3, 5)), 2)
    data = report_to_json(report)
    assert report_from_json(data) == report
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ValueError, match="malformed tower report JSON"):
        report_from_json(data)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(towers, name)

    def counted(spec, i, *args):
        calls.append(i)
        return real(spec, i, *args)

    monkeypatch.setattr(towers, name, counted)
    return calls


def _spy(monkeypatch, name, module=towers):
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _read(steps, spec, read, level):
    # run read(), whose deepest level is ``level``: it steps on from the
    # table's kept depth, and every polynomial it steps at depth k must have
    # at most l^(level - k) coefficients
    start, before = towers._tower(spec).depth, len(steps)
    value = read()
    assert all(len(p) <= spec.ell ** (level - k)
               for k, (p, _) in enumerate(steps[before:], start)), level
    return value


def test_one_level_table(monkeypatch, fresh_table):
    spec = TowerSpec(2, (3, 5))
    n = 7
    steps = _spy(monkeypatch, "graeffe", polys)
    norms = _spy(monkeypatch, "graeffe_norm", polys)
    valuation_calls = _count_calls(monkeypatch, "level_valuation")
    for k in range(n + 1):
        _read(steps, spec, lambda: kappa_exact(spec, k), k)
        ord_kappa(spec, k)
    inv = invariants(spec)
    _read(steps, spec, lambda: verify_bounds(spec, n - 1), n)
    _read(steps, spec, lambda: build_tower_report(spec, n), n)
    for i in range(1, n + 1):
        _read(steps, spec, lambda: level_norm(spec, i), i)
    # one chain for the spec, r_1..r_n each read once.  f~ has 9
    # coefficients, so a step at depth j during the read of level k is
    # unfolded, and kept, only when 2^(k - j) >= 9: the reads of levels 2
    # and 3 step from depth 0 (1 + 2 steps), and each read of level
    # k = 4..7 steps from the kept depth k - 4 up to k - 1 (4 x 3 steps),
    # 15 in all; the later reads take none
    assert len(steps) == 15
    assert len(norms) == n
    assert valuation_calls
    assert all(i < inv.n0_certified for i in valuation_calls)


def test_one_table_object_per_spec(fresh_table):
    spec = TowerSpec(3, (2, 3))
    kappa_exact(spec, 3)
    ord_kappa(spec, 3)
    invariants(spec)
    verify_bounds(spec, 2)
    build_tower_report(spec, 3)
    level_norm(spec, 2)
    assert towers._tower.cache_info().currsize == 1


def test_each_level_valuation_once(monkeypatch, fresh_table, capsys):
    # invariants() and the report both read v_1..v_4 (n0_certified = 5)
    valuation_calls = _count_calls(monkeypatch, "level_valuation")
    assert cli.main(["tower", "-l", "2", "-a", "3,5", "-n", "1"]) == 0
    capsys.readouterr()
    assert valuation_calls == [1, 2, 3, 4]


def test_q_built_once_per_spec(monkeypatch, capsys):
    towers._tower.cache_clear()
    built = _spy(monkeypatch, "p_poly")
    assert cli.main(["tower", "-l", "2", "-a", "3,5", "-n", "6"]) == 0
    capsys.readouterr()
    assert sorted(built) == [(3,), (5,)]


def test_consistency_ok_is_a_real_check(monkeypatch, fresh_table, capsys):
    spec = TowerSpec(2, (3, 5))
    istar = invariants(spec).n0_certified
    real = towers._Tower.kappa

    def corrupted(tower, n):
        return real(tower, n) * (tower.ell if n == istar else 1)

    # kappa_istar gains a factor l, but not the valuations, which never
    # read the chain
    monkeypatch.setattr(towers._Tower, "kappa", corrupted)
    assert not build_tower_report(spec, istar + 1).consistency_ok
    code = cli.main(["tower", "-l", "2", "-a", "3,5", "-n", str(istar + 1)])
    assert code == 2
    assert "consistency: FAILED" in capsys.readouterr().out


def test_chain_raises_on_a_bad_step(monkeypatch, fresh_table):
    # a step whose G~(1) disagrees with the z = 1 rule names its level
    real = polys.graeffe

    def off_by_one(p, ell):
        g = real(p, ell)
        return [g[0] + 1] + g[1:]

    monkeypatch.setattr(polys, "graeffe", off_by_one)
    # and keeps raising: the cached chain never takes in the bad step
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="level 1"):
            kappa_exact(TowerSpec(3, (1, 4, 20)), 3)


def _corrupt_norm(monkeypatch, level):
    # the call that reads r_level returns l * r_level
    real, calls = polys.graeffe_norm, []

    def corrupted(p, ell):
        calls.append(p)
        return real(p, ell) * (ell if len(calls) == level else 1)

    monkeypatch.setattr(polys, "graeffe_norm", corrupted)


def test_chain_raises_on_a_bad_level_norm(monkeypatch, fresh_table, capsys):
    # r_2 gains a factor l: the step to G~^2 disagrees with g_1 r_2, and the
    # error names level 2
    _corrupt_norm(monkeypatch, 2)
    with pytest.raises(ArithmeticError, match="level 2:"):
        kappa_exact(TowerSpec(3, (1, 4, 20)), 4)
    towers._tower.cache_clear()
    _corrupt_norm(monkeypatch, 3)
    assert cli.main(["tower", "-l", "2", "-a", "3,5", "-n", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal consistency failure: level 3:" in captured.err
    # and a norm that vanishes is refused where it is read
    towers._tower.cache_clear()
    monkeypatch.setattr(polys, "graeffe_norm", lambda p, ell: 0)
    with pytest.raises(ArithmeticError, match="level 1 norm vanished"):
        level_norm(TowerSpec(2, (3, 5)), 1)


# Specs whose chain folds toward the level N given: each jump polynomial
# here is longer than l^(N - k) at some depth k < N - 1, which steps
_FOLDING = [(2, (1, 2000), 12), (2, (1, 60), 9), (3, (1, 4, 20), 7),
            (5, (2, -25), 5), (2, (3, 5), 6), (7, (3, 30), 3)]


def test_kappa_levels_reads_each_jump_mod_l_to_the_n(fresh_table):
    # kappa_0..kappa_4 read each jump mod 2^4, where 10^20 + 1 is 1: no
    # jump polynomial of degree 2 10^20 is built
    huge = (10 ** 20 + 1, 3)
    kappas = towers.kappa_levels(TowerSpec(2, huge), 4)
    assert kappas == towers.kappa_levels(TowerSpec(2, (1, 3)), 4)
    assert kappas == [spanning_tree_count(derived_cover(cayley_serre(
        2 ** m, huge))) for m in range(5)]
    # a jump within +-2^4 / 2 is kept, so the spec reads its own table
    spec = TowerSpec(2, (-8, 3))
    towers.kappa_levels(spec, 4)
    assert len(towers._tower(spec).products) == 5
    assert towers._tower.cache_info().currsize == 2


def test_fold_keeps_the_true_chain_and_its_values(fresh_table):
    spec = TowerSpec(3, (1, 4, 20))
    n = 7
    folded = build_tower_report(spec, n)
    table = towers._tower(spec)
    # f~ has 39 coefficients, over 3^(7 - 4) = 27 from depth 4 on: the
    # table keeps the true G~^4, folded before its step, and nothing deeper
    assert table.depth == 4 and len(table.poly) == 39
    products = list(table.products)
    towers._tower.cache_clear()
    assert build_tower_report(spec, n) == folded
    kappas = [kappa_exact(spec, m) for m in range(n + 1)]
    assert towers._tower(spec).products == products
    assert [rec.kappa for rec in folded.levels] == kappas
    assert towers.kappa_levels(spec, n) == kappas


def test_a_deeper_read_after_a_fold_is_the_true_chain(monkeypatch,
                                                      fresh_table):
    # reach level n folded, then ask level n + 2 on demand: both must be
    # the true values, the PRS oracle's
    for ell, gens, n in ((2, (1, 60), 9), (3, (1, 4, 20), 5),
                         (5, (2, -25), 3), (2, (3, 5), 4)):
        spec = TowerSpec(ell, gens)
        build_tower_report(spec, n)
        kept = towers._tower(spec).depth
        steps = _spy(monkeypatch, "graeffe", polys)
        deeper = (_read(steps, spec, lambda: kappa_exact(spec, n + 2), n + 2),
                  level_norm(spec, n + 2), level_norm(spec, n + 1))
        # the deeper read steps on from the kept polynomial, folded toward
        # level n + 2 (checked in _read)
        assert len(steps) == n + 1 - kept
        monkeypatch.undo()
        norms = [_prs_norm(spec, i) for i in range(1, n + 3)]
        kappa = _kappa_of_norms(ell, norms)
        assert deeper == (kappa, norms[-1], norms[-2]), (ell, gens, n)
        towers._tower.cache_clear()


@pytest.mark.parametrize("command",
                         ["tower", "kappa", "kappa_exact", "level_norm"])
@pytest.mark.parametrize("ell, gens, n", _FOLDING)
def test_no_step_is_longer_than_the_depth_reads(monkeypatch, fresh_table,
                                                capsys, command, ell, gens,
                                                n):
    # on a fresh table the k-th step runs from depth k: a command or a
    # library read of level n steps no polynomial longer than l^(n - k) there
    steps = _spy(monkeypatch, "graeffe", polys)
    if command in ("tower", "kappa"):
        argv = [command, "-l", str(ell),
                f"--generators={','.join(map(str, gens))}", "-n", str(n),
                "--format", "json"]
        assert cli.main(argv) == 0
        capsys.readouterr()
    else:
        getattr(towers, command)(TowerSpec(ell, gens), n)
    assert len(steps) == n - 1
    assert all(len(p) <= ell ** (n - k) for k, (p, _) in enumerate(steps))
    # and the fold did happen: a true step keeps its length
    assert len(steps[-1][0]) < len(steps[0][0])


@given(st.sampled_from((2, 3, 5)), st.data())
def test_a_folded_report_is_the_report_of_a_grown_table(ell, data):
    # a report read off a fresh table, which folds toward n_max, against one
    # read off a table first grown on demand, to below or past n_max
    coprime = data.draw(st.sampled_from([a for a in range(-60, 61)
                                         if a % ell]))
    rest = data.draw(st.lists(st.integers(-60, 60), max_size=2))
    spec = TowerSpec(ell, (coprime, *rest))
    levels = _shallow_levels(ell)
    n = data.draw(st.sampled_from(levels))
    grown = data.draw(st.integers(1, levels[-1] + 1))
    towers._tower.cache_clear()
    folded = build_tower_report(spec, n)
    towers._tower.cache_clear()
    kappa_exact(spec, grown)
    assert build_tower_report(spec, n) == folded
    towers._tower.cache_clear()


_READS = ("kappa_exact", "level_norm", "kappa_levels", "build_tower_report",
          "verify_bounds")


@given(st.sampled_from((2, 3, 5)), st.data())
def test_any_read_order_gives_the_prs_norms(ell, data):
    # 1 to 5 reads of a fresh table, each of its own deepest level, in any
    # order: whatever each read folds, every N_i is the PRS oracle's and
    # every kappa_n is prod N_i / l^n
    coprime = data.draw(st.sampled_from([a for a in range(-60, 61)
                                         if a % ell]))
    rest = data.draw(st.lists(st.integers(-60, 60), max_size=2))
    spec = TowerSpec(ell, (coprime, *rest))
    deepest = _shallow_levels(ell)[-1] + 1

    @functools.cache
    def norm(i):
        return _prs_norm(spec, i) if i else None

    def kappa(n):
        return _kappa_of_norms(ell, [norm(i) for i in range(1, n + 1)])

    towers._tower.cache_clear()
    for read in data.draw(st.lists(st.sampled_from(_READS), min_size=1,
                                   max_size=5)):
        n = data.draw(st.integers(1, deepest))
        if read == "kappa_exact":
            assert kappa_exact(spec, n) == kappa(n)
        elif read == "level_norm":
            assert level_norm(spec, n) == norm(n)
        elif read == "kappa_levels":
            assert towers.kappa_levels(spec, n) == [kappa(m)
                                                     for m in range(n + 1)]
        elif read == "build_tower_report":
            report = build_tower_report(spec, n)
            assert report.consistency_ok
            assert [(rec.kappa, rec.norm) for rec in report.levels] \
                == [(kappa(m), norm(m)) for m in range(n + 1)]
        else:  # verify_bounds reads n_max + 1
            assert verify_bounds(spec, max(n - 1, 1)).ok
    table = towers._tower(spec)
    for m in range(1, len(table.products)):
        assert table.norm(m) == norm(m)
        assert table.kappa(m) == kappa(m)
    towers._tower.cache_clear()


def _prs_norm(spec, i):
    return abs(resultant_with_phi(spec.ell, i, _jump_poly(spec)))


def _kappa_of_norms(ell, norms):
    # l^n kappa_n = N_1 ... N_n
    kappa, rem = divmod(math.prod(norms), ell ** len(norms))
    assert not rem
    return kappa


def test_chain_norms_match_the_prs_on_the_corpus():
    for ell, gens in CORPUS:
        spec = TowerSpec(ell, gens)
        for i in range(1, corpus_depth(ell) + 1):
            assert level_norm(spec, i) == _prs_norm(spec, i), (ell, gens, i)


@pytest.mark.parametrize("ell", [11, 13, 31])
@pytest.mark.parametrize("gens", [(3, 5), (1, 4, 20)])
def test_chain_norms_match_the_prs_at_large_primes(ell, gens):
    spec = TowerSpec(ell, gens)
    for i in (1, 2):
        assert level_norm(spec, i) == _prs_norm(spec, i)


@pytest.mark.parametrize("ell,gens", [(2, (3, 5)), (3, (1, 4, 20)),
                                      (5, (2, -25)), (7, (3, 5))])
def test_graeffe_step_is_a_resultant(ell, gens):
    # G(z0) = Res_x(x^l - z0, p), for one step and the next
    p = towers._reduced_jump_poly(TowerSpec(ell, gens))
    for _ in range(2):
        g = polys.graeffe(p, ell)
        assert len(g) == len(p)
        for z0 in (-3, -1, 1, 2, 5):
            x = [-z0] + [0] * (ell - 1) + [1]
            assert poly_eval(g, z0) == sylvester_resultant(x, p), z0
        assert poly_eval(g, 1) == poly_eval(p, 1) * polys.graeffe_norm(p, ell)
        p = g


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_graeffe_norm_is_the_norm_of_p_at_zeta(ell):
    # prod over the primitive l-th roots of p, Res(Phi_l, p) by the PRS, on
    # f~, its first two steps and f~ folded to l coefficients
    p = towers._reduced_jump_poly(TowerSpec(ell, (1, 4, 20)))
    chain = [p, polys.fold(p, ell)]
    for _ in range(2):
        p = polys.graeffe(p, ell)
        chain.append(p)
    for p in chain:
        assert polys.graeffe_norm(p, ell) == resultant_with_phi(ell, 1, p)
    # and where p(1) = 0, so that G(1) / p(1) is no quotient at all:
    # 1 - y gives Phi_l(1)
    assert polys.graeffe_norm([1, -1], ell) == ell


def test_q_bits_bound():
    # |coefficient k of P_a| = 2a*C(a+k, 2k)/(a+k) < 2^(a+k)
    for a in [*range(150), 500, 1000]:
        p = p_poly(a)
        for k in range(1, a + 1):
            assert abs(p[k]) * (a + k) == 2 * a * math.comb(a + k, 2 * k)
            assert abs(p[k]).bit_length() <= a + k
    for gens in ((1, 1, 1, 1, 1), (1, 4, 20), (7, 7, 7), (-3, 5), (1, 400)):
        spec = TowerSpec(2, gens)
        bits = sum(abs(c).bit_length() for c in q_poly(spec))
        assert bits <= towers.q_bits_bound(spec)


def test_norm_bits_bound_examples():
    # phi(3^9) = 13122 conjugates, each at most 4t = 12: 13122 * 4 + 1 bits
    spec = TowerSpec(3, (1, 4, 20))
    assert norm_bits_bound(spec, 9) == 52489
    assert level_norm(spec, 5).bit_length() <= norm_bits_bound(spec, 5)
    # kappa_n = 2^(2^n + n - 1) gives N_i = 2^(phi(2^i) + 2); the bound is
    # 3 phi(2^i) + 1 bits, tight at i = 1
    ones = TowerSpec(2, (1, 1))
    for i in range(1, 8):
        phi = euler_phi_prime_power(2, i)
        assert level_norm(ones, i) == 2 ** (phi + 2)
        assert norm_bits_bound(ones, i) == 3 * phi + 1
    assert norm_bits_bound(ones, 1) == level_norm(ones, 1).bit_length()
    with pytest.raises(ValueError):
        norm_bits_bound(spec, 0)


def test_tower_with_a_large_valuation():
    # mu = 1: ord_3(kappa_n) is about 3^n, and the report reads it off
    # every kappa_n with ord_int
    report = build_tower_report(TowerSpec(3, (1, 1, 1)), 9)
    assert report.consistency_ok and report.fit_ok


# ---------------------------------------------------------------------------
# Properties over random towers, kept to levels with phi(l^i) <= PHI_CAP so
# that every norm takes a fraction of a second
# ---------------------------------------------------------------------------

PHI_CAP = 300


def _shallow_levels(ell):
    return [i for i in range(1, 10) if euler_phi_prime_power(ell, i) <= PHI_CAP]


@st.composite
def tower_specs(draw):
    ell = draw(st.sampled_from((2, 3, 5, 7)))
    coprime = draw(st.sampled_from([a for a in range(-30, 31) if a % ell]))
    rest = draw(st.lists(st.integers(-30, 30), max_size=3))
    return TowerSpec(ell, tuple(draw(st.permutations([coprime, *rest]))))


@given(tower_specs())
def test_norm_bits_bound_is_an_upper_bound(spec):
    for i in _shallow_levels(spec.ell):
        assert level_norm(spec, i).bit_length() <= norm_bits_bound(spec, i)
        assert level_norm(spec, i) == _prs_norm(spec, i)


@given(tower_specs())
def test_level_valuation_matches_q_at_epsilon(spec):
    for i in _shallow_levels(spec.ell):
        assert level_valuation(spec, i) \
            == cyclotomic.ord_L(q_at_epsilon(spec, i))


@given(tower_specs())
def test_kappa_divides_the_next_level(spec):
    kappas = [kappa_exact(spec, n)
              for n in range(_shallow_levels(spec.ell)[-1] + 1)]
    for lower, upper in zip(kappas, kappas[1:]):
        assert upper % lower == 0


@given(tower_specs())
def test_certified_formula_past_stabilization(spec):
    q = q_poly(spec)
    mu, lam = mu_lambda(q, spec.ell)
    istar = stabilization_level(q, spec.ell)
    assume(istar + 2 in _shallow_levels(spec.ell))
    for i in (istar, istar + 1, istar + 2):
        expected = mu * euler_phi_prime_power(spec.ell, i) + lam + 1
        assert level_valuation(spec, i) == expected


@given(tower_specs(), st.data())
def test_report_json_round_trip(spec, data):
    n = data.draw(st.sampled_from(_shallow_levels(spec.ell)))
    report = build_tower_report(spec, n)
    again = report_from_json(json.loads(json.dumps(report_to_json(report))))
    assert again == report


@given(tower_specs(), st.data())
def test_repeated_tower_runs_print_the_same_bytes(spec, data):
    n = data.draw(st.sampled_from(_shallow_levels(spec.ell)))
    fmt = data.draw(st.sampled_from(("text", "json", "csv")))
    argv = ["tower", "-l", str(spec.ell),
            f"--generators={','.join(map(str, spec.generators))}",
            "-n", str(n), "--format", fmt]
    outs = []
    for _ in range(2):
        # the second run recomputes every level rather than reading the first
        towers._tower.cache_clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] and outs[0]
