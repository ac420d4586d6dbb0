import hashlib
import itertools
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from graph_iwasawa import multigraph_to_json, bouquet, cayley_serre, voltage_to_json
from graph_iwasawa import (Multigraph, VoltageGraph, multigraph_from_json,
                           voltage_from_json)
from graph_iwasawa import cycle_graph, report_to_json
from graph_iwasawa import TowerSpec, cli, norm_bits_bound, polys, towers, zeta
from graph_iwasawa import linalg, serre, voltage
from graph_iwasawa.cli import main, _factor_kappas, _trial_factor

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trial_factoring():
    assert _trial_factor(1) == []
    assert _trial_factor(2 ** 34 * 577 ** 2) == [(2, 34), (577, 2)]
    assert list(_factor_kappas([2 ** 6 * 3 ** 13 * 176417 ** 2])) \
        == [[(2, 6), (3, 13), (176417, 2)]]
    # two > 10^6 prime factors cannot be completed: printed raw
    n = 1000003 * 1000033
    assert _trial_factor(n) is None
    assert list(_factor_kappas([n])) == [None]
    # a single large cofactor below 10^12 is necessarily prime
    assert _trial_factor(1000003) == [(1000003, 1)]


# the largest prime below 10^6, the first two above it, and the largest
# prime below 10^12
_BOUNDARY_PRIMES = (999983, 1000003, 1000033, 999999999989)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(max_value=0),
    st.integers(min_value=1, max_value=10 ** 15),
    st.builds(lambda ps, k: math.prod(ps) * k,
              st.lists(st.sampled_from(_BOUNDARY_PRIMES), min_size=1,
                       max_size=3),
              st.integers(min_value=1, max_value=10 ** 4)),
    st.builds(operator.mul, st.sampled_from(oracles.primes_below(10 ** 6)),
              st.sampled_from(_BOUNDARY_PRIMES[1:]))))
@example(999983)
@example(1000003)
@example(999983 ** 2)
@example(1000003 ** 2)
@example(999983 * 1000003)
@example(999999999989)
@example(2 * 999999999989)
@example(1)
@example(0)
@example(-7)
def test_trial_factor_matches_the_sieve_oracle(n):
    assert _trial_factor(n) == oracles.trial_factor_sieve(n)


def test_tower_text(capsys):
    code, out, _ = run(capsys, "tower", "-l", "2", "-a", "3,5", "-n", "6")
    assert code == 0
    assert "Q(T) = 34*T - 56*T^2 + 36*T^3 - 10*T^4 + T^5" in out
    assert "mu=0 lambda=9 nu=-11" in out
    assert "2^34 * 577^2" in out
    assert "consistency: OK" in out


def test_tower_third_example(capsys):
    code, out, _ = run(capsys, "tower", "-l", "3", "-a", "1,4,20", "-n", "3")
    assert code == 0
    assert "mu=0 lambda=5 nu=-2" in out


def test_tower_invalid_spec(capsys):
    code, _, err = run(capsys, "tower", "-l", "2", "-a", "2,4", "-n", "3")
    assert code == 1
    assert "coprime" in err


@pytest.mark.parametrize("ell", [
    318665857834031151167461,  # psi_12: composite, yet passes bases 2..37
    618970019642690137449562111,  # 2^89 - 1: prime, but not provably here
])
def test_prime_past_the_proven_primality_range_exits_1(capsys, ell):
    for command in ("kappa", "tower"):
        code, out, err = run(capsys, command, "-l", str(ell), "-a", "1,1",
                             "-n", "0")
        assert (code, out) == (1, "")
        assert "318665857834031151167461" in err


def test_tower_json_and_csv(capsys):
    code, out, _ = run(capsys, "tower", "-l", "2", "-a", "1,1", "-n", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["invariants"] == {
        "mu": "1", "lambda": "1", "nu": "-1",
        "n0_certified": "1", "n0_observed": "1"}
    assert data["levels"][4]["kappa"] == str(2 ** (2 ** 4 + 4 - 1))
    code, out, _ = run(capsys, "tower", "-l", "2", "-a", "1,1", "-n", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,ord_kappa,fit"
    assert out.splitlines()[2] == "1,2,true"


def test_tower_parallel_identical_bytes(capsys):
    for fmt in ("text", "json", "csv"):
        args = ("tower", "-l", "2", "-a", "3,5", "-n", "4", "--format", fmt)
        _, seq, _ = run(capsys, *args)
        _, par, _ = run(capsys, *args, "--parallel")
        assert seq == par and seq


def test_kappa_command(capsys):
    code, out, _ = run(capsys, "kappa", "-l", "2", "-a", "1,1", "-n", "10")
    assert code == 0
    assert str(2 ** 1033) in out
    # negative jumps stay parseable after the short flag
    code, out, _ = run(capsys, "kappa", "-l", "2", "-a", "-3,5", "-n", "2")
    assert code == 0 and "2^5" in out
    code, out, _ = run(capsys, "kappa", "-l", "2", "-a", "3,5", "-n", "5",
                       "--format", "json")
    data = json.loads(out)
    assert data["kappa"] == str(2 ** 34 * 577 ** 2)


def test_zeta_command(tmp_path, capsys):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(multigraph_to_json(bouquet(2))))
    code, out, _ = run(capsys, "zeta", str(path))
    assert code == 0
    assert "h(u) = 1 - 4*u + 3*u^2" in out
    assert "Z(u) = (1 - u^2)^1 * h(u)" in out
    assert "kappa = 1" in out
    code, out, _ = run(capsys, "zeta", str(path), "--format", "json")
    data = json.loads(out)
    assert data == {"h": ["1", "-4", "3"], "z_exponent": "1", "kappa": "1"}


def test_zeta_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "zeta", str(path))
    assert code == 1 and "error" in err
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "zeta", str(missing))
    assert code == 1


@pytest.mark.parametrize("command,payload", [
    ("zeta", {"vertices": 2, "edges": [{"u": 0}]}),
    ("zeta", {"vertices": 2, "edges": [[0, 1]]}),
    ("cover-verify", {"m": 2, "edges": [{"u": 0, "voltage": 1}]}),
    ("cover-verify", {"m": 2, "edges": [[0, 0, 1]]}),
    ("cover-verify", {"m": 0, "edges": [{"u": 0, "v": 0, "voltage": 1}]}),
    # int() would truncate a float and read a bool as 0 or 1
    ("zeta", {"vertices": 1.7, "edges": [{"u": 0, "v": 0}]}),
    ("zeta", {"vertices": 1, "edges": [{"u": 0, "v": 0.0}]}),
    ("zeta", {"vertices": True, "edges": [{"u": 0, "v": 0}]}),
    ("cover-verify", {"m": 4, "edges": [{"u": 0, "v": 0, "voltage": 1.9},
                                        {"u": 0, "v": 0, "voltage": 1}]}),
    ("cover-verify", {"m": 4.0, "edges": [{"u": 0, "v": 0, "voltage": 1},
                                          {"u": 0, "v": 0, "voltage": 1}]}),
    ("cover-verify", {"m": 4, "edges": [{"u": 0, "v": False, "voltage": 1},
                                        {"u": 0, "v": 0, "voltage": 1}]}),
    ("cover-verify", {"m": 4, "edges": [{"u": 0, "v": 0, "voltage": True},
                                        {"u": 0, "v": 0, "voltage": 1}]}),
])
def test_malformed_records_exit_1(tmp_path, capsys, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: malformed")


_json_scalars = (st.none() | st.booleans() | st.integers(-2, 4)
                 | st.integers() | st.floats() | st.text(max_size=3))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=4),
    max_leaves=24)
# documents shaped like the loaders' input, with keys and records missing
_fields = st.integers(0, 3) | _json_scalars
_records = st.dictionaries(st.sampled_from(("u", "v", "voltage")), _fields,
                           max_size=3)
_documents = st.fixed_dictionaries({}, optional={
    "vertices": _fields, "m": _fields,
    "edges": st.lists(_records | _json_values, max_size=4) | _json_values})


@pytest.mark.parametrize("loader,result", [
    (multigraph_from_json, Multigraph), (voltage_from_json, VoltageGraph)])
@given(data=_documents | _json_values)
def test_loaders_return_a_graph_or_raise_value_error(loader, result, data):
    try:
        assert isinstance(loader(data), result)
    except ValueError:
        pass


def test_cover_verify(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(voltage_to_json(cayley_serre(2, (1, 1)))))
    code, out, _ = run(capsys, "cover-verify", str(path))
    assert code == 0
    assert "product formula: PASS" in out
    assert "integer decomposition: PASS" in out
    code, out, _ = run(capsys, "cover-verify", str(path), "--format", "json")
    data = json.loads(out)
    assert data["product_formula"] is True
    assert data["cover_h"] == ["1", "0", "-10", "0", "9"]


def test_cover_verify_checks_the_base_once(monkeypatch, tmp_path, capsys):
    # the base of cayley_serre(8, (1, 3)) is checked when the voltage graph
    # is built and by the base count; the product formula and the integer
    # decomposition each build the 8-vertex cover and check it once
    path = tmp_path / "v.json"
    path.write_text(json.dumps(voltage_to_json(cayley_serre(8, (1, 3)))))
    calls = []
    real = serre._components

    def spy(x):
        calls.append(x.num_vertices)
        return real(x)

    builds = []
    build = voltage.derived_cover

    def build_spy(vg):
        builds.append(vg.modulus)
        return build(vg)

    monkeypatch.setattr(serre, "_components", spy)
    monkeypatch.setattr(voltage, "derived_cover", build_spy)
    code, out, _ = run(capsys, "cover-verify", str(path))
    assert (code, out) == (0, "product formula: PASS\n"
                              "integer decomposition: PASS\n")
    assert sorted(calls) == [1, 1, 8, 8]
    assert builds == [8, 8]
    code, out, _ = run(capsys, "cover-verify", str(path), "--format", "json")
    h = ["1", "0", "8", "0", "-36", "0", "-648", "0", "-2970", "0", "-5832",
         "0", "-2916", "0", "5832", "0", "6561"]
    assert code == 0 and json.loads(out) == {
        "product_formula": True, "cover_h": h, "orbit_product": h,
        "integer_decomposition": True}


def test_loaders_read_digit_strings():
    assert multigraph_to_json(multigraph_from_json(
        {"vertices": "1", "edges": [{"u": "0", "v": "0"}]})) \
        == multigraph_to_json(bouquet(1))
    vg = voltage_from_json({"m": "4", "edges": [
        {"u": "0", "v": "0", "voltage": "1"},
        {"u": 0, "v": 0, "voltage": "-2"}]})
    assert voltage_to_json(vg) == voltage_to_json(cayley_serre(4, (1, 2)))


def test_cover_verify_refuses_a_disconnected_cover(tmp_path, capsys):
    # every voltage even: the cover has two components
    payload = {"m": 4, "edges": [{"u": 0, "v": 0, "voltage": 2},
                                 {"u": 0, "v": 0, "voltage": 2}]}
    path = tmp_path / "even.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "cover-verify", str(path))
    assert code == 1 and out == ""
    assert ("voltages do not generate Z/mZ: derived cover disconnected"
            in err)


@pytest.mark.parametrize("edges, message", [
    # a lone edge: valency 1 at each end
    ([(0, 1, 1)], "vertex 0: valency 1 < 2; vertex 1: valency 1 < 2"),
    ([(0, 0, 1), (1, 1, 1)], "graph is not connected"),
    ([(0, 1, 2), (0, 1, 0), (0, 0, 2)], "voltages do not generate Z/mZ: "
                                        "derived cover disconnected"),
    ([(0, 1, 2), (1, 2, 0), (2, 0, 0)], "voltages do not generate Z/mZ: "
                                        "derived cover disconnected"),
], ids=["valency-1-base", "disconnected-base", "even-2-vertex",
        "even-cycle"])
def test_cover_verify_names_an_invalid_voltage_graph(tmp_path, capsys, edges,
                                                     message):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"m": 4, "edges": [
        {"u": u, "v": v, "voltage": s} for u, v, s in edges]}))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "cover-verify", str(path), "--format",
                             fmt)
        assert (code, out, err) == (
            1, "", f"error: invalid voltage graph: {message}\n")


def test_cover_verify_refusal_stays_short_on_a_large_base(tmp_path, capsys):
    # a 55-byte file: a base of 32 768 vertices with one edge, within the
    # cap, where every vertex has valency < 2.  Naming each of them made a
    # 939 215-byte error line
    path = tmp_path / "far.json"
    path.write_text('{"m": 1, "edges": [{"u": 0, "v": 32767, "voltage": 0}]}')
    code, out, err = run(capsys, "cover-verify", str(path))
    assert (code, out) == (1, "")
    assert err == ("error: invalid voltage graph: graph is not connected; "
                   "vertex 0: valency 1 < 2; vertex 1: valency 0 < 2; "
                   "vertex 2: valency 0 < 2; 32768 vertices of valency < 2 "
                   "in all\n")
    assert len(err) < 200


def test_cover_verify_cycle_base_skips_decomposition(tmp_path, capsys):
    payload = {"m": 2, "edges": [
        {"u": 0, "v": 1, "voltage": 1}, {"u": 1, "v": 2, "voltage": 0},
        {"u": 2, "v": 0, "voltage": 0}]}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "cover-verify", str(path))
    assert code == 0
    assert "skipped (chi = 0)" in out


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export-dot", "-l", "2", "-a", "1,1", "-n", "1")
    assert code == 0
    assert out.startswith("graph cover_level_1 {")
    assert out.count("0 -- 1;") == 4
    _, out2, _ = run(capsys, "export-dot", "-l", "2", "-a", "1,1", "-n", "1")
    assert out == out2


def test_export_dot_vertex_cap(capsys):
    # refused before the 2^40-vertex cover is built
    code, out, err = run(capsys, "export-dot", "-l", "2", "-a", "1,1",
                         "-n", "40", "--cap-vertices", "1000")
    assert code == 1 and out == ""
    assert "2^40" in err and "1000" in err


def test_export_dot_refuses_a_negative_level(capsys):
    # l^-1 is no vertex count: refused, not a TypeError out of main
    code, out, err = run(capsys, "export-dot", "-l", "2", "-a", "1,1",
                         "-n", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "level must be >= 0" in err


def test_integers_past_the_str_digit_limit(tmp_path, capsys):
    # kappa_14 = 2^16397 has 4937 decimal digits; CPython refuses int/str
    # conversions past 4300 by default
    limit = sys.get_int_max_str_digits()
    kappa = polys.decimal(2 ** 16397)
    code, out, err = run(capsys, "kappa", "-l", "2", "-a", "1,1", "-n", "14")
    assert code == 0, err
    assert out == f"kappa_14 = {kappa} = 2^16397\n"
    code, out, err = run(capsys, "kappa", "-l", "2", "-a", "1,1", "-n", "14",
                         "--format", "json")
    assert code == 0, err
    assert json.loads(out)["kappa"] == kappa
    code, out, err = run(capsys, "tower", "-l", "2", "-a", "1,1", "-n", "14",
                         "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    assert data["levels"][14]["kappa"] == kappa
    assert data == report_to_json(
        towers.build_tower_report(TowerSpec(2, (1, 1)), 14))
    # lifted only around the output: input files keep the limit
    assert sys.get_int_max_str_digits() == limit
    path = tmp_path / "huge.json"
    path.write_text('{"vertices": 1' + "0" * 5000 + ', "edges": []}')
    code, _, err = run(capsys, "zeta", str(path))
    assert code == 1 and "Exceeds the limit" in err


def _forbid(monkeypatch, module, *names):
    def boom(*args, **kwargs):
        raise AssertionError("work started before the size check")
    for name in names:
        monkeypatch.setattr(module, name, boom)


def _forbid_chain(monkeypatch):
    # the level table's Graeffe chain and the kernel it steps with
    _forbid(monkeypatch, towers, "_tower")
    _forbid(monkeypatch, polys, "graeffe", "graeffe_norm")


@pytest.mark.parametrize("command", ["kappa", "tower"])
def test_budget_refused_before_any_work(monkeypatch, capsys, command):
    # N_9 has 31 374 bits; its a-priori bound is over a 30 000-bit budget
    _forbid(monkeypatch, towers, "level_norm", "level_valuation")
    _forbid_chain(monkeypatch)
    estimate = norm_bits_bound(TowerSpec(3, (1, 4, 20)), 9)
    code, out, err = run(capsys, command, "-l", "3", "-a", "1,4,20", "-n",
                         "9", "--budget-bits", "30000")
    assert code == 1 and out == ""
    assert "level 9" in err and str(estimate) in err and "30000" in err


def test_budget_refuses_a_deep_level_at_once(monkeypatch, capsys):
    # the bound of level 10^8 is never built: 3^(10^8) alone takes minutes
    _forbid(monkeypatch, towers, "norm_bits_bound")
    _forbid_chain(monkeypatch)
    code, _, err = run(capsys, "kappa", "-l", "3", "-a", "1,1", "-n",
                       "100000000")
    assert code == 1
    assert "level 100000000" in err and str(1 << 26) in err


def test_tower_budget_covers_levels_below_n0(monkeypatch, capsys):
    # tower -n 1 still evaluates v_1..v_4 below n0_certified = 5, by
    # division of f(zeta) by 1 - zeta, no norm; Q(T) bounds that work, and
    # at 60 bits it is over a 5-bit budget: refused before any of it
    _forbid(monkeypatch, towers, "level_norm", "level_valuation", "q_poly")
    _forbid_chain(monkeypatch)
    code, out, err = run(capsys, "tower", "-l", "2", "-a", "3,5", "-n", "1",
                         "--budget-bits", "5")
    assert code == 1 and out == ""
    assert "Q(T)" in err and "budget of 5 bits" in err


def test_tower_refuses_a_big_q_before_building_it(monkeypatch, capsys):
    # Q(T) of a = (1, 100000) has some 1.5e10 bits by q_bits_bound: refused
    # before P_100000 or any level is built
    _forbid(monkeypatch, towers, "p_poly", "q_poly")
    _forbid_chain(monkeypatch)
    estimate = towers.q_bits_bound(TowerSpec(2, (1, 100000)))
    code, out, err = run(capsys, "tower", "-l", "2", "-a", "1,100000",
                         "-n", "1")
    assert code == 1 and out == ""
    assert "Q(T)" in err and str(estimate) in err and str(1 << 26) in err


def test_tower_builds_q_for_the_exact_level_when_the_bound_is_refused(
        capsys):
    # a = (0 x100, 3): level 1 and Q(T) fit in 36 bits, and with Q
    # n0_certified = 1, so no level past 1 is evaluated
    spec = TowerSpec(2, (0,) * 100 + (3,))
    assert norm_bits_bound(spec, 1) <= 36 and towers.q_bits_bound(spec) == 36
    gens = ",".join(map(str, spec.generators))
    code, out, _ = run(capsys, "tower", "-l", "2", "-a", gens, "-n", "1",
                       "--budget-bits", "36", "--format", "csv")
    assert code == 0 and out.startswith("n,ord_kappa,fit")
    code, _, err = run(capsys, "tower", "-l", "2", "-a", gens, "-n", "1",
                       "--budget-bits", "35")
    assert code == 1 and "Q(T)" in err


def test_budget_admits_the_q_it_bounds(capsys):
    estimate = towers.q_bits_bound(TowerSpec(2, (3, 5)))
    code, _, _ = run(capsys, "tower", "-l", "2", "-a", "3,5", "-n", "1",
                     "--budget-bits", str(estimate))
    assert code == 0
    code, _, err = run(capsys, "tower", "-l", "2", "-a", "3,5", "-n", "1",
                       "--budget-bits", str(estimate - 1))
    assert code == 1 and "Q(T)" in err


def test_text_stops_trial_division_past_the_first_unfactored_kappa(
        monkeypatch, capsys):
    calls = []
    real = cli._trial_factor

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cli, "_trial_factor", spy)
    code, out, _ = run(capsys, "tower", "-l", "2", "-a", "3,5", "-n", "9")
    assert code == 0
    report = towers.build_tower_report(TowerSpec(2, (3, 5)), 9)
    kappas = [rec.kappa for rec in report.levels]
    first = next(n for n, k in enumerate(kappas) if real(k) is None)
    assert first < 9
    assert calls == kappas[:first + 1]
    # the skipped levels print raw, as trial division would have left them
    for k in kappas[first:]:
        assert f"  {k}\n" in out


def test_kappa_text_never_trial_divides_an_unfactorable_kappa(
        monkeypatch, capsys):
    # kappa_1..kappa_8 are rendered on the way to kappa_9; one of them is
    # left unfactored and divides kappa_9, so kappa_9 prints raw untried
    calls = []
    real = cli._trial_factor

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cli, "_trial_factor", spy)
    spec = TowerSpec(3, (1, 4, 20))
    kappa = towers.kappa_exact(spec, 9)
    code, out, _ = run(capsys, "kappa", "-l", "3", "-a", "1,4,20", "-n", "9")
    assert code == 0
    assert not any(n == kappa for n in calls)
    assert out == f"kappa_9 = {polys.decimal(kappa)}\n"


def test_kappa_runs_its_chain_on_the_jumps_mod_the_level(monkeypatch,
                                                        capsys):
    # level n reads each jump mod l^n, so the chain starts from least
    # absolute residues: a = (10^20, 1) is (0, 1) at level 1, a loop and a
    # 2-cycle, and no jump polynomial is longer than l^n + 1
    lengths = []
    real = towers._jump_poly

    def spy(bs):
        f = real(bs)
        lengths.append(len(f))
        return f

    monkeypatch.setattr(towers, "_jump_poly", spy)
    big = 10 ** 20
    for level, ell, gens, budget, line in (
            (0, 2, f"{big},1", 1 << 26, "kappa_0 = 1"),
            (1, 2, f"{big},1", 1 << 26, "kappa_1 = 2"),
            (2, 2, "1,-40", 78, "kappa_2 = 4 = 2^2"),
            (2, 3, "1,4000", 1 << 26, "kappa_2 = 10404 = 2^2 * 3^2 * 17^2"),
            (2, 3, "1,10000", 1 << 26, "kappa_2 = 2304 = 2^8 * 3^2")):
        towers._tower.cache_clear()
        lengths.clear()
        code, out, _ = run(capsys, "kappa", "-l", str(ell), "-a", gens,
                           "-n", str(level), "--budget-bits", str(budget))
        assert (code, out) == (0, line + "\n")
        assert all(k <= ell ** level + 1 for k in lengths)
    towers._tower.cache_clear()
    # level 0 is the bouquet, one tree: no level table at all
    _forbid(monkeypatch, towers, "_tower")
    code, out, _ = run(capsys, "kappa", "-l", "2", "-a", f"{big},1", "-n", "0")
    assert (code, out) == (0, "kappa_0 = 1\n")


def test_kappa_of_a_huge_jump_at_level_0_and_the_bound_of_level_1(capsys):
    ell, gens = 2 ** 61 - 1, f"{10 ** 18},1"
    code, out, _ = run(capsys, "kappa", "-l", str(ell), "-a", gens, "-n", "0")
    assert (code, out) == (0, "kappa_0 = 1\n")
    estimate = norm_bits_bound(TowerSpec(ell, (10 ** 18, 1)), 1)
    code, out, err = run(capsys, "kappa", "-l", str(ell), "-a", gens,
                         "-n", "1")
    assert code == 1 and out == ""
    assert "level 1 " in err and str(estimate) in err


@pytest.mark.parametrize("ell, gens, n, kappa", [
    (3, (1, 40), 2, 10404),
    (2, (3, -70), 5, 151840963183392),
    (5, (2, -60), 2, 1581318825025)])
def test_kappa_of_jumps_past_the_level_is_the_cover_count(capsys, ell, gens,
                                                          n, kappa):
    # max|a| > l^n: the residues mod l^n give the same cover's count
    cover = voltage.derived_cover(cayley_serre(ell ** n, gens))
    assert serre.spanning_tree_count(cover) == kappa
    code, out, _ = run(capsys, "kappa", "-l", str(ell), "-a",
                       ",".join(map(str, gens)), "-n", str(n),
                       "--format", "json")
    assert code == 0 and json.loads(out)["kappa"] == str(kappa)


def _kappa_specs(count, seed):
    # l in {2, 3, 5, 7}, |a| <= 200, l^n <= 343 so that a large jump is
    # often past l^n / 2
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ell = rng.choice((2, 3, 5, 7))
        n = rng.randrange(int(math.log(343.5, ell)) + 1)
        gens = tuple(rng.randint(-200, 200)
                     for _ in range(rng.randint(1, 3)))
        if any(a % ell for a in gens):
            out.append((ell, gens, n))
    return out


def test_kappa_output_is_the_unreduced_library_rendering(capsys):
    specs = _kappa_specs(60, 24)
    assert sum(2 * max(map(abs, gens)) > ell ** n
               for ell, gens, n in specs) >= 20
    for ell, gens, n in specs:
        spec = TowerSpec(ell, gens)
        kappas = [towers.kappa_exact(spec, m) for m in range(n + 1)]
        *_, fac = _factor_kappas(kappas)
        kappa = polys.decimal(kappas[n])
        text = f"kappa_{n} = {kappa}"
        if fac is not None and cli._render_factors(fac) != kappa:
            text += f" = {cli._render_factors(fac)}"
        data = {"prime": str(ell), "generators": [str(a) for a in gens],
                "n": str(n), "kappa": kappa}
        argv = ("kappa", "-l", str(ell), "-a", ",".join(map(str, gens)),
                "-n", str(n))
        assert run(capsys, *argv) == (0, text + "\n", "")
        assert run(capsys, *argv, "--format", "json") \
            == (0, json.dumps(data, indent=2) + "\n", "")


# A jump far past l^n / 2 at a depth whose unfolded chain took 9-11 s a
# command: each must finish in under a second with the same bytes
@pytest.mark.parametrize("argv, digest", [
    (("kappa", "--format", "text"),
     "c35b0109f45a888bb2bfdb08762f5e3c5b9b183117adb1e08e16dc1c3b84f7b9"),
    (("kappa", "--format", "json"),
     "36002091b31206178ddc5088ea382e941d6e200e1140b76fb57e2d3fa519e8de"),
    (("tower", "--format", "csv"),
     "2b417c7bc77bb7a74d113f36e95da32a20373ce2d484473ad9c4dc136fe61090")],
    ids=["kappa-text", "kappa-json", "tower-csv"])
def test_a_big_jump_folds_its_chain(capsys, argv, digest):
    command, *flags = argv
    towers._tower.cache_clear()
    start = time.perf_counter()
    code, out, _ = run(capsys, command, "-l", "2", "-a", "1,2000", "-n", "12",
                       *flags)
    elapsed = time.perf_counter() - start
    towers._tower.cache_clear()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert elapsed < 1.0


def test_the_library_folds_a_big_jump_too(capsys):
    # kappa_exact and then level_norm of the true jumps, on a fresh table,
    # in under a second: kappa_12 is the command's gated json, and
    # l kappa_12 = kappa_11 N_12 with kappa_11 from the command, whose
    # chain runs on the jumps mod 2^11
    spec = TowerSpec(2, (1, 2000))
    towers._tower.cache_clear()
    start = time.perf_counter()
    kappa = towers.kappa_exact(spec, 12)
    norm = towers.level_norm(spec, 12)
    elapsed = time.perf_counter() - start
    printed = []
    for n in (12, 11):
        towers._tower.cache_clear()
        code, out, _ = run(capsys, "kappa", "-l", "2", "-a", "1,2000",
                           "-n", str(n), "--format", "json")
        assert code == 0
        printed.append(out)
    towers._tower.cache_clear()
    assert hashlib.sha256(printed[0].encode()).hexdigest() \
        == "36002091b31206178ddc5088ea382e941d6e200e1140b76fb57e2d3fa519e8de"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        kappa_12, kappa_11 = (int(json.loads(out)["kappa"]) for out in printed)
    finally:
        sys.set_int_max_str_digits(limit)
    assert kappa == kappa_12
    assert 2 * kappa == kappa_11 * norm
    assert elapsed < 1.0


def test_a_deep_tower_takes_no_big_division(capsys):
    # 22 levels of norms of up to 2.9 M bits: one quadratic division per
    # level would take over 20 s
    towers._tower.cache_clear()
    start = time.perf_counter()
    code, out, _ = run(capsys, "tower", "-l", "2", "-a", "1,2", "-n", "22",
                       "--format", "csv")
    elapsed = time.perf_counter() - start
    towers._tower.cache_clear()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "168460e495e241d3952a44c51f000f10821636b6696f04749a6163a9c6649ac6")
    assert elapsed < 5.0


def test_a_large_prime_steps_without_bareiss(capsys):
    # l = 53: each step is one norm in Z[zeta_53], six products; a 53 x 53
    # fraction-free determinant over Z[z] took about 2 s
    towers._tower.cache_clear()
    start = time.perf_counter()
    code, out, _ = run(capsys, "kappa", "-l", "53", "-a", "1,4,20", "-n", "2",
                       "--format", "json")
    elapsed = time.perf_counter() - start
    towers._tower.cache_clear()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0756d297f8afba1de97b3e409c14fc9f9d6a1a761cce47362ff659b0702f1e6d")
    assert elapsed < 1.5


def _renders(monkeypatch):
    # every integer the one renderer turns into decimal, in call order
    rendered = []
    real = polys.decimal

    def spy(n):
        rendered.append(n)
        return real(n)

    monkeypatch.setattr(polys, "decimal", spy)
    return rendered


def _terms(p):
    # the coefficients format_poly writes out: every nonzero one but a 1 or
    # -1 in front of a power of the variable
    return [abs(c) for i, c in enumerate(p) if c and (i == 0 or abs(c) != 1)]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_kappa_renders_its_kappa_once(monkeypatch, tmp_path, capsys, fmt):
    # every kappa, N_i and coefficient that kappa, tower and zeta print goes
    # through polys.decimal exactly once, and nothing else does
    rendered = _renders(monkeypatch)
    spec = TowerSpec(3, (1, 4, 20))
    # kappa_9 is left unfactored and so are some kappa_m below it: only
    # kappa_9 goes to decimal
    code, out, _ = run(capsys, "kappa", "-l", "3", "-a", "1,4,20", "-n", "9",
                       "--format", fmt)
    kappa = towers.kappa_exact(spec, 9)
    assert code == 0 and rendered == [kappa]
    assert polys.decimal(kappa) in out
    # the tower table renders Q's coefficients and each unfactored level,
    # and only those; the json report renders Q, then each level's kappa
    # and N
    rendered.clear()
    code, out, _ = run(capsys, "tower", "-l", "3", "-a", "1,4,20", "-n", "6",
                       "--format", fmt)
    report = towers.build_tower_report(spec, 6)
    kappas = [rec.kappa for rec in report.levels]
    if fmt == "text":
        raw = [k for k, fac in zip(kappas, _factor_kappas(kappas))
               if fac is None]
        assert raw and rendered == _terms(report.q_coeffs) + raw
    else:
        norms = [rec.norm for rec in report.levels[1:]]
        assert rendered == [*report.q_coeffs, kappas[0],
                            *itertools.chain(*zip(kappas[1:], norms))]
    assert code == 0
    # zeta renders h's coefficients, then kappa
    rendered.clear()
    graph = voltage.derived_cover(cayley_serre(8, (1, 3)))
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(multigraph_to_json(graph)))
    code, out, _ = run(capsys, "zeta", str(path), "--format", fmt)
    _, h = zeta.ihara_Z(graph)
    printed = _terms(h) if fmt == "text" else list(h)
    assert code == 0
    assert rendered == printed + [serre.spanning_tree_count(graph)]


def _watch_divisions(monkeypatch):
    """Make every level norm, and every value built from them by products,
    quotients and remainders, an int whose //, % and divmod are logged as
    (dividend, divisor); returns the log and the class."""
    log = []

    class Watched(int):
        def __mul__(self, other):
            return Watched(int.__mul__(self, other))

        __rmul__ = __mul__

        def __abs__(self):
            return Watched(int.__abs__(self))

    def logged(name):
        op = getattr(int, name)
        reflected = name.startswith("__r")

        def method(self, other):
            log.append((other, self) if reflected else (self, other))
            out = op(self, other)
            return (tuple(map(Watched, out)) if isinstance(out, tuple)
                    else Watched(out))
        return method

    for name in ("__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
                 "__divmod__", "__rdivmod__"):
        setattr(Watched, name, logged(name))
    real = polys.graeffe_norm
    monkeypatch.setattr(polys, "graeffe_norm",
                        lambda p, ell: Watched(real(p, ell)))
    return log, Watched


def test_the_level_table_and_its_renderers_take_no_division(monkeypatch,
                                                             capsys):
    # kappa_n = l^n |r_1 ... r_n|: tower json and csv and kappa json build
    # and print every kappa and N_i with no //, % or divmod at all (ord_2
    # reads bits)
    log, watched = _watch_divisions(monkeypatch)
    for argv in (("tower", "--format", "csv"), ("tower", "--format", "json"),
                 ("kappa", "--format", "json")):
        towers._tower.cache_clear()
        code, _, _ = run(capsys, argv[0], "-l", "2", "-a", "1,-2,7,25",
                         "-n", "9", *argv[1:])
        assert code == 0 and log == [], argv
    report = towers.build_tower_report(TowerSpec(2, (1, -2, 7, 25)), 9)
    assert all(isinstance(rec.kappa, watched) for rec in report.levels[1:])
    # the text tables trial-divide kappas but never divide by one: a kappa
    # left unfactored is known to divide every later one
    for argv in (("tower", "-n", "6"), ("kappa", "-n", "9")):
        towers._tower.cache_clear()
        log.clear()
        code, out, _ = run(capsys, argv[0], "-l", "3", "-a", "1,4,20",
                           *argv[1:])
        assert code == 0 and log, argv
        assert not any(isinstance(divisor, watched) for _, divisor in log)
    towers._tower.cache_clear()


def test_verify_bounds_takes_no_division(monkeypatch):
    # (c) reads kappa_(n+1) = kappa_n l |r_(n+1)| off the table, a product,
    # not a remainder of kappa_19 (728 k bits) by kappa_18; (a) compares and
    # ord_2 in (b) reads bits
    log, _ = _watch_divisions(monkeypatch)
    towers._tower.cache_clear()
    spec = TowerSpec(2, (1, 2))
    towers.kappa_exact(spec, 19)
    assert towers.verify_bounds(spec, 18).ok
    assert log == []
    towers._tower.cache_clear()


# sha256 of stdout for every route that prints a kappa, an N_i or a
# polynomial coefficient; (2, (1, 1), 14) prints 2^16397, of 4937 digits
_BYTE_TABLE = {
    "tower 2 1,1 14 text":
        "50a62858e9c8907338fb5e0149bd6a0d3ba4fe5994175c8736320c3f1e64f2b3",
    "tower 2 1,1 14 json":
        "79661e1c4d041379b3ff9d538f4d937616060e9bed11bf8b1c1fc2bcf24b2c5a",
    "tower 2 1,1 14 csv":
        "a7008c37f37d0acf35903155ee89caf0bf7e324f28be8cb13daabc8af018246a",
    "kappa 2 1,1 14 text":
        "89959c3919b8e7b1b976b678a1a3c4abf851862d53b164e84c22f73f2503ca2e",
    "kappa 2 1,1 14 json":
        "e708f36507362ef6bc63b5efe7934e0bc2784d55360fba90581e301860bf6397",
    "tower 2 3,5 8 text":
        "db7496d33e242c2ad09516785377854e52e0fea21ef33c18331ef76d0aae6f0d",
    "tower 2 3,5 8 json":
        "88392498066cee35701da338e3634f835cbf97cb81ba4779720503a0a69c7d0a",
    "tower 2 3,5 8 csv":
        "ece839f5556ec1cf7f05c099cf318d8fac5d06b1df27ea8865a0bb6031a7f6b3",
    "kappa 2 3,5 8 text":
        "9d99b6bfc2386ffe5ef583c74b37f1c052eab8da85b525bc00e2fb021c4f7079",
    "kappa 2 3,5 8 json":
        "b8280f979ec0f93ff3f3f5b1ac496076e1e827f4dbe51573f28228d6a6f2df15",
    "tower 3 1,4,20 6 text":
        "ccd8617c119659906b9336265a4c51af8690d618d9d53aeedc329adca4472454",
    "tower 3 1,4,20 6 json":
        "85be8379bc034c79ef7ef886a18c2f0288bc6d18cb4ecad948870e840dd65617",
    "tower 3 1,4,20 6 csv":
        "c7b277b45bbf922d87caa586cabbfcb7b66ebd10c5d8c41cb93c6f62559d1908",
    "kappa 3 1,4,20 6 text":
        "953b2ac9601f9d305944abe86fded9a862f69c3506161527f1d2f1c6190c2e1c",
    "kappa 3 1,4,20 6 json":
        "dc9b21c12d3cb728f8e3589c8a8eb8a781d6c1f75e607703f674bc6f9c699291",
    "tower 5 2,-25 3 text":
        "bf8bc7a36c354e2fc9c43340deec2f862a856a12d0291fbcd3e1cbecb4bfb0fb",
    "tower 5 2,-25 3 json":
        "db34cc7d71b48899af2a378ba979d82b83f46abd2081b1f49f47667d9bee1456",
    "tower 5 2,-25 3 csv":
        "a932a37389c7c5470e9f3a1fda1beb3d58a25cd90efb3c2ec5250ff3378902ac",
    "kappa 5 2,-25 3 text":
        "90525227e6eddb257969d2186d294664d55944c28b567bb6c0b8a0be0cf5b873",
    "kappa 5 2,-25 3 json":
        "87a61b629e4ff7689ecd9880b96438ec99d38b966087428ff7099fdd545f011c",
    # deep reads through the real-subfield norm (l = 5, 17, 23) and the
    # l = 2 squarings
    "kappa 5 2,-25 7 json":
        "fe72d0c589779216d7df9c7e0e0d5640c344ead4652875923f54a710b4e1412f",
    "kappa 17 1,4,20 3 json":
        "488cabfc06b7c7ea980b0e21c63d85ca2224388967ef02db77005072ca0a7108",
    "kappa 23 1,4,20 2 json":
        "b041b6704e99b4b9f2e3db26b213a56ff419e110286e07b014a20905365ae34d",
    "tower 2 1,-2,7,25 14 json":
        "8a883e079b0a40748ea16d3e2c055a9801dec7a6635d54f2e1337acb25306825",
    # the 8-vertex cover of cayley_serre(8, (1, 3)), and that voltage graph
    "zeta text":
        "a85d2beae2da3cfd8e7caa27402a808494e225cfb19ec46fb425203e595edd2b",
    "zeta json":
        "68c95b0e36c048c48de922d6010033ae3fa8a37fd688bd026b2bddde338da9d1",
    "cover-verify text":
        "f4ac1b8b83d22458d78b06e063fab442ada69db394a436f125d532e224b0e9b3",
    "cover-verify json":
        "d97d3104dc481bec1abed521fb1e0813106716a7688b1c9fdbe678121ab7f7a8",
    # _PACKED_VOLTAGE: its text equals the row above
    "cover-verify packed json":
        "9a94fcae59d0a0eea40fa55a705fadadda56e3ae41f2df3f2b6c963b21644798",
}

# cover-oracle's seed-0 voltage graph #4, whose 32-vertex cover's
# orbit-factor product takes mul's packed side once (33 x 33 coefficients)
_PACKED_VOLTAGE = {"m": 8, "edges": [
    {"u": 1, "v": 0, "voltage": 4}, {"u": 2, "v": 1, "voltage": 7},
    {"u": 3, "v": 0, "voltage": 3}, {"u": 2, "v": 3, "voltage": 2},
    {"u": 0, "v": 2, "voltage": 2}]}


@pytest.mark.parametrize("case", _BYTE_TABLE)
def test_byte_table(tmp_path, capsys, case):
    *args, fmt = case.split()
    if args[0] in ("tower", "kappa"):
        command, ell, gens, n = args
        argv = [command, "-l", ell, "-a", gens, "-n", n]
    else:
        vg = cayley_serre(8, (1, 3))
        if args[1:] == ["packed"]:
            payload = _PACKED_VOLTAGE
        elif args[0] == "cover-verify":
            payload = voltage_to_json(vg)
        else:
            payload = multigraph_to_json(voltage.derived_cover(vg))
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv = [args[0], str(path)]
    towers._tower.cache_clear()
    code, out, _ = run(capsys, *argv, "--format", fmt)
    towers._tower.cache_clear()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _BYTE_TABLE[case]


def test_kappa_admits_the_chain_it_bounds(capsys):
    code, out, _ = run(capsys, "kappa", "-l", "2", "-a", "1,-40", "-n", "2",
                       "--budget-bits", "79")
    assert (code, out) == (0, "kappa_2 = 4 = 2^2\n")
    # N_5's bound, 49 bits, admits the level and the chain's 9 coefficients
    code, out, _ = run(capsys, "kappa", "-l", "2", "-a", "3,5", "-n", "5",
                       "--budget-bits", "49")
    assert code == 0 and "2^34 * 577^2" in out


def test_budget_admits_the_level_it_bounds(capsys):
    estimate = norm_bits_bound(TowerSpec(2, (3, 5)), 5)
    code, out, _ = run(capsys, "kappa", "-l", "2", "-a", "3,5", "-n", "5",
                       "--budget-bits", str(estimate))
    assert code == 0 and "2^34 * 577^2" in out
    code, _, err = run(capsys, "kappa", "-l", "2", "-a", "3,5", "-n", "5",
                       "--budget-bits", str(estimate - 1))
    assert code == 1 and "budget" in err


def test_zeta_vertex_cap_before_any_work(monkeypatch, tmp_path, capsys):
    _forbid(monkeypatch, zeta, "ihara_h")
    path = tmp_path / "c40.json"
    path.write_text(json.dumps(multigraph_to_json(cycle_graph(40))))
    code, out, err = run(capsys, "zeta", str(path), "--cap-vertices", "8")
    assert code == 1 and out == ""
    assert "40 vertices" in err and "cap of 8" in err


@pytest.mark.parametrize("graph, flags, message", [
    (cycle_graph(40), ("--cap-vertices", "8"),
     "graph has 40 vertices, beyond the cap of 8"),
    (Multigraph(2, [(0, 0), (1, 1)]), (), "graph is not connected"),
    (Multigraph(3, [(0, 1), (1, 2)]), (),
     "invalid multigraph: vertex 0: valency 1 < 2; vertex 2: valency 1 < 2"),
], ids=["over-cap", "disconnected", "path"])
def test_zeta_refusals_keep_their_bytes(tmp_path, capsys, graph, flags,
                                        message):
    # the spanning-tree count runs before h and refuses each of these with
    # the bytes zeta gave when it checked the cap and built h first
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(multigraph_to_json(graph)))
    code, out, err = run(capsys, "zeta", str(path), *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_cover_verify_caps_the_derived_cover(tmp_path, capsys):
    # one vertex with one loop: chi = 0, so no matrix-tree count ever ran
    payload = {"m": 40, "edges": [{"u": 0, "v": 0, "voltage": 1}]}
    path = tmp_path / "loop40.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "cover-verify", str(path),
                         "--cap-vertices", "8")
    assert code == 1 and out == ""
    assert "40 vertices" in err and "cap of 8" in err


def test_cover_verify_caps_before_validating_the_base(monkeypatch, tmp_path,
                                                     capsys):
    # the base's checks take time and memory per vertex: a file naming
    # vertex 100 000 is refused by the size of its cover alone
    _forbid(monkeypatch, serre, "validate_serre")
    payload = {"m": 4, "edges": [{"u": 0, "v": 100000, "voltage": 1}]}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "cover-verify", str(path))
    assert (code, out) == (1, "")
    assert err == ("error: derived cover has 400004 vertices, beyond the "
                   "cap of 32768\n")


def test_a_singular_laplacian_is_a_fault_not_an_input_error(
        monkeypatch, tmp_path, capsys):
    # a theta graph is connected, so a zero count can only be the engine's
    theta = Multigraph(2, [(0, 1)] * 3)
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(multigraph_to_json(theta)))
    monkeypatch.setattr(linalg, "det_pattern", lambda *args, **kwargs: 0)
    code, out, err = run(capsys, "zeta", str(path))
    assert (code, out) == (2, "")
    assert "reduced Laplacian is singular" in err


def test_an_unexpected_exception_exits_2(monkeypatch, capsys):
    def boom(spec):
        raise RuntimeError("injected")
    monkeypatch.setattr(towers, "_tower", boom)
    code, out, err = run(capsys, "kappa", "-l", "2", "-a", "1,1", "-n", "3")
    assert (code, out) == (2, "")
    # the traceback names the route, the last line the fault
    assert "in cmd_kappa" in err
    assert err.endswith("internal error: RuntimeError('injected')\n")


def _raise(exc):
    def boom(*args, **kwargs):
        raise exc
    return boom


def test_a_value_error_of_the_engine_exits_2(monkeypatch, capsys):
    # only an InputError is the input's fault: a ValueError from inside the
    # chain is a fault, with its traceback
    towers._tower.cache_clear()
    monkeypatch.setattr(polys, "graeffe", _raise(ValueError("injected")))
    code, out, err = run(capsys, "kappa", "-l", "3", "-a", "1,4", "-n", "3")
    towers._tower.cache_clear()
    assert (code, out) == (2, "")
    assert err.startswith("Traceback") and "in cmd_kappa" in err
    assert err.endswith("internal error: ValueError('injected')\n")


def test_a_value_error_of_the_determinant_exits_2(monkeypatch, tmp_path,
                                                  capsys):
    # a numpy-style ValueError in the determinant kernel under zeta
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(multigraph_to_json(Multigraph(2, [(0, 1)] * 3))))
    monkeypatch.setattr(linalg, "det_residues",
                        _raise(ValueError("operands could not be broadcast")))
    code, out, err = run(capsys, "zeta", str(path))
    assert (code, out) == (2, "")
    assert "in det_pattern" in err
    assert err.endswith("internal error: ValueError('operands could not be "
                        "broadcast')\n")


def _corrupt_kappa_5(monkeypatch):
    # kappa_5 of l = 2, a = (3, 5), at n0_certified, gains a factor 2
    real = towers._Tower.kappa
    monkeypatch.setattr(towers._Tower, "kappa", lambda tower, n: real(
        tower, n) * (2 if n == 5 else 1))


# one run per exit path README names: the words README files it under,
# the exit code README gives those words, the argv ({} is a directory of
# the files below) and what to patch first
_EXIT_PATHS = [
    ("usage error", 1, ["kappa", "-l", "2"], None),
    ("composite ℓ", 1, ["kappa", "-l", "4", "-a", "1", "-n", "2"], None),
    ("ℓ ≥ ψ₁₂", 1, ["tower", "-l", "318665857834031151167461", "-a", "1",
                    "-n", "0"], None),
    ("over `--budget-bits`", 1, ["kappa", "-l", "2", "-a", "1,2", "-n", "5",
                                 "--budget-bits", "8"], None),
    ("over `--cap-vertices`", 1, ["export-dot", "-l", "2", "-a", "1", "-n",
                                  "3", "--cap-vertices", "4"], None),
    ("malformed", 1, ["zeta", "{}/bad.json"], None),
    ("too deeply nested file", 1, ["cover-verify", "{}/deep.json"], None),
    ("non-UTF-8", 1, ["zeta", "{}/latin1.json"], None),
    ("missing file", 1, ["zeta", "{}/missing.json"], None),
    ("derived cover is disconnected", 1, ["cover-verify", "{}/even.json"],
     None),
    ("`--help`", 0, ["kappa", "--help"], None),
    ("success", 0, ["zeta", "{}/theta.json"], None),
    ("verification", 2, ["tower", "-l", "2", "-a", "3,5", "-n", "6"],
     _corrupt_kappa_5),
    ("any other exception", 2, ["kappa", "-l", "2", "-a", "1,1", "-n", "3"],
     lambda mp: mp.setattr(towers, "_tower", _raise(RuntimeError("x")))),
]
_EXIT_FILES = {
    "bad.json": b"{not json",
    "deep.json": b"[" * 100000,
    "latin1.json": '{"vertices": 1, "edges": [], "é": 0}'.encode("latin-1"),
    "even.json": json.dumps({"m": 4, "edges": [
        {"u": 0, "v": 0, "voltage": 2}, {"u": 0, "v": 0, "voltage": 2}]
    }).encode(),
    "theta.json": json.dumps(multigraph_to_json(
        Multigraph(2, [(0, 1)] * 3))).encode(),
}


def _readme_exit_codes() -> dict:
    # README's exit-code paragraph, cut at each code: {code: its words}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    text = " ".join(readme.split("Exit codes ", 1)[1].split("\n\n")[0]
                    .split())
    _, zero, one, two = re.split(r"`[012]` ", text)
    return {0: zero, 1: one, 2: two}


@pytest.mark.parametrize("words, code, argv, patch", _EXIT_PATHS,
                         ids=[row[0] for row in _EXIT_PATHS])
def test_each_exit_path_exits_as_readme_says(monkeypatch, tmp_path, capsys,
                                             words, code, argv, patch):
    assert words in _readme_exit_codes()[code]
    for name, data in _EXIT_FILES.items():
        (tmp_path / name).write_bytes(data)
    if patch is not None:
        patch(monkeypatch)
    got, out, err = run(capsys, *(a.format(tmp_path) for a in argv))
    assert got == code
    # a refused input is named on stderr, with no traceback
    assert code != 1 or (out == "" and "error: " in err
                         and "Traceback" not in err)


def test_readme_tower_example(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    prompt = "$ graph-iwasawa tower -l 2 -a 3,5 -n 6\n"
    shown = readme.split(prompt, 1)[1].split("```", 1)[0]
    code, out, _ = run(capsys, "tower", "-l", "2", "-a", "3,5", "-n", "6")
    assert code == 0 and out == shown


def test_usage_errors_exit_1(capsys):
    assert main(["tower", "-l", "2"]) == 1
    assert "required" in capsys.readouterr().err
    assert main(["kappa", "-l", "2", "-a", "1,1", "-n", "x"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert main(["kappa", "--help"]) == 0
    assert "--budget-bits" in capsys.readouterr().out


_TOWER_ARGS = ("-l", "2", "-a", "1,1", "-n", "1")


@pytest.mark.parametrize("command, flag", [
    ("tower", ("--budget-bits", "-5")),
    ("kappa", ("--budget-bits=-1",)),
    ("export-dot", ("--cap-vertices", "-1")),
])
def test_negative_sizes_are_usage_errors(capsys, command, flag):
    # refused by the parser, not as "over the budget of -5 bits"
    code, out, err = run(capsys, command, *_TOWER_ARGS, *flag)
    assert code == 1 and out == ""
    assert f"argument {flag[0].split('=')[0]}: must be >= 0" in err


@pytest.mark.parametrize("command, flag", [
    ("tower", ("--cap-vertices", "1")),
    ("kappa", ("--format", "csv")),
    ("kappa", ("--cap-vertices", "1")),
    ("kappa", ("--parallel",)),
    ("zeta", ("--format", "csv")),
    ("zeta", ("--budget-bits", "1")),
    ("zeta", ("--parallel",)),
    ("cover-verify", ("--format", "csv")),
    ("cover-verify", ("--budget-bits", "1")),
    ("cover-verify", ("--parallel",)),
    ("export-dot", ("--format", "json")),
    ("export-dot", ("--budget-bits", "1")),
    ("export-dot", ("--parallel",)),
])
def test_each_command_refuses_the_flags_it_does_not_read(
        tmp_path, capsys, command, flag):
    # each command succeeds without the flag, so the flag alone is refused
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(multigraph_to_json(bouquet(2))))
    volt = tmp_path / "v.json"
    volt.write_text(json.dumps(voltage_to_json(cayley_serre(2, (1, 1)))))
    args = {"zeta": (str(graph),),
            "cover-verify": (str(volt),)}.get(command, _TOWER_ARGS)
    assert run(capsys, command, *args)[0] == 0
    code, out, err = run(capsys, command, *args, *flag)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err or "invalid choice" in err


ROOT = Path(__file__).resolve().parents[1]

# what tower and kappa never load: numpy, serre, and dataclasses with the
# inspect it imports; and json, but for their json output
UNUSED_BY_TOWER = ("numpy", "dataclasses", "inspect", "graph_iwasawa.serre",
                   "json")

# the console script's entry, then those of UNUSED_BY_TOWER it loaded
NUMPY_PROBE = ("import sys; from graph_iwasawa.cli import main; "
               "code = main(); sys.stdout.flush(); "
               f"print([m for m in {UNUSED_BY_TOWER} if m in sys.modules], "
               "file=sys.stderr); sys.exit(code)")


def _python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv", [
    ("tower", "-l", "2", "-a", "3,5", "-n", "6"),
    ("tower", "-l", "3", "-a", "1,4,20", "-n", "4", "--format", "json"),
    ("tower", "-l", "2", "-a", "1,1", "-n", "5", "--format", "csv"),
    ("kappa", "-l", "2", "-a", "-3,5", "-n", "5"),
    ("kappa", "-l", "3", "-a", "1,4,20", "-n", "3", "--format", "json"),
], ids=["tower-text", "tower-json", "tower-csv", "kappa-text", "kappa-json"])
def test_tower_and_kappa_never_import_numpy(capsys, argv):
    # json only for the json output
    loaded = ["json"] if "json" in argv else []
    proc = _python("-c", NUMPY_PROBE, *argv)
    assert (proc.returncode, proc.stderr) == (0, f"{loaded}\n")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, proc.stdout)


# the console script's entry, then the peak of the Python allocations of
# the whole process, imports included, in bytes
TRACEMALLOC_PROBE = ("import sys, tracemalloc; tracemalloc.start(); "
                     "from graph_iwasawa.cli import main; code = main(); "
                     "sys.stdout.flush(); "
                     "print(tracemalloc.get_traced_memory()[1], "
                     "file=sys.stderr); sys.exit(code)")


@pytest.mark.parametrize("argv", [
    ("tower", "-l", "2", "-a", "3,5", "-n", "13"),
    ("kappa", "-l", "2", "-a", "1,1", "-n", "14"),
], ids=["tower-text", "kappa-text"])
def test_text_factoring_keeps_no_prime_table(argv):
    # a list of the 78 498 primes below 10^6 alone takes some 2.7 MiB
    proc = _python("-c", TRACEMALLOC_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr) < 3 * 2 ** 20


def test_bare_package_import_loads_no_numpy():
    proc = _python("-c", "import sys, graph_iwasawa; "
                         f"print([m for m in {UNUSED_BY_TOWER} "
                         "if m in sys.modules])")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
