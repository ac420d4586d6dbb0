import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from graph_iwasawa import (
    DisconnectedGraphError,
    InputError,
    Multigraph,
    VoltageGraph,
    adjacency_matrix,
    artin_A_sigma,
    bouquet,
    cayley_serre,
    cycle_graph,
    derived_cover,
    ihara_h,
    multigraph_to_json,
    orbit_h_poly,
    spanning_tree_count,
    to_dot,
    validate_serre,
    verify_integer_decomposition,
    verify_product_formula,
    voltage_from_json,
    voltage_graph,
    voltage_to_json,
)
from graph_iwasawa import linalg, polys, serre, voltage
from oracles import (det_bareiss, orbit_pencil_by_powers, poly_divmod,
                     random_voltage_graph)


def test_cayley_serre_level_one():
    cover = derived_cover(cayley_serre(2, (1, 1)))
    assert cover.num_vertices == 2
    assert adjacency_matrix(cover) == [[0, 4], [4, 0]]
    assert spanning_tree_count(cover) == 4


def test_cayley_serre_trivial_modulus():
    cover = derived_cover(cayley_serre(1, (1, 1)))
    assert cover.num_vertices == 1
    assert cover.num_undirected_edges == 2
    assert ihara_h(cover) == ihara_h(bouquet(2))


def test_cayley_serre_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        cayley_serre(2, (2, 4))
    with pytest.raises(DisconnectedGraphError):
        cayley_serre(9, (3, 6))


def test_cayley_serre_third_example_layer():
    vg = cayley_serre(9, (1, 4, 20))
    cover = derived_cover(vg)
    assert cover.num_vertices == 9
    assert validate_serre(cover) == []
    assert all(v == 6 for v in cover.valencies())


def test_derived_cover_structure():
    rng = random.Random(71)
    for _ in range(15):
        vg = random_voltage_graph(rng)
        cover = derived_cover(vg)
        assert validate_serre(cover) == []
        g, m = vg.base.num_vertices, vg.modulus
        assert cover.num_vertices == g * m
        base_vals = vg.base.valencies()
        cover_vals = cover.valencies()
        for k in range(m):
            for v in range(g):
                assert cover_vals[k * g + v] == base_vals[v]


def test_derived_cover_builds_and_its_counts_check_it():
    # every voltage even: two components, which the counts refuse
    cover = derived_cover(VoltageGraph(bouquet(2), 4, [2, 2, 2, 2]))
    assert cover.num_vertices == 4
    with pytest.raises(DisconnectedGraphError):
        spanning_tree_count(cover)
    with pytest.raises(DisconnectedGraphError):
        ihara_h(cover)


@pytest.mark.parametrize("count, m, gens", [
    (spanning_tree_count, 2 ** 10, (1, 1)), (ihara_h, 2 ** 5, (3, 5))])
def test_a_count_of_a_cover_traverses_it_once(monkeypatch, count, m, gens):
    cover = derived_cover(cayley_serre(m, gens))
    calls = []
    components = serre._components

    def spy(x):
        calls.append(x.num_vertices)
        return components(x)
    monkeypatch.setattr(serre, "_components", spy)
    count(cover)
    assert calls == [m]


def test_artin_matrices_bouquet():
    vg = cayley_serre(2, (1, 1))
    assert artin_A_sigma(vg, 0) == [[0]]
    assert artin_A_sigma(vg, 1) == [[4]]


def test_artin_sum_recovers_adjacency():
    rng = random.Random(101)
    for _ in range(10):
        vg = random_voltage_graph(rng)
        g = vg.base.num_vertices
        total = [[0] * g for _ in range(g)]
        for sigma in range(vg.modulus):
            a = artin_A_sigma(vg, sigma)
            for i in range(g):
                for j in range(g):
                    total[i][j] += a[i][j]
        assert total == adjacency_matrix(vg.base)
        vals = vg.base.valencies()
        assert [sum(row) for row in total] == vals


def test_artin_transpose_symmetry():
    rng = random.Random(55)
    for _ in range(10):
        vg = random_voltage_graph(rng)
        g = vg.base.num_vertices
        for sigma in range(vg.modulus):
            a = artin_A_sigma(vg, sigma)
            b = artin_A_sigma(vg, -sigma)
            assert all(a[i][j] == b[j][i] for i in range(g) for j in range(g))


def test_orbit_h_examples():
    vg = cayley_serre(2, (1, 1))
    assert orbit_h_poly(vg, 2) == [1, 4, 3]
    assert orbit_h_poly(vg, 1) == ihara_h(bouquet(2))


def test_orbit_h_inflation():
    a = orbit_h_poly(cayley_serre(4, (1, 1)), 2)
    b = orbit_h_poly(cayley_serre(2, (1, 1)), 2)
    assert a == b
    c = orbit_h_poly(cayley_serre(9, (1, 4, 20)), 3)
    d = orbit_h_poly(cayley_serre(3, (1, 4, 20)), 3)
    assert c == d


def test_orbit_pencil_of_d_1_is_the_base_pencil():
    # Phi_1's companion matrix is [[1]]: h(u, Psi_1) is the base's h(u)
    rng = random.Random(5)
    for _ in range(200):
        vg = random_voltage_graph(rng)
        assert orbit_h_poly(vg, 1) == ihara_h(vg.base)


def test_orbit_pencils_match_the_companion_powers():
    rng = random.Random(5)
    for _ in range(200):
        vg = random_voltage_graph(rng)
        for d in range(1, vg.modulus + 1):
            if vg.modulus % d == 0:
                got = voltage._orbit_pencil(vg, d)
                want = orbit_pencil_by_powers(vg, d)
                assert [x.tolist() for x in got] == [x.tolist() for x in want]


def test_orbit_pencil_memory_grows_with_the_blocks_used():
    # two loops at d = 256: a 128 x 128 pencil, not 256 powers of C
    vg = cayley_serre(256, (1, 3))
    tracemalloc.start()
    try:
        voltage._orbit_pencil(vg, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("d", [1, 2, 4])
def test_orbit_h_validates_the_base_for_every_divisor(d):
    # a lone edge between two vertices: valency 1 at each end; the voltage
    # graph refuses it when built, so no divisor reaches the orbit factor
    base = Multigraph(2, [(0, 1)])
    with pytest.raises(ValueError, match="valency 1 < 2"):
        orbit_h_poly(voltage_graph(base, 4, {0: 1}), d)


def test_orbit_h_rejects_bad_divisor():
    vg = cayley_serre(4, (1, 1))
    with pytest.raises(ValueError):
        orbit_h_poly(vg, 3)


def test_bouquet_voltage_matches_character_sum():
    # the 1x1 voltage-weighted adjacency reduces, mod the d-th cyclotomic
    # polynomial, to sum_s (y^{a_s} + y^{-a_s})
    for m, gens, d in ((4, (1, 1), 4), (9, (1, 4, 20), 9), (9, (1, 4, 20), 3),
                       (12, (1, 5), 6)):
        vg = cayley_serre(m, gens)
        ay = [0] * m
        for sigma in range(m):
            ay[sigma] += artin_A_sigma(vg, sigma)[0][0]
        expected = [0] * m
        for a in gens:
            expected[a % m] += 1
            expected[(-a) % m] += 1
        phi_d = polys.cyclotomic_polynomial(d)
        _, r1 = poly_divmod(polys.trim(ay), phi_d)
        _, r2 = poly_divmod(polys.trim(expected), phi_d)
        assert r1 == r2


def test_product_formula_basic():
    rpt = verify_product_formula(cayley_serre(2, (1, 1)))
    assert rpt.ok
    assert rpt.cover_h == [1, 0, -10, 0, 9]
    assert rpt.orbit_factors[1] == [1, -4, 3]
    assert rpt.orbit_factors[2] == [1, 4, 3]


def test_product_formula_trivial_and_deep():
    assert verify_product_formula(cayley_serre(1, (1, 1))).ok
    assert verify_product_formula(cayley_serre(9, (1, 4, 20))).ok


def test_integer_decomposition_examples():
    rpt = verify_integer_decomposition(cayley_serre(2, (1, 1)))
    assert rpt.ok and rpt.kappa_cover == 4 and rpt.orbit_values[2] == 8
    rpt = verify_integer_decomposition(cayley_serre(3, (1, 4, 20)))
    assert rpt.ok and rpt.kappa_cover == 27
    assert 3 * 27 == rpt.orbit_values[3]
    rpt = verify_integer_decomposition(cayley_serre(4, (3, 5)))
    assert rpt.ok and rpt.kappa_cover == 32


def test_integer_decomposition_rejects_cycle_base():
    base = cycle_graph(3)
    vg = voltage_graph(base, 2, {e: 1 for e in base.undirected_edges()})
    with pytest.raises(ValueError, match="chi"):
        verify_integer_decomposition(vg)


def _orbit_value_by_bareiss(vg, d):
    # h(1, Psi_d) = det(I - A + diag(delta)), the reference pencil at u = 1
    rows, cols, a, delta = orbit_pencil_by_powers(vg, d)
    m = [[0] * len(delta) for _ in delta]
    for i, j, v in zip(rows.tolist(), cols.tolist(), a.tolist()):
        m[i][j] -= v
    for i, dv in enumerate(delta.tolist()):
        m[i][i] += 1 + dv
    return det_bareiss(m)


def test_randomized_identities():
    rng = random.Random(2024)
    for _ in range(25):
        vg = random_voltage_graph(rng, max_vertices=3, max_modulus=8,
                                  max_edges=7)
        assert verify_product_formula(vg).ok
        rpt = verify_integer_decomposition(vg)
        assert rpt.ok
        # the coefficient sums of h(u, Psi_d) are the determinants of the
        # companion-power pencils at u = 1
        assert rpt.orbit_values == {d: _orbit_value_by_bareiss(vg, d)
                                    for d in range(2, vg.modulus + 1)
                                    if vg.modulus % d == 0}


def _theta_over_6():
    # three parallel edges with voltages 0, 1, 2 mod 6: chi = -1, and a
    # base of two vertices, whose count takes a determinant
    base = Multigraph(2, [(0, 1)] * 3)
    return voltage_graph(base, 6, dict(zip(base.undirected_edges(),
                                           (0, 1, 2))))


def test_the_decomposition_reads_the_product_formulas_orbit_factors(
        monkeypatch):
    # after the product formula the decomposition's only determinants are
    # its two matrix-tree counts, of the 12-vertex cover and of the base;
    # with no product formula before it, it builds the orbit factors itself
    # and gives the same report
    vg = _theta_over_6()
    voltage._orbit_factors.cache_clear()
    assert verify_product_formula(vg).ok
    rows = []
    real = linalg.det_residues

    def spy(n, *args):
        rows.append(n)
        return real(n, *args)

    monkeypatch.setattr(linalg, "det_residues", spy)
    warm = verify_integer_decomposition(vg)
    assert warm.ok and rows == [11, 1]
    voltage._orbit_factors.cache_clear()
    rows.clear()
    assert verify_integer_decomposition(_theta_over_6()) == warm
    assert rows[:2] == [11, 1] and len(rows) == 2 + 4


def test_a_report_shares_no_list_with_the_next():
    # the orbit factors are kept for the next check: a caller that edits a
    # report's lists changes no later report for an equal voltage graph
    first = verify_product_formula(_theta_over_6())
    expected = repr(first)
    for h in (first.cover_h, first.orbit_product,
              *first.orbit_factors.values()):
        h[0] += 1
        h.append(7)
    first.orbit_factors[6] = [1]
    again = verify_product_formula(_theta_over_6())
    assert repr(again) == expected and again.ok
    assert verify_integer_decomposition(_theta_over_6()).orbit_values == {
        d: sum(h) for d, h in again.orbit_factors.items() if d > 1}


def test_kappa_divides_cover_kappa():
    rng = random.Random(77)
    for _ in range(12):
        vg = random_voltage_graph(rng, max_vertices=3, max_modulus=8,
                                  max_edges=7)
        kx = spanning_tree_count(vg.base)
        ky = spanning_tree_count(derived_cover(vg))
        assert ky % kx == 0


def test_a_voltage_graph_validates_its_voltages():
    with pytest.raises(ValueError, match="antisymmetric"):
        VoltageGraph(bouquet(2), 4, [1, 2, 1, 3])
    # even voltages build: the counts of the cover refuse it (above)
    assert VoltageGraph(bouquet(2), 4, [2, 2, 2, 2]).voltage == (2, 2, 2, 2)


@pytest.mark.parametrize("key", [2, 5, -1, -2])
def test_a_voltage_key_must_name_a_directed_edge(key):
    # bouquet(1) has the directed edges 0 and 1: a key past them used to
    # raise IndexError, and a negative one wrapped round to an edge
    message = (rf"voltage key {key} is not a directed edge of the base "
               r"\(0\.\.1\)")
    with pytest.raises(ValueError, match=message):
        voltage_graph(bouquet(1), 4, {key: 1})
    assert voltage_graph(bouquet(1), 4, {0: 1}).voltage == (1, 3)


@pytest.mark.parametrize("build, refused", [
    (lambda: VoltageGraph(bouquet(2), 4.0, (1, -1, 2, -2)), "modulus 4.0"),
    (lambda: VoltageGraph(bouquet(2), 4, (1.0, -1.0, 2, -2)), "voltage 1.0"),
    (lambda: VoltageGraph(bouquet(2), True, (1, -1, 2, -2)), "modulus True"),
    (lambda: VoltageGraph(bouquet(2), "4", (1, -1, 2, -2)), "modulus '4'"),
    (lambda: voltage_graph(bouquet(2), 4, {"0": 1}), "voltage key '0'"),
    (lambda: voltage_graph(bouquet(2), 4, {0: 1.5}), "voltage 1.5"),
    (lambda: cayley_serre(8, [1.5, 3]), "generator 1.5"),
    (lambda: cayley_serre("8", [1, 3]), "modulus '8'"),
], ids=["float-modulus", "float-voltage", "bool-modulus", "str-modulus",
        "str-key", "float-value", "float-generator", "str-cayley-modulus"])
def test_a_voltage_graph_is_built_of_integers(build, refused):
    # judged as TowerSpec and Multigraph judge theirs: a float was kept or
    # truncated, True taken as 1, and a str raised TypeError
    with pytest.raises(InputError, match=f"^{refused} is not an integer$"):
        build()
    # numpy integers are integers, and are kept as ints
    vg = voltage_graph(bouquet(2), np.int64(4),
                       {np.int64(0): np.int32(1), 2: np.int64(-2)})
    assert vg == cayley_serre(np.int64(4), [np.int32(1), -2])
    assert [type(s) for s in (vg.modulus, *vg.voltage)] == [int] * 5


def test_the_criterion_5_covers_keep_their_json_and_dot():
    # sha256 of the JSON and DOT of acceptance criterion 5's 200 covers:
    # the cover's edges keep their order, base edge first, then fiber
    rng = random.Random(20240801)
    digest = hashlib.sha256()
    for _ in range(200):
        cover = derived_cover(random_voltage_graph(
            rng, max_vertices=4, max_modulus=12, max_edges=10))
        digest.update(json.dumps(multigraph_to_json(cover)).encode())
        digest.update(to_dot(cover).encode())
    assert digest.hexdigest() == ("30657808662c9bfee25f53eeb2cc0710"
                                  "e5c216d33707cc9d6fc9bd99c6da5f28")


def test_a_voltage_graph_base_cannot_be_edited():
    vg = cayley_serre(4, (1, 2))
    with pytest.raises(AttributeError):
        vg.base.edges = ((0, 5), (0, 0))
    assert vg.base.inverse == (1, 0, 3, 2)
    # antisymmetry is read against e ^ 1, the only inversion there is
    with pytest.raises(ValueError, match="edge 1: voltage not antisymmetric"):
        VoltageGraph(bouquet(1), 4, [1, 1])
    assert orbit_h_poly(vg, 4) == [1, 4, 10, 12, 9]


def test_voltage_json_roundtrip():
    vg = cayley_serre(6, (1, 4))
    data = voltage_to_json(vg)
    vg2 = voltage_from_json(data)
    assert vg2.modulus == 6
    assert ihara_h(derived_cover(vg2)) == ihara_h(derived_cover(vg))
    with pytest.raises(ValueError):
        voltage_from_json({"m": 3})


def test_voltage_graph_requires_matching_lengths():
    with pytest.raises(ValueError):
        VoltageGraph(bouquet(2), 3, [1, 2, 0])
