import random
import tracemalloc

import pytest

from graph_iwasawa import (
    DisconnectedGraphError,
    Multigraph,
    TowerSpec,
    adjacency_matrix,
    betti1,
    bouquet,
    cayley_serre,
    cycle_graph,
    derived_cover,
    euler_characteristic,
    kappa_exact,
    laplacian,
    multigraph_from_json,
    multigraph_to_json,
    spanning_tree_count,
    to_dot,
    valency_matrix,
    validate_serre,
)
from graph_iwasawa import serre
from oracles import (det_bareiss, random_base_multigraph,
                     spanning_trees_brute)


def four_edge_join() -> Multigraph:
    # two vertices joined by four parallel edges
    return Multigraph(2, [(0, 1)] * 4)


def loop_graphs() -> list[Multigraph]:
    """Loops count twice on the adjacency diagonal and drop out of the
    Laplacian: a vertex with two loops (which the seeded random graphs
    below never draw on two or more vertices), and a loop beside parallel
    edges."""
    two_loops = Multigraph(3, [(0, 0), (0, 0), (0, 1), (1, 2), (1, 2), (2, 0)])
    beside = Multigraph(3, [(1, 1), (0, 1), (0, 1), (1, 2), (2, 0)])
    return [two_loops, beside]


def test_validate_bouquet_ok():
    assert validate_serre(bouquet(2)) == []


def test_the_inversion_has_no_fixed_point_by_construction():
    g = bouquet(2)
    assert g.inverse == (1, 0, 3, 2)
    assert (g.origin, g.terminus) == ((0, 0, 0, 0), (0, 0, 0, 0))
    for name in ("edges", "num_vertices"):
        with pytest.raises(AttributeError):
            setattr(g, name, [0])
    assert not hasattr(g, "add_edge") and not hasattr(g, "add_loop")
    assert g == bouquet(2) and g.edges == ((0, 0), (0, 0))


def test_validate_disconnected():
    problems = validate_serre(Multigraph(2, [(0, 0), (1, 1)]))
    assert any("not connected" in p for p in problems)


def test_validate_low_valency():
    assert any("valency" in p for p in validate_serre(Multigraph(2, [(0, 1)])))


def test_validate_names_three_low_vertices_and_counts_the_rest():
    # one edge on 32 768 vertices: the refusal names vertices 0..2 and
    # counts all 32 768, in a few dozen bytes, not one line per vertex
    problems = validate_serre(Multigraph(32768, [(0, 32767)]))
    assert problems == ["graph is not connected",
                        "vertex 0: valency 1 < 2", "vertex 1: valency 0 < 2",
                        "vertex 2: valency 0 < 2",
                        "32768 vertices of valency < 2 in all"]
    assert validate_serre(Multigraph(3, [(0, 1)]))[1:] == [
        "vertex 0: valency 1 < 2", "vertex 1: valency 1 < 2",
        "vertex 2: valency 0 < 2"]


def test_the_inversion_is_an_involution_swapping_ends_by_construction():
    rng = random.Random(3)
    graphs = [random_base_multigraph(rng) for _ in range(20)]
    for g in graphs + loop_graphs() + [cycle_graph(1), cycle_graph(5)]:
        inv, o, t = g.inverse, g.origin, g.terminus
        assert len(inv) == len(o) == len(t) == g.num_directed_edges
        for e in range(g.num_directed_edges):
            assert inv[e] != e and inv[inv[e]] == e
            assert (o[inv[e]], t[inv[e]]) == (t[e], o[e])
        assert g.edges == tuple(zip(o[::2], t[::2]))


def test_multigraph_refuses_bad_vertices():
    for n, edges in ((0, ()), (-1, ()), (2, [(0, 2)]), (2, [(-1, 0)])):
        with pytest.raises(ValueError, match="at least one vertex|range"):
            Multigraph(n, edges)
    for n, edges in ((True, ()), (2.0, ()), (2, [(0, True)]),
                     (2, [(0, 1.0)]), (2, [("0", 1)])):
        with pytest.raises(ValueError, match="is not an integer"):
            Multigraph(n, edges)
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 1, 1)])


def test_multigraph_compares_and_hashes_by_value():
    import numpy as np

    g = Multigraph(np.int64(2), [[np.int64(0), 1], (1, np.int32(0))])
    assert g == Multigraph(2, [(0, 1), (1, 0)]) == cycle_graph(2)
    assert hash(g) == hash(cycle_graph(2))
    assert type(g.num_vertices) is int
    assert {type(w) for pair in g.edges for w in pair} == {int}
    assert g != Multigraph(2, [(1, 0), (0, 1)])
    assert repr(g) == "Multigraph(vertices=2, undirected_edges=2)"


def test_adjacency_examples():
    assert adjacency_matrix(bouquet(2)) == [[4]]
    c4 = adjacency_matrix(cycle_graph(4))
    assert c4 == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    assert adjacency_matrix(four_edge_join()) == [[0, 4], [4, 0]]


def test_adjacency_matches_an_edge_loop():
    rng = random.Random(29)
    graphs = [random_base_multigraph(rng) for _ in range(20)]
    for g in graphs + loop_graphs() + [bouquet(3)]:
        n = g.num_vertices
        a = [[0] * n for _ in range(n)]
        for o, t in zip(g.origin, g.terminus):
            a[o][t] += 1
        assert adjacency_matrix(g) == a


def test_valency_laplacian_examples():
    assert valency_matrix(bouquet(2)) == [[4]]
    assert laplacian(bouquet(2)) == [[0]]
    x1 = four_edge_join()
    assert valency_matrix(x1) == [[4, 0], [0, 4]]
    assert laplacian(x1) == [[4, -4], [-4, 4]]
    assert valency_matrix(cycle_graph(4)) == [
        [2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]


def test_laplacian_rows_sum_zero_and_symmetric():
    rng = random.Random(11)
    for _ in range(20):
        g = random_base_multigraph(rng)
        lap = laplacian(g)
        assert all(sum(row) == 0 for row in lap)
        n = g.num_vertices
        assert all(lap[i][j] == lap[j][i] for i in range(n) for j in range(n))


def test_euler_characteristic_and_betti():
    assert euler_characteristic(bouquet(2)) == -1
    for t in range(1, 6):
        assert euler_characteristic(bouquet(t)) == 1 - t
    for g in (1, 2, 5, 9):
        assert euler_characteristic(cycle_graph(g)) == 0
        assert betti1(cycle_graph(g)) == 1
    assert betti1(bouquet(3)) == 3


def test_edge_counts():
    rng = random.Random(5)
    for _ in range(20):
        g = random_base_multigraph(rng)
        assert 2 * g.num_undirected_edges == g.num_directed_edges


def test_spanning_trees_bouquets_and_cycles():
    for t in range(1, 6):
        assert spanning_tree_count(bouquet(t)) == 1
    for g in (1, 2, 3, 7, 12, 50):
        assert spanning_tree_count(cycle_graph(g)) == g


def test_spanning_trees_crt_path():
    # a long cycle: a wide banded reduced Laplacian, det = 500
    assert spanning_tree_count(cycle_graph(500)) == 500


def test_spanning_trees_cover_example():
    cover = derived_cover(cayley_serre(4, (1, 1)))
    assert cover.num_vertices == 4
    assert cover.num_undirected_edges == 8
    assert spanning_tree_count(cover) == 32


def test_spanning_trees_vs_bruteforce():
    rng = random.Random(23)
    graphs = [random_base_multigraph(rng, max_vertices=4, max_edges=7)
              for _ in range(15)]
    for g in graphs + loop_graphs():
        assert spanning_tree_count(g) == spanning_trees_brute(g)


def test_spanning_trees_deletion_independent():
    # the count deletes row and column 0; every other choice is the same
    rng = random.Random(41)
    graphs = [random_base_multigraph(rng, max_vertices=8, max_edges=12)
              for _ in range(10)]
    for g in graphs + loop_graphs():
        count, lap = spanning_tree_count(g), laplacian(g)
        for i in range(g.num_vertices):
            minor = [row[:i] + row[i + 1:] for row in lap[:i] + lap[i + 1:]]
            assert det_bareiss(minor) == count


def test_spanning_trees_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        spanning_tree_count(Multigraph(2, [(0, 0), (1, 1)]))


def test_vertex_cap():
    with pytest.raises(ValueError, match="cap"):
        spanning_tree_count(cycle_graph(100), cap=64)


def test_vertex_cap_refuses_before_validating(monkeypatch):
    calls = []
    monkeypatch.setattr(serre, "validate_serre",
                        lambda x: calls.append(x) or [])
    with pytest.raises(ValueError, match="cap"):
        spanning_tree_count(cycle_graph(100), cap=64)
    assert calls == []


def test_matrix_tree_count_builds_no_dense_laplacian():
    # a dense reduced Laplacian of this cover alone is (n - 1)^2 int64s,
    # 7.98 MiB; the pattern route peaks well below it
    spec, level = TowerSpec(2, (1, 1)), 10
    cover = derived_cover(cayley_serre(2 ** level, spec.generators))
    n = cover.num_vertices
    tracemalloc.start()
    try:
        count = spanning_tree_count(cover)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == kappa_exact(spec, level)
    assert peak < (n - 1) ** 2 * 8


def test_dot_export():
    dot = to_dot(derived_cover(cayley_serre(2, (1, 1))), name="x1")
    assert dot == ("graph x1 {\n  0;\n  1;\n"
                   + "  0 -- 1;\n" * 4 + "}\n")
    assert to_dot(bouquet(2)).count("0 -- 0;") == 2


def test_json_roundtrip():
    g = four_edge_join()
    data = multigraph_to_json(g)
    g2 = multigraph_from_json(data)
    assert adjacency_matrix(g2) == adjacency_matrix(g)
    with pytest.raises(ValueError):
        multigraph_from_json({"edges": []})
