#!/usr/bin/env python3
"""Serre multigraphs, their matrices, and exact spanning-tree counts.

A multigraph here is a set of directed edges paired off by a fixed-point
free inversion; loops and parallel edges are first-class citizens.  The
spanning-tree count comes from the matrix-tree theorem, evaluated with
exact integer arithmetic no matter how large the answer gets.
"""

from graph_iwasawa import (
    Multigraph,
    adjacency_matrix,
    betti1,
    bouquet,
    cycle_graph,
    euler_characteristic,
    laplacian,
    spanning_tree_count,
    to_dot,
    valency_matrix,
    validate_serre,
)

print("== the bouquet B_2: one vertex, two loops ==")
b2 = bouquet(2)
print("violations:", validate_serre(b2) or "none")
print("adjacency:", adjacency_matrix(b2))
print("valency:  ", valency_matrix(b2))
print("laplacian:", laplacian(b2))
print("chi =", euler_characteristic(b2), " b1 =", betti1(b2))
print("spanning trees:", spanning_tree_count(b2))

print()
print("== two vertices joined by four parallel edges ==")
x1 = Multigraph(2, [(0, 1)] * 4)
print("adjacency:", adjacency_matrix(x1))
print("spanning trees:", spanning_tree_count(x1), "(one per connecting edge)")

print()
print("== cycles: kappa(C_g) = g ==")
for g in (3, 10, 64):
    print(f"  C_{g}: {spanning_tree_count(cycle_graph(g))}")

print()
print("== the count is exact at any size ==")
c = cycle_graph(1000)
print("C_1000 spanning trees:", spanning_tree_count(c))

print()
print("== DOT export for quick visual checks ==")
print(to_dot(x1, name="four_edges"), end="")
