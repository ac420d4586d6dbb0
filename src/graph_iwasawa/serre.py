"""Finite multigraphs in Serre form and their exact matrix invariants.

A multigraph is a set of directed edges together with a fixed-point-free
inversion pairing each directed edge with its reverse.  Loops and parallel
edges are allowed; an undirected edge is an orbit {e, inverse(e)}.  A
``Multigraph`` is a frozen record of its undirected edges, so the inversion
axioms hold by construction.  All graphs handled here are expected to be
finite, connected, and free of degree-one vertices; ``validate_serre``
reports every violation of those two.

Every matrix of a graph is built from one sparse pattern of its edge
arrays (``_edge_pattern``): the adjacency matrix on its distinct positions
plus the whole diagonal.  Spanning trees are counted exactly through the
matrix-tree theorem: the determinant of the reduced Laplacian, given to the
rigorous multi-modular CRT engine of ``linalg`` as its values on that
pattern, never as a dense n x n array.  numpy and ``linalg`` are imported
by those two functions only, so building, validating and rendering a graph
loads neither.
"""

from __future__ import annotations

import math
from itertools import chain

from ._records import InputError, Record, integer, json_int

# Graphs beyond this many vertices are refused by the matrix-tree count
# and by the voltage-graph checks built on it.
DEFAULT_VERTEX_CAP = 1 << 15


class DisconnectedGraphError(InputError):
    """The operation requires a connected multigraph."""


class Multigraph(Record):
    """Serre-form multigraph with dense 0-based vertex and edge ids.

    ``edges`` holds the undirected edges as (u, v) pairs.  Pair i is the
    directed edge 2i from u to v and 2i + 1 from v to u, so the inverse of
    directed edge e is e ^ 1: the inversion has no fixed point, is an
    involution and swaps the ends of every edge by construction.  The
    directed arrays ``origin``, ``terminus`` and ``inverse`` are derived.
    """

    __slots__ = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges=()):
        n = integer(num_vertices, "vertex count")
        if n < 1:
            raise InputError("a multigraph needs at least one vertex")
        edges = tuple((integer(u, "vertex"), integer(v, "vertex"))
                      for u, v in edges)
        ends = list(chain.from_iterable(edges))
        if ends and not 0 <= min(ends) <= max(ends) < n:
            raise InputError("vertex id out of range")
        self._set(n, edges)

    @property
    def origin(self) -> tuple:
        return tuple(chain.from_iterable(self.edges))

    @property
    def terminus(self) -> tuple:
        return tuple(w for u, v in self.edges for w in (v, u))

    @property
    def inverse(self) -> tuple:
        return tuple(e ^ 1 for e in range(2 * len(self.edges)))

    @property
    def num_directed_edges(self) -> int:
        return 2 * len(self.edges)

    @property
    def num_undirected_edges(self) -> int:
        return len(self.edges)

    def undirected_edges(self) -> list[int]:
        """Canonical representatives: the smaller id of each orbit."""
        return list(range(0, 2 * len(self.edges), 2))

    def valencies(self) -> list[int]:
        out = [0] * self.num_vertices
        for o in chain.from_iterable(self.edges):
            out[o] += 1
        return out

    def __repr__(self):
        return (f"Multigraph(vertices={self.num_vertices}, "
                f"undirected_edges={self.num_undirected_edges})")


def bouquet(t: int) -> Multigraph:
    """B_t: one vertex carrying t loops."""
    return Multigraph(1, [(0, 0)] * t)


def cycle_graph(n: int) -> Multigraph:
    """C_n.  C_1 is a single loop and C_2 a doubled edge."""
    return Multigraph(n, [(v, (v + 1) % n) for v in range(n)])


def _components(x: Multigraph) -> int:
    n = x.num_vertices
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in x.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return comps


def validate_serre(x: Multigraph) -> list[str]:
    """Every violation of connectivity and of valency >= 2, as
    human-readable strings; [] when valid.  The first three vertices of
    valency < 2 are named and any more only counted, so that a refusal
    stays short however many vertices fail."""
    out = [] if _components(x) == 1 else ["graph is not connected"]
    low = [(v, val) for v, val in enumerate(x.valencies()) if val < 2]
    out += [f"vertex {v}: valency {val} < 2" for v, val in low[:3]]
    if len(low) > 3:
        out.append(f"{len(low)} vertices of valency < 2 in all")
    return out


def require_valid(x: Multigraph) -> None:
    problems = validate_serre(x)
    if problems:
        if any("not connected" in p for p in problems):
            raise DisconnectedGraphError("; ".join(problems))
        raise InputError("invalid multigraph: " + "; ".join(problems))


def _edge_pattern(n: int, origin, terminus) -> tuple:
    """(rows, cols, counts) of the n x n adjacency matrix of the directed
    edges origin[e] -> terminus[e]: its distinct nonzero positions and
    every diagonal position, row-major, with the edge count at each (2 per
    loop on the diagonal, 0 where a vertex has none)."""
    import numpy as np

    keys = np.concatenate([np.asarray(origin, dtype=np.int64) * n
                           + np.asarray(terminus, dtype=np.int64),
                           np.arange(n, dtype=np.int64) * (n + 1)])
    keys, counts = np.unique(keys, return_counts=True)
    rows, cols = np.divmod(keys, n)
    return rows, cols, counts - (rows == cols)


def _adjacency_lists(n: int, origin, terminus) -> list[list[int]]:
    """``_edge_pattern`` written out as an n x n list of lists."""
    a = [[0] * n for _ in range(n)]
    for i, j, c in zip(*(v.tolist() for v in
                         _edge_pattern(n, origin, terminus))):
        a[i][j] = c
    return a


def adjacency_matrix(x: Multigraph) -> list[list[int]]:
    """a_ii = twice the loops at i; a_ij = undirected edges between i and j."""
    return _adjacency_lists(x.num_vertices, x.origin, x.terminus)


def valency_matrix(x: Multigraph) -> list[list[int]]:
    n = x.num_vertices
    d = [[0] * n for _ in range(n)]
    for v, val in enumerate(x.valencies()):
        d[v][v] = val
    return d


def laplacian(x: Multigraph) -> list[list[int]]:
    a = adjacency_matrix(x)
    for v, val in enumerate(x.valencies()):
        a[v][v] -= val
        for j in range(x.num_vertices):
            a[v][j] = -a[v][j]
    return a


def euler_characteristic(x: Multigraph) -> int:
    return x.num_vertices - x.num_undirected_edges


def betti1(x: Multigraph) -> int:
    return 1 - euler_characteristic(x)


def spanning_tree_count(x: Multigraph, *,
                        cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Number of spanning trees (matrix-tree theorem), exact: the
    determinant of the Laplacian with row and column 0 removed.  Graphs
    with more than ``cap`` vertices are refused before any other work.

    The determinant's CRT is bounded by the product of the reduced
    Laplacian's diagonal, each vertex's valency minus twice its loops.  The
    Laplacian is positive semidefinite, and so is its principal submatrix
    the reduced Laplacian, whose determinant Hadamard's inequality then
    puts between 0 and the product of its diagonal.
    """
    n = x.num_vertices
    if n > cap:
        raise InputError(f"graph has {n} vertices, beyond the cap of {cap}")
    require_valid(x)
    if n == 1:
        return 1
    import numpy as np

    from . import linalg

    origin = x.origin
    rows, cols, counts = _edge_pattern(n, origin, x.terminus)
    # D - A on A's pattern: valency minus twice the loops on the diagonal
    lap = np.where(rows == cols,
                   np.bincount(origin, minlength=n)[rows] - counts, -counts)
    keep = (rows != 0) & (cols != 0)
    # vertex v > 0 is row v - 1
    rows, cols, lap = rows[keep] - 1, cols[keep] - 1, lap[keep]
    bound = math.prod(lap[rows == cols].tolist())
    det = linalg.det_pattern(n - 1, rows, cols, lap, bound=bound)
    if det <= 0:  # require_valid proved x connected: an engine fault
        raise ArithmeticError("reduced Laplacian is singular")
    return det


def to_dot(x: Multigraph, name: str = "multigraph") -> str:
    """DOT source; multi-edges repeated, loops as self-edges."""
    lines = [f"graph {name} {{"]
    for v in range(x.num_vertices):
        lines.append(f"  {v};")
    for u, v in sorted((min(u, v), max(u, v)) for u, v in x.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def multigraph_to_json(x: Multigraph) -> dict:
    return {
        "vertices": x.num_vertices,
        "edges": [{"u": u, "v": v} for u, v in x.edges],
    }


def multigraph_from_json(data: dict) -> Multigraph:
    try:
        n = json_int(data["vertices"])
        pairs = [(json_int(rec["u"]), json_int(rec["v"]))
                 for rec in data["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed multigraph JSON: {exc!r}") from exc
    return Multigraph(n, pairs)
