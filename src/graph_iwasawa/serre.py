"""Finite multigraphs in Serre form and their exact matrix invariants.

A multigraph is a set of directed edges together with a fixed-point-free
inversion pairing each directed edge with its reverse.  Loops and parallel
edges are allowed; an undirected edge is an orbit {e, inverse(e)}.  All
graphs handled here are expected to be finite, connected, and free of
degree-one vertices; ``validate_serre`` reports every violation.

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

from ._records import json_int

# Graphs beyond this many vertices are refused by the matrix-tree count
# and by the voltage-graph checks built on it.
DEFAULT_VERTEX_CAP = 1 << 15


class DisconnectedGraphError(ValueError):
    """The operation requires a connected multigraph."""


class Multigraph:
    """Serre-form multigraph with dense 0-based vertex and edge ids.

    Directed edges are stored as parallel arrays ``origin``, ``terminus``,
    ``inverse``.  Use ``add_edge``/``add_loop`` to build; both synthesize
    the directed pair.  Treat instances as frozen once built.
    """

    __slots__ = ("num_vertices", "origin", "terminus", "inverse")

    def __init__(self, num_vertices: int):
        if num_vertices < 1:
            raise ValueError("a multigraph needs at least one vertex")
        self.num_vertices = num_vertices
        self.origin: list[int] = []
        self.terminus: list[int] = []
        self.inverse: list[int] = []

    def add_edge(self, u: int, v: int) -> tuple[int, int]:
        """Add an undirected edge between u and v; returns the directed pair."""
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            raise ValueError("vertex id out of range")
        e = len(self.origin)
        self.origin += [u, v]
        self.terminus += [v, u]
        self.inverse += [e + 1, e]
        return e, e + 1

    def add_loop(self, v: int) -> tuple[int, int]:
        return self.add_edge(v, v)

    @property
    def num_directed_edges(self) -> int:
        return len(self.origin)

    @property
    def num_undirected_edges(self) -> int:
        return len(self.origin) // 2

    def undirected_edges(self) -> list[int]:
        """Canonical representatives: the smaller id of each orbit."""
        return [e for e in range(len(self.origin)) if e < self.inverse[e]]

    def valencies(self) -> list[int]:
        out = [0] * self.num_vertices
        for o in self.origin:
            out[o] += 1
        return out

    def __repr__(self):
        return (f"Multigraph(vertices={self.num_vertices}, "
                f"undirected_edges={self.num_undirected_edges})")


def bouquet(t: int) -> Multigraph:
    """B_t: one vertex carrying t loops."""
    g = Multigraph(1)
    for _ in range(t):
        g.add_loop(0)
    return g


def cycle_graph(n: int) -> Multigraph:
    """C_n.  C_1 is a single loop and C_2 a doubled edge."""
    g = Multigraph(n)
    if n == 1:
        g.add_loop(0)
    else:
        for v in range(n):
            g.add_edge(v, (v + 1) % n)
    return g


def _components(x: Multigraph) -> int:
    n = x.num_vertices
    adj: list[list[int]] = [[] for _ in range(n)]
    for o, t in zip(x.origin, x.terminus):
        adj[o].append(t)
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
    """Every axiom violation, as human-readable strings; [] when valid."""
    out = []
    ne = len(x.origin)
    if not (len(x.terminus) == len(x.inverse) == ne):
        return ["edge arrays have inconsistent lengths"]
    for e in range(ne):
        if not (0 <= x.origin[e] < x.num_vertices
                and 0 <= x.terminus[e] < x.num_vertices):
            out.append(f"edge {e}: endpoint out of range")
        ie = x.inverse[e]
        if not (0 <= ie < ne):
            out.append(f"edge {e}: inverse id out of range")
            continue
        if ie == e:
            out.append(f"edge {e}: inversion has a fixed point")
        if x.inverse[ie] != e:
            out.append(f"edge {e}: inversion is not an involution")
        if x.origin[ie] != x.terminus[e] or x.terminus[ie] != x.origin[e]:
            out.append(f"edge {e}: inverse does not swap origin and terminus")
    if not out:
        if _components(x) != 1:
            out.append("graph is not connected")
        for v, val in enumerate(x.valencies()):
            if val < 2:
                out.append(f"vertex {v}: valency {val} < 2")
    return out


def require_valid(x: Multigraph) -> None:
    problems = validate_serre(x)
    if problems:
        if any("not connected" in p for p in problems):
            raise DisconnectedGraphError("; ".join(problems))
        raise ValueError("invalid multigraph: " + "; ".join(problems))


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
    """
    n = x.num_vertices
    if n > cap:
        raise ValueError(f"graph has {n} vertices, beyond the cap of {cap}")
    require_valid(x)
    if n == 1:
        return 1
    import numpy as np

    from . import linalg

    rows, cols, counts = _edge_pattern(n, x.origin, x.terminus)
    # D - A on A's pattern: valency minus twice the loops on the diagonal
    lap = np.where(rows == cols,
                   np.bincount(x.origin, minlength=n)[rows] - counts, -counts)
    keep = (rows != 0) & (cols != 0)
    # vertex v > 0 is row v - 1
    rows, cols = rows[keep] - 1, cols[keep] - 1
    det = linalg.det_pattern(n - 1, rows, cols, lap[keep])
    if det <= 0:  # require_valid proved x connected: an engine fault
        raise ArithmeticError("reduced Laplacian is singular")
    return det


def to_dot(x: Multigraph, name: str = "multigraph") -> str:
    """DOT source; multi-edges repeated, loops as self-edges."""
    lines = [f"graph {name} {{"]
    for v in range(x.num_vertices):
        lines.append(f"  {v};")
    pairs = sorted((min(x.origin[e], x.terminus[e]),
                    max(x.origin[e], x.terminus[e]), e)
                   for e in x.undirected_edges())
    for u, v, _ in pairs:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def multigraph_to_json(x: Multigraph) -> dict:
    return {
        "vertices": x.num_vertices,
        "edges": [{"u": x.origin[e], "v": x.terminus[e]}
                  for e in x.undirected_edges()],
    }


def multigraph_from_json(data: dict) -> Multigraph:
    try:
        n = json_int(data["vertices"])
        pairs = [(json_int(rec["u"]), json_int(rec["v"]))
                 for rec in data["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed multigraph JSON: {exc!r}") from exc
    g = Multigraph(n)
    for u, v in pairs:
        g.add_edge(u, v)
    return g
