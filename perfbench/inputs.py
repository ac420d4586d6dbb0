"""Benchmark inputs, drawn from the seed.

The default seed reproduces the acceptance corpus (tests/test_acceptance.py)
and the criterion-5 voltage graphs exactly.  Any other seed keeps the
shape of every input and redraws the rest:

* a tower spec keeps its prime, its number of jumps t, its largest jump
  magnitude and the depth it is run at; the other jumps are redrawn as
  distinct magnitudes below the largest (all equal when the corpus spec's
  are), every sign is redrawn, and at least one jump stays coprime to l;
* a voltage graph keeps its vertex count, edge count and modulus; its
  edges and voltages are redrawn within the criterion-5 bounds.

Work per job depends mostly on those shape parameters, less on which
jumps or edges were drawn.  A run makes several passes and each pass gets
its own draw (``draw`` 0, 1, ...), so a run's figures average over several
draws instead of hanging on one; the default seed gives the corpus in
every pass.
Everything here is plain data, so run.py itself never imports the
package it measures.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

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

# tower-deep: (corpus index, command, level, format, extra flags).  Each
# level is near the deepest one a single process finishes in 1-3 s; the two
# kappa jobs print a kappa of more than 4300 decimal digits.
TOWER_DEEP_JOBS = [
    (1, "tower", 13, "text", ()),
    (2, "tower", 12, "json", ()),
    (3, "tower", 8, "csv", ()),
    (7, "tower", 5, "text", ()),
    (8, "tower", 5, "json", ()),
    (0, "tower", 13, "csv", ("--parallel",)),
    (4, "tower", 8, "json", ()),
    (5, "tower", 8, "csv", ()),
    (6, "tower", 5, "csv", ()),
    (3, "kappa", 9, "json", ()),
    (0, "kappa", 14, "text", ()),
]

# cover-oracle: (corpus index, level) of the derived covers whose spanning
# trees are counted by the matrix-tree route (243-1024 vertices) ...
MATRIX_TREE_COVERS = [(3, 5), (1, 9), (7, 4), (5, 6), (0, 10)]
# ... and of the covers whose zeta polynomial is built (16-32 vertices).
ZETA_COVERS = [(1, 4), (7, 2), (4, 3), (3, 3), (2, 5)]

# ... and the first criterion-5 voltage graphs whose derived cover has
# 24-32 vertices.  Smaller covers cost about a millisecond, larger ones up
# to seconds; this band keeps the middle of the job-time distribution dense,
# so job_p50_s does not jump between job types from one seed to the next,
# and leaves the matrix-tree covers as the slowest jobs, so job_tail_s is
# the 512-vertex matrix-tree job.
VOLTAGE_GRAPHS = 10
COVER_VERTICES = range(24, 33)
CRITERION5_SEED = 20240801
MAX_VERTICES, MAX_MODULUS, MAX_EDGES = 4, 12, 10


def corpus_depth(ell: int) -> int:
    n = 0
    while ell ** (n + 1) <= ORACLE_VERTEX_LIMIT:
        n += 1
    return n


def _rng(seed: int, draw: int, what: str) -> random.Random:
    key = f"{seed}" if draw == 0 else f"{seed}:{draw}"
    return random.Random(f"perfbench:{key}:{what}")


def draw_spec(seed: int, index: int,
              draw: int = 0) -> tuple[int, tuple[int, ...]]:
    """The seed's version of corpus spec ``index``."""
    ell, gens = CORPUS[index]
    if seed == DEFAULT_SEED:
        return ell, gens
    rng = _rng(seed, draw, f"spec:{index}")
    mags = [abs(a) for a in gens]
    top = max(mags)
    at = mags.index(top)
    while True:
        if len(set(mags)) == 1:
            others = [top] * (len(mags) - 1)
        else:
            others = rng.sample(range(1, top), len(mags) - 1)
        new = others[:at] + [top] + others[at:]
        if any(m % ell for m in new):
            break
    return ell, tuple(m * rng.choice((1, -1)) for m in new)


def tower_deep(seed: int, draw: int) -> list[dict]:
    jobs = []
    for index, command, level, fmt, flags in TOWER_DEEP_JOBS:
        ell, gens = draw_spec(seed, index, draw)
        argv = [command, "-l", str(ell), "-a", ",".join(map(str, gens)),
                "-n", str(level), "--format", fmt, *flags]
        jobs.append({"argv": argv, "ell": ell, "generators": list(gens),
                     "command": command, "n": level, "format": fmt})
    return jobs


def level_sweep(seed: int, draw: int) -> dict:
    specs = []
    for index in range(len(CORPUS)):
        ell, gens = draw_spec(seed, index, draw)
        specs.append({"ell": ell, "generators": list(gens),
                      "depth": corpus_depth(ell)})
    return {"specs": specs}


def cover_oracle(seed: int, draw: int) -> dict:
    def covers(table):
        out = []
        for index, level in table:
            ell, gens = draw_spec(seed, index, draw)
            out.append({"ell": ell, "generators": list(gens), "n": level})
        return out
    return {"matrix_tree": covers(MATRIX_TREE_COVERS),
            "zeta": covers(ZETA_COVERS),
            "voltage": voltage_graphs(seed, draw)}


# ---------------------------------------------------------------------------
# Voltage graphs, as the JSON that graph_iwasawa.voltage_from_json reads
# ---------------------------------------------------------------------------

def _valencies(g: int, edges: list) -> list[int]:
    val = [0] * g
    for u, v in edges:
        val[u] += 1
        val[v] += 1
    return val


def _criterion5_base(rng: random.Random) -> tuple[int, list]:
    # Same draws, in the same order, as random_base_multigraph in
    # tests/oracles.py, so the default seed yields criterion 5's graphs.
    while True:
        g = rng.randint(1, MAX_VERTICES)
        edges = [(v, rng.randrange(v)) for v in range(1, g)]
        guard = 0
        while len(edges) < MAX_EDGES and guard < 50:
            guard += 1
            vals = _valencies(g, edges)
            low = [v for v in range(g) if vals[v] < 2]
            if low:
                v = low[0]
                if rng.random() < 0.5:
                    edges.append((v, v))
                else:
                    edges.append((v, rng.randrange(g)))
            elif len(edges) == g or rng.random() < 0.35:
                edges.append((rng.randrange(g), rng.randrange(g)))
            else:
                break
        if (min(_valencies(g, edges)) >= 2 and g - len(edges) != 0
                and len(edges) <= MAX_EDGES):
            return g, edges


def _cover_connected(g: int, m: int, edges: list, volts: list) -> bool:
    parent = list(range(g * m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v), s in zip(edges, volts):
        for k in range(m):
            a, b = find(k * g + u), find(((k + s) % m) * g + v)
            parent[a] = b
    return len({find(x) for x in range(g * m)}) == 1


def _as_json(m: int, edges: list, volts: list) -> dict:
    return {"m": m, "edges": [{"u": u, "v": v, "voltage": s}
                              for (u, v), s in zip(edges, volts)]}


def _criterion5_graph(rng: random.Random) -> dict:
    while True:
        g, edges = _criterion5_base(rng)
        m = rng.randint(1, MAX_MODULUS)
        volts = [rng.randrange(m) for _ in edges]
        if _cover_connected(g, m, edges, volts):
            return _as_json(m, edges, volts)


def _shaped_graph(rng: random.Random, g: int, m: int, count: int) -> dict:
    while True:
        edges = [(v, rng.randrange(v)) for v in range(1, g)]
        while len(edges) < count:
            edges.append((rng.randrange(g), rng.randrange(g)))
        if min(_valencies(g, edges)) < 2:
            continue
        for _ in range(100):
            volts = [rng.randrange(m) for _ in edges]
            if _cover_connected(g, m, edges, volts):
                return _as_json(m, edges, volts)


def _vertex_count(vg: dict) -> int:
    return 1 + max(max(e["u"], e["v"]) for e in vg["edges"])


def voltage_graphs(seed: int, draw: int) -> list[dict]:
    rng = random.Random(CRITERION5_SEED)
    corpus = []
    while len(corpus) < VOLTAGE_GRAPHS:
        vg = _criterion5_graph(rng)
        if _vertex_count(vg) * vg["m"] in COVER_VERTICES:
            corpus.append(vg)
    if seed == DEFAULT_SEED:
        return corpus
    rng = _rng(seed, draw, "voltage")
    return [_shaped_graph(rng, _vertex_count(vg), vg["m"], len(vg["edges"]))
            for vg in corpus]


def inputs(workload: str, seed: int, draw: int = 0):
    """The inputs of one pass: draw 0 of a seed is the same at every run
    length, and further passes take draws 1, 2, ..."""
    return {"tower-deep": tower_deep, "level-sweep": level_sweep,
            "cover-oracle": cover_oracle}[workload](seed, draw)

