"""Seeded graph inputs and the command list of each workload.

The program only ever sees the graph files written here and the bundled
fixtures.  Random graphs are connected labeled multigraphs (loops and
parallel edges allowed); between them the three labeling modes are all
exercised: vertex (no labels in the file), explicit (labels in the
file) and multiedge (chosen on the command line).
"""

from __future__ import annotations

import json
import os
import random

FIXTURES = (
    "circulant-3",
    "example-6-2",
    "example-6-2-noloop",
    "one-loop",
    "single-edge",
    "three-loop",
    "two-loop",
)

# Size of the seeded enum-moments graph: admissible words of length
# ENUM_LENGTH, counted from adjacency-matrix powers, within ENUM_TOLERANCE
# of ENUM_WALKS.  The length is fixed so that only the graph varies with
# the seed.
ENUM_WALKS = 250_000
ENUM_LENGTH = 8
ENUM_TOLERANCE = 0.02


def fixture(name: str) -> list:
    return ["--graph", f"fixtures/{name}.json"]


# Small commands that end every pass, so that each workload reaches every
# layer the traced pass measures and no layer metric is 0.  The two
# example-6-2 lengths give kernel.words_growth_x where the workload has
# no larger pair of its own.
COVERAGE = (
    ["moments", *fixture("example-6-2"), "--n", "5"],
    ["moments", *fixture("example-6-2"), "--n", "6", "--verify", "--words"],
    ["cumulants", *fixture("one-loop"), "--n", "4", "--formula", "both"],
    ["freeness", *fixture("two-loop"), "--families", "1,2", "--max-n", "2"],
    ["fractaloid", *fixture("one-loop"), "--depth", "2"],
    ["tree", *fixture("one-loop"), "--depth", "2"],
)


def random_graph(rng: random.Random, n_vertices: int, n_edges: int, labels=None) -> dict:
    """A connected multigraph: a random spanning tree with random edge
    directions, then random extra edges (loops and parallels allowed).
    labels, when given, is the range explicit labels are drawn from."""
    vs = [f"r{i}" for i in range(1, n_vertices + 1)]
    pairs = []
    for i in range(1, n_vertices):
        a, b = vs[i], rng.choice(vs[:i])
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    while len(pairs) < n_edges:
        pairs.append((rng.choice(vs), rng.choice(vs)))
    edges = []
    for j, (s, d) in enumerate(pairs, start=1):
        rec = {"id": f"a{j:02d}", "src": s, "dst": d}
        if labels is not None:
            rec["label"] = rng.choice(labels)
        edges.append(rec)
    return {"vertices": vs, "edges": edges}


def walk_count(graph: dict, n: int) -> int:
    """Admissible words of length n on the shadowed graph: the entry sum
    of A^n, A counting signed edges between vertices."""
    idx = {v: i for i, v in enumerate(graph["vertices"])}
    k = len(idx)
    adj = [[0] * k for _ in range(k)]
    for e in graph["edges"]:
        s, d = idx[e["src"]], idx[e["dst"]]
        adj[s][d] += 1
        adj[d][s] += 1
    vec = [1] * k
    for _ in range(n):
        vec = [sum(adj[i][j] * vec[j] for j in range(k)) for i in range(k)]
    return sum(vec)


def enum_graph(rng: random.Random) -> dict:
    """The seed's first random graph whose walk count at ENUM_LENGTH is
    within ENUM_TOLERANCE of ENUM_WALKS."""
    for _ in range(100_000):
        nv = rng.randint(2, 5)
        g = random_graph(rng, nv, rng.randint(nv, nv + 4))
        if abs(walk_count(g, ENUM_LENGTH) / ENUM_WALKS - 1) < ENUM_TOLERANCE:
            return g
    raise RuntimeError("no graph of the requested size")


def _write(work: str, name: str, graph: dict) -> str:
    path = os.path.join(work, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph, fh, indent=1, sort_keys=True)
    return path


def workload(name: str, seed: int, work: str) -> tuple:
    """(commands, graphs): the argv lists of one pass, without --json,
    and the --graph arguments of the graphs the workload reads."""
    rng = random.Random(f"{name}:{seed}")
    if name == "enum-moments":
        rand = ["--graph", _write(work, "enum-random", enum_graph(rng))]
        graphs = [fixture("two-loop"), fixture("example-6-2"), fixture("circulant-3"), rand]
        cmds = [
            ["moments", *fixture("two-loop"), "--n", "8"],
            ["moments", *fixture("example-6-2"), "--n", "9"],
            ["moments", *fixture("example-6-2"), "--n", "10"],
            ["moments", *fixture("circulant-3"), "--n", "16"],
            ["moments", *fixture("example-6-2"), "--n", "8", "--words"],
            ["moments", *rand, "--n", str(ENUM_LENGTH)],
        ]
    elif name == "oracle-cumulants":
        graphs = [fixture("example-6-2"), fixture("two-loop"), fixture("three-loop"), fixture("one-loop")]
        cmds = [
            ["moments", *fixture("example-6-2"), "--n", "8", "--verify"],
            ["oracle", *fixture("two-loop"), "--n", "7", "--max-len", "7"],
            # the basis budget runs out at length 7: exit 5, partial result
            ["oracle", *fixture("three-loop"), "--n", "8", "--max-len", "8"],
            ["cumulants", *fixture("example-6-2"), "--n", "7"],
            ["cumulants", *fixture("one-loop"), "--n", "6", "--formula", "both"],
            ["joint", *fixture("example-6-2"), "--indices", "1,-1,1,-1,2,-2,1,-1"],
            ["freeness", *fixture("two-loop"), "--families", "1,2", "--max-n", "4"],
        ]
    elif name == "small-batch":
        explicit = random_graph(rng, 3, 5, labels=(1, 2))
        plain = random_graph(rng, 3, 5)
        graphs = [fixture(f) for f in FIXTURES] + [
            ["--graph", _write(work, "small-explicit", explicit)],
            ["--graph", _write(work, "small-multiedge", plain), "--labeling", "multiedge"],
        ]
        cmds = []
        for g in graphs:
            cmds += [
                ["moments", *g, "--n", "4", "--verify"],
                ["fractaloid", *g, "--depth", "4"],
                ["tree", *g, "--depth", "3"],
            ]
        cmds += [["lattice", "--max-label", "2", "--length", "6"], ["nc", "--n", "6"]]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return cmds + [list(c) for c in COVERAGE], graphs


WORKLOADS = ("enum-moments", "oracle-cumulants", "small-batch")
