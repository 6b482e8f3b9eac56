"""Reference results for the benchmark's CLI commands.

Every reference is computed here, from the graph file alone, by a route
that shares no code with the program under test:

- moments and oracle diagonals: the first-return excursion recurrence
  on the universal-cover tree (polynomial in n);
- joint moments, cumulants and freeness: nested closed-walk counts for
  each noncrossing partition, summed with the Moebius function that the
  Kreweras complement gives (partitions are found by filtering all set
  partitions, not by the program's generator);
- the exit-5 oracle command: the predicted basis size against the
  basis budget;
- fractaloid and tree: the local label criterion and walk counts from
  adjacency powers, with the DOT text rebuilt from the walks;
- lattice: brute-force balance count; nc: the filtered partitions.

``expected(graph_cache, argv, basis_budget)`` returns the expected
(exit code, result, status) of one command.  ``normalized`` puts an
actual result in the form the reference uses.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from math import comb


class Graph:
    """A labeled shadowed graph in flat integer form.

    Signed edge 2i is base edge i (edges sorted by id) and 2i+1 its
    shadow, so the inverse of e is e ^ 1.  out[v] lists the signed edges
    leaving vertex v in signed-edge order.
    """

    def __init__(self, vertices, edges, labels, mode):
        self.vertices = sorted(vertices)
        vidx = {v: i for i, v in enumerate(self.vertices)}
        edges = sorted(edges, key=lambda e: e[0])
        self.mode = mode
        self.names, self.src, self.dst, self.label = [], [], [], []
        for eid, s, d in edges:
            k = labels[eid]
            self.names += [eid, "~" + eid]
            self.src += [vidx[s], vidx[d]]
            self.dst += [vidx[d], vidx[s]]
            self.label += [k, -k]
        self.max_label = max(labels.values())
        self.out = [[] for _ in self.vertices]
        for e, s in enumerate(self.src):
            self.out[s].append(e)
        self._memo = {}

    @property
    def n_signed(self):
        return len(self.src)


def load_graph(path, labeling="auto"):
    """Parse a graph file and label it the way the CLI documents:
    explicit labels from the file, per-vertex out-degree order, or the
    index among parallel edges."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    edges = [(e["id"], e["src"], e["dst"]) for e in obj["edges"]]
    file_labels = {e["id"]: e["label"] for e in obj["edges"] if "label" in e}
    mode = labeling
    if mode == "auto":
        mode = "explicit" if file_labels else "vertex"
    labels = {}
    if mode == "explicit":
        labels = file_labels
    elif mode == "vertex":
        for v in obj["vertices"]:
            out = sorted(e[0] for e in edges if e[1] == v)
            labels.update((eid, j) for j, eid in enumerate(out, start=1))
    elif mode == "multiedge":
        groups = {}
        for eid, s, d in edges:
            groups.setdefault((s, d), []).append(eid)
        for ids in groups.values():
            labels.update((eid, j) for j, eid in enumerate(sorted(ids), start=1))
    else:
        raise ValueError(f"unknown labeling {labeling!r}")
    return Graph(obj["vertices"], edges, labels, mode)


# ---------------------------------------------------------------------------
# Closed walks on the universal cover


def closed_walks(g: Graph, n: int) -> list:
    """Per vertex v, the number of length-n words from v that freely
    reduce to v, by first-return excursions:
    H_e(m) counts closed walks of length m below the tree edge e,
    H_e(m) = sum_{k>=2} sum_{f out of dst e, f != inv e} H_f(k-2) H_e(m-k),
    and M_v is the same sum over every f out of v."""
    h = [[1] + [0] * n for _ in range(g.n_signed)]
    for m in range(1, n + 1):
        for e in range(g.n_signed):
            h[e][m] = sum(
                h[f][k - 2] * h[e][m - k]
                for k in range(2, m + 1)
                for f in g.out[g.dst[e]]
                if f != e ^ 1
            )
    counts = []
    for v in range(len(g.vertices)):
        mv = [1] + [0] * n
        for m in range(1, n + 1):
            mv[m] = sum(h[f][k - 2] * mv[m - k] for k in range(2, m + 1) for f in g.out[v])
        counts.append(mv[n])
    return counts


def reduced_path_count(g: Graph, max_len: int) -> int:
    """Vertices plus reduced paths of length 1..max_len: the size of the
    oracle's truncated basis."""
    total = len(g.vertices)
    last = [1] * g.n_signed
    for ell in range(1, max_len + 1):
        total += sum(last)
        if ell < max_len:
            nxt = [0] * g.n_signed
            for e, c in enumerate(last):
                for f in g.out[g.dst[e]]:
                    if f != e ^ 1:
                        nxt[f] += c
            last = nxt
    return total


def reducing_words(g: Graph, n: int) -> list:
    """The length-n words that reduce to a vertex, in lexicographic
    signed-edge order, as lists of signed edge names."""
    words = []

    def extend(word, stack, cur):
        if len(word) == n:
            if not stack:
                words.append([g.names[e] for e in word])
            return
        for e in g.out[cur] if word else range(g.n_signed):
            cancel = bool(stack) and stack[-1] == e ^ 1
            extend(word + [e], stack[:-1] if cancel else stack + [e], g.dst[e])

    extend([], [], None)
    return words


# ---------------------------------------------------------------------------
# Noncrossing partitions, Moebius, nested counts


def _set_partitions(n):
    """All set partitions of 1..n from restricted growth strings."""

    def grow(prefix, top):
        if len(prefix) == n:
            blocks = [[] for _ in range(top + 1)]
            for x, b in enumerate(prefix, start=1):
                blocks[b].append(x)
            yield [tuple(b) for b in blocks]
            return
        for b in range(top + 2):
            yield from grow(prefix + [b], max(top, b))

    if n:
        yield from grow([0], 0)


def _noncrossing(blocks) -> bool:
    owner = {x: i for i, b in enumerate(blocks) for x in b}
    for b in blocks:
        for a, c in zip(b, b[1:]):
            inside = {owner[x] for x in range(a + 1, c)}
            for i in inside:
                if any(x < a or x > c for x in blocks[i]):
                    return False
    return True


def nc_partitions(n: int) -> list:
    return [p for p in _set_partitions(n) if _noncrossing(p)]


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def moebius_to_top(blocks, n: int) -> int:
    """mu(pi, 1_n): the product over the blocks of the Kreweras
    complement K(pi) = pi^-1 gamma (cycle form) of (-1)^(s-1) c_(s-1)."""
    perm_inv = {}
    for b in blocks:
        for i, x in enumerate(b):
            perm_inv[b[(i + 1) % len(b)]] = x
    seen = set()
    value = 1
    for start in range(1, n + 1):
        size = 0
        x = start
        while x not in seen:
            seen.add(x)
            size += 1
            x = perm_inv[x % n + 1]
        if size:
            value *= (-1) ** (size - 1) * catalan(size - 1)
    return value


@lru_cache(maxsize=None)
def _nc_forests(n: int) -> tuple:
    """(mu(pi, 1_n), outermost nodes) for every pi in NC(n).  A node is
    (id, its positions, per gap the nodes nested right after that
    position)."""
    ids = itertools.count()
    out = []
    for blocks in nc_partitions(n):
        kids = {b: [[] for _ in b] for b in blocks}
        roots = []
        for c in blocks:
            outer = [b for b in blocks if b[0] < c[0] and c[-1] < b[-1]]
            if not outer:
                roots.append(c)
                continue
            p = max(outer)
            kids[p][max(i for i, x in enumerate(p) if x < c[0])].append(c)

        def node(b):
            return (next(ids), b, tuple(tuple(node(c) for c in gap) for gap in kids[b]))

        out.append((moebius_to_top(blocks, n), tuple(node(r) for r in roots)))
    return tuple(out)


def _block_count(g: Graph, node, letters, u: int) -> int:
    """Words from u on the block's letters (label-filtered) that reduce
    to u, each weighted by the counts of the blocks nested after its
    letters at the vertex where they open."""
    nid, positions, gaps = node
    mk = (nid, letters[positions[0] - 1 : positions[-1]], u)
    memo = g._memo
    if mk in memo:
        return memo[mk]
    states = {(): 1}
    for x, gap in zip(positions, gaps):
        lab = letters[x - 1]
        nxt = {}
        for stack, c in states.items():
            cur = g.dst[stack[-1]] if stack else u
            for e in g.out[cur]:
                if lab is not None and g.label[e] != lab:
                    continue
                w = c
                for child in gap:
                    w *= _block_count(g, child, letters, g.dst[e])
                    if not w:
                        break
                if not w:
                    continue
                ns = stack[:-1] if stack and stack[-1] == e ^ 1 else stack + (e,)
                nxt[ns] = nxt.get(ns, 0) + w
        states = nxt
    memo[mk] = states.get((), 0)
    return memo[mk]


def cumulant(g: Graph, letters) -> list:
    """Free cumulant per vertex: sum over NC(n) of mu(pi, 1_n) E_pi,
    where E_pi at v is the product of the outermost blocks' counts.
    letters[j] is the label at position j + 1, or None for T_G."""
    letters = tuple(letters)
    acc = [0] * len(g.vertices)
    for mu, roots in _nc_forests(len(letters)):
        for v in range(len(g.vertices)):
            c = mu
            for r in roots:
                c *= _block_count(g, r, letters, v)
                if not c:
                    break
            acc[v] += c
    return acc


def joint_moment(g: Graph, letters) -> list:
    """Label-filtered words that reduce to their start vertex."""
    letters = tuple(letters)
    root = (-1, tuple(range(1, len(letters) + 1)), ((),) * len(letters))
    return [_block_count(g, root, letters, v) for v in range(len(g.vertices))]


# ---------------------------------------------------------------------------
# Automaton trees


def _walk_counts(g: Graph, depth: int) -> list:
    """walks[d][v][u]: length-d walks from v ending at u."""
    nv = len(g.vertices)
    walks = [[[int(u == v) for u in range(nv)] for v in range(nv)]]
    for _ in range(depth):
        prev = walks[-1]
        nxt = [[0] * nv for _ in range(nv)]
        for v in range(nv):
            for u, c in enumerate(prev[v]):
                if c:
                    for e in g.out[u]:
                        nxt[v][g.dst[e]] += c
        walks.append(nxt)
    return walks


def _full_labels(g):
    n = g.max_label
    return sorted(list(range(-n, 0)) + list(range(1, n + 1)))


def fractaloid_result(g: Graph, depth: int) -> dict:
    full = _full_labels(g)
    local = [sorted(g.label[e] for e in g.out[v]) for v in range(len(g.vertices))]
    witness = None
    for v, labels in sorted(zip(g.vertices, local)):
        if labels != full:
            witness = {"vertex": v, "reason": f"outgoing labels {labels} != full set {full}"}
            break
    walks = _walk_counts(g, depth)
    trees = []
    for v, name in enumerate(g.vertices):
        nodes = sum(sum(walks[d][v]) for d in range(depth + 1))
        regular = all(
            local[u] == full for d in range(depth) for u, c in enumerate(walks[d][v]) if c
        )
        trees.append({"root": name, "regular": regular, "nodes": nodes})
    return {
        "fractaloid": witness is None,
        "depth": depth,
        "max_label": g.max_label,
        "witness": witness,
        "trees": trees,
    }


def tree_result(g: Graph, root: str | None, depth: int) -> dict:
    root = root or g.vertices[0]
    v0 = g.vertices.index(root)
    lines = ["digraph automaton_tree {", "  rankdir=LR;"]
    counter = 0

    def walk(label, at, d, name):
        nonlocal counter
        lines.append(f'  {name} [label="{label}"];')
        if d == depth:
            return
        for e in g.out[at]:
            counter += 1
            cname = f"n{counter}"
            child = f"({g.vertices[g.src[e]]},{g.vertices[g.dst[e]]})|{g.label[e]}"
            walk(child, g.dst[e], d + 1, cname)
            lines.append(f'  {name} -> {cname} [label="{g.names[e]}"];')

    walk(f"({root},{root})|0", v0, 0, "n0")
    lines.append("}")
    nodes = sum(sum(row[v0]) for row in (w for w in _walk_counts(g, depth)))
    return {"root": root, "depth": depth, "dot": "\n".join(lines), "nodes": nodes}


# ---------------------------------------------------------------------------
# Command references


def _diag(g: Graph, counts, keep_zero=False) -> dict:
    return {v: str(c) for v, c in zip(g.vertices, counts) if c or keep_zero}


def _opts(argv):
    """--key value pairs and bare flags of one CLI argv."""
    opts = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


def _ints(raw: str) -> list:
    return [int(x) for x in raw.split(",") if x.strip()]


def expected(graphs: dict, argv, basis_budget: int):
    """(exit code, result, status) that argv must produce.  graphs
    caches loaded graphs by (path, labeling)."""
    cmd = argv[0]
    o = _opts(argv)
    g = None
    if "graph" in o:
        gk = (o["graph"], o.get("labeling", "auto"))
        if gk not in graphs:
            graphs[gk] = load_graph(*gk)
        g = graphs[gk]
    if cmd == "moments":
        n = int(o["n"])
        result = {"diagonal": _diag(g, closed_walks(g, n)), "n": n, "mode": "reduction"}
        if "words" in o:
            result["words"] = reducing_words(g, n)
        return 0, result, "ok"
    if cmd == "oracle":
        n, max_len = int(o["n"]), int(o["max-len"])
        if reduced_path_count(g, max_len) > basis_budget:
            return 5, {}, "truncated"
        result = {"diagonal": _diag(g, closed_walks(g, n), keep_zero=True), "n": n, "max_len": max_len}
        return 0, result, "ok"
    if cmd == "cumulants":
        n, formula = int(o["n"]), o.get("formula", "direct")
        k = _diag(g, cumulant(g, [None] * n))
        result = {"n": n, "formula": formula, "diagonal": k}
        if formula in ("wc", "both"):
            result["wc"] = k
        return 0, result, "ok"
    if cmd == "joint":
        idx = _ints(o["indices"])
        result = {
            "indices": idx,
            "diagonal": _diag(g, joint_moment(g, idx)),
            "cumulant": _diag(g, cumulant(g, idx)),
        }
        return 0, result, "ok"
    if cmd == "freeness":
        k1, k2 = _ints(o["families"])
        max_n = int(o.get("max-n", 4))
        alphabet = (k1, -k1, k2, -k2)
        todo = [
            idx
            for n in range(2, max_n + 1)
            for idx in itertools.product(alphabet, repeat=n)
            if {abs(i) for i in idx} == {k1, k2}
        ]
        nonzero, max_abs = [], 0
        for idx in todo:
            k = cumulant(g, list(idx))
            if any(k):
                if len(nonzero) < 16:
                    nonzero.append({"indices": list(idx), "diagonal": _diag(g, k)})
                max_abs = max(max_abs, max(abs(c) for c in k))
        result = {
            "families": [k1, k2],
            "max_n": max_n,
            "tuples_checked": len(todo),
            "max_abs_coefficient": str(max_abs),
            "free_to_order": max_abs == 0,
            # each base edge carries exactly one label and k1 != k2, so no
            # edge of one family shares its diagram with one of the other
            "families_diagram_distinct": True,
            "nonzero": nonzero,
        }
        return 0, result, "ok"
    if cmd == "fractaloid":
        return 0, fractaloid_result(g, int(o.get("depth", 4))), "ok"
    if cmd == "tree":
        return 0, tree_result(g, o.get("root"), int(o["depth"])), "ok"
    if cmd == "lattice":
        n, length = int(o["max-label"]), int(o["length"])
        count = 0
        for w in itertools.product(range(2 * n), repeat=length):
            bal = [0] * n
            for x in w:
                bal[x % n] += 1 if x < n else -1
            count += not any(bal)
        return 0, {"max_label": n, "length": length, "count": str(count)}, "ok"
    if cmd == "nc":
        n = int(o["n"])
        row = [{"blocks": [list(b) for b in p], "mu": moebius_to_top(p, n)} for p in nc_partitions(n)]
        result = {
            "n": n,
            "count": len(row),
            "catalan": catalan(n),
            "moebius_row": sorted(row, key=lambda r: r["blocks"]),
            "moebius_sum": sum(r["mu"] for r in row),
        }
        return 0, result, "ok"
    raise ValueError(f"no reference for command {cmd!r}")


def normalized(argv, result):
    """The parts of an actual result whose order the reference does not
    fix are put in canonical order."""
    if argv[0] == "nc" and isinstance(result, dict) and isinstance(result.get("moebius_row"), list):
        result = dict(result, moebius_row=sorted(result["moebius_row"], key=lambda r: r["blocks"]))
    return result
