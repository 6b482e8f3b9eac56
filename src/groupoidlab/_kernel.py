"""Moment engine: qualifying-word counts by dynamic programming over a
flat integer view of the labeled shadowed graph.

A word freely reduces to a vertex exactly when it is a closed walk in
the universal-cover tree of the shadowed graph.  A tree node entered by
signed edge e has one child per out-edge f of dst(e) other than inv(e),
so a closed walk splits into first-return excursions: step down some f,
walk closed below it, step back by inv(f).  With H_e(m) the closed
walks of length m below a node entered by e,

    H_e(0) = 1,  H_e(m) = sum_{k>=2} sum_{f in out(dst e), f != inv e}
                          H_f(k-2) * H_e(m-k),

and the moment M_v(n) is the same sum at the root, over every f in
out(v).  Per-position letter weights enter at the opening and closing
letter of each excursion, so the tables are then keyed by the interval
of positions an excursion fills instead of its length
(closed_by_interval).  Letter weights are the only way to pick letters:
a joint moment weighs 1 on the letters of each position's label and 0
elsewhere, and the nested expectations E_pi of moments weigh letters by
integers.

The balance condition (per-label signed letter counts all zero) is a
walk count over (start, current vertex, balance vector), taken to half
length: inverting a walk negates its balance, so the balanced closed
walks number the sum of the squared half-walk counts.

The qualifying words themselves come from a depth-first walk over the
same tables (closed_words), which drops a prefix as soon as the letters
left cannot close it: in the tree, or back to a zero balance vector.

A labeled graph is its one flat view, KernelGraph: labeling.assign_weights
calls kernel_graph once per graph and returns the view, which every layer
reads, operators.Basis and the automaton too.  KernelGraph owns the
numbering of signed edges and their names: no other module numbers them.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import mul

from .errors import ENUM_BUDGET, Value


class KernelGraph(Value):
    """Flat integer view of a labeled shadowed graph.

    Vertex i is the i-th of the sorted vertex ids.  Base edge i, in id
    order, is signed edge 2i forward and 2i + 1 shadow, so the inverse
    partner of signed edge e is inv[e] = e ^ 1.  Signed edge e has
    endpoints src[e] -> dst[e] (vertex indices) and signed label
    labels[e] (the shadow carries the negated label).  out_start and
    out_list form a CSR adjacency over signed edges, index-sorted.
    vertices[v] is the id of vertex v and names[e] the name of signed
    edge e: its base edge's id, with a leading ~ on the shadow.
    max_label, the largest label, plays the role of N everywhere
    downstream, and graph is the validated DirectedGraph the view
    flattens.  These four are left out of equality, hash and repr.
    n_labels counts the distinct labels |labels[e]|: the coordinates of
    a balance vector.
    """

    __slots__ = (
        "n_vertices",
        "n_signed",
        "src",
        "dst",
        "inv",
        "out_start",
        "out_list",
        "vertices",
        "names",
        "labels",
        "n_labels",
        "max_label",
        "graph",
    )

    _unkeyed = ("vertices", "names", "max_label", "graph")

    def out(self, v: int) -> tuple:
        return self.out_list[self.out_start[v] : self.out_start[v + 1]]


def kernel_graph(graph, base_labels) -> KernelGraph:
    """Flatten a validated graph whose base edges, in id order, carry
    base_labels, in one pass, in the layout KernelGraph states.
    labeling.assign_weights calls it once per graph."""
    vidx = {v: i for i, v in enumerate(graph.vertices)}
    src, dst, labels, names = [], [], [], []
    leaving = [[] for _ in graph.vertices]  # per vertex, its out-edges
    for e, k in zip(graph.edges, base_labels):
        a, b = vidx[e.src], vidx[e.dst]
        fwd = len(src)
        leaving[a].append(fwd)
        leaving[b].append(fwd + 1)
        src += (a, b)
        dst += (b, a)
        labels += (k, -k)
        names += (e.id, "~" + e.id)
    return KernelGraph(
        n_vertices=len(graph.vertices),
        n_signed=len(src),
        src=tuple(src),
        dst=tuple(dst),
        inv=tuple(e ^ 1 for e in range(len(src))),
        out_start=tuple(accumulate(map(len, leaving), initial=0)),
        out_list=tuple(chain.from_iterable(leaving)),
        vertices=graph.vertices,
        names=tuple(names),
        labels=tuple(labels),
        n_labels=len(set(base_labels)),
        max_label=max(base_labels),
        graph=graph,
    )


def backend_name() -> str:
    return "dp"


class _Budget:
    """Running count of work against an optional cap: DP transitions
    (terms of the recurrence sums, or edge steps out of a balance
    state), or the letters a word walk tries and keeps."""

    def __init__(self, cap):
        self.cap = cap
        self.spent = 0

    def charge(self, work: int) -> bool:
        """Book work transitions; False once the cap would be passed."""
        self.spent += work
        return self.cap is None or self.spent <= self.cap


def tally_words(kg: KernelGraph, n: int, mode: str, budget=None):
    """Count qualifying admissible length-n words by start vertex.

    mode: "reduction" counts words whose free reduction is a vertex;
          "balance" counts loop words with an all-zero balance vector.
    budget: cap on DP transitions.  When it runs out the flag is set
            and only the vertices finished so far carry their (exact)
            counts; the others read 0.

    Returns (counts per vertex index, admissible length-n words or 0
    past the walk's own cap or budget (see _walk_count), truncated).
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if mode not in ("reduction", "balance"):
        raise ValueError(f"unknown tally mode {mode!r}")
    spend = _Budget(budget)
    if mode == "balance":
        counts, truncated = _balanced_loops(kg, n, spend)
    else:
        counts, truncated = _closed_by_length(kg, n, spend)
    return counts, _walk_count(kg, n, budget), truncated


def _walk_count(kg, n, budget) -> int:
    """Admissible length-n words, or 0 once the walk has added more
    64-bit limbs than ENUM_BUDGET or budget, whichever is smaller: each
    step adds n_signed counts of at most the largest one's limbs, so a
    huge n stops instead of taking n big-integer steps.  No result of
    the program reads this count; the benchmark's tracer does (its
    kernel.words metrics), and the walk goes once those metrics are
    replaced."""
    spend = _Budget(ENUM_BUDGET if budget is None else min(budget, ENUM_BUDGET))
    ends = [1] * kg.n_vertices
    for _ in range(n):
        if not spend.charge(kg.n_signed * (max(ends).bit_length() // 64 + 1)):
            return 0
        ends = walk_step(kg, ends)
    return sum(ends)


def walk_step(kg, ends) -> list:
    """Walks one letter longer: ends[v] counts walks ending at vertex v,
    and each signed edge e carries those at src(e) on to dst(e)."""
    nxt = [0] * kg.n_vertices
    for e in range(kg.n_signed):
        nxt[kg.dst[e]] += ends[kg.src[e]]
    return nxt


def _closed_by_length(kg, n, spend):
    """Reduction counts from the length-keyed excursion recurrence.

    Closed tree walks have even length, so tables are indexed by half
    length: H[e][j] counts the closed walks of length 2j below a node
    entered by e, and S[v][j] sums H[f][j] over f in out(v).
    """
    counts = [0] * kg.n_vertices
    if n % 2:
        return counts, False
    half = n // 2
    # No vertex finishes before the tables are built, so their
    # transitions are charged up front, as in closed_by_interval.
    if not spend.charge(kg.n_signed * half * (half - 1) // 2):
        return counts, True
    H = [[1] for _ in range(kg.n_signed)]
    S = [[len(kg.out(v))] for v in range(kg.n_vertices)]
    # G[e][i]: one excursion of length 2i + 2 from a node entered by e
    G = [[] for _ in range(kg.n_signed)]
    for j in range(1, half):
        for e in range(kg.n_signed):
            G[e].append(S[kg.dst[e]][j - 1] - H[kg.inv[e]][j - 1])
        for e in range(kg.n_signed):
            H[e].append(sum(map(mul, G[e], reversed(H[e]))))
        for v in range(kg.n_vertices):
            S[v].append(sum(H[f][j] for f in kg.out(v)))
    for v in range(kg.n_vertices):
        if not spend.charge(half * (half + 1) // 2):
            return counts, True
        M = [1]
        for j in range(1, half + 1):
            M.append(sum(map(mul, S[v][:j], reversed(M))))
        counts[v] = M[half]
    return counts, False


def closed_by_interval(t: KernelGraph, weights, budget=None):
    """Weighted reduction counts by start vertex: the excursion
    recurrence over intervals [a, b) of word positions.  A closed walk
    weighs the product of weights[p][e] over its letters e at positions
    p.  budget caps the DP transitions, as in tally_words.

    H[e][a, b] sums the closed walks below a node entered by e that
    fill positions a..b-1.  Y[f][a, c] sums the single excursions
    through f that open at position a and close at c-1 with inv(f),
    and X[u][a, c] sums Y over the out-edges f of u.

    Returns (counts per vertex index, truncated).
    """
    spend = _Budget(budget)
    n = len(weights)
    counts = [0] * t.n_vertices
    if n % 2:
        return counts, False
    H = [{} for _ in range(t.n_signed)]
    Y = [{} for _ in range(t.n_signed)]
    X = [{} for _ in range(t.n_vertices)]

    def excursion(e, a, c):
        # X at dst(e) without the step back up through inv(e)
        return X[t.dst[e]][a, c] - Y[t.inv[e]][a, c]

    # inner intervals lie in positions 1..n-2: inside the root's
    # excursions.  No vertex finishes before every interval is filled,
    # so their transitions are charged up front, and a budget that
    # cannot pay for them stops the count before any table is built.
    lengths = range(0, n - 1, 2)
    if not spend.charge(sum(t.n_signed * (n - 1 - m) * (m // 2) for m in lengths)):
        return counts, True
    for length in lengths:
        starts = range(1, n - length)
        for a in starts:
            b = a + length
            for e in range(t.n_signed):
                H[e][a, b] = 1 if length == 0 else sum(
                    excursion(e, a, c) * H[e][c, b] for c in range(a + 2, b + 1, 2)
                )
        for a in starts:
            b = a + length
            opening, closing = weights[a - 1], weights[b]
            for f in range(t.n_signed):
                Y[f][a - 1, b + 1] = opening[f] * closing[t.inv[f]] * H[f][a, b]
            for u in range(t.n_vertices):
                X[u][a - 1, b + 1] = sum(Y[f][a - 1, b + 1] for f in t.out(u))
    half = n // 2
    for v in range(t.n_vertices):
        if not spend.charge(half * (half + 1) // 2):
            return counts, True
        M = {n: 1}
        for a in range(n - 2, -1, -2):
            M[a] = sum(X[v][a, c] * M[c] for c in range(a + 2, n + 1, 2))
        counts[v] = M[0]
    return counts, False


def _axes(kg) -> list:
    """Per signed edge, the coordinate of its label in a balance vector:
    the distinct |labels| numbered 0, 1, ... in order of first use, so
    there are kg.n_labels coordinates, at most one per base edge,
    whatever N is.  A word is balanced when it has as many letters +k
    as -k for each k, so any one-to-one numbering of the |labels| keeps
    the counts and the words."""
    rank: dict = {}
    return [rank.setdefault(abs(k), len(rank)) for k in kg.labels]


def _balanced_loops(kg, n, spend):
    """Balance counts by half-walk squares: per start vertex s, F counts
    the length-n/2 walks from s by (end vertex, balance code), and the
    count is the sum of F^2; odd n gives zeros.  The balance vector is
    packed into one integer in balanced base n + 1, whose digits (one
    per coordinate, each in -n/2..n/2) never carry, so equal codes are
    equal vectors."""
    counts = [0] * kg.n_vertices
    if n % 2:
        return counts, False
    radix = n + 1
    step = [
        (1 if k > 0 else -1) * radix**axis for k, axis in zip(kg.labels, _axes(kg))
    ]
    for s in range(kg.n_vertices):
        states = {(s, 0): 1}
        for _ in range(n // 2):
            nxt: dict = {}
            for (cur, code), c in states.items():
                edges = kg.out(cur)
                if not spend.charge(len(edges)):
                    return counts, True
                for e in edges:
                    key = (kg.dst[e], code + step[e])
                    nxt[key] = nxt.get(key, 0) + c
            states = nxt
        counts[s] = sum(c * c for c in states.values())
    return counts, False


def closed_words(kg: KernelGraph, n: int, mode: str, budget=None):
    """The qualifying length-n words themselves, as tuples of signed-edge
    indices in lexicographic order.

    A depth-first walk tries the letters at each position in index
    order and drops a prefix as soon as the letters left cannot close
    it, so only the qualifying words and their prefixes are built.
    mode: "reduction" keeps the closed walks of the universal-cover
          tree; "balance" keeps the loop words with an all-zero balance
          vector.
    budget: cap on letters, charged one per letter tried and n per word
            kept, so the words held never exceed it.  When it runs out
            the flag is set and the words are those found so far, a
            prefix of the full list.

    Returns (words, truncated).
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    words: list = []
    # closed tree walks and balanced words both have even length
    if n % 2:
        return words, False
    walk = _tree_walk if mode == "reduction" else _balanced_walk
    return words, walk(kg, n, _Budget(budget), words)


def _tree_walk(kg, n, spend, words) -> bool:
    """Reduction-mode words into words; True when the budget ran out.

    The letters of the prefix that free reduction leaves form a linked
    stack of nodes (inverse of the letter, node below, depth), None when
    empty.  A letter equal to the inverse of the top pops it; any other
    letter pushes, but only while the depth stays within the letters
    left.  Once the depth equals the letters left, the rest of the word
    is forced, the inverses of the stack from the top down, and is
    written out at once.
    """
    dst, inv = kg.dst, kg.inv
    out = [kg.out(v) for v in range(kg.n_vertices)]
    word: list = []
    tops: list = [None]  # tops[k]: the stack of word[:k]
    pending = [iter(range(kg.n_signed))]
    if not spend.charge(kg.n_signed):
        return True
    while pending:
        e = next(pending[-1], None)
        if e is None:
            pending.pop()
            if word:
                word.pop()
                tops.pop()
            continue
        top = tops[-1]
        left = n - len(word) - 1
        if top is not None and e == top[0]:
            stack = top[1]
            depth = top[2] - 1
        else:
            depth = top[2] + 1 if top is not None else 1
            if depth > left:
                continue
            stack = (inv[e], top, depth)
        if depth == left:
            if not spend.charge(n):
                return True
            tail = []
            while stack is not None:
                tail.append(stack[0])
                stack = stack[1]
            words.append((*word, e, *tail))
            continue
        word.append(e)
        tops.append(stack)
        following = out[dst[e]]
        if not spend.charge(len(following)):
            return True
        pending.append(iter(following))
    return False


def _balanced_walk(kg, n, spend, words) -> bool:
    """Balance-mode words into words; True when the budget ran out.

    The prefix carries its balance vector, moved in place, and the
    vector's L1 norm.  Labels are nonzero, so each letter moves one
    coordinate by +-1 and the norm by 1: a prefix whose norm exceeds
    the letters left cannot come back to zero.  A full word is kept
    when its norm is zero and it ends at its start vertex.
    """
    src, dst = kg.src, kg.dst
    out = [kg.out(v) for v in range(kg.n_vertices)]
    axis = _axes(kg)
    sign = [1 if k > 0 else -1 for k in kg.labels]
    balance = [0] * kg.n_labels
    word: list = []
    norms = [0]  # norms[k]: the norm after word[:k]
    pending = [iter(range(kg.n_signed))]
    if not spend.charge(kg.n_signed):
        return True
    while pending:
        e = next(pending[-1], None)
        if e is None:
            pending.pop()
            if word:
                f = word.pop()
                balance[axis[f]] -= sign[f]
                norms.pop()
            continue
        before = balance[axis[e]]
        after = before + sign[e]
        norm = norms[-1] + (1 if abs(after) > abs(before) else -1)
        left = n - len(word) - 1
        if norm > left:
            continue
        if not left:
            if dst[e] == src[word[0]]:
                if not spend.charge(n):
                    return True
                words.append((*word, e))
            continue
        word.append(e)
        balance[axis[e]] = after
        norms.append(norm)
        following = out[dst[e]]
        if not spend.charge(len(following)):
            return True
        pending.append(iter(following))
    return False
