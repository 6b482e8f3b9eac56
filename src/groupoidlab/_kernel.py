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
out(v).  Per-position letter weights (a label pattern is the 0/1 case;
the nested expectations E_pi of moments weigh letters by integers)
enter at the opening and closing letter of each excursion, so the
tables are then keyed by the interval of positions an excursion fills
instead of its length.

The balance condition (per-label signed letter counts all zero) is a
walk count over (start, current vertex, balance vector), taken to half
length: inverting a walk negates its balance, so the balanced closed
walks number the sum of the squared half-walk counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul


@dataclass(frozen=True)
class SignedTables:
    """Flat integer view of a shadowed graph, labels left out.

    Signed edge i has endpoints src[i] -> dst[i] (vertex indices) and
    inverse partner inv[i].  out_start and out_list form a CSR
    adjacency over signed edges, index-sorted.  edge_index maps each
    SignedEdge to its index.
    """

    n_vertices: int
    n_signed: int
    src: tuple
    dst: tuple
    inv: tuple
    out_start: tuple
    out_list: tuple
    edge_index: dict = field(compare=False, repr=False)

    def out(self, v: int) -> tuple:
        return self.out_list[self.out_start[v] : self.out_start[v + 1]]


@dataclass(frozen=True)
class KernelGraph(SignedTables):
    """SignedTables plus the signed label labels[i] of each signed edge
    (the inverse carries the negated label)."""

    labels: tuple
    n_labels: int


def signed_tables(sh) -> SignedTables:
    """Flatten a ShadowedGraph: vertices and signed edges are numbered
    in their sorted order."""
    vidx = {v: i for i, v in enumerate(sh.vertices)}
    signed = sh.signed_edges
    eidx = {s: i for i, s in enumerate(signed)}
    out: list[list[int]] = [[] for _ in sh.vertices]
    for i, s in enumerate(signed):
        out[vidx[s.src]].append(i)
    out_start = [0]
    out_list: list[int] = []
    for lst in out:
        out_list.extend(lst)
        out_start.append(len(out_list))
    return SignedTables(
        n_vertices=len(sh.vertices),
        n_signed=len(signed),
        src=tuple(vidx[s.src] for s in signed),
        dst=tuple(vidx[s.dst] for s in signed),
        inv=tuple(eidx[s.inverted()] for s in signed),
        out_start=tuple(out_start),
        out_list=tuple(out_list),
        edge_index=eidx,
    )


def kernel_graph(lg) -> KernelGraph:
    """Flatten a LabeledGraph for the moment engine."""
    tables = signed_tables(lg.shadowed)
    return KernelGraph(
        **vars(tables),
        labels=tuple(lg.label(s) for s in lg.shadowed.signed_edges),
        n_labels=lg.max_label,
    )


def backend_name() -> str:
    return "dp"


class _Budget:
    """Running count of DP transitions (terms of the recurrence sums,
    or edge steps out of a balance state) against an optional cap."""

    def __init__(self, cap):
        self.cap = cap
        self.spent = 0

    def charge(self, work: int) -> bool:
        """Book work transitions; False once the cap would be passed."""
        self.spent += work
        return self.cap is None or self.spent <= self.cap


def tally_words(kg: KernelGraph, n: int, mode: str, pattern=None, budget=None):
    """Count qualifying admissible length-n words by start vertex.

    mode: "reduction" counts words whose free reduction is a vertex;
          "balance" counts loop words with an all-zero balance vector.
    pattern: optional per-position signed label filter (length n),
             reduction mode only.
    budget: cap on DP transitions.  When it runs out the flag is set
            and only the vertices finished so far carry their (exact)
            counts; the others read 0.

    Returns (counts per vertex index, admissible length-n words matching
    the pattern, truncated).
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if pattern is not None and len(pattern) != n:
        raise ValueError("pattern length must equal n")
    if mode not in ("reduction", "balance"):
        raise ValueError(f"unknown tally mode {mode!r}")
    if mode == "balance" and pattern is not None:
        raise ValueError("the balance mode takes no pattern")
    spend = _Budget(budget)
    if mode == "balance":
        counts, truncated = _balanced_loops(kg, n, spend)
    elif pattern is None:
        counts, truncated = _closed_by_length(kg, n, spend)
    else:
        weights = [tuple(int(k == want) for k in kg.labels) for want in pattern]
        counts, truncated = _closed_by_interval(kg, weights, spend)
    return counts, _walk_count(kg, n, pattern), truncated


def _walk_count(kg, n, pattern) -> int:
    """Admissible length-n words that match the pattern, if any."""
    ends = [1] * kg.n_vertices
    for pos in range(n):
        want = None if pattern is None else pattern[pos]
        nxt = [0] * kg.n_vertices
        for e in range(kg.n_signed):
            if want is None or kg.labels[e] == want:
                nxt[kg.dst[e]] += ends[kg.src[e]]
        ends = nxt
    return sum(ends)


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
    H = [[1] for _ in range(kg.n_signed)]
    S = [[len(kg.out(v))] for v in range(kg.n_vertices)]
    # G[e][i]: one excursion of length 2i + 2 from a node entered by e
    G = [[] for _ in range(kg.n_signed)]
    for j in range(1, half):
        if not spend.charge(kg.n_signed * j):
            return counts, True
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


def _closed_by_interval(t, weights, spend):
    """Weighted reduction counts: the excursion recurrence over
    intervals [a, b) of word positions.  A closed walk weighs the
    product of weights[p][e] over its letters e at positions p; only
    the signed tables t (dst, inv, out) are read.

    H[e][a, b] sums the closed walks below a node entered by e that
    fill positions a..b-1.  Y[f][a, c] sums the single excursions
    through f that open at position a and close at c-1 with inv(f),
    and X[u][a, c] sums Y over the out-edges f of u.
    """
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


def _balanced_loops(kg, n, spend):
    """Balance counts by half-walk squares: per start vertex s, F counts
    the length-n/2 walks from s by (end vertex, balance code), and the
    count is the sum of F^2; odd n gives zeros.  The balance vector is
    packed into one integer in balanced base n + 1, whose digits (one
    per label index, each in -n/2..n/2) never carry, so equal codes are
    equal vectors."""
    counts = [0] * kg.n_vertices
    if n % 2:
        return counts, False
    radix = n + 1
    step = [
        (1 if k > 0 else -1) * radix ** (abs(k) - 1) for k in kg.labels
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
