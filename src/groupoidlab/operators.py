"""Exact sparse operators on the truncated graph Hilbert space.

A basis of length L collects the vertices and every reduced path of
length at most L.  Right multiplication operators map basis vectors to
basis vectors (or to zero), so each column holds at most one unit
entry; products, adjoints, and powers stay in exact integer arithmetic.
This module is the brute-force oracle the moment DP is checked against,
so it deliberately stays close to the definitions: the moment at a
vertex v is the coefficient <T_G^n xi_v, xi_v>, read off after
applying T_G n times to the vertex basis vectors.  The oracle builds
the basis only to length n // 2, the longest a path can grow on a walk
of n letters that returns to its vertex.

A Basis is built over the signed-edge tables of the one flat view of a
labeled graph, the _kernel.KernelGraph that labeling.assign_weights
returns, which the oracle reads for the labels too.  Its elements are positions in a trie
of signed-edge indices, and right multiplication by a signed edge is
one step in that trie (Basis.step).
"""

from __future__ import annotations

from . import _kernel
from .errors import BASIS_BUDGET, BudgetExceededError
from .graphs import GraphError


class Basis:
    """Ordered basis: vertices first (sorted), then the reduced paths
    of length at most max_len by (length, signed-edge index sequence).
    Closed under inverse.

    The paths form a trie over the signed-edge tables of a
    _kernel.KernelGraph: element j stores its parent (the path without
    its last letter; a vertex for a single letter, -1 for a vertex), its
    last signed edge (-1 for a vertex) and its target vertex.  Each
    level extends the one before, parent by parent, by the out-edges of
    the parent's target in index order, skipping the inverse of its last
    letter, so every level is born in order.  Each child is recorded
    under (parent, signed edge) as it is appended.  The level sizes are
    counted first, so a basis past its budget is refused before any
    level is built.
    """

    def __init__(self, t: _kernel.KernelGraph, max_len: int, budget: int = BASIS_BUDGET):
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        nv = t.n_vertices
        self.max_len = max_len
        self.n_vertices = nv
        self.tables = t
        self.parent = [-1] * nv
        self.last = [-1] * nv
        self.target = list(range(nv))
        # (element, signed edge) -> index of the element one letter longer
        self._child = {}
        level = range(nv)
        for ell, size in enumerate(level_sizes(t, max_len, budget), 1):
            start = len(self.parent)
            if ell == 1:
                grown = [(t.src[s], s) for s in range(t.n_signed)]
            else:
                grown = []
                for j in level:
                    back = t.inv[self.last[j]]
                    grown.extend((j, s) for s in t.out(self.target[j]) if s != back)
            for j, s in grown:
                self._child[j, s] = len(self.parent)
                self.parent.append(j)
                self.last.append(s)
                self.target.append(t.dst[s])
            level = range(start, start + size)

    def __len__(self) -> int:
        return len(self.parent)

    def vertex_positions(self):
        return {v: i for i, v in enumerate(self.tables.vertices)}

    def step(self, j: int, s: int) -> int:
        """Index of element j times signed edge s (s must leave the
        target of j), or -1 when the product is longer than max_len.
        A letter inverse to the last one cancels it; any other letter
        extends the path."""
        last = self.last[j]
        if last >= 0 and s == self.tables.inv[last]:
            return self.parent[j]
        return self._child.get((j, s), -1)


class SparseOperator:
    """Integer matrix stored column-wise: cols[j] maps row -> value."""

    def __init__(self, dim: int, cols=None):
        self.dim = dim
        self.cols = cols if cols is not None else [dict() for _ in range(dim)]

    def entry(self, i: int, j: int) -> int:
        return self.cols[j].get(i, 0)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        assert self.dim == other.dim
        cols = []
        for bcol in other.cols:
            c: dict[int, int] = {}
            for k, bv in bcol.items():
                for r, av in self.cols[k].items():
                    nv = c.get(r, 0) + av * bv
                    if nv:
                        c[r] = nv
                    else:
                        c.pop(r, None)
            cols.append(c)
        return SparseOperator(self.dim, cols)

    def power(self, n: int, x: "SparseOperator") -> "SparseOperator":
        """self^n @ x, as n left products self @ acc: only the nonzero
        columns of x are ever expanded."""
        if n < 0:
            raise ValueError("power must be >= 0")
        for _ in range(n):
            x = self @ x
        return x

    def transpose(self) -> "SparseOperator":
        cols = [dict() for _ in range(self.dim)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                cols[i][j] = v
        return SparseOperator(self.dim, cols)

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseOperator)
            and self.dim == other.dim
            and self.cols == other.cols
        )

    def __repr__(self) -> str:
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz()})"


def level_sizes(t, max_len: int, budget: int = BASIS_BUDGET) -> list:
    """The number of reduced paths of each length 1..max_len over the
    signed-edge tables t, up to the last nonempty length, counted
    without building them.  c[s] counts the paths of the current length
    that end in signed edge s: c[s] = 1 at length 1, and a path grows by
    any letter s' leaving the end of s except the inverse of s, so
    c'[s'] is the count of the paths ending at the source of s' less
    c[inv s'].  Raises BudgetExceededError at the first length that
    takes the vertices and the paths so far past budget."""
    sizes = []
    total = t.n_vertices
    c = [1] * t.n_signed
    for ell in range(1, max_len + 1):
        if ell > 1:
            ending = [0] * t.n_vertices
            for s, k in enumerate(c):
                ending[t.dst[s]] += k
            c = [ending[t.src[s]] - c[t.inv[s]] for s in range(t.n_signed)]
        size = sum(c)
        total += size
        if total > budget:
            raise BudgetExceededError(f"basis exceeds budget {budget} at length {ell}")
        if not size:  # no path extends, at this length or any longer one
            break
        sizes.append(size)
    return sizes


def build_basis(t: _kernel.KernelGraph, max_len: int, budget: int = BASIS_BUDGET) -> Basis:
    return Basis(t, max_len, budget)


def _edge_sum(basis: Basis, edges) -> SparseOperator:
    """The sum of the right multiplications by the signed edges in
    edges, filled column by column in place: column j holds a unit at j
    times s for each such s leaving the target of j, when that product
    is in the basis.  Distinct letters give distinct products, so no
    entry is hit twice."""
    t = basis.tables
    op = SparseOperator(len(basis))
    for j, tgt in enumerate(basis.target):
        for s in t.out(tgt):
            if s in edges:
                i = basis.step(j, s)
                if i >= 0:
                    op.cols[j][i] = 1
    return op


def labeling_operator(kg: _kernel.KernelGraph, k: int, basis: Basis) -> SparseOperator:
    """T_k: the sum of right multiplications by the signed edges whose
    label is k, for k in -N..-1, 1..N."""
    if k == 0 or abs(k) > kg.max_label:
        raise GraphError(f"label {k} out of range 1..{kg.max_label} (signed)")
    return _edge_sum(basis, {e for e, j in enumerate(kg.labels) if j == k})


def total_labeling_operator(kg: _kernel.KernelGraph, basis: Basis) -> SparseOperator:
    """T_G: the sum of T_k over all signed labels -N..-1, 1..N, which
    is the sum over every signed edge, as each label lies in that
    range."""
    return _edge_sum(basis, range(kg.n_signed))


def oracle_expectation_power(
    kg: _kernel.KernelGraph, n: int, max_len: int, budget: int = BASIS_BUDGET
):
    """<T_G^n xi_v, xi_v> for every vertex v, as a plain map vertex ->
    integer: T_G is applied n times to the vertex basis vectors only.

    Exact in the basis of length max_len whenever max_len >= n: T_G^k
    xi_v only sees words of length <= k, so the truncation boundary
    cannot reach it.  The coefficient at xi_v is the coefficient of
    R_v, because R_w fixes xi_v exactly when w = v.  That basis decides
    the budget, but the walk runs in the basis of length n // 2: a path
    that returns to its vertex at step n has length at most
    min(k, n - k) after step k, so every path the shorter basis drops
    contributes 0.  The n products are charged against budget too, up
    front: on a tree the basis stays small whatever n is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_len < n:
        raise ValueError("need max_len >= n for an exact vertex diagonal")
    level_sizes(kg, max_len, budget)
    if n > budget:
        raise BudgetExceededError(f"n={n} products exceed the basis budget {budget}")
    basis = build_basis(kg, n // 2, budget)
    t = total_labeling_operator(kg, basis)
    vertices = basis.vertex_positions()
    x = SparseOperator(len(basis))
    for i in vertices.values():
        x.cols[i][i] = 1
    p = t.power(n, x)
    return {v: p.entry(i, i) for v, i in vertices.items()}
