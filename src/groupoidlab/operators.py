"""Exact sparse operators on the truncated graph Hilbert space.

A basis of length L collects the vertices and every reduced path of
length at most L, and a vector is a list of exact integers indexed by
that basis.  This module is the brute-force oracle the moment DP is
checked against, so it deliberately stays close to the definitions:
the moment at a vertex v is the coefficient <T_G^n xi_v, xi_v>, read
off after applying T_G n times to one vector, the sum of the vertex
basis vectors.  The oracle builds the basis only to length n // 2, the
longest a path can grow on a walk of n letters that returns to its
vertex.

A Basis is built over the signed-edge tables of the one flat view of a
labeled graph, the _kernel.KernelGraph that labeling.assign_weights
returns.  Its elements are positions in a trie of signed-edge indices,
and T_G, the sum of the right multiplications by every signed edge, is
the adjacency of that trie: each path is joined to its parent.  So
T_G acts on a vector through the trie's parent links alone.
"""

from . import _kernel
from .errors import BASIS_BUDGET, Budget


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
    letter, so every level is born in order.  The level sizes are
    counted first, so a basis past its budget is refused before any
    level is built.
    """

    def __init__(self, t: _kernel.KernelGraph, max_len: int, budget: int = BASIS_BUDGET):
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        nv = t.n_vertices
        self.n_vertices = nv
        self.tables = t
        self.parent = [-1] * nv
        self.last = [-1] * nv
        self.target = list(range(nv))
        level = range(nv)
        for ell, size in enumerate(level_sizes(t, max_len, budget), 1):
            start = len(self.parent)
            if ell == 1:
                grown = [(t.src[s], s) for s in range(t.n_signed)]
            else:
                grown = []
                for j in level:
                    back = t.inv[self.last[j]]
                    grown.extend((j, s) for s in t.out[self.target[j]] if s != back)
            for j, s in grown:
                self.parent.append(j)
                self.last.append(s)
                self.target.append(t.dst[s])
            level = range(start, start + size)

    def __len__(self) -> int:
        return len(self.parent)

    def vertex_positions(self):
        return {v: i for i, v in enumerate(self.tables.vertices)}


class SparseOperator:
    """T_G on a basis trie: the adjacency of its parent links.  A vector
    is a list of integers indexed by the basis, and T_G maps x to y with
    y[i] += x[parent[i]] and y[parent[i]] += x[i] for each path i."""

    def __init__(self, parent: list, n_vertices: int):
        self.parent = parent
        self.n_vertices = n_vertices

    def __matmul__(self, x: list) -> list:
        parent = self.parent
        y = [0] * len(parent)
        for i in range(self.n_vertices, len(parent)):
            p = parent[i]
            y[i] += x[p]
            y[p] += x[i]
        return y

    def power(self, n: int, x: list) -> list:
        """T_G^n x, as n products."""
        if n < 0:
            raise ValueError("power must be >= 0")
        for _ in range(n):
            x = self @ x
        return x

    def nnz(self) -> int:
        """The nonzero entries of T_G: two units for each path."""
        return 2 * (len(self.parent) - self.n_vertices)


def level_sizes(t, max_len: int, budget: int = BASIS_BUDGET) -> list:
    """The number of reduced paths of each length 1..max_len over the
    signed-edge tables t, up to the last nonempty length, counted
    without building them.  c[s] counts the paths of the current length
    that end in signed edge s: c[s] = 1 at length 1, and a path grows by
    any letter s' leaving the end of s except the inverse of s, so
    c'[s'] is the count of the paths ending at the source of s' less
    c[inv s'].  The vertices and each length's paths are charged to
    budget, the vertices with the first length, so the charge raises
    BudgetExceededError at the first length that takes the basis so far
    past budget."""
    spend = Budget(budget, lambda: f"basis exceeds budget {budget} at length {ell}")
    sizes = []
    c = [1] * t.n_signed
    for ell in range(1, max_len + 1):
        if ell > 1:
            ending = [0] * t.n_vertices
            for s, k in enumerate(c):
                ending[t.dst[s]] += k
            c = [ending[t.src[s]] - c[t.inv[s]] for s in range(t.n_signed)]
        size = sum(c)
        spend.charge(size + (t.n_vertices if ell == 1 else 0))
        if not size:  # no path extends, at this length or any longer one
            break
        sizes.append(size)
    return sizes


def build_basis(t: _kernel.KernelGraph, max_len: int, budget: int = BASIS_BUDGET) -> Basis:
    return Basis(t, max_len, budget)


def total_labeling_operator(kg: _kernel.KernelGraph, basis: Basis) -> SparseOperator:
    """T_G: the sum of T_k over all signed labels -N..-1, 1..N, which
    is the sum of the right multiplications by every signed edge, as
    each label lies in that range.  Element j times a letter leaving
    its target is its parent when the letter is the inverse of its last
    one, and otherwise a child of j, or a path longer than max_len,
    which is 0.  So T_G holds a unit at (i, parent[i]) and at
    (parent[i], i) for each path i, and nothing else: the trie's
    parent links."""
    return SparseOperator(basis.parent, basis.n_vertices)


def oracle_expectation_power(
    kg: _kernel.KernelGraph, n: int, max_len: int, budget: int = BASIS_BUDGET
):
    """<T_G^n xi_v, xi_v> for every vertex v, as a plain map vertex ->
    integer: T_G is applied n times to one vector, the sum of the
    vertex basis vectors.  T_G joins a path only to its parent and its
    children, so it keeps each vertex's subtree of the trie, and the
    entry at v of T_G^n applied to that sum is the entry of T_G^n xi_v.

    Exact in the basis of length max_len whenever max_len >= n // 2: a
    path that returns to its vertex at step n has length at most
    min(k, n - k) after step k, so every path longer than n // 2, which
    the truncation drops, contributes 0.  The coefficient at xi_v is the
    coefficient of R_v, because R_w fixes xi_v exactly when w = v.  The
    basis of length max_len decides the budget, and the walk runs in
    the basis of length n // 2.  The n products are charged against
    budget too, up front: on a tree the basis stays small whatever n is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_len < n // 2:
        raise ValueError("need max_len >= n // 2 for an exact vertex diagonal")
    level_sizes(kg, max_len, budget)
    Budget(budget, f"n={n} products exceed the basis budget {budget}").charge(n)
    basis = build_basis(kg, n // 2, budget)
    t = total_labeling_operator(kg, basis)
    x = t.power(n, [1] * basis.n_vertices + [0] * (len(basis) - basis.n_vertices))
    return {v: x[i] for v, i in basis.vertex_positions().items()}
