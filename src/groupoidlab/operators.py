"""Exact sparse operators on the truncated graph Hilbert space.

The basis collects the vertices and every reduced path of length at
most L.  Right multiplication operators map basis vectors to basis
vectors (or to zero), so each column holds at most one unit entry;
products, adjoints, and powers stay in exact integer arithmetic.  This
module is the brute-force oracle the moment DP is checked against,
so it deliberately stays close to the definitions.
"""

from __future__ import annotations

from .errors import BudgetExceededError
from .graphs import ShadowedGraph
from .groupoid import EMPTY, ReducedPath, Vertex, concat
from .labeling import LabeledGraph

BASIS_BUDGET = 100_000


class Basis:
    """Ordered basis: vertices first (sorted), then reduced paths by
    (length, signed-edge index sequence).  Closed under inverse."""

    def __init__(self, g: ShadowedGraph, max_len: int, budget: int = BASIS_BUDGET):
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        # Paths are extended in signed-edge index order, so each level is
        # born sorted by its index sequence.
        elements = [Vertex(v) for v in g.vertices]
        level = []
        for ell in range(1, max_len + 1):
            if ell == 1:
                level = [(s,) for s in g.signed_edges]
            else:
                level = [
                    w + (s,)
                    for w in level
                    for s in g.out_edges(w[-1].dst)
                    if s != w[-1].inverted()
                ]
            elements.extend(ReducedPath(w) for w in level)
            if len(elements) > budget:
                raise BudgetExceededError(f"basis exceeds budget {budget} at length {ell}")
        self.graph = g
        self.max_len = max_len
        self.elements = tuple(elements)
        self.index = {a: i for i, a in enumerate(elements)}
        self.n_vertices = len(g.vertices)

    def __len__(self) -> int:
        return len(self.elements)

    def vertex_positions(self):
        return {self.elements[i].v: i for i in range(self.n_vertices)}


class SparseOperator:
    """Integer matrix stored column-wise: cols[j] maps row -> value.

    boundary_affected records whether any image fell outside the
    truncation and was dropped; it propagates through sums and products.
    """

    def __init__(self, dim: int, cols=None, boundary_affected: bool = False):
        self.dim = dim
        self.cols = cols if cols is not None else [dict() for _ in range(dim)]
        self.boundary_affected = boundary_affected

    @staticmethod
    def identity(dim: int) -> "SparseOperator":
        return SparseOperator(dim, [{j: 1} for j in range(dim)])

    def entry(self, i: int, j: int) -> int:
        return self.cols[j].get(i, 0)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        assert self.dim == other.dim
        cols = []
        for a, b in zip(self.cols, other.cols):
            c = dict(a)
            for r, v in b.items():
                nv = c.get(r, 0) + v
                if nv:
                    c[r] = nv
                else:
                    c.pop(r, None)
            cols.append(c)
        return SparseOperator(
            self.dim, cols, self.boundary_affected or other.boundary_affected
        )

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
        return SparseOperator(
            self.dim, cols, self.boundary_affected or other.boundary_affected
        )

    def power(self, n: int) -> "SparseOperator":
        if n < 0:
            raise ValueError("power must be >= 0")
        acc = SparseOperator.identity(self.dim)
        for _ in range(n):
            acc = acc @ self
        return acc

    def transpose(self) -> "SparseOperator":
        cols = [dict() for _ in range(self.dim)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                cols[i][j] = v
        return SparseOperator(self.dim, cols, self.boundary_affected)

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


def build_basis(g: ShadowedGraph, max_len: int, budget: int = BASIS_BUDGET) -> Basis:
    return Basis(g, max_len, budget)


def right_mult(w, basis: Basis) -> SparseOperator:
    """Matrix of the right multiplication by a groupoid element: column
    w' holds a unit at the basis position of w'w when that product is a
    basis element, nothing when it is Empty, and is dropped (flagged)
    when it reduces past the truncation length."""
    if w is EMPTY:
        raise ValueError("right multiplication by Empty is undefined")
    op = SparseOperator(len(basis))
    for j, b in enumerate(basis.elements):
        t = concat(b, w)
        if t is EMPTY:
            continue
        i = basis.index.get(t)
        if i is None:
            op.boundary_affected = True
            continue
        op.cols[j][i] = 1
    return op


def labeling_operator(lg: LabeledGraph, k: int, basis: Basis) -> SparseOperator:
    """T_k: the sum of right multiplications by the signed edges whose
    label is k."""
    op = SparseOperator(len(basis))
    for s in lg.signed_with_label(k):
        op = op + right_mult(ReducedPath((s,)), basis)
    return op


def total_labeling_operator(lg: LabeledGraph, basis: Basis) -> SparseOperator:
    """T_G: the sum of T_k over all signed labels -N..-1, 1..N."""
    op = SparseOperator(len(basis))
    for k in range(-lg.max_label, lg.max_label + 1):
        if k == 0:
            continue
        op = op + labeling_operator(lg, k, basis)
    return op


def oracle_expectation_power(
    lg: LabeledGraph, n: int, max_len: int, budget: int = BASIS_BUDGET
):
    """Diagonal of T_G^n at the vertex basis vectors, as a plain map
    vertex -> integer.

    Valid whenever max_len >= n: a vertex column of T_G^n only sees
    words of length <= n, so the truncation boundary cannot reach it.
    The diagonal entry at xi_v is the coefficient of R_v, because R_w
    fixes xi_v exactly when w = v.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_len < n:
        raise ValueError("need max_len >= n for an exact vertex diagonal")
    basis = build_basis(lg.shadowed, max_len, budget)
    t = total_labeling_operator(lg, basis)
    p = t.power(n)
    return {v: p.entry(i, i) for v, i in basis.vertex_positions().items()}
