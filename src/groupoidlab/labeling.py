"""Edge labelings and lattice-path counts.

Labels are signed integers: a forward base edge carries a label in
1..N and its shadow the negation; 0 is reserved for vertices.  Lattice
heights are never evaluated numerically; a label word's per-index
balance (its letters +k less its letters -k, for each k) carries
exactly the information the axis property uses, because distinct
heights are linearly independent.

A labeled graph is its one flat view: assign_weights returns the
_kernel.KernelGraph that the moment, automaton and operator layers
read.
"""

from __future__ import annotations

from math import comb

from .errors import BudgetExceededError
from .graphs import DirectedGraph, GraphError

MODE_VERTEX = "vertex"  # per-vertex-bijective (default)
MODE_MULTIEDGE = "multiedge"  # parallel-edge index
MODE_EXPLICIT = "explicit"  # labels from the input file


def assign_weights(
    g: DirectedGraph,
    mode: str = MODE_VERTEX,
    explicit: dict[str, int] | None = None,
):
    """Label the base edges of a graph that graphs.shadow has passed,
    and return the labeled shadowed graph as its flat view, a
    _kernel.KernelGraph: each shadow carries the negated label of its
    base edge, and max_label plays the role of N everywhere downstream.

    vertex mode: forward edges out of each vertex get 1..deg_out(v) in
    sorted-id order.  multiedge mode: the label is the 1-based index
    among parallel edges with the same endpoints, in sorted-id order.
    Both number the id-sorted edges in one pass, with a running count
    per source or per endpoint pair.  explicit mode: labels are taken
    from the given map and checked for presence and range; only this
    mode takes a map.
    """
    if not g.edges:
        raise GraphError("cannot label a graph with no edges")
    if explicit is not None and mode != MODE_EXPLICIT:
        raise GraphError(f"labeling mode {mode!r} takes no label map")
    labels = []  # per base edge, in id order
    if mode in (MODE_VERTEX, MODE_MULTIEDGE):
        counts: dict = {}
        for e in g.edges:
            key = e.src if mode == MODE_VERTEX else (e.src, e.dst)
            counts[key] = counts.get(key, 0) + 1
            labels.append(counts[key])
    elif mode == MODE_EXPLICIT:
        if explicit is None:
            raise GraphError("explicit mode requires a label map")
        missing = [e.id for e in g.edges if e.id not in explicit]
        if missing:
            raise GraphError("missing explicit labels for " + ", ".join(missing))
        for e in g.edges:
            k = explicit[e.id]
            if not isinstance(k, int) or k < 1:
                raise GraphError(f"explicit label for {e.id!r} must be a positive integer")
            labels.append(k)
    else:
        raise GraphError(f"unknown labeling mode {mode!r}")
    from . import _kernel  # lattice loads this module, never the kernel

    return _kernel.kernel_graph(g, labels)


def count_axis_paths(max_label: int, length: int, budget: int | None = None) -> int:
    """Number of length-k label words over {+-1..+-N} whose balance is
    zero (none for odd k).  Such a word holds m_j letters +j and m_j
    letters -j, so the count is the sum over compositions
    m_1+...+m_N = k/2 of k! / prod(m_j!)^2 = C(k, k/2) g_N(k/2), where
    g_j(t) sums the squared multinomials t! / prod(m_i!) over the
    compositions of t into j parts:

        g_1(t) = 1,  g_j(t) = sum_m C(t, m)^2 g_(j-1)(t - m).

    Only g_N(k/2) is needed from the last step.  budget caps the terms
    summed, (N - 2)(h + 1)(h + 2)/2 + h + 1 for h = k/2 and N >= 2, and
    is charged before any is summed.
    """
    if max_label < 1:
        raise ValueError("max_label must be >= 1")
    if length < 1:
        raise ValueError("length must be >= 1")
    if length % 2:
        return 0
    half = length // 2
    if max_label == 1:
        return comb(length, half)
    terms = (max_label - 2) * (half + 1) * (half + 2) // 2 + half + 1
    if budget is not None and terms > budget:
        raise BudgetExceededError(
            f"lattice N={max_label} k={length}: {terms} recurrence terms "
            f"exceed the budget {budget}"
        )
    g = [1] * (half + 1)
    for _ in range(max_label - 2):
        g = [_square_convolution(g, t) for t in range(half + 1)]
    return comb(length, half) * _square_convolution(g, half)


def _square_convolution(g: list, t: int) -> int:
    """sum_m C(t, m)^2 g[t - m], each C(t, m) from the one before."""
    total, c = 0, 1
    for m in range(t + 1):
        total += c * c * g[t - m]
        c = c * (t - m) // (m + 1)
    return total
