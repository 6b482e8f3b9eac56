"""Edge labelings, weighting of words, balance vectors, and lattice-path
counts.

Labels are signed integers: a forward base edge carries a label in
1..N and its shadow the negation; 0 is reserved for vertices.  Lattice
heights are never evaluated numerically; the per-index balance vector
carries exactly the information the axis property uses, because
distinct heights are linearly independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import BudgetExceededError
from .graphs import DirectedGraph, GraphError, ShadowedGraph, SignedEdge
from . import groupoid
from .groupoid import EMPTY, ReducedPath, Vertex

VERTEX_LABEL = 0

MODE_VERTEX = "vertex"  # per-vertex-bijective (default)
MODE_MULTIEDGE = "multiedge"  # parallel-edge index
MODE_EXPLICIT = "explicit"  # labels from the input file


@dataclass(frozen=True)
class BalanceVector:
    """Per-index signed letter counts: index k maps to (#+k) - (#-k).

    Zero entries are dropped, so the zero vector is the empty map.
    """

    counts: tuple  # tuple[(index, count), ...] sorted by index

    @staticmethod
    def of(pairs) -> "BalanceVector":
        acc: dict[int, int] = {}
        for k, c in pairs:
            acc[k] = acc.get(k, 0) + c
        return BalanceVector(tuple(sorted((k, c) for k, c in acc.items() if c)))

    @property
    def is_zero(self) -> bool:
        return not self.counts

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def integer_sum(self) -> int:
        """The collapsed reading: sum of signed indices.  Diagnostic only;
        it loses the per-index cancellation structure."""
        return sum(k * c for k, c in self.counts)

    def __add__(self, other: "BalanceVector") -> "BalanceVector":
        return BalanceVector.of(list(self.counts) + list(other.counts))


@dataclass(frozen=True)
class WeightedElement:
    """Endpoint pair plus label word; the weight of a word or element.

    Vertices weigh ((v, v), (0,)).  The empty weight has endpoints None.
    """

    endpoints: tuple | None
    labels: tuple

    @property
    def is_empty(self) -> bool:
        return self.endpoints is None

    @property
    def terminal(self) -> str | None:
        return None if self.endpoints is None else self.endpoints[1]


EMPTY_WEIGHT = WeightedElement(None, (VERTEX_LABEL,))


class LabeledGraph:
    """A shadowed graph with one positive label per base edge.

    In per-vertex-bijective mode the forward edges out of each vertex
    carry distinct labels 1..out_degree(v).  ``max_label`` plays the
    role of N everywhere downstream.
    """

    def __init__(self, shadowed: ShadowedGraph, base_labels: dict[str, int], mode: str):
        self.shadowed = shadowed
        self.mode = mode
        for e in shadowed.graph.edges:
            if e.id not in base_labels:
                raise GraphError(f"edge {e.id!r} has no label")
            if base_labels[e.id] < 1:
                raise GraphError(f"edge {e.id!r} label must be positive")
        self.base_labels = dict(base_labels)
        self.max_label = max(base_labels.values())

    @property
    def graph(self) -> DirectedGraph:
        return self.shadowed.graph

    def label(self, s: SignedEdge) -> int:
        base = self.base_labels[s.base_id]
        return -base if s.inverse else base

    def signed_with_label(self, k: int) -> tuple[SignedEdge, ...]:
        if k == 0 or abs(k) > self.max_label:
            raise GraphError(f"label {k} out of range 1..{self.max_label} (signed)")
        return tuple(s for s in self.shadowed.signed_edges if self.label(s) == k)

    def __repr__(self) -> str:
        return f"LabeledGraph(N={self.max_label}, mode={self.mode})"


def assign_weights(
    shadowed: ShadowedGraph,
    mode: str = MODE_VERTEX,
    explicit: dict[str, int] | None = None,
) -> LabeledGraph:
    """Label the base edges of a shadowed graph.

    vertex mode: forward edges out of each vertex get 1..deg_out(v) in
    sorted-id order.  multiedge mode: the label is the 1-based index
    among parallel edges with the same endpoints.  explicit mode: labels
    are taken from the given map and checked for presence and range.
    Shadow edges always carry the negated label of their base edge.
    """
    g = shadowed.graph
    if not g.edges:
        raise GraphError("cannot label a graph with no edges")
    labels: dict[str, int] = {}
    if mode == MODE_VERTEX:
        if explicit is not None:
            # caller-supplied labels must still be per-vertex bijective
            for v in g.vertices:
                out = [e for e in g.edges if e.src == v]
                got = [explicit.get(e.id) for e in out]
                if None in got:
                    raise GraphError(f"missing explicit label at vertex {v!r}")
                if len(set(got)) != len(got):
                    raise GraphError(
                        f"explicit labels violate per-vertex bijectivity at {v!r}"
                    )
            labels = dict(explicit)
        else:
            for v in g.vertices:
                out = sorted((e for e in g.edges if e.src == v), key=lambda e: e.id)
                for j, e in enumerate(out, start=1):
                    labels[e.id] = j
    elif mode == MODE_MULTIEDGE:
        groups: dict[tuple, list] = {}
        for e in g.edges:
            groups.setdefault((e.src, e.dst), []).append(e)
        for es in groups.values():
            for j, e in enumerate(sorted(es, key=lambda e: e.id), start=1):
                labels[e.id] = j
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
            labels[e.id] = k
    else:
        raise GraphError(f"unknown labeling mode {mode!r}")
    return LabeledGraph(shadowed, labels, mode)


def weight(lg: LabeledGraph, a) -> WeightedElement:
    """The weight of a word, path, or vertex: endpoints plus per-letter
    labels.  Empty or non-admissible input weighs the empty weight.
    """
    if a is EMPTY:
        return EMPTY_WEIGHT
    if isinstance(a, Vertex):
        return WeightedElement((a.v, a.v), (VERTEX_LABEL,))
    if isinstance(a, ReducedPath):
        word = a.word
    else:
        word = tuple(a)
        if not groupoid.is_admissible(word):
            return EMPTY_WEIGHT
    return WeightedElement(
        (word[0].src, word[-1].dst),
        tuple(lg.label(s) for s in word),
    )


def theta(label_word) -> BalanceVector:
    """Aggregate a label word into its balance vector (vertex labels are
    neutral)."""
    return BalanceVector.of(
        (abs(k), 1 if k > 0 else -1) for k in label_word if k != VERTEX_LABEL
    )


def omega_plus(we: WeightedElement) -> tuple:
    """Endpoints together with the aggregated balance of the label word."""
    return (we.endpoints, theta(we.labels))


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


def count_axis_paths_brute(max_label: int, length: int) -> int:
    """Independent check of count_axis_paths by full enumeration.
    Exponential; intended for small inputs only.
    """
    alphabet = [k for k in range(-max_label, max_label + 1) if k != 0]
    return sum(
        1 for w in itertools.product(alphabet, repeat=length) if theta(w).is_zero
    )
