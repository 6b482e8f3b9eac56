"""Bundled fixture graphs.

Each fixture mirrors a worked example from the literature on labeling
operators; the two variants of the three-vertex multigraph differ only
in the loop edge at the middle vertex.  Fixtures carry notes that the
CLI surfaces whenever one of these graphs is loaded, recording where
the computed values diverge from the published ones.
"""

from __future__ import annotations

from .errors import Value
from .graphs import DirectedGraph, Edge


class Fixture(Value):
    # labels: the explicit labels, when the fixture fixes them, or None
    __slots__ = ("name", "graph", "labels", "notes")


def circulant(n: int) -> DirectedGraph:
    vs = [f"v{i}" for i in range(1, n + 1)]
    es = [Edge(f"e{i}", f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)]
    return DirectedGraph(vs, es)


def loops(n: int) -> DirectedGraph:
    return DirectedGraph(["v"], [Edge(f"e{i}", "v", "v") for i in range(1, n + 1)])


def _example_6_2(with_loop: bool) -> tuple[DirectedGraph, dict]:
    edges = [
        Edge("e12:1", "v1", "v2"),
        Edge("e12:2", "v1", "v2"),
        Edge("e13:1", "v1", "v3"),
    ]
    labels = {"e12:1": 1, "e12:2": 2, "e13:1": 1}
    if with_loop:
        edges.append(Edge("e22:1", "v2", "v2"))
        labels["e22:1"] = 1
    return DirectedGraph(["v1", "v2", "v3"], edges), labels


_NOTE_6_2_FULL = (
    "The published moment word list for this graph omits the loop-edge "
    "words (e22:1, ~e22:1) and (~e22:1, e22:1); the reduction count and "
    "the operator oracle both include them, giving {v1: 3, v2: 4, v3: 1} "
    "at n = 2 instead of the published {v1: 3, v2: 2, v3: 1}."
)
_NOTE_BALANCE = (
    "For max label N >= 2 the balance-condition count exceeds the "
    "reduction count (36 vs 28 at n = 4 on the two-loop graph); the "
    "reduction count is the one matching the operator oracle."
)


def _build() -> dict[str, Fixture]:
    g62, l62 = _example_6_2(True)
    g62n, l62n = _example_6_2(False)
    fx = [
        Fixture("circulant-3", circulant(3), None, ()),
        Fixture("one-loop", loops(1), None, ()),
        Fixture("two-loop", loops(2), None, (_NOTE_BALANCE,)),
        Fixture("three-loop", loops(3), None, ()),
        Fixture("single-edge", DirectedGraph(["v1", "v2"], [Edge("e1", "v1", "v2")]), None, ()),
        Fixture("example-6-2", g62, l62, (_NOTE_6_2_FULL,)),
        Fixture("example-6-2-noloop", g62n, l62n, ()),
    ]
    return {f.name: f for f in fx}


FIXTURES = _build()


def fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: " + ", ".join(sorted(FIXTURES))
        ) from None


def notes_for(graph: DirectedGraph, labels: dict | None) -> tuple:
    """Notes of the bundled fixture this graph coincides with, if any."""
    for f in FIXTURES.values():
        if f.graph == graph and (f.labels or None) == (labels or None):
            return f.notes
    return ()
