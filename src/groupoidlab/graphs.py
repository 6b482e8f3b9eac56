"""Directed multigraphs and their structural validation.

Vertices and edges are identified by opaque strings.  All derived
orderings are sorted by id, so every enumeration downstream is
deterministic across runs.

The shadowed graph of the paper (every edge plus its reversal) has no
object here: a validated DirectedGraph stands for it, and
_kernel.KernelGraph numbers and names its signed edges.
"""

from __future__ import annotations

from .errors import GraphError, Value


class Edge(Value):
    __slots__ = ("id", "src", "dst")


class DirectedGraph:
    """Finite directed multigraph with deterministic vertex/edge order.

    Loops and parallel edges are permitted.  Ids must be unique; edge
    endpoints must be declared vertices.
    """

    def __init__(self, vertices, edges):
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise GraphError("duplicate vertex ids")
        self.vertices: tuple[str, ...] = tuple(sorted(vs))
        vset = set(self.vertices)
        es = []
        seen = set()
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            if e.id in seen:
                raise GraphError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)
            if e.src not in vset or e.dst not in vset:
                raise GraphError(f"edge {e.id!r} has endpoint outside the vertex set")
            es.append(e)
        self.edges: tuple[Edge, ...] = tuple(sorted(es, key=lambda e: e.id))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirectedGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"DirectedGraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"


def validate_graph(g: DirectedGraph) -> tuple:
    """The violations of the structural requirements, nonempty and
    connected, as a tuple of messages: empty when g is valid.  The
    constructor has already rejected an edge whose endpoint is not a
    vertex.

    Connectivity is tested on the shadowed graph: between any two
    distinct vertices there must be a path ignoring edge direction.
    A single vertex with no edges is vacuously connected.
    """
    if not g.vertices:
        return ("empty vertex set",)
    # Undirected reachability from the first vertex.
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for e in g.edges:
        adj[e.src].add(e.dst)
        adj[e.dst].add(e.src)
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    missing = [v for v in g.vertices if v not in seen]
    if missing:
        return ("disconnected: unreachable vertices " + ", ".join(missing),)
    return ()


def shadow(g: DirectedGraph) -> DirectedGraph:
    """g itself, once validate_graph has passed it: the graph every
    labeling and flat view is built from.  Rejects invalid input with a
    GraphError that joins every violation; this is the one place that
    does."""
    violations = validate_graph(g)
    if violations:
        raise GraphError("; ".join(violations))
    return g
