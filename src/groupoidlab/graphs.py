"""Directed multigraphs, shadowed graphs, and structural validation.

Vertices and edges are identified by opaque strings.  All derived
orderings are sorted by id, so every enumeration downstream is
deterministic across runs.
"""

from __future__ import annotations

from .errors import GraphError, Value


class Edge(Value):
    __slots__ = ("id", "src", "dst")


class SignedEdge(Value):
    """A base edge together with an orientation.

    The forward orientation is the edge as given; the inverse is its
    shadow (source and target swapped).
    """

    __slots__ = ("edge", "inverse")

    def __init__(self, edge: Edge, inverse: bool = False):
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "inverse", inverse)

    @property
    def src(self) -> str:
        return self.edge.dst if self.inverse else self.edge.src

    @property
    def dst(self) -> str:
        return self.edge.src if self.inverse else self.edge.dst

    def name(self) -> str:
        """Serialized form: ``e`` for forward, ``~e`` for the shadow."""
        return ("~" + self.edge.id) if self.inverse else self.edge.id

    def __repr__(self) -> str:
        return f"SignedEdge({self.name()!r})"


class ValidationReport(Value):
    __slots__ = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations


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


class ShadowedGraph:
    """A directed graph together with the shadow of every edge.

    The signed edge set has one forward and one inverse entry per base
    edge, ordered by (base id, orientation) with forward first.
    """

    def __init__(self, graph: DirectedGraph):
        self.graph = graph
        signed = []
        for e in graph.edges:
            signed.append(SignedEdge(e, False))
            signed.append(SignedEdge(e, True))
        self.signed_edges: tuple[SignedEdge, ...] = tuple(signed)
        self._by_name = {s.name(): s for s in signed}

    def signed_by_name(self, name: str) -> SignedEdge:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"unknown signed edge {name!r}") from None

    def __repr__(self) -> str:
        return f"ShadowedGraph({self.graph!r})"


def validate_graph(g: DirectedGraph) -> ValidationReport:
    """Check the structural requirements: nonempty, no dangling edges,
    connected.

    Connectivity is tested on the shadowed graph: between any two
    distinct vertices there must be a path ignoring edge direction.
    A single vertex with no edges is vacuously connected.
    """
    violations = []
    if not g.vertices:
        violations.append("empty vertex set")
        return ValidationReport(tuple(violations))
    # Endpoint membership is enforced at construction; re-check anyway so
    # reports from hand-built graphs stay meaningful.
    vset = set(g.vertices)
    for e in g.edges:
        if e.src not in vset or e.dst not in vset:
            violations.append(f"dangling edge {e.id}")
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
        violations.append("disconnected: unreachable vertices " + ", ".join(missing))
    return ValidationReport(tuple(violations))


def shadow(g: DirectedGraph) -> ShadowedGraph:
    """Construct the shadowed graph; rejects invalid input."""
    report = validate_graph(g)
    if not report.ok:
        raise GraphError("; ".join(report.violations))
    return ShadowedGraph(g)
