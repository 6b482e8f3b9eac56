import pytest

from groupoidlab.graphs import (
    DirectedGraph,
    Edge,
    GraphError,
    shadow,
    validate_graph,
)

from paper import (
    fixture,
    inverted,
    out_edges,
    signed_by_name,
    signed_edges,
    vertex_index,
)


def test_single_vertex_without_edges_is_refused():
    # connected, but with no edge to label
    g = DirectedGraph(["v"], [])
    assert validate_graph(g) == ("cannot label a graph with no edges",)


def test_two_isolated_vertices_disconnected():
    g = DirectedGraph(["a", "b"], [])
    violations = validate_graph(g)
    assert violations
    assert any("disconnected" in v for v in violations)


def test_empty_vertex_set():
    g = DirectedGraph([], [])
    assert validate_graph(g) == ("empty vertex set",)


def test_example_6_2_valid():
    assert validate_graph(fixture("example-6-2")[0]) == ()


def test_duplicate_ids_rejected():
    with pytest.raises(GraphError):
        DirectedGraph(["v", "v"], [])
    with pytest.raises(GraphError):
        DirectedGraph(["v"], [Edge("e", "v", "v"), Edge("e", "v", "v")])


def test_dangling_edge_rejected():
    with pytest.raises(GraphError):
        DirectedGraph(["v"], [Edge("e", "v", "w")])


def test_shadow_single_edge():
    g = DirectedGraph(["v1", "v2"], [Edge("e", "v1", "v2")])
    assert shadow(g) is g
    assert len(signed_edges(g)) == 2
    fwd, inv = signed_edges(g)
    assert (fwd.src, fwd.dst) == ("v1", "v2")
    assert (inv.src, inv.dst) == ("v2", "v1")
    assert inverted(fwd) == inv and inverted(inv) == fwd


def test_shadow_example_6_2_has_8_signed_edges():
    assert len(signed_edges(shadow(fixture("example-6-2")[0]))) == 8


def test_shadow_involution():
    for s in signed_edges(shadow(fixture("example-6-2")[0])):
        assert inverted(inverted(s)) == s


def test_shadow_rejects_the_empty_edge_set():
    with pytest.raises(GraphError, match="^cannot label a graph with no edges$"):
        shadow(DirectedGraph(["v"], []))


def test_shadow_rejects_invalid():
    # every violation, joined into one error
    g = DirectedGraph(["a", "b", "c"], [])
    with pytest.raises(GraphError) as err:
        shadow(g)
    assert str(err.value) == "; ".join(validate_graph(g))
    assert str(err.value) == "disconnected: unreachable vertices b, c"


def test_unknown_vertex_errors():
    g = fixture("one-loop")[0]
    with pytest.raises(GraphError):
        vertex_index(g, "nope")


def test_shadowed_out_degree_is_out_plus_in():
    g = shadow(fixture("example-6-2")[0])
    for v in g.vertices:
        degree = sum((e.src == v) + (e.dst == v) for e in g.edges)
        assert len(out_edges(g, v)) == degree


def test_deterministic_ordering():
    e = [Edge("b", "x", "y"), Edge("a", "y", "x")]
    g1 = DirectedGraph(["y", "x"], e)
    g2 = DirectedGraph(["x", "y"], list(reversed(e)))
    assert g1.vertices == g2.vertices == ("x", "y")
    assert [x.id for x in g1.edges] == [x.id for x in g2.edges] == ["a", "b"]


def test_signed_edge_names():
    g = shadow(fixture("single-edge")[0])
    assert [s.name() for s in signed_edges(g)] == ["e1", "~e1"]
    assert signed_by_name(g, "~e1").inverse
    with pytest.raises(GraphError):
        signed_by_name(g, "~~e1")
