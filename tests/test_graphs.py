import pytest

from groupoidlab.fixtures import fixture
from groupoidlab.graphs import (
    DirectedGraph,
    Edge,
    GraphError,
    shadow,
    validate_graph,
)

from paper import inverted, out_edges, vertex_index


def test_single_vertex_valid():
    g = DirectedGraph(["v"], [])
    assert validate_graph(g).ok


def test_two_isolated_vertices_disconnected():
    g = DirectedGraph(["a", "b"], [])
    report = validate_graph(g)
    assert not report.ok
    assert any("disconnected" in v for v in report.violations)


def test_empty_vertex_set():
    g = DirectedGraph([], [])
    assert "empty vertex set" in validate_graph(g).violations


def test_example_6_2_valid():
    assert validate_graph(fixture("example-6-2").graph).ok


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
    sh = shadow(g)
    assert len(sh.signed_edges) == 2
    fwd, inv = sh.signed_edges
    assert (fwd.src, fwd.dst) == ("v1", "v2")
    assert (inv.src, inv.dst) == ("v2", "v1")
    assert inverted(fwd) == inv and inverted(inv) == fwd


def test_shadow_example_6_2_has_8_signed_edges():
    sh = shadow(fixture("example-6-2").graph)
    assert len(sh.signed_edges) == 8


def test_shadow_involution():
    sh = shadow(fixture("example-6-2").graph)
    for s in sh.signed_edges:
        assert inverted(inverted(s)) == s


def test_shadow_empty_edge_set():
    sh = shadow(DirectedGraph(["v"], []))
    assert sh.signed_edges == ()


def test_shadow_rejects_invalid():
    with pytest.raises(GraphError):
        shadow(DirectedGraph(["a", "b"], []))


def test_unknown_vertex_errors():
    g = fixture("one-loop").graph
    with pytest.raises(GraphError):
        vertex_index(g, "nope")


def test_shadowed_out_degree_is_out_plus_in():
    g = fixture("example-6-2").graph
    sh = shadow(g)
    for v in g.vertices:
        degree = sum((e.src == v) + (e.dst == v) for e in g.edges)
        assert len(out_edges(sh, v)) == degree


def test_deterministic_ordering():
    e = [Edge("b", "x", "y"), Edge("a", "y", "x")]
    g1 = DirectedGraph(["y", "x"], e)
    g2 = DirectedGraph(["x", "y"], list(reversed(e)))
    assert g1.vertices == g2.vertices == ("x", "y")
    assert [x.id for x in g1.edges] == [x.id for x in g2.edges] == ["a", "b"]


def test_signed_edge_names():
    sh = shadow(fixture("single-edge").graph)
    assert [s.name() for s in sh.signed_edges] == ["e1", "~e1"]
    assert sh.signed_by_name("~e1").inverse
