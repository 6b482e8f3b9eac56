import json

import pytest

from groupoidlab import graphio
from groupoidlab.fixtures import FIXTURES, fixture, notes_for
from groupoidlab.graphio import SchemaError, parse_graph_obj


def test_roundtrip_all_fixtures(tmp_path):
    for name, f in FIXTURES.items():
        path = str(tmp_path / f"{name}.json")
        graphio.dump_graph_file(path, f.graph, f.labels)
        graph, labels = graphio.parse_graph_file(path)
        assert graph == fixture(name).graph
        assert labels == f.labels


def test_checked_in_fixtures_match_library():
    import os

    here = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    for name, f in FIXTURES.items():
        graph, labels = graphio.parse_graph_file(os.path.join(here, f"{name}.json"))
        assert graph == f.graph and labels == f.labels


def test_example_6_2_fixture_contents():
    f = fixture("example-6-2")
    assert len(f.graph.vertices) == 3
    assert [e.id for e in f.graph.edges] == ["e12:1", "e12:2", "e13:1", "e22:1"]
    assert [f.labels[e.id] for e in f.graph.edges] == [1, 2, 1, 1]


def test_circulant_fixture_contents():
    f = fixture("circulant-3")
    assert len(f.graph.vertices) == 3 and len(f.graph.edges) == 3
    assert f.labels is None


def test_notes_matching():
    f = fixture("example-6-2")
    assert notes_for(f.graph, f.labels)
    assert notes_for(f.graph, None) == ()  # labels differ -> no match
    assert notes_for(fixture("circulant-3").graph, None) == ()


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fixture("nope")


def test_schema_missing_key():
    with pytest.raises(SchemaError, match="missing key 'edges'"):
        parse_graph_obj({"vertices": []})


def test_schema_missing_src_field_path():
    with pytest.raises(SchemaError, match=r"edges\[0\]\.src"):
        parse_graph_obj({"vertices": ["a"], "edges": [{"id": "e", "dst": "a"}]})


def test_schema_partial_labels_rejected():
    obj = {
        "vertices": ["a"],
        "edges": [
            {"id": "e1", "src": "a", "dst": "a", "label": 1},
            {"id": "e2", "src": "a", "dst": "a"},
        ],
    }
    with pytest.raises(SchemaError, match="some edges but not all"):
        parse_graph_obj(obj)


def test_schema_bad_label():
    obj = {"vertices": ["a"], "edges": [{"id": "e", "src": "a", "dst": "a", "label": True}]}
    with pytest.raises(SchemaError):
        parse_graph_obj(obj)
    obj["edges"][0]["label"] = 0
    with pytest.raises(SchemaError):
        parse_graph_obj(obj)


def test_schema_unknown_keys():
    with pytest.raises(SchemaError, match="unknown keys"):
        parse_graph_obj({"vertices": [], "edges": [], "extra": 1})


def test_dump_is_stable(tmp_path):
    f = fixture("example-6-2")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    graphio.dump_graph_file(p1, f.graph, f.labels)
    graphio.dump_graph_file(p2, f.graph, f.labels)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text())["vertices"] == ["v1", "v2", "v3"]
