import json
import shutil

import pytest

from groupoidlab import graphio
from groupoidlab.graphio import SchemaError, parse_graph_obj

from paper import FIXTURE_DIR, FIXTURES, fixture, graph_obj


def test_roundtrip_all_fixtures(tmp_path):
    for name in FIXTURES:
        graph, labels = fixture(name)
        path = tmp_path / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(graph_obj(graph, labels), fh)
        assert graphio.parse_graph_file(path) == (graph, labels)


def test_example_6_2_fixture_contents():
    graph, labels = fixture("example-6-2")
    assert len(graph.vertices) == 3
    assert [e.id for e in graph.edges] == ["e12:1", "e12:2", "e13:1", "e22:1"]
    assert [labels[e.id] for e in graph.edges] == [1, 2, 1, 1]


def test_circulant_fixture_contents():
    graph, labels = fixture("circulant-3")
    assert len(graph.vertices) == 3 and len(graph.edges) == 3
    assert labels is None


def test_notes_name_the_two_noted_examples_exactly(tmp_path):
    # every bundled file, and a copy of it at another path, is noted
    # exactly when it is example-6-2 with its labels or two-loop
    # without labels
    noted = {}
    for name in FIXTURES:
        copy = tmp_path / f"copy-of-{name}.json"
        shutil.copy(f"{FIXTURE_DIR}/{name}.json", copy)
        notes = graphio.notes_for(*graphio.parse_graph_file(copy))
        assert notes == graphio.notes_for(*fixture(name))
        if notes:
            noted[name] = notes
    assert sorted(noted) == ["example-6-2", "two-loop"]
    assert [len(n) for n in noted.values()] == [1, 1]
    assert noted["example-6-2"] != noted["two-loop"]
    # the order of the lists in the file does not matter
    obj = json.loads((tmp_path / "copy-of-example-6-2.json").read_text())
    obj["vertices"].reverse()
    obj["edges"].reverse()
    assert graphio.notes_for(*parse_graph_obj(obj)) == noted["example-6-2"]
    # relabeled or renamed variants are other graphs
    graph, labels = fixture("example-6-2")
    assert graphio.notes_for(graph, None) == []
    assert graphio.notes_for(graph, {**labels, "e22:1": 2}) == []
    assert graphio.notes_for(fixture("example-6-2-noloop")[0], labels) == []
    graph, _ = fixture("two-loop")
    assert graphio.notes_for(graph, {"e1": 1, "e2": 2}) == []
    renamed = graph_obj(graph)
    renamed["edges"][1]["id"] = "e3"
    assert graphio.notes_for(*parse_graph_obj(renamed)) == []
    moved = graph_obj(graph)
    moved["vertices"] = ["w"]
    for rec in moved["edges"]:
        rec["src"] = rec["dst"] = "w"
    assert graphio.notes_for(*parse_graph_obj(moved)) == []
    # each call gives a new list, which the CLI extends
    assert graphio.notes_for(graph, None) is not graphio.notes_for(graph, None)


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
