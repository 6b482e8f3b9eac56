"""Graph JSON schema: load and validate.

Schema (UTF-8, no comments):
  {"vertices": ["v1", ...],
   "edges": [{"id": "e1", "src": "v1", "dst": "v2", "label": 1}, ...]}
"label" is optional per edge; when present anywhere it must be present
everywhere (explicit labelings are all-or-nothing).  An edge id must
not start with "~", which marks the name of a shadow edge.

It also recognizes the two bundled examples that carry a note,
fixtures/example-6-2.json and fixtures/two-loop.json: notes_for gives
the note of a parsed graph file that coincides with one of them.
Nothing here writes a file.
"""

import json

from .errors import GraphError, ParseError, SchemaError
from .graphs import DirectedGraph, Edge


def parse_graph_obj(obj) -> tuple[DirectedGraph, dict | None]:
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise SchemaError(f"missing key {key!r}")
    unknown = set(obj) - {"vertices", "edges"}
    if unknown:
        raise SchemaError("unknown keys: " + ", ".join(sorted(unknown)))
    vs = obj["vertices"]
    if not isinstance(vs, list) or not all(isinstance(v, str) for v in vs):
        raise SchemaError("vertices: must be a list of strings")
    es = obj["edges"]
    if not isinstance(es, list):
        raise SchemaError("edges: must be a list")
    edges = []
    labels: dict[str, int] = {}
    labelled = 0
    for i, rec in enumerate(es):
        where = f"edges[{i}]"
        if not isinstance(rec, dict):
            raise SchemaError(f"{where}: must be an object")
        for key in ("id", "src", "dst"):
            if key not in rec:
                raise SchemaError(f"{where}.{key}: missing")
            if not isinstance(rec[key], str):
                raise SchemaError(f"{where}.{key}: must be a string")
        # "~" + id names the shadow: a forward name must not be one
        if rec["id"].startswith("~"):
            raise SchemaError(f'{where}.id: must not start with "~"')
        unknown = set(rec) - {"id", "src", "dst", "label"}
        if unknown:
            raise SchemaError(f"{where}: unknown keys " + ", ".join(sorted(unknown)))
        edges.append(Edge(rec["id"], rec["src"], rec["dst"]))
        if "label" in rec:
            if not isinstance(rec["label"], int) or isinstance(rec["label"], bool):
                raise SchemaError(f"{where}.label: must be an integer")
            if rec["label"] < 1:
                raise SchemaError(f"{where}.label: must be >= 1")
            labels[rec["id"]] = rec["label"]
            labelled += 1
    if labelled and labelled != len(edges):
        raise SchemaError("label: present on some edges but not all")
    try:
        graph = DirectedGraph(vs, edges)
    except GraphError as exc:
        raise SchemaError(str(exc)) from exc
    return graph, (labels if labelled else None)


def parse_graph_file(path) -> tuple[DirectedGraph, dict | None]:
    """Load a graph file.  IO errors propagate as-is; a file that json
    cannot decode raises ParseError with the decoder's message, and
    schema violations raise SchemaError with the offending field path.
    Validation (connectivity etc.) is the caller's concern."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        # ValueError: a JSON syntax error, bytes that are not UTF-8, or
        # an integer past Python's digit limit
        except (ValueError, RecursionError) as exc:
            raise ParseError(str(exc)) from None
    return parse_graph_obj(obj)


# The two bundled examples whose note the CLI prints, keyed by the
# canonical form of a parsed graph file (see notes_for): the published
# values of fixtures/example-6-2.json, and the balance count on
# fixtures/two-loop.json.
_NOTES = {
    (
        ("v1", "v2", "v3"),
        (
            ("e12:1", "v1", "v2"),
            ("e12:2", "v1", "v2"),
            ("e13:1", "v1", "v3"),
            ("e22:1", "v2", "v2"),
        ),
        (("e12:1", 1), ("e12:2", 2), ("e13:1", 1), ("e22:1", 1)),
    ): (
        "The published moment word list for this graph omits the loop-edge "
        "words (e22:1, ~e22:1) and (~e22:1, e22:1); the reduction count and "
        "the operator oracle both include them, giving {v1: 3, v2: 4, v3: 1} "
        "at n = 2 instead of the published {v1: 3, v2: 2, v3: 1}."
    ),
    (("v",), (("e1", "v", "v"), ("e2", "v", "v")), None): (
        "For max label N >= 2 the balance-condition count exceeds the "
        "reduction count (36 vs 28 at n = 4 on the two-loop graph); the "
        "reduction count is the one matching the operator oracle."
    ),
}


def notes_for(graph: DirectedGraph, labels: dict | None) -> list:
    """The notes of the bundled example that a parsed graph file
    coincides with: its sorted vertex ids, (id, src, dst) of each edge in
    id order, and its labels, sorted, or None, all equal.  A new list,
    empty for any other graph."""
    key = (
        graph.vertices,
        tuple((e.id, e.src, e.dst) for e in graph.edges),
        tuple(sorted(labels.items())) if labels else None,
    )
    note = _NOTES.get(key)
    return [note] if note else []
