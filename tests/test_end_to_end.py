"""Every graph command, and `nc`, end to end on random graphs, against
the benchmark's independent reference.

perfbench/refs.py computes the exit code, result and status of each CLI
command from the graph file alone, by routes that share no code with
the program.  Here each graph drawn by labeled_multigraphs is written
to a file with its labels, and cli.main runs in-process on it, labeled
in the vertex, multiedge or explicit mode, at small sizes.  Its JSON
report must equal refs.expected after refs.normalized, as the benchmark
checks its own commands.

Known gaps: refs has no balance mode, so `moments --mode balance` and
the balance diagnostics go unchecked, and it has no budgets, so every
command here runs well inside the defaults and no truncated result is
compared.
"""

import contextlib
import importlib.util
import io
import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab import cli
from groupoidlab.errors import BASIS_BUDGET

from paper import graph_obj
from test_crossroutes import labeled_multigraphs

REFS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "refs.py")
_spec = importlib.util.spec_from_file_location("refs", REFS)
refs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refs)


def run_json(argv) -> tuple:
    """(exit code, JSON report or None) of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-1]) if lines else None


@st.composite
def commands(draw, n_max, graph):
    """The argv of one command of each kind, at small sizes, for a
    graph file whose largest label is n_max."""
    n = draw(st.integers(1, 6))
    signed = st.integers(1, n_max) | st.integers(-n_max, -1)
    argvs = [
        ["moments", *graph, "--n", str(n)],
        ["moments", *graph, "--n", str(n), "--words"],
        ["oracle", *graph, "--n", str(n), "--max-len", str(draw(st.integers(n // 2, n + 2)))],
        ["cumulants", *graph, "--n", str(n), "--formula", "both"],
        # a first index that starts with "-" would read as a flag
        ["joint", *graph, "--indices", ",".join(map(str, [
            draw(st.integers(1, n_max)), *draw(st.lists(signed, max_size=5))
        ]))],
        ["fractaloid", *graph],
        ["tree", *graph, "--depth", str(draw(st.integers(0, 3)))],
        ["nc", "--n", str(n)],
    ]
    if n_max >= 2:
        k1, k2 = draw(st.lists(st.integers(1, n_max), min_size=2, max_size=2, unique=True))
        argvs.append(["freeness", *graph, "--families", f"{k1},{k2}", "--max-n", "4"])
    return argvs


@settings(max_examples=80, deadline=None)
@given(kg=labeled_multigraphs(), mode=st.sampled_from(["vertex", "multiedge", "explicit"]),
       data=st.data())
def test_every_command_matches_the_reference(tmp_path_factory, kg, mode, data):
    path = str(tmp_path_factory.mktemp("graph") / "g.json")
    labels = dict(zip((e.id for e in kg.graph.edges), kg.labels[0::2]))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_obj(kg.graph, labels), fh)
    graph = ["--graph", path, "--labeling", mode]
    n_max = refs.load_graph(path, mode).max_label
    cache = {}
    for argv in data.draw(commands(n_max, graph)):
        code, report = run_json(argv)
        exp_code, exp_result, exp_status = refs.expected(cache, argv, BASIS_BUDGET)
        assert code == exp_code, argv
        assert report["status"] == exp_status, argv
        assert refs.normalized(argv, report["result"]) == exp_result, argv
