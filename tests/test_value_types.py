"""The immutable value types: construction, equality, hash, repr and
immutability; an import path free of dataclasses, and subcommands that
load only the layers they run and, with a well-formed argv, no
argparse."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import groupoidlab
from groupoidlab import _kernel, automaton, cli, moments
from groupoidlab.errors import BudgetExceededError, Value
from groupoidlab.graphs import Edge, shadow
from groupoidlab.ncpartitions import enumerate_nc

import paper
from paper import fixture, labeled

ROOT = os.path.join(os.path.dirname(__file__), "..")


def word_6_2():
    g = shadow(fixture("example-6-2")[0])
    return tuple(paper.signed_by_name(g, x) for x in ("e12:1", "e22:1", "~e12:2"))


def partition_with_ends():
    pi = enumerate_nc(4)[5]
    pi.ends  # fills the cache, which must not take part in equality
    return pi


# One builder per value type, each from the bundled fixtures.
CASES = {
    "Edge": lambda: fixture("example-6-2")[0].edges[0],
    "SignedEdge": lambda: paper.signed_edges(shadow(fixture("example-6-2")[0]))[1],
    "Vertex": lambda: paper.Vertex(fixture("circulant-3")[0].vertices[0]),
    "ReducedPath": lambda: paper.reduce_word(word_6_2()),
    "BalanceVector": lambda: paper.theta(
        paper.label(labeled("example-6-2"), s) for s in word_6_2()
    ),
    "WeightedElement": lambda: paper.weight(labeled("example-6-2"), word_6_2()),
    "KernelGraph": lambda: labeled("example-6-2"),
    "TreeNode": lambda: paper.build_tree(
        paper.GraphAutomaton(labeled("two-loop")), "v", 2
    ).root,
    "AutomatonTree": lambda: paper.build_tree(
        paper.GraphAutomaton(labeled("two-loop")), "v", 2
    ),
    "ActionTree": lambda: automaton.build_tree(labeled("two-loop"), "v", 2),
    "FractaloidVerdict": lambda: automaton.is_fractaloid(labeled("two-loop"), 2),
    "FractaloidVerdict-witness": lambda: automaton.is_fractaloid(labeled("example-6-2"), 2),
    "DiagonalElement": lambda: moments.moment(labeled("example-6-2"), 2),
    "FreenessReport": lambda: moments.check_freeness(labeled("two-loop"), 1, 2, 3),
    "NoncrossingPartition": partition_with_ends,
}


def field_names(cls):
    """The fields, in constructor order: the __slots__ of every class
    along the MRO, base classes first, without a __dict__ slot."""
    return [
        name
        for klass in reversed(cls.__mro__)
        for name in klass.__dict__.get("__slots__", ())
        if name != "__dict__"
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_type_contract(name):
    obj = CASES[name]()
    cls = type(obj)
    assert cls.__name__ == name.split("-")[0]
    names = field_names(cls)
    values = tuple(getattr(obj, n) for n in names)
    compared = tuple(getattr(obj, n) for n in names if n not in cls._unkeyed)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))

    if cls is paper.TreeNode:  # identity semantics
        assert obj == obj and by_position != obj and by_keyword != obj
        assert hash(obj) == object.__hash__(obj)
    else:
        assert by_position == obj and by_keyword == obj and not by_position != obj
        try:  # one field hashes as itself, more as their tuple
            expected = hash(compared[0] if len(compared) == 1 else compared)
        except TypeError:  # an unhashable field makes the object unhashable
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == hash(by_position) == hash(by_keyword) == expected

    # not the tuple of its fields, nor another class with the same fields
    assert obj != values and values != obj and obj != compared
    if len(values) == 1:
        assert obj != values[0]
    twin = type("Twin", (cls,), {"__slots__": ()})(*values)
    assert twin != obj and obj != twin

    with pytest.raises(AttributeError):
        setattr(obj, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(obj, names[-1])
    with pytest.raises(AttributeError):
        obj.unknown_field = 1
    assert tuple(getattr(obj, n) for n in names) == values


@pytest.mark.parametrize("name", sorted(CASES))
def test_constructor_rejects_bad_arguments(name):
    obj = CASES[name]()
    cls = type(obj)
    names = field_names(cls)
    values = [getattr(obj, n) for n in names]
    with pytest.raises(TypeError):  # the first field missing
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unknown_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def package_classes():
    for info in pkgutil.iter_modules(groupoidlab.__path__):
        module = importlib.import_module(f"groupoidlab.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


# The value types of the paper's oracles, which live in the tests.
ORACLE_TYPES = {"SignedEdge", "Vertex", "ReducedPath", "BalanceVector", "WeightedElement",
                "TreeNode", "AutomatonTree"}


def test_value_types_derive_from_value():
    """Every class of the package with __slots__ that compares by value
    gets its constructor, equality, hash and immutability from Value."""
    derived = set()
    for cls in package_classes():
        if cls is Value or "__slots__" not in vars(cls):
            continue
        if cls.__eq__ is object.__eq__ and not issubclass(cls, Value):
            continue  # identity semantics, like the Empty element
        assert issubclass(cls, Value), cls
        derived.add(cls.__name__)
        own = {"__init__", "__eq__", "__hash__", "__setattr__", "__delattr__"}
        assert not own & set(vars(cls)), cls
    assert derived == {name.split("-")[0] for name in CASES} - ORACLE_TYPES


def test_kernel_graph_ignores_names():
    kg = CASES["KernelGraph"]()
    names = field_names(type(kg))
    # the names of the vertices and signed edges take no part, nor do
    # max_label, which the labels determine, and the graph, which holds
    # the names
    unnamed = ("vertices", "names", "max_label", "graph")
    other = _kernel.KernelGraph(*(() if n in unnamed else getattr(kg, n) for n in names))
    assert other == kg and hash(other) == hash(kg)
    assert "'v1'" not in repr(kg) and "e12:1" not in repr(kg)
    # the labels do take part
    relabeled = _kernel.KernelGraph(*(
        tuple(-k for k in kg.labels) if n == "labels" else getattr(kg, n) for n in names
    ))
    assert relabeled != kg


def test_default_reprs_are_unchanged():
    assert repr(fixture("example-6-2")[0].edges[0]) == "Edge(id='e12:1', src='v1', dst='v2')"
    assert repr(Edge("e1", "v", "v")) == "Edge(id='e1', src='v', dst='v')"
    lg = labeled("example-6-2")
    assert repr(moments.moment(lg, 2)) == "Diagonal(v1: 3, v2: 4, v3: 1)"
    with pytest.raises(BudgetExceededError) as exc:
        moments.moment(lg, 4, budget=3)
    assert repr(exc.value.partial) == "Diagonal(0)"
    assert repr(CASES["FractaloidVerdict"]()) == (
        "FractaloidVerdict(fractaloid=True, depth=2, max_label=2, witness=None, "
        "trees=(('v', True, 21),))"
    )
    assert repr(CASES["FractaloidVerdict-witness"]()) == (
        "FractaloidVerdict(fractaloid=False, depth=2, max_label=2, "
        "witness={'vertex': 'v1', 'reason': 'outgoing labels [1, 1, 2] != full set "
        "[-2, -1, 1, 2]'}, trees=(('v1', False, 13), ('v2', False, 19), ('v3', False, 5)))"
    )
    assert repr(lg) == (
        "KernelGraph(n_vertices=3, n_signed=8, src=(0, 1, 0, 1, 0, 2, 1, 1), "
        "dst=(1, 0, 1, 0, 2, 0, 1, 1), inv=(1, 0, 3, 2, 5, 4, 7, 6), "
        "out=((0, 2, 4), (1, 3, 6, 7), (5,)), "
        "labels=(1, -1, 2, -2, 1, -1, 1, -1), n_labels=2)"
    )


def test_signed_edge_orientation_defaults_to_forward():
    e = Edge("e1", "v1", "v2")
    forward = paper.SignedEdge(e)
    assert forward == paper.SignedEdge(e, False) == paper.SignedEdge(edge=e, inverse=False)


def test_cli_import_loads_no_dataclasses():
    """The CLI's import path must not pull in dataclasses (nor inspect,
    which dataclasses imports): they were most of its start-up time."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import groupoidlab.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []


ARGPARSE = {"argparse", "gettext", "locale"}


def loaded_modules(argv):
    """The groupoidlab modules a fresh process loads to run one command,
    and those of ARGPARSE it loads."""
    code = (
        "import contextlib, io, sys\n"
        "from groupoidlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "print(' '.join(sorted(m[12:] for m in sys.modules if m.startswith('groupoidlab.'))))\n"
        f"print(' '.join(sorted({sorted(ARGPARSE)!r} & sys.modules.keys())))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


GRAPH = ["--graph", "fixtures/example-6-2.json"]


@pytest.mark.parametrize("argv, absent", [
    (["nc", "--n", "4"], {"_kernel", "graphs", "labeling", "moments", "automaton", "operators"}),
    (["tree", *GRAPH, "--depth", "2"], {"moments", "ncpartitions", "operators"}),
    (["fractaloid", *GRAPH, "--depth", "2"], {"moments", "ncpartitions", "operators"}),
    (["moments", *GRAPH, "--n", "4", "--words"], {"operators", "automaton"}),
    (["lattice", "--max-label", "2", "--length", "4"], {"_kernel", "moments"}),
], ids=lambda a: a[0] if isinstance(a, list) else None)
def test_each_subcommand_loads_only_the_layers_it_runs(argv, absent):
    loaded = loaded_modules(argv)
    assert "cli" in loaded
    assert loaded & absent == set()
    assert loaded & ARGPARSE == set()


def test_leftover_argument_exits_with_the_full_usage():
    """A stray token is left to argparse, whose usage lists every
    subcommand, in a fresh process as in-process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-m", "groupoidlab.cli", "moments", *GRAPH, "--n", "1", "bogus"],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("usage: groupoidlab [-h]")
    assert "{" + ",".join(cli.COMMANDS) + "}" in out.stderr
    assert out.stderr.endswith("error: unrecognized arguments: bogus\n")
