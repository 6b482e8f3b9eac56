"""Surface guard: every public function and method in src/groupoidlab
has a caller elsewhere in the package (a reference to its name, outside
__init__.py), or is listed in KEPT with one word saying why it stays.
Names match without their owner, so the check is loose for common
method names; it catches helpers that only the tests call.  And no
module reads another package module's _-prefixed names: a module's
interface is what its callers use.  And no module holds signed-edge
objects or a shadowed-graph object: every module reads signed edges
from the tables of _kernel.KernelGraph.  And no module wraps that flat
view: a labeled graph is its KernelGraph.  And every entry point that
the benchmark's tracer wraps is still where it looks for it."""

import ast
import importlib
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "groupoidlab")
TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")

KEPT = {
    "operators.labeling_operator": "paper",
    "operators.SparseOperator.transpose": "paper",
    "moments.moment": "paper",
    "moments.balance_moment": "paper",
    "moments.moment_via_cumulants": "paper",
    "_kernel.backend_name": "perfbench",
    "graphio.dump_graph_file": "schema",
    "fixtures.fixture": "fixtures",
}


def parse(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def surface():
    """({qualified name: bare name} of the public functions and methods,
    the set of names the package refers to)."""
    defs, refs = {}, set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        tree, module = parse(name), name[:-3]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = [(f"{module}.{node.name}.", fn) for fn in node.body]
            else:
                members = [(f"{module}.", node)]
            for prefix, fn in members:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    defs[prefix + fn.name] = fn.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return defs, refs


def test_every_public_name_has_a_caller_or_a_reason():
    defs, refs = surface()
    assert sorted(q for q, name in defs.items() if name not in refs and q not in KEPT) == []


def test_kept_names_exist_and_have_no_caller():
    defs, refs = surface()
    assert sorted(q for q in KEPT if defs.get(q, "") in refs or q not in defs) == []
    assert all(reason.isalpha() for reason in KEPT.values())


def test_package_exports_only_its_version():
    body = parse("__init__.py").body
    assert [type(node).__name__ for node in body] == ["Expr", "Assign"]  # docstring, version
    assert [t.id for t in body[1].targets] == ["__version__"]


def private_reads():
    """(module, name) for each _-prefixed, non-dunder name that a module
    reads from another package module: as module._name, through a
    module imported with `from . import module`, or by
    `from .module import _name`."""
    modules = {name[:-3] for name in os.listdir(SRC) if name.endswith(".py")}

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        tree, module, aliases = parse(name), name[:-3], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    aliases |= {a.asname or a.name for a in node.names if a.name in modules}
                else:
                    found += [(module, f"{node.module}.{a.name}") for a in node.names
                              if private(a.name)]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and private(node.attr)
            ):
                found.append((module, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_reads_another_modules_private_names():
    assert private_reads() == []


SIGNED_EDGE_NAMES = ("SignedEdge", "ShadowedGraph", "shadowed", "signed_edges")


def signed_edge_readers():
    """Modules that define or refer to SignedEdge, ShadowedGraph,
    shadowed or signed_edges, as a class, function, argument, attribute,
    name or import: signed edges are numbered and named by
    _kernel.KernelGraph alone."""
    found = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(parse(name)):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.alias)):
                used = node.name
            elif isinstance(node, ast.arg):
                used = node.arg
            elif isinstance(node, ast.Attribute):
                used = node.attr
            elif isinstance(node, ast.Name):
                used = node.id
            else:
                continue
            if used in SIGNED_EDGE_NAMES:
                found.add(name[:-3])
    return sorted(found)


def test_only_the_kernel_numbers_signed_edges():
    assert signed_edge_readers() == []


def flat_view_wrappers():
    """Modules that name LabeledGraph anywhere, or read an attribute
    named kernel: labeling.assign_weights returns the flat view itself,
    and no object stands between a labeled graph and its KernelGraph."""
    found = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            source = fh.read()
        if "LabeledGraph" in source or any(
            isinstance(node, ast.Attribute) and node.attr == "kernel"
            for node in ast.walk(ast.parse(source))
        ):
            found.add(name[:-3])
    return sorted(found)


def test_a_labeled_graph_is_its_flat_view():
    assert flat_view_wrappers() == []


def tracer_hooks():
    """(module, attribute) of each entry point perfbench/tracer.py wraps:
    its WRAPPED table, read without importing perfbench, and cli._emit."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WRAPPED"
    )
    hooks = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    return hooks + [("groupoidlab.cli", "_emit")]


def test_benchmark_tracer_hooks_exist():
    # the tracer replaces owner.__dict__[name], so each name must be an
    # attribute of its own module or class, not one reached by lookup
    missing = []
    for module, attr in tracer_hooks():
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}.{attr}")
    assert missing == [], (
        f"the benchmark's tracer wraps {missing}: keep these names until the run "
        "ledger replaces the tracer's wrappers (ROADMAP item 5)"
    )
