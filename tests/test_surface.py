"""Surface guard: every public function and method in src/groupoidlab
has a caller elsewhere in the package (a reference to its name, outside
__init__.py), or is listed in KEPT with one word saying why it stays.
Names match without their owner, so the check is loose for common
method names; it catches helpers that only the tests call.  And no
module reads another package module's _-prefixed names: a module's
interface is what its callers use.  And only the graph and labeling
layers hold SignedEdge objects: every other module reads signed edges
from the tables of _kernel.KernelGraph."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "groupoidlab")

KEPT = {
    "operators.labeling_operator": "paper",
    "operators.SparseOperator.transpose": "paper",
    "moments.moment": "paper",
    "moments.balance_moment": "paper",
    "moments.moment_via_cumulants": "paper",
    "_kernel.backend_name": "perfbench",
    "graphio.dump_graph_file": "schema",
    "fixtures.fixture": "fixtures",
    "graphs.ShadowedGraph.signed_by_name": "lookup",
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


def signed_edge_readers():
    """Modules other than graphs and labeling that refer to the
    attribute shadowed or signed_edges, or to the name SignedEdge:
    signed edges are numbered and named by _kernel.KernelGraph alone."""
    found = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name in ("graphs.py", "labeling.py"):
            continue
        for node in ast.walk(parse(name)):
            if (
                isinstance(node, ast.Attribute) and node.attr in ("shadowed", "signed_edges")
                or isinstance(node, ast.Name) and node.id == "SignedEdge"
                or isinstance(node, ast.alias) and node.name == "SignedEdge"
            ):
                found.add(name[:-3])
    return sorted(found)


def test_only_the_kernel_numbers_signed_edges():
    assert signed_edge_readers() == []
