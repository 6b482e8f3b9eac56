"""Action trees of the graph automaton and the fractaloid test, on the
signed-edge tables of a labeled graph's flat view, _kernel.KernelGraph.

The automaton A_G acts on the shadowed graph by its labeling map phi.
Every phi output on a single edge is nonempty, so each node of an
action tree is fixed by the signed edge that reaches it: the root at v
reads (v,v)|0, and the child through e reads (src e,dst e)|label e.
The trees, their sizes and their regularity therefore come from the
tables and from walk counts, and no state is built.
"""

from __future__ import annotations

from . import _kernel
from .errors import BudgetExceededError, Value
from .graphs import GraphError

# Nodes of the largest action tree build_tree writes: its DOT text is
# held whole, about 60 bytes a node.
NODE_BUDGET = 100_000


def _walk_counts(kg, root: int, depth: int):
    """For d = 0..depth, the number of length-d walks from root ending
    at each vertex: the depth-d nodes of the action tree by terminal
    vertex."""
    ends = [0] * kg.n_vertices
    ends[root] = 1
    yield ends
    for _ in range(depth):
        ends = _kernel.walk_step(kg, ends)
        yield ends


class ActionTree(Value):
    # dot: the GraphViz DOT text; size: the node count
    __slots__ = ("root", "depth", "dot", "size")

    def nodes(self) -> range:
        """One entry per node: the nodes exist only as DOT lines."""
        return range(self.size)


def _label(text: str) -> str:
    """The label attribute that ends a DOT line, as a DOT string:
    backslash and quote escaped."""
    return ' [label="' + text.replace("\\", "\\\\").replace('"', '\\"') + '"];'


def build_tree(kg: _kernel.KernelGraph, root_vertex: str, depth: int) -> ActionTree:
    """The action tree at root_vertex to the given depth, as DOT.  A
    node's children follow the signed edges leaving its terminal vertex,
    in index order.  One depth-first walk names the nodes in pre-order
    and writes each edge line after the subtree below it.  A tree of
    more than NODE_BUDGET nodes is refused before any line is written;
    the node count is the walk counts' sum.  Signed-edge names come from
    the tables too, as kg.names."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if root_vertex not in kg.vertices:
        raise GraphError(f"unknown root vertex {root_vertex!r}")
    root = kg.vertices.index(root_vertex)
    size = 0
    for d, ends in enumerate(_walk_counts(kg, root, depth)):
        size += sum(ends)
        if size > NODE_BUDGET:  # counting stops at the first level past it
            more = "" if d == depth else "more than "
            raise BudgetExceededError(
                f"tree of {more}{size} nodes exceeds the node budget {NODE_BUDGET}"
            )

    # per signed edge, the label of the node it reaches and of the edge
    # line that leads there
    vs = kg.vertices
    node = [
        _label(f"({vs[kg.src[e]]},{vs[kg.dst[e]]})|{kg.labels[e]}") for e in range(kg.n_signed)
    ]
    edge = [_label(name) for name in kg.names]
    out = [kg.out(v) for v in range(kg.n_vertices)]
    lines = [
        "digraph automaton_tree {",
        "  rankdir=LR;",
        "  n0" + _label(f"({root_vertex},{root_vertex})|0"),
    ]
    # (node name, out-edges not yet walked, signed edge that reached it)
    stack = [("n0", iter(out[root] if depth else ()), None)]
    named = 0
    while stack:
        name, kids, entered = stack[-1]
        e = next(kids, None)
        if e is None:
            stack.pop()
            if stack:
                lines.append(f"  {stack[-1][0]} -> {name}{edge[entered]}")
            continue
        named += 1
        child = f"n{named}"
        lines.append(f"  {child}{node[e]}")
        stack.append((child, iter(out[kg.dst[e]] if len(stack) < depth else ()), e))
    lines.append("}")
    return ActionTree(root_vertex, depth, "\n".join(lines), size)


class FractaloidVerdict(Value):
    # witness: vertex and reason of the first local failure, or None;
    # trees: per root, (vertex, regular, node count)
    __slots__ = ("fractaloid", "depth", "max_label", "witness", "trees")


def is_fractaloid(
    kg: _kernel.KernelGraph, depth: int = 4, max_nodes: int | None = None
) -> FractaloidVerdict:
    """Decide the fractaloid property.

    Local criterion (complete for finite labeled graphs): at every
    vertex of the shadowed graph the outgoing signed edges carry each
    label of {-N..-1, 1..N} exactly once, which makes every action tree
    the full 2N-regular tree.  No tree is built: per root, the depth-d
    tree's node count (walks of length <= depth) and its regularity (the
    local criterion at each vertex reached in fewer than depth steps)
    come from walk counts.  The verdict is labeled with the depth checked.
    A tree of more than max_nodes nodes raises BudgetExceededError at the
    first level where its count passes the bound.  A witness's reason
    lists the full set, 2N labels.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = kg.max_label
    vertices = kg.vertices
    # per vertex, the multiset of signed labels on its outgoing signed
    # edges; every label lies in {-N..-1, 1..N}, so 2N distinct ones are
    # all of them
    label_sets = [sorted(kg.labels[e] for e in kg.out(v)) for v in range(kg.n_vertices)]
    irregular = [len(labels) != 2 * n or len(set(labels)) != 2 * n for labels in label_sets]
    witness = None
    if True in irregular:
        v = irregular.index(True)
        full = [*range(-n, 0), *range(1, n + 1)]
        witness = {
            "vertex": vertices[v],
            "reason": f"outgoing labels {label_sets[v]} != full set {full}",
        }
    trees = []
    for root, v in enumerate(vertices):
        regular, nodes = True, 0
        for d, ends in enumerate(_walk_counts(kg, root, depth)):
            nodes += sum(ends)
            if max_nodes is not None and nodes > max_nodes:
                raise BudgetExceededError(
                    f"the depth-{depth} tree at {v} passes max_nodes at depth {d}"
                )
            if d < depth and any(c and bad for c, bad in zip(ends, irregular)):
                regular = False
        trees.append((v, regular, nodes))
    return FractaloidVerdict(
        fractaloid=witness is None,
        depth=depth,
        max_label=n,
        witness=witness,
        trees=tuple(trees),
    )
