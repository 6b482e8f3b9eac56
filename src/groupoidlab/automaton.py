"""Graph automaton of a labeled graph: labeling map, shifting map,
automata actions, bounded-depth action trees, and the fractaloid test.

States are weighted elements (endpoint pair plus label word).  The
labeling map answers admissibility questions with the weight of the
connecting edge; the shifting map returns the edge (or the whole
continuation path in its extended form).
"""

from __future__ import annotations

from . import _kernel, groupoid
from .errors import BudgetExceededError, Value
from .graphs import GraphError, SignedEdge
from .groupoid import EMPTY, ReducedPath, Vertex
from .labeling import EMPTY_WEIGHT, LabeledGraph, WeightedElement, weight

# Nodes of the largest action tree build_tree makes: the tree is
# materialized, and its DOT rendering is as large.
NODE_BUDGET = 100_000


class GraphAutomaton:
    """Automaton <states, signed edges, phi, psi> of a labeled graph."""

    def __init__(self, lg: LabeledGraph):
        self.lg = lg
        self.shadowed = lg.shadowed

    def vertex_state(self, v: str) -> WeightedElement:
        return weight(self.lg, Vertex(v))

    def _continuation(self, state: WeightedElement, w):
        """The word of w when it is an admissible continuation of the
        state, None otherwise."""
        word = _as_word(w)
        if state.is_empty or word is None or not groupoid.is_admissible(word):
            return None
        return word if word[0].src == state.terminal else None

    def phi(self, state: WeightedElement, w) -> WeightedElement:
        """Labeling map.  For a single edge: its weight when it continues
        the state; for a path: the weight of the path's last edge when
        the whole continuation is admissible; the empty weight otherwise.
        """
        word = self._continuation(state, w)
        return EMPTY_WEIGHT if word is None else weight(self.lg, (word[-1],))

    def psi_edge(self, state: WeightedElement, w):
        """Shifting map, edge form: the starting edge of the admissible
        continuation (coincides with the whole input on single edges)."""
        word = self._continuation(state, w)
        return EMPTY if word is None else word[0]

    def psi_path(self, state: WeightedElement, w):
        """Shifting map, path form: the whole admissible continuation,
        returned as the raw edge word."""
        word = self._continuation(state, w)
        return EMPTY if word is None else word

    def act(self, w):
        """The automaton action of a word: fold phi over its letters.
        Composition satisfies act(e1) o act(e2) = act(word e2 e1)."""
        word = _as_word(w)
        if word is None:
            raise ValueError("cannot act by the empty element")

        def action(state: WeightedElement) -> WeightedElement:
            for s in word:
                state = self.phi(state, (s,))
                if state.is_empty:
                    return EMPTY_WEIGHT
            return state

        return action


def _as_word(w):
    if w is EMPTY:
        return None
    if isinstance(w, SignedEdge):
        return (w,)
    if isinstance(w, ReducedPath):
        return w.word
    if isinstance(w, Vertex):
        return None
    word = tuple(w)
    return word if word else None


class TreeNode(Value):
    """A node of an action tree.  Nodes compare and hash by identity,
    and the repr counts the children instead of descending into them,
    so deep trees need no recursion."""

    # state: the phi output; edge: the psi output that produced this
    # node, None at the root
    __slots__ = ("state", "edge", "depth", "children")

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return (
            f"TreeNode(state={self.state!r}, edge={self.edge!r}, "
            f"depth={self.depth}, children={len(self.children)})"
        )


class AutomatonTree(Value):
    __slots__ = ("root_vertex", "depth", "root")

    def nodes(self):
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out


def _walk_counts(kg, root: int, depth: int):
    """For d = 0..depth, the number of length-d walks from root ending
    at each vertex.  Every phi output on a single edge is nonempty, so
    these are also the depth-d nodes of the action tree by terminal
    vertex."""
    ends = [0] * kg.n_vertices
    ends[root] = 1
    yield ends
    for _ in range(depth):
        ends = _kernel.walk_step(kg, ends)
        yield ends


def build_tree(aut: GraphAutomaton, root_vertex: str, depth: int) -> AutomatonTree:
    """Breadth-regular action tree to the given depth.  A node's
    children follow the signed edges leaving its terminal vertex, in
    sorted signed-edge order; payloads are the phi outputs.  A tree of
    more than NODE_BUDGET nodes is refused before any node is built."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if root_vertex not in aut.shadowed.vertices:
        raise GraphError(f"unknown root vertex {root_vertex!r}")
    root = aut.shadowed.vertices.index(root_vertex)
    size = 0
    for d, ends in enumerate(_walk_counts(aut.lg.kernel, root, depth)):
        size += sum(ends)
        if size > NODE_BUDGET:  # counting stops at the first level past it
            more = "" if d == depth else "more than "
            raise BudgetExceededError(
                f"tree of {more}{size} nodes exceeds the node budget {NODE_BUDGET}"
            )

    # Depth-first with an explicit stack of [state, edge, depth, finished
    # children, edges still to grow]; a node is built once all its
    # children are.
    def frame(state: WeightedElement, edge, d: int) -> list:
        edges = aut.shadowed.out_edges(state.terminal) if d < depth else ()
        return [state, edge, d, [], iter(edges)]

    stack = [frame(aut.vertex_state(root_vertex), None, 0)]
    while True:
        state, edge, d, kids, edges = stack[-1]
        s = next(edges, None)
        if s is not None:
            stack.append(frame(aut.phi(state, (s,)), s, d + 1))
            continue
        stack.pop()
        node = TreeNode(state, edge, d, tuple(kids))
        if not stack:
            return AutomatonTree(root_vertex, depth, node)
        stack[-1][3].append(node)


class FractaloidVerdict(Value):
    # witness: vertex and reason of the first local failure, or None;
    # trees: per root, (vertex, regular, node count)
    __slots__ = ("fractaloid", "depth", "max_label", "witness", "trees")


def is_fractaloid(
    aut: GraphAutomaton, depth: int = 4, max_nodes: int | None = None
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
    first level where its count passes the bound.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = aut.lg.max_label
    full = sorted(list(range(-n, 0)) + list(range(1, n + 1)))
    kg = aut.lg.kernel
    vertices = aut.shadowed.vertices  # sorted, numbered like kg
    # per vertex, the multiset of signed labels on its outgoing signed edges
    label_sets = [sorted(kg.labels[e] for e in kg.out(v)) for v in range(kg.n_vertices)]
    irregular = [labels != full for labels in label_sets]
    witness = None
    if True in irregular:
        v = irregular.index(True)
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


def tree_dot(aut: GraphAutomaton, tree: AutomatonTree) -> str:
    """GraphViz DOT rendering of an action tree."""
    lines = ["digraph automaton_tree {", "  rankdir=LR;"]
    counter = 0

    def quoted(text: str) -> str:  # a DOT string: backslash and quote escaped
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def fmt(state: WeightedElement) -> str:
        if state.is_empty:
            return "empty"
        (a, b), labels = state.endpoints, state.labels
        return f"({a},{b})|{','.join(map(str, labels))}"

    def node_line(node: TreeNode, name: str) -> str:
        return f"  {name} [label={quoted(fmt(node.state))}];"

    # Names are given in pre-order; a node's edge line follows the
    # subtree below it.
    lines.append(node_line(tree.root, "n0"))
    stack = [(tree.root, "n0", iter(tree.root.children))]
    while stack:
        node, name, kids = stack[-1]
        child = next(kids, None)
        if child is None:
            stack.pop()
            if stack:
                edge = quoted(node.edge.name())
                lines.append(f"  {stack[-1][1]} -> {name} [label={edge}];")
            continue
        counter += 1
        cname = f"n{counter}"
        lines.append(node_line(child, cname))
        stack.append((child, cname, iter(child.children)))
    lines.append("}")
    return "\n".join(lines)
