"""Graph automaton of a labeled graph: labeling map, shifting map,
automata actions, bounded-depth action trees, and the fractaloid test.

States are weighted elements (endpoint pair plus label word).  The
labeling map answers admissibility questions with the weight of the
connecting edge; the shifting map returns the edge (or the whole
continuation path in its extended form).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel, groupoid
from .errors import BudgetExceededError
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

    def phi(self, state: WeightedElement, w) -> WeightedElement:
        """Labeling map.  For a single edge: its weight when it continues
        the state; for a path: the weight of the path's last edge when
        the whole continuation is admissible; the empty weight otherwise.
        """
        word = _as_word(w)
        if state.is_empty or word is None:
            return EMPTY_WEIGHT
        if not groupoid.is_admissible(word) or word[0].src != state.terminal:
            return EMPTY_WEIGHT
        return weight(self.lg, (word[-1],))

    def psi_edge(self, state: WeightedElement, w):
        """Shifting map, edge form: the starting edge of the admissible
        continuation (coincides with the whole input on single edges)."""
        word = _as_word(w)
        if state.is_empty or word is None:
            return EMPTY
        if not groupoid.is_admissible(word) or word[0].src != state.terminal:
            return EMPTY
        return word[0]

    def psi_path(self, state: WeightedElement, w):
        """Shifting map, path form: the whole admissible continuation,
        returned as the raw edge word."""
        word = _as_word(w)
        if state.is_empty or word is None:
            return EMPTY
        if not groupoid.is_admissible(word) or word[0].src != state.terminal:
            return EMPTY
        return word

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


@dataclass(frozen=True, eq=False)
class TreeNode:
    """A node of an action tree.  Nodes compare and hash by identity,
    and the repr counts the children instead of descending into them,
    so deep trees need no recursion."""

    state: WeightedElement
    edge: SignedEdge | None  # psi output that produced this node; None at the root
    depth: int
    children: tuple

    def __repr__(self) -> str:
        return (
            f"TreeNode(state={self.state!r}, edge={self.edge!r}, "
            f"depth={self.depth}, children={len(self.children)})"
        )


@dataclass(frozen=True)
class AutomatonTree:
    root_vertex: str
    depth: int
    root: TreeNode

    def nodes(self):
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out


def _walk_counts(tables, root: int, depth: int):
    """For d = 0..depth, the number of length-d walks from root ending
    at each vertex.  Every phi output on a single edge is nonempty, so
    these are also the depth-d nodes of the action tree by terminal
    vertex."""
    ends = [0] * tables.n_vertices
    ends[root] = 1
    yield ends
    for _ in range(depth):
        nxt = [0] * tables.n_vertices
        for e in range(tables.n_signed):
            nxt[tables.dst[e]] += ends[tables.src[e]]
        ends = nxt
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
    tables = _kernel.signed_tables(aut.shadowed)
    root = aut.shadowed.vertices.index(root_vertex)
    size = sum(sum(ends) for ends in _walk_counts(tables, root, depth))
    if size > NODE_BUDGET:
        raise BudgetExceededError(
            f"tree of {size} nodes exceeds the node budget {NODE_BUDGET}"
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


@dataclass(frozen=True)
class FractaloidVerdict:
    fractaloid: bool
    depth: int
    max_label: int
    witness: dict | None  # vertex and reason of the first local failure
    trees: tuple  # per-root (vertex, regular, node count)


def _local_label_sets(aut: GraphAutomaton):
    """Per vertex, the multiset of signed labels on outgoing signed
    edges of the shadowed graph."""
    lg = aut.lg
    return {
        v: sorted(lg.label(s) for s in aut.shadowed.out_edges(v))
        for v in aut.shadowed.vertices
    }


def is_fractaloid(aut: GraphAutomaton, depth: int = 4) -> FractaloidVerdict:
    """Decide the fractaloid property.

    Local criterion (complete for finite labeled graphs): at every
    vertex of the shadowed graph the outgoing signed edges carry each
    label of {-N..-1, 1..N} exactly once, which makes every action tree
    the full 2N-regular tree.  No tree is built: per root, the depth-d
    tree's node count (walks of length <= depth) and its regularity (the
    local criterion at each vertex reached in fewer than depth steps)
    come from walk counts.  The verdict is labeled with the depth checked.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = aut.lg.max_label
    full = sorted(list(range(-n, 0)) + list(range(1, n + 1)))
    label_sets = _local_label_sets(aut)
    witness = None
    for v, labels in sorted(label_sets.items()):
        if labels != full:
            witness = {
                "vertex": v,
                "reason": f"outgoing labels {labels} != full set {full}",
            }
            break
    irregular = [label_sets[v] != full for v in aut.shadowed.vertices]
    tables = _kernel.signed_tables(aut.shadowed)
    trees = []
    for root, v in enumerate(aut.shadowed.vertices):
        regular, nodes = True, 0
        for d, ends in enumerate(_walk_counts(tables, root, depth)):
            nodes += sum(ends)
            if d < depth and any(c and bad for c, bad in zip(ends, irregular)):
                regular = False
        trees.append((v, regular, nodes))
    fractaloid = witness is None
    return FractaloidVerdict(
        fractaloid=fractaloid,
        depth=depth,
        max_label=n,
        witness=witness,
        trees=tuple(trees),
    )


def tree_dot(aut: GraphAutomaton, tree: AutomatonTree) -> str:
    """GraphViz DOT rendering of an action tree."""
    lines = ["digraph automaton_tree {", "  rankdir=LR;"]
    counter = 0

    def fmt(state: WeightedElement) -> str:
        if state.is_empty:
            return "empty"
        (a, b), labels = state.endpoints, state.labels
        return f"({a},{b})|{','.join(map(str, labels))}"

    def node_line(node: TreeNode, name: str) -> str:
        return f'  {name} [label="{fmt(node.state)}"];'

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
                lines.append(f'  {stack[-1][1]} -> {name} [label="{node.edge.name()}"];')
            continue
        counter += 1
        cname = f"n{counter}"
        lines.append(node_line(child, cname))
        stack.append((child, cname, iter(child.children)))
    lines.append("}")
    return "\n".join(lines)
