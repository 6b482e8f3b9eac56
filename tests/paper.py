"""The paper's definitions as objects: the oracles that the integer
routes of groupoidlab are tested against.

The program works on the signed-edge tables of a labeled graph's flat
view, the _kernel.KernelGraph that labeling.assign_weights returns, and
a validated DirectedGraph stands for the shadowed graph.  This
module states the same notions as the paper does, over SignedEdge
words:

* the signed edges of the shadowed graph as objects: a base edge with
  an orientation, the signed edges of a graph, and a lookup by name;
* the groupoid of the shadowed graph: words, admissibility, free
  reduction, the partial product, inverses and diagrams;
* the weight of a word (endpoints plus label word) and its balance
  vector;
* the graph automaton (labeling map phi, shifting maps psi, actions),
  its action trees as node objects, and their DOT rendering;
* the fractaloid verdict from one walk per root, the permutation test
  of a Schreier graph, and the closed walks of a regular tree;
* the Moebius value of a noncrossing partition, from the cycle type of
  pi^-1 gamma;
* E on a single word and the cumulant weight mu_w;
* the operator basis as groupoid elements, right multiplication by
  one, the labeling operators T_k and the adjoint of an operator;
* the bundled examples, read from their one definition,
  fixtures/<name>.json, as graphs and as flat views.

Signed edges are numbered and named like the flat view lg, that is in
the order of signed_edges(lg.graph); the oracles build that numbering
themselves, and read from lg only its graph and its base labels.
"""

from __future__ import annotations

import os
from functools import cache
from math import comb, prod

from groupoidlab import graphio, moments
from groupoidlab.errors import BudgetExceededError, GraphError, Value
from groupoidlab.graphs import shadow
from groupoidlab.labeling import MODE_EXPLICIT, MODE_VERTEX, assign_weights
from groupoidlab.ncpartitions import NoncrossingPartition, enumerate_nc
from groupoidlab.operators import SparseOperator

# ---------------------------------------------------------------------------
# The bundled examples: fixtures/<name>.json is the one definition of each

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURES = tuple(sorted(f[:-5] for f in os.listdir(FIXTURE_DIR) if f.endswith(".json")))


@cache
def fixture(name: str) -> tuple:
    """(graph, labels) of fixtures/<name>.json, as graphio parses it:
    labels is None when the file has none.  Parsed once per name, so
    every test of one example reads the same graph object."""
    return graphio.parse_graph_file(os.path.join(FIXTURE_DIR, f"{name}.json"))


def graph_obj(graph, labels: dict | None = None) -> dict:
    """The graph file object of a parsed graph and its labels, in the
    schema graphio reads: json.dump writes it to a file."""
    edges = [{"id": e.id, "src": e.src, "dst": e.dst} for e in graph.edges]
    if labels is not None:
        for rec in edges:
            rec["label"] = labels[rec["id"]]
    return {"vertices": list(graph.vertices), "edges": edges}


def labeled(name: str, mode: str = "auto"):
    """The flat view of a bundled example, labeled as the CLI's
    --labeling mode does: "auto" takes the file's labels when it has
    them and vertex labels otherwise, and only explicit mode reads the
    file's labels."""
    graph, labels = fixture(name)
    if mode == "auto":
        mode = MODE_EXPLICIT if labels else MODE_VERTEX
    return assign_weights(shadow(graph), mode, labels)


# ---------------------------------------------------------------------------
# Signed edges: a base edge with an orientation, the signed edges of a
# graph, their inverses, the edges leaving a vertex, and their labels.


class SignedEdge(Value):
    """A base edge together with an orientation.

    The forward orientation is the edge as given; the inverse is its
    shadow (source and target swapped).
    """

    __slots__ = ("edge", "inverse")

    def __init__(self, edge, inverse: bool = False):
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "inverse", inverse)

    @property
    def src(self) -> str:
        return self.edge.dst if self.inverse else self.edge.src

    @property
    def dst(self) -> str:
        return self.edge.src if self.inverse else self.edge.dst

    def name(self) -> str:
        """Serialized form: ``e`` for forward, ``~e`` for the shadow."""
        return ("~" + self.edge.id) if self.inverse else self.edge.id

    def __repr__(self) -> str:
        return f"SignedEdge({self.name()!r})"


# id(graph) -> (graph, its signed edges, name -> signed edge, vertex ->
# signed edges leaving it); holding the graph keeps its id from reuse,
# so an id names one graph
_VIEWS: dict = {}


def _view(g) -> tuple:
    """The signed edges of a DirectedGraph, built once per graph object:
    the oracles ask for them at every letter."""
    view = _VIEWS.get(id(g))
    if view is None:
        signed = tuple(SignedEdge(e, inv) for e in g.edges for inv in (False, True))
        leaving = {v: [] for v in g.vertices}
        for s in signed:
            leaving[s.src].append(s)
        by_name = {s.name(): s for s in signed}
        view = _VIEWS[id(g)] = (g, signed, by_name, {v: tuple(o) for v, o in leaving.items()})
    return view


def signed_edges(g) -> tuple:
    """The signed edges of the shadowed graph of g, numbered like the
    flat view: base edge i, in id order, is signed edge 2i forward and
    2i + 1 shadow."""
    return _view(g)[1]


def signed_by_name(g, name: str) -> SignedEdge:
    """The signed edge of g named name: its base edge's id, with a
    leading ~ on the shadow."""
    try:
        return _view(g)[2][name]
    except KeyError:
        raise GraphError(f"unknown signed edge {name!r}") from None


def edge_index(lg) -> dict:
    """SignedEdge -> its index in the flat view lg."""
    return {s: i for i, s in enumerate(signed_edges(lg.graph))}


def inverted(s: SignedEdge) -> SignedEdge:
    """The same base edge in the other orientation: an involution."""
    return SignedEdge(s.edge, not s.inverse)


def vertex_index(g, v: str) -> int:
    """The position of v among the sorted vertices of g."""
    try:
        return g.vertices.index(v)
    except ValueError:
        raise GraphError(f"unknown vertex {v!r}") from None


def out_edges(g, v: str) -> tuple:
    """The signed edges of the shadowed graph of g that leave v, in
    signed-edge order."""
    vertex_index(g, v)
    return _view(g)[3][v]


# id(flat view) -> (the view, base edge id -> label), held like _VIEWS
_LABELS: dict = {}


def base_labels(lg) -> dict:
    """Base edge id -> its label, in the flat view lg: the label of its
    forward signed edge, 2i for base edge i.  Built once per view: the
    oracles ask for it at every letter."""
    held = _LABELS.get(id(lg))
    if held is None:
        labels = dict(zip((e.id for e in lg.graph.edges), lg.labels[0::2]))
        held = _LABELS[id(lg)] = (lg, labels)
    return held[1]


def label(lg, s: SignedEdge) -> int:
    """The signed label of s: its base edge's label, negated on the
    shadow."""
    base = base_labels(lg)[s.edge.id]
    return -base if s.inverse else base


# ---------------------------------------------------------------------------
# The groupoid: a word is a tuple of SignedEdge.  It is admissible when
# consecutive endpoints match; reduction cancels adjacent (x, x~) pairs
# until none remain.  A fully cancelled word collapses to the vertex it
# started at, a non-admissible word to the absorbing Empty element.


class _EmptyElement:
    """The absorbing empty element of the groupoid (unique instance)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Empty"

    def __bool__(self) -> bool:
        return False


EMPTY = _EmptyElement()


class Vertex(Value):
    __slots__ = ("v",)

    def __repr__(self) -> str:
        return f"Vertex({self.v})"


class ReducedPath(Value):
    """A nonempty admissible word with no adjacent inverse pair."""

    __slots__ = ("word",)

    def __repr__(self) -> str:
        return "Path(" + " ".join(s.name() for s in self.word) + ")"

    def __len__(self) -> int:
        return len(self.word)


def is_admissible(word) -> bool:
    if not word:
        return False
    return all(word[i].dst == word[i + 1].src for i in range(len(word) - 1))


def source(a):
    if isinstance(a, Vertex):
        return a.v
    if isinstance(a, ReducedPath):
        return a.word[0].src
    raise ValueError("Empty element has no source")


def target(a):
    if isinstance(a, Vertex):
        return a.v
    if isinstance(a, ReducedPath):
        return a.word[-1].dst
    raise ValueError("Empty element has no target")


def _cancels(s, t) -> bool:
    """Whether t is the inverse of s: the same base edge, in the other
    orientation.  Base edges compare by equality, since callers may build
    equal but distinct Edge objects; identity is only the fast path."""
    return t.inverse == (not s.inverse) and (t.edge is s.edge or t.edge == s.edge)


def reduce_word(word):
    """Reduce an edge word to its groupoid element.

    Non-admissible words give Empty.  Cancellation is a single stack
    pass; confluence of free reduction makes the order irrelevant
    (cross-checked by the randomized canceller in test_groupoid).
    """
    if not word or not is_admissible(word):
        return EMPTY
    stack = []
    for s in word:
        if stack and _cancels(s, stack[-1]):
            stack.pop()
        else:
            stack.append(s)
    if not stack:
        return Vertex(word[0].src)
    return ReducedPath(tuple(stack))


def inverse(a):
    """Groupoid inverse: reverse the word and flip every orientation."""
    if a is EMPTY or isinstance(a, Vertex):
        return a
    return ReducedPath(tuple(inverted(s) for s in reversed(a.word)))


def concat(a, b):
    """Partially defined product: Empty unless target(a) = source(b).
    Both words are reduced, so letters cancel only where they meet."""
    if a is EMPTY or b is EMPTY:
        return EMPTY
    if target(a) != source(b):
        return EMPTY
    if isinstance(a, Vertex):
        return b
    if isinstance(b, Vertex):
        return a
    x, y = a.word, b.word
    k = 0
    while k < min(len(x), len(y)) and _cancels(x[-1 - k], y[k]):
        k += 1
    word = x[: len(x) - k] + y[k:]
    return ReducedPath(word) if word else Vertex(x[0].src)


def diagram(a) -> frozenset:
    """Base-edge support of an element, orientation and multiplicity
    forgotten.  Vertices have empty support."""
    if a is EMPTY:
        raise ValueError("Empty element has no diagram")
    if isinstance(a, Vertex):
        return frozenset()
    return frozenset(s.edge.id for s in a.word)


def diagram_distinct(a, b) -> bool:
    """Distinctness test backing the freeness criterion: the elements
    must not be mutually inverse and must have different diagrams."""
    if a is EMPTY or b is EMPTY:
        raise ValueError("diagram_distinct undefined on Empty")
    return a != inverse(b) and diagram(a) != diagram(b)


# ---------------------------------------------------------------------------
# Weights and balance vectors.  A forward base edge carries a label in
# 1..N and its shadow the negation; 0 is the label of a vertex.

VERTEX_LABEL = 0


class BalanceVector(Value):
    """Per-index signed letter counts: index k maps to (#+k) - (#-k).

    Zero entries are dropped, so the zero vector is the empty map.
    """

    __slots__ = ("counts",)  # ((index, count), ...) sorted by index

    @staticmethod
    def of(pairs) -> "BalanceVector":
        acc: dict[int, int] = {}
        for k, c in pairs:
            acc[k] = acc.get(k, 0) + c
        return BalanceVector(tuple(sorted((k, c) for k, c in acc.items() if c)))

    @property
    def is_zero(self) -> bool:
        return not self.counts

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def __add__(self, other: "BalanceVector") -> "BalanceVector":
        return BalanceVector.of(list(self.counts) + list(other.counts))


class WeightedElement(Value):
    """Endpoint pair plus label word; the weight of a word or element.

    Vertices weigh ((v, v), (0,)).  The empty weight has endpoints None.
    """

    __slots__ = ("endpoints", "labels")

    @property
    def is_empty(self) -> bool:
        return self.endpoints is None

    @property
    def terminal(self) -> str | None:
        return None if self.endpoints is None else self.endpoints[1]


EMPTY_WEIGHT = WeightedElement(None, (VERTEX_LABEL,))


def weight(lg, a) -> WeightedElement:
    """The weight of a word, path, or vertex: endpoints plus per-letter
    labels.  Empty or non-admissible input weighs the empty weight."""
    if a is EMPTY:
        return EMPTY_WEIGHT
    if isinstance(a, Vertex):
        return WeightedElement((a.v, a.v), (VERTEX_LABEL,))
    if isinstance(a, ReducedPath):
        word = a.word
    else:
        word = tuple(a)
        if not is_admissible(word):
            return EMPTY_WEIGHT
    return WeightedElement(
        (word[0].src, word[-1].dst),
        tuple(label(lg, s) for s in word),
    )


def theta(label_word) -> BalanceVector:
    """Aggregate a label word into its balance vector (vertex labels are
    neutral)."""
    return BalanceVector.of(
        (abs(k), 1 if k > 0 else -1) for k in label_word if k != VERTEX_LABEL
    )


def omega_plus(we: WeightedElement) -> tuple:
    """Endpoints together with the aggregated balance of the label word."""
    return (we.endpoints, theta(we.labels))


# ---------------------------------------------------------------------------
# The graph automaton.  States are weighted elements.  The labeling map
# answers admissibility questions with the weight of the connecting
# edge; the shifting map returns the edge (or the whole continuation
# path in its extended form).


class GraphAutomaton:
    """Automaton <states, signed edges, phi, psi> of a labeled graph."""

    def __init__(self, lg):
        self.lg = lg

    def vertex_state(self, v: str) -> WeightedElement:
        return weight(self.lg, Vertex(v))

    def _continuation(self, state: WeightedElement, w):
        """The word of w when it is an admissible continuation of the
        state, None otherwise."""
        word = _as_word(w)
        if state.is_empty or word is None or not is_admissible(word):
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


def build_tree(aut: GraphAutomaton, root_vertex: str, depth: int) -> AutomatonTree:
    """Breadth-regular action tree to the given depth.  A node's
    children follow the signed edges leaving its terminal vertex, in
    sorted signed-edge order; payloads are the phi outputs."""
    if depth < 0:
        raise ValueError("depth must be >= 0")

    # Depth-first with an explicit stack of [state, edge, depth, finished
    # children, edges still to grow]; a node is built once all its
    # children are.
    def frame(state: WeightedElement, edge, d: int) -> list:
        edges = out_edges(aut.lg.graph, state.terminal) if d < depth else ()
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


def tree_dot(tree: AutomatonTree) -> str:
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


def fractaloid_trees(lg, depth: int, max_nodes: int | None = None) -> tuple:
    """(fractaloid, trees) from one walk per root, the roots taken in
    vertex order and all walked one level at a time: trees holds per
    root (vertex, regular, node count) of its depth-d action tree.
    ends[root][v] counts the length-d walks from the root that end at
    v, and the tree's nodes are the walks of length <= depth.  A vertex
    is regular when its out-edges carry {-N..-1, 1..N}, once each; a
    tree is regular when every vertex reached in fewer than depth steps
    is.  At the first depth where a tree has more than max_nodes nodes,
    BudgetExceededError names the first root whose tree passes there."""
    g = lg.graph
    n = max(base_labels(lg).values())
    full = [*range(-n, 0), *range(1, n + 1)]
    irregular = {v for v in g.vertices if sorted(label(lg, s) for s in out_edges(g, v)) != full}
    ends = {root: {root: 1} for root in g.vertices}
    regular = dict.fromkeys(g.vertices, True)
    nodes = dict.fromkeys(g.vertices, 0)
    for d in range(depth + 1):
        for root in g.vertices:
            nodes[root] += sum(ends[root].values())
        for root in g.vertices:
            if max_nodes is not None and nodes[root] > max_nodes:
                raise BudgetExceededError(
                    f"the depth-{depth} tree at {root} passes max_nodes at depth {d}"
                )
        if d < depth:
            for root in g.vertices:
                regular[root] = regular[root] and not irregular & ends[root].keys()
                step = {}
                for v, c in ends[root].items():
                    for s in out_edges(g, v):
                        step[s.dst] = step.get(s.dst, 0) + c
                ends[root] = step
    return not irregular, tuple((root, regular[root], nodes[root]) for root in g.vertices)


def is_schreier(lg) -> bool:
    """Whether lg is the Schreier graph of N permutations of its
    vertices: for each label k in 1..N, every vertex is the source of
    exactly one label-k edge and the target of exactly one.  Read from
    the base edges and their labels alone."""
    g, labels = lg.graph, base_labels(lg)
    for k in range(1, max(labels.values()) + 1):
        edges = [e for e in g.edges if labels[e.id] == k]
        if sorted(e.src for e in edges) != list(g.vertices):
            return False
        if sorted(e.dst for e in edges) != list(g.vertices):
            return False
    return True


def tree_moment(d: int, n: int) -> int:
    """The closed walks of length n >= 1 from a node of the d-regular
    tree: none for odd n, and for n = 2m
    M(2m) = sum_{j=1..m} j/(2m-j) C(2m-j, m) d^j (d-1)^(m-j),
    the walks whose returns to the root number j."""
    if n % 2:
        return 0
    m = n // 2
    return sum(
        j * comb(n - j, m) // (n - j) * d**j * (d - 1) ** (m - j) for j in range(1, m + 1)
    )


# ---------------------------------------------------------------------------
# Noncrossing partitions


def kreweras(n: int, blocks) -> list:
    """Block sizes of the Kreweras complement of the noncrossing
    partition of 1..n with the given blocks, sorted: the cycle type of
    pi^-1 gamma, where gamma is i -> i+1 (mod n) and pi sends each
    element to the next one of its block, cyclically."""
    pi_inv = [0] * (n + 1)
    for b in blocks:
        for prev, x in zip(b[-1:] + b[:-1], b):
            pi_inv[x] = prev
    seen = [False] * (n + 1)
    sizes = []
    for start in range(1, n + 1):
        size = 0
        x = start
        while not seen[x]:
            seen[x] = True
            size += 1
            x = pi_inv[x % n + 1]
        if size:
            sizes.append(size)
    return sorted(sizes)


def partition(n: int, blocks) -> NoncrossingPartition:
    """The noncrossing partition of 1..n with the given canonical
    blocks, with mu(pi, 1_n) as the product over its Kreweras blocks K
    of (-1)^(|K|-1) c_(|K|-1): the interval [pi, 1_n] is the product of
    the lattices NC(|K|) (Nica-Speicher, Lecture 10)."""
    blocks = tuple(tuple(b) for b in blocks)
    mu = prod((-1) ** (s - 1) * comb(2 * s - 2, s - 1) // s for s in kreweras(n, blocks))
    return NoncrossingPartition(n, blocks, mu)


# ---------------------------------------------------------------------------
# Moments and cumulants of single words


def expectation_of_word(w) -> moments.DiagonalElement:
    """E on a single word: unit mass at the vertex it reduces to, zero
    otherwise."""
    r = reduce_word(tuple(w))
    if isinstance(r, Vertex):
        return moments.DiagonalElement(((r.v, 1),))
    return moments.DiagonalElement.zero()


def mu_w(lg, word) -> int:
    """The cumulant weight of a vertex-reducing word: the Moebius sum
    over the noncrossing partitions each of whose blocks, its letters
    read in order, reduces to a vertex.  For exactly these partitions
    the nested expectation of the letters reproduces E of the whole
    word, the unit mass at its source, and for the others it is 0; so
    mu_w is the joint cumulant of the letters at the source."""
    word = tuple(word)
    if expectation_of_word(word).is_zero:
        raise ValueError("mu_w requires a word that reduces to a vertex")
    index = edge_index(lg)
    letters = tuple(index[s] for s in word)
    return moments._mu_w(lg, letters, enumerate_nc(len(word), even=True), {})


# ---------------------------------------------------------------------------
# The operator basis as groupoid elements


def basis_elements(lg, basis) -> tuple:
    """The Vertex and ReducedPath objects of an operators.Basis over the
    flat view lg, in basis order."""
    signed = signed_edges(lg.graph)
    words = [()] * basis.n_vertices
    for j in range(basis.n_vertices, len(basis)):
        words.append(words[basis.parent[j]] + (signed[basis.last[j]],))
    return tuple(Vertex(v) for v in lg.graph.vertices) + tuple(
        ReducedPath(w) for w in words[basis.n_vertices :]
    )


def basis_index(lg, basis) -> dict:
    """Each basis element -> its position."""
    return {a: i for i, a in enumerate(basis_elements(lg, basis))}


def right_mult(lg, w, basis) -> SparseOperator:
    """Matrix of the right multiplication by a groupoid element: column
    w' holds a unit at the basis position of w'w when that product is a
    basis element, nothing when it is Empty or longer than the
    truncation length.

    Each column whose target is the source of w walks the basis trie
    along the letters of w, one letter at a time: a letter inverse to
    the last one of the path cancels it (the step to the parent), and
    any other letter extends the path (the step to the child under that
    letter, absent when it is longer than the truncation length).  Both
    factors are reduced, so letters cancel only at the junction: the
    walk first climbs towards the root, then only descends, and once it
    leaves the truncation it cannot return.
    """
    if w is EMPTY:
        raise ValueError("right multiplication by Empty is undefined")
    if isinstance(w, Vertex):
        src = basis.vertex_positions()[w.v]
        letters = ()
    else:
        index = edge_index(lg)
        letters = tuple(index[s] for s in w.word)
        src = basis.tables.src[letters[0]]
    inv = basis.tables.inv
    # (element, letter) -> the element one letter longer
    child = {
        (p, s): i
        for i, (p, s) in enumerate(zip(basis.parent, basis.last))
        if i >= basis.n_vertices
    }
    op = SparseOperator(len(basis))
    for j, tgt in enumerate(basis.target):
        if tgt != src:
            continue
        i = j
        for s in letters:
            last = basis.last[i]
            i = basis.parent[i] if last >= 0 and s == inv[last] else child.get((i, s), -1)
            if i < 0:
                break
        else:
            op.cols[j][i] = 1
    return op


def labeling_operator(lg, k: int, basis) -> SparseOperator:
    """T_k: the sum of the right multiplications by the signed edges
    whose label is k, for k in -N..-1, 1..N."""
    if k == 0 or abs(k) > lg.max_label:
        raise GraphError(f"label {k} out of range 1..{lg.max_label} (signed)")
    op = SparseOperator(len(basis))
    for s in signed_edges(lg.graph):
        if label(lg, s) == k:
            for j, col in enumerate(right_mult(lg, ReducedPath((s,)), basis).cols):
                for i, v in col.items():
                    op.cols[j][i] = op.cols[j].get(i, 0) + v
    return op


def transpose(op: SparseOperator) -> SparseOperator:
    """The adjoint of an integer operator: its transpose."""
    cols = [dict() for _ in range(op.dim)]
    for j, col in enumerate(op.cols):
        for i, v in col.items():
            cols[i][j] = v
    return SparseOperator(op.dim, cols)
