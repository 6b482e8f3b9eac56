"""Cross-route checks on graphs beyond the bundled fixtures.

Three routes exist for moment-type data (the excursion DP, word
enumeration, the sparse operator model) and three for cumulant-type
data (the closed form, Moebius inversion, mu_w-weighted single-edge
loop words), and the
nested expectations E_pi under the Moebius route have a weighted word
sum.  These tests drive them against each other on random small
multigraphs and on a glued two-loop graph, not just the curated
fixtures.
"""

import itertools
import random
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab import _kernel
from groupoidlab.automaton import GraphAutomaton, build_tree, is_fractaloid
from groupoidlab.fixtures import FIXTURES, fixture
from groupoidlab.graphs import DirectedGraph, Edge, shadow, validate_graph
from groupoidlab.groupoid import (
    ReducedPath,
    Vertex,
    concat,
    d_loop_words,
    enumerate_admissible_words,
    reduce_word,
)
from groupoidlab.labeling import (
    MODE_EXPLICIT,
    MODE_MULTIEDGE,
    MODE_VERTEX,
    assign_weights,
)
from groupoidlab.moments import (
    DiagonalElement,
    balance_moment,
    closed_form_cumulant,
    cumulant_of,
    edge_sum,
    expectation_pi,
    joint_cumulant,
    joint_moment,
    moment,
    mu_w,
    w_m_set,
)
from groupoidlab.ncpartitions import enumerate_nc
from groupoidlab.operators import oracle_expectation_power


def labeled(name):
    f = fixture(name)
    mode = MODE_EXPLICIT if f.labels else MODE_VERTEX
    return assign_weights(shadow(f.graph), mode, f.labels)


def joint_cumulant_words(lg, indices):
    """Word-route joint cumulant: mu_w-weighted single-base-edge loop
    words whose letters carry the requested labels in order."""
    indices = tuple(indices)
    acc = {}
    for w in d_loop_words(lg.shadowed, len(indices)):
        if tuple(lg.label(s) for s in w) != indices:
            continue
        r = reduce_word(w)
        if isinstance(r, Vertex):
            acc[r.v] = acc.get(r.v, 0) + mu_w(lg, w)
    return DiagonalElement.of(acc)


def glued_loops_graph():
    """Two one-loop vertices joined by an edge (a minimal glued graph)."""
    return DirectedGraph(
        ["a", "b"],
        [Edge("la", "a", "a"), Edge("lb", "b", "b"), Edge("e", "a", "b")],
    )


def random_multigraph(rng, max_vertices=3, max_edges=4):
    while True:
        nv = rng.randint(1, max_vertices)
        vs = [f"v{i}" for i in range(1, nv + 1)]
        ne = rng.randint(1, max_edges)
        es = [
            Edge(f"e{j}", rng.choice(vs), rng.choice(vs)) for j in range(1, ne + 1)
        ]
        g = DirectedGraph(vs, es)
        if validate_graph(g).ok:
            return g


def test_joint_cumulant_word_route_two_loop():
    lg = labeled("two-loop")
    for n in (2, 3, 4):
        for idx in itertools.product((1, -1, 2, -2), repeat=n):
            assert joint_cumulant(lg, idx) == joint_cumulant_words(lg, idx), idx


def test_joint_cumulant_word_route_example_6_2():
    lg = labeled("example-6-2")
    rng = random.Random(414)
    tuples = set()
    for n in (2, 4):
        pool = list(itertools.product((1, -1, 2, -2), repeat=n))
        tuples.update(rng.sample(pool, 12))
    for idx in sorted(tuples):
        assert joint_cumulant(lg, idx) == joint_cumulant_words(lg, idx), idx


def test_glued_graph_three_routes():
    lg = assign_weights(shadow(glued_loops_graph()))
    assert lg.max_label == 2
    for n in range(1, 7):
        m = moment(lg, n)
        assert m == DiagonalElement.of(oracle_expectation_power(lg, n, n))
        assert m == w_m_set(lg, n).tallies
    # hand count at n = 2: from a the words ee~, la la~, ~la la;
    # from b: ~e e, lb lb~, ~lb lb
    assert moment(lg, 2).as_dict() == {"a": 3, "b": 3}


def test_glued_graph_not_fractaloid():
    from groupoidlab.automaton import GraphAutomaton, is_fractaloid

    lg = assign_weights(shadow(glued_loops_graph()))
    verdict = is_fractaloid(GraphAutomaton(lg), depth=3)
    assert not verdict.fractaloid
    assert verdict.witness is not None


def test_two_loop_matches_free_group_word_counts():
    # identity-word counts over the 4-letter alphabet of F_2
    lg = labeled("two-loop")
    vals = [moment(lg, n).as_dict().get("v", 0) for n in range(1, 11)]
    assert vals == [0, 4, 0, 28, 0, 232, 0, 2092, 0, 19864]


def test_random_graphs_routes_agree():
    rng = random.Random(20260808)
    for trial in range(8):
        g = random_multigraph(rng)
        lg = assign_weights(shadow(g))
        for n in range(1, 5):
            m = moment(lg, n)
            assert m == w_m_set(lg, n).tallies, (trial, n, g)
            assert m == DiagonalElement.of(oracle_expectation_power(lg, n, n)), (
                trial,
                n,
                g,
            )


@st.composite
def labeled_multigraphs(draw, max_vertices=3, max_edges=4):
    """Connected labeled multigraphs, loops and parallel edges allowed,
    in each of the three labeling modes."""
    nv = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(1, nv + 1)]
    pairs = []
    for i in range(1, nv):  # a spanning tree with random directions
        a, b = vs[i], vs[draw(st.integers(0, i - 1))]
        pairs.append((a, b) if draw(st.booleans()) else (b, a))
    pair = st.tuples(st.sampled_from(vs), st.sampled_from(vs))
    pairs += draw(
        st.lists(pair, min_size=max(0, 1 - len(pairs)), max_size=max_edges - len(pairs))
    )
    edges = [Edge(f"e{j}", a, b) for j, (a, b) in enumerate(pairs, start=1)]
    mode = draw(st.sampled_from([MODE_VERTEX, MODE_MULTIEDGE, MODE_EXPLICIT]))
    explicit = None
    if mode == MODE_EXPLICIT:
        explicit = {e.id: draw(st.integers(1, 2)) for e in edges}
    return assign_weights(shadow(DirectedGraph(vs, edges)), mode, explicit)


@settings(max_examples=40, deadline=None)
@given(lg=labeled_multigraphs(), n=st.integers(1, 5))
def test_property_dp_matches_enumeration_and_oracle(lg, n):
    m = moment(lg, n)
    assert m == w_m_set(lg, n).tallies
    assert m == DiagonalElement.of(oracle_expectation_power(lg, n, n))
    assert balance_moment(lg, n) == w_m_set(lg, n, "balance").tallies


def balanced_loops_full(kg, n):
    """Reference balance counts: every length-n walk from each start
    vertex, tracked by (current vertex, balance code) to the end.  The
    balance vector is packed in balanced base 2n + 1, whose digits never
    carry, so code 0 is exactly the zero vector."""
    radix = 2 * n + 1
    step = [(1 if k > 0 else -1) * radix ** (abs(k) - 1) for k in kg.labels]
    counts = []
    for s in range(kg.n_vertices):
        states = {(s, 0): 1}
        for _ in range(n):
            nxt = {}
            for (cur, code), c in states.items():
                for e in kg.out(cur):
                    key = (kg.dst[e], code + step[e])
                    nxt[key] = nxt.get(key, 0) + c
            states = nxt
        counts.append(states.get((s, 0), 0))
    return counts




def regular_to_depth(aut, tree, full):
    """Reference regularity: every node above the last level has one
    child per label of the full set."""
    for node in tree.nodes():
        if node.depth == tree.depth:
            continue
        labels = sorted(aut.lg.label(k.edge) for k in node.children)
        if labels != full:
            return False
    return True


def assert_verdict_matches_trees(lg, depth):
    aut = GraphAutomaton(lg)
    n = lg.max_label
    full = sorted(list(range(-n, 0)) + list(range(1, n + 1)))
    trees = []
    for v in lg.shadowed.vertices:
        tree = build_tree(aut, v, depth)
        trees.append((v, regular_to_depth(aut, tree, full), len(tree.nodes())))
    assert is_fractaloid(aut, depth).trees == tuple(trees)


@settings(max_examples=60, deadline=None)
@given(lg=labeled_multigraphs(), depth=st.integers(1, 4))
def test_property_fractaloid_verdict_matches_built_trees(lg, depth):
    assert_verdict_matches_trees(lg, depth)


def test_fractaloid_regular_ignores_the_last_level():
    # v1 carries all of +-1, +-2 and v2 does not: the depth-1 tree from
    # v1 is regular, the depth-2 tree is not
    g = DirectedGraph(
        ["v1", "v2"],
        [Edge("a", "v1", "v1"), Edge("b", "v1", "v2"), Edge("c", "v2", "v1")],
    )
    lg = assign_weights(shadow(g), MODE_EXPLICIT, {"a": 1, "b": 2, "c": 2})
    for depth in (1, 2, 3):
        assert_verdict_matches_trees(lg, depth)
    aut = GraphAutomaton(lg)
    assert is_fractaloid(aut, 1).trees[0] == ("v1", True, 5)
    assert is_fractaloid(aut, 2).trees[0] == ("v1", False, 17)


@settings(max_examples=40, deadline=None)
@given(lg=labeled_multigraphs(), n=st.integers(1, 10))
def test_property_balance_count_matches_full_length_walks(lg, n):
    kg = _kernel.kernel_graph(lg)
    counts, _, truncated = _kernel.tally_words(kg, n, "balance")
    assert counts == balanced_loops_full(kg, n)
    assert not truncated


def test_fixture_balance_counts_match_full_length_walks():
    for name in sorted(FIXTURES):
        kg = _kernel.kernel_graph(labeled(name))
        for n in range(1, 11):
            assert _kernel.tally_words(kg, n, "balance")[0] == balanced_loops_full(kg, n)


@settings(max_examples=200, deadline=None)
@given(lg=labeled_multigraphs(), data=st.data())
def test_property_concat_matches_full_reduction(lg, data):
    # a from a random walk; b's walk retraces a random number of a's
    # last letters before going on, so long junction cancellations occur
    sh = lg.shadowed
    walk = [data.draw(st.sampled_from(sh.signed_edges))]
    for _ in range(data.draw(st.integers(0, 5))):
        walk.append(data.draw(st.sampled_from(sh.out_edges(walk[-1].dst))))
    a = reduce_word(tuple(walk))
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(walk)))
        back = [s.inverted() for s in reversed(walk[len(walk) - k :])]
        start = walk[-1].dst
    else:
        back = []
        start = data.draw(st.sampled_from(sh.vertices))
    tail = []
    for _ in range(data.draw(st.integers(0 if back else 1, 4))):
        at = tail[-1].dst if tail else (back[-1].dst if back else start)
        tail.append(data.draw(st.sampled_from(sh.out_edges(at))))
    b = reduce_word(tuple(back + tail))
    if isinstance(a, ReducedPath) and isinstance(b, ReducedPath):
        assert concat(a, b) == reduce_word(a.word + b.word)


@settings(max_examples=100, deadline=None)
@given(lg=labeled_multigraphs(), data=st.data())
def test_property_joint_moment_matches_pattern_filter(lg, data):
    # the pattern is read off a random walk, so that it is never empty
    n = data.draw(st.integers(1, 4))
    sh = lg.shadowed
    walk = [data.draw(st.sampled_from(sh.signed_edges))]
    while len(walk) < n:
        walk.append(data.draw(st.sampled_from(sh.out_edges(walk[-1].dst))))
    indices = tuple(lg.label(s) for s in walk)
    brute: dict = {}
    for w in enumerate_admissible_words(lg.shadowed, n):
        r = reduce_word(w)
        if tuple(lg.label(s) for s in w) == indices and isinstance(r, Vertex):
            brute[r.v] = brute.get(r.v, 0) + 1
    assert joint_moment(lg, indices) == DiagonalElement.of(brute)


@settings(max_examples=100, deadline=None)
@given(lg=labeled_multigraphs(), data=st.data())
def test_property_weighted_e_pi_matches_word_sum(lg, data):
    # E_pi of integer letter weights is the sum, over the admissible
    # words from each vertex whose blocks each reduce to a vertex, of
    # the product of the letters' weights at their positions
    n = data.draw(st.integers(1, 5))
    signed = lg.shadowed.signed_edges
    index = {s: i for i, s in enumerate(signed)}
    weight = st.integers(-2, 3)
    operands = [tuple(data.draw(weight) for _ in signed) for _ in range(n)]
    partitions = enumerate_nc(n)
    brute = {pi: {} for pi in partitions}
    for w in enumerate_admissible_words(lg.shadowed, n):
        c = prod(operands[p][index[s]] for p, s in enumerate(w))
        if not c:
            continue
        closed = {}
        for pi in partitions:
            for b in pi.blocks:
                if b not in closed:
                    closed[b] = isinstance(reduce_word(tuple(w[x - 1] for x in b)), Vertex)
            if all(closed[b] for b in pi.blocks):
                brute[pi][w[0].src] = brute[pi].get(w[0].src, 0) + c
    for pi in partitions:
        assert expectation_pi(lg, pi, operands) == DiagonalElement.of(brute[pi])


@settings(max_examples=60, deadline=None)
@given(lg=labeled_multigraphs(), data=st.data())
def test_property_closed_form_matches_moebius(lg, data):
    # integer letter weights, not only the 0/1 weights of T_k
    n = data.draw(st.integers(1, 6))
    weight = st.integers(-2, 3)
    signed = lg.shadowed.signed_edges
    operands = [tuple(data.draw(weight) for _ in signed) for _ in range(n)]
    assert closed_form_cumulant(lg, operands) == cumulant_of(lg, operands)


@settings(max_examples=60, deadline=None)
@given(lg=labeled_multigraphs(), data=st.data())
def test_property_joint_cumulant_matches_moebius(lg, data):
    n = data.draw(st.integers(1, 6))
    labels = [k for k in range(-lg.max_label, lg.max_label + 1) if k]
    indices = tuple(data.draw(st.sampled_from(labels)) for _ in range(n))
    moebius = cumulant_of(lg, [edge_sum(lg, k) for k in indices])
    assert joint_cumulant(lg, indices) == moebius
