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

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupoidlab import _kernel, automaton
from groupoidlab.fixtures import FIXTURES, fixture
from groupoidlab.graphs import DirectedGraph, Edge, shadow, validate_graph
from groupoidlab.errors import BudgetExceededError
from groupoidlab.labeling import (
    MODE_EXPLICIT,
    MODE_MULTIEDGE,
    MODE_VERTEX,
    assign_weights,
)
from groupoidlab.moments import (
    NONZERO_CAP,
    DiagonalElement,
    FreenessReport,
    balance_moment,
    check_freeness,
    closed_form_cumulant,
    cumulant_of,
    cumulant_via_wc,
    edge_sum,
    expectation_pi,
    joint_cumulant,
    joint_moment,
    moment,
    w_m_set,
)
from groupoidlab.ncpartitions import enumerate_nc, moebius_row
from groupoidlab.operators import oracle_expectation_power

import paper
from paper import (
    ReducedPath,
    Vertex,
    concat,
    diagram_distinct,
    inverted,
    label,
    mu_w,
    out_edges,
    reduce_word,
    signed_edges,
    theta,
)
from test_automaton import assert_same_tree
from test_groupoid import enumerate_admissible_words


def labeled(name):
    f = fixture(name)
    mode = MODE_EXPLICIT if f.labels else MODE_VERTEX
    return assign_weights(shadow(f.graph), mode, f.labels)


def d_loop_words_by_filter(g, n):
    """Reference: the admissible words, kept when they are loop words
    over a single base edge."""
    for w in enumerate_admissible_words(g, n):
        if w[0].src == w[-1].dst and len({s.edge.id for s in w}) == 1:
            yield w


def joint_cumulant_words(lg, indices):
    """Word-route joint cumulant: mu_w-weighted single-base-edge loop
    words whose letters carry the requested labels in order."""
    indices = tuple(indices)
    acc = {}
    for w in d_loop_words_by_filter(lg.graph, len(indices)):
        if tuple(label(lg, s) for s in w) != indices:
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
        if not validate_graph(g):
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
    lg = assign_weights(shadow(glued_loops_graph()))
    verdict = automaton.is_fractaloid(lg, depth=3)
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


def qualifying_words_by_filter(lg, n, mode):
    """Reference: the admissible words, kept when they freely reduce to a
    vertex (reduction) or are loop words with a zero balance vector
    (balance)."""
    for w in enumerate_admissible_words(lg.graph, n):
        if mode == "reduction":
            keep = isinstance(reduce_word(w), Vertex)
        else:
            keep = w[0].src == w[-1].dst and theta(label(lg, s) for s in w).is_zero
        if keep:
            yield w


@settings(max_examples=100, deadline=None)
@given(
    lg=labeled_multigraphs(),
    n=st.integers(1, 6),
    mode=st.sampled_from(["reduction", "balance"]),
    data=st.data(),
)
def test_property_word_walk_matches_filter(lg, n, mode, data):
    full = list(qualifying_words_by_filter(lg, n, mode))
    signed = signed_edges(lg.graph)

    def letters(words):  # signed-edge indices to the letters they number
        return [tuple(signed[e] for e in w) for w in words]

    rep = w_m_set(lg, n, mode)
    assert letters(rep.words) == full
    assert rep.tallies == (moment if mode == "reduction" else balance_moment)(lg, n)
    # the walk charges every first letter and n per word kept, so any
    # budget below that runs out wherever there is anything to walk
    budget = data.draw(st.integers(0, len(signed_edges(lg.graph)) + n * len(full) - 1))
    try:
        w_m_set(lg, n, mode, budget=budget)
    except BudgetExceededError as exc:
        part = exc.partial
        assert letters(part.words) == full[: len(part.words)]
        assert n * len(part.words) <= budget
        assert part.tallies == DiagonalElement.of((w[0].src, 1) for w in letters(part.words))
    else:
        assert n % 2  # odd lengths close no word and walk nothing


@settings(max_examples=60, deadline=None)
@given(lg=labeled_multigraphs(), n=st.integers(1, 6), data=st.data())
def test_property_balance_ignores_the_label_values(lg, n, data):
    # the balance condition pairs letters +k with letters -k, whatever k
    # is: a one-to-one relabeling of the labels, to values up to 10^9,
    # keeps the counts and the words
    labels = paper.base_labels(lg)
    old = sorted(set(labels.values()))
    new = data.draw(
        st.lists(st.integers(1, 10**9), min_size=len(old), max_size=len(old), unique=True)
    )
    relabel = dict(zip(old, new))
    big = assign_weights(
        lg.graph, MODE_EXPLICIT, {e: relabel[k] for e, k in labels.items()}
    )
    assert balance_moment(big, n) == balance_moment(lg, n)
    assert w_m_set(big, n, "balance").words == w_m_set(lg, n, "balance").words


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




def regular_to_depth(lg, tree, full):
    """Reference regularity: every node of the automaton's object tree
    above the last level has one child per label of the full set."""
    for node in tree.nodes():
        if node.depth == tree.depth:
            continue
        labels = sorted(label(lg, k.edge) for k in node.children)
        if labels != full:
            return False
    return True


def assert_verdict_matches_trees(lg, depth):
    aut = paper.GraphAutomaton(lg)
    n = lg.max_label
    full = sorted(list(range(-n, 0)) + list(range(1, n + 1)))
    trees = []
    for v in lg.graph.vertices:
        tree = paper.build_tree(aut, v, depth)
        trees.append((v, regular_to_depth(lg, tree, full), len(tree.nodes())))
    assert automaton.is_fractaloid(lg, depth).trees == tuple(trees)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_wc_charges_one_unit_per_word_in_filter_order(name):
    # the partial sum at budget b covers exactly the first b reference
    # words: the wc walk keeps their order and charges each word once
    lg = labeled(name)
    for n in (2, 4, 6):
        words = list(d_loop_words_by_filter(lg.graph, n))
        terms = []  # (vertex, mu_w) per vertex-reducing word, else None
        for w in words:
            r = reduce_word(w)
            terms.append((r.v, mu_w(lg, w)) if isinstance(r, Vertex) else None)
        for budget in [*range(1, 65), len(words)]:
            want = DiagonalElement.of(t for t in terms[:budget] if t)
            try:
                got = cumulant_via_wc(lg, n, budget=budget)
            except BudgetExceededError as exc:
                assert budget < len(words)
                got = exc.partial
            else:
                assert budget >= len(words)
            assert got == want, (n, budget)


@settings(max_examples=60, deadline=None)
@given(lg=labeled_multigraphs(), depth=st.integers(1, 4))
def test_property_fractaloid_verdict_matches_built_trees(lg, depth):
    assert_verdict_matches_trees(lg, depth)


@settings(max_examples=60, deadline=None)
@given(lg=labeled_multigraphs(), depth=st.integers(0, 5), data=st.data())
def test_property_table_tree_matches_the_object_tree(lg, depth, data):
    assert_same_tree(lg, data.draw(st.sampled_from(lg.graph.vertices)), depth)


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
    assert automaton.is_fractaloid(lg, 1).trees[0] == ("v1", True, 5)
    assert automaton.is_fractaloid(lg, 2).trees[0] == ("v1", False, 17)


@settings(max_examples=40, deadline=None)
@given(kg=labeled_multigraphs(), n=st.integers(1, 10))
def test_property_balance_count_matches_full_length_walks(kg, n):
    counts, _, truncated = _kernel.tally_words(kg, n, "balance")
    assert counts == balanced_loops_full(kg, n)
    assert not truncated


def test_fixture_balance_counts_match_full_length_walks():
    for name in sorted(FIXTURES):
        kg = labeled(name)
        for n in range(1, 11):
            assert _kernel.tally_words(kg, n, "balance")[0] == balanced_loops_full(kg, n)


@settings(max_examples=200, deadline=None)
@given(lg=labeled_multigraphs(), data=st.data())
def test_property_concat_matches_full_reduction(lg, data):
    # a from a random walk; b's walk retraces a random number of a's
    # last letters before going on, so long junction cancellations occur
    g = lg.graph
    walk = [data.draw(st.sampled_from(signed_edges(g)))]
    for _ in range(data.draw(st.integers(0, 5))):
        walk.append(data.draw(st.sampled_from(out_edges(g, walk[-1].dst))))
    a = reduce_word(tuple(walk))
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(walk)))
        back = [inverted(s) for s in reversed(walk[len(walk) - k :])]
        start = walk[-1].dst
    else:
        back = []
        start = data.draw(st.sampled_from(g.vertices))
    tail = []
    for _ in range(data.draw(st.integers(0 if back else 1, 4))):
        at = tail[-1].dst if tail else (back[-1].dst if back else start)
        tail.append(data.draw(st.sampled_from(out_edges(g, at))))
    b = reduce_word(tuple(back + tail))
    if isinstance(a, ReducedPath) and isinstance(b, ReducedPath):
        assert concat(a, b) == reduce_word(a.word + b.word)


@settings(max_examples=100, deadline=None)
@given(lg=labeled_multigraphs(), data=st.data())
def test_property_joint_moment_matches_pattern_filter(lg, data):
    # the pattern is read off a random walk, so that it is never empty
    n = data.draw(st.integers(1, 4))
    g = lg.graph
    walk = [data.draw(st.sampled_from(signed_edges(g)))]
    while len(walk) < n:
        walk.append(data.draw(st.sampled_from(out_edges(g, walk[-1].dst))))
    indices = tuple(label(lg, s) for s in walk)
    brute: dict = {}
    for w in enumerate_admissible_words(lg.graph, n):
        r = reduce_word(w)
        if tuple(label(lg, s) for s in w) == indices and isinstance(r, Vertex):
            brute[r.v] = brute.get(r.v, 0) + 1
    assert joint_moment(lg, indices) == DiagonalElement.of(brute)


def index_words(kg, n):
    """Reference: every admissible length-n word of signed-edge indices
    on the tables kg, in lexicographic order, built letter by letter."""
    words = [(e,) for e in range(kg.n_signed)]
    for _ in range(n - 1):
        words = [w + (f,) for w in words for f in kg.out(kg.dst[w[-1]])]
    return words


def reduces_to_a_vertex(kg, letters) -> bool:
    """Whether a word of signed-edge indices is admissible and cancels
    to nothing in a stack pass: a letter that is the inverse of the top
    pops it."""
    if any(kg.dst[e] != kg.src[f] for e, f in zip(letters, letters[1:])):
        return False
    stack = []
    for e in letters:
        if stack and stack[-1] == kg.inv[e]:
            stack.pop()
        else:
            stack.append(e)
    return not stack


@settings(max_examples=100, deadline=None)
@given(kg=labeled_multigraphs(), data=st.data())
def test_property_weighted_e_pi_matches_word_sum(kg, data):
    # E_pi of integer letter weights is the sum, over the admissible
    # words from each vertex whose blocks each reduce to a vertex, of
    # the product of the letters' weights at their positions
    n = data.draw(st.integers(1, 5))
    weight = st.integers(-2, 3)
    operands = [tuple(data.draw(weight) for _ in range(kg.n_signed)) for _ in range(n)]
    partitions = enumerate_nc(n)
    # every block of NC(n), with its positions 0-based and its bit
    blocks = sorted({b for pi in partitions for b in pi.blocks})
    positions = [tuple(x - 1 for x in b) for b in blocks]
    closed = {}  # the letters of a block -> whether they reduce to a vertex
    sums = {}  # (start vertex, bits of the blocks that reduce) -> weight sum
    for w in index_words(kg, n):
        c = prod(operands[p][e] for p, e in enumerate(w))
        if not c:
            continue
        mask = 0
        for i, at in enumerate(positions):
            letters = tuple(map(w.__getitem__, at))
            if letters not in closed:
                closed[letters] = reduces_to_a_vertex(kg, letters)
            mask |= closed[letters] << i
        key = (kg.src[w[0]], mask)
        sums[key] = sums.get(key, 0) + c
    for pi in partitions:
        need = sum(1 << blocks.index(b) for b in pi.blocks)
        brute = [0] * kg.n_vertices
        for (v, mask), c in sums.items():
            if mask & need == need:
                brute[v] += c
        want = DiagonalElement.of(zip(kg.vertices, brute))
        assert expectation_pi(kg, pi, operands) == want


@settings(max_examples=100, deadline=None)
@given(lg=labeled_multigraphs(), data=st.data())
def test_property_e_pi_vanishes_on_the_skipped_partitions(lg, data):
    # the terms the Moebius sums leave out: a block closes to a nonzero
    # value only when each letter meets its inverse, so E_pi is 0 when
    # a block has odd size (any letter weights), or, for the operators
    # T_k, when a block holds more letters labeled k than -k
    n = data.draw(st.integers(1, 6))
    signed = signed_edges(lg.graph)
    weight = st.integers(-2, 3)
    operands = [tuple(data.draw(weight) for _ in signed) for _ in range(n)]
    labels = [k for k in range(-lg.max_label, lg.max_label + 1) if k]
    indices = [data.draw(st.sampled_from(labels)) for _ in range(n)]
    letters = [edge_sum(lg, k) for k in indices]

    def balanced(block):
        held = [indices[i - 1] for i in block]
        return all(held.count(k) == held.count(-k) for k in labels)

    for pi in enumerate_nc(n):
        if any(len(b) % 2 for b in pi.blocks):
            assert expectation_pi(lg, pi, operands).is_zero
        if not all(balanced(b) for b in pi.blocks):
            assert expectation_pi(lg, pi, letters).is_zero


def freeness_over_full_rows(lg, k1, k2, max_n):
    """check_freeness with no term skipped: every mixed tuple's Moebius
    sum over all of NC(n)."""
    alphabet = (k1, -k1, k2, -k2)
    weights = {k: edge_sum(lg, k) for k in alphabet}
    memo = {}
    checked, max_abs, nonzero = 0, 0, []
    for n in range(2, max_n + 1):
        row = moebius_row(n)
        for idx in itertools.product(alphabet, repeat=n):
            if {abs(k) for k in idx} != {k1, k2}:
                continue
            checked += 1
            operands = [weights[k] for k in idx]
            val = cumulant_of(lg, operands, row=row, memo=memo)
            if not val.is_zero:
                if len(nonzero) < NONZERO_CAP:
                    nonzero.append((idx, val))
                max_abs = max(max_abs, val.max_abs())
    return FreenessReport(
        families=(k1, k2),
        max_n=max_n,
        tuples_checked=checked,
        max_abs_coefficient=max_abs,
        nonzero=tuple(nonzero),
        families_diagram_distinct=True,
    )


@pytest.mark.parametrize("name", ["two-loop", "example-6-2"])
def test_freeness_skips_match_the_full_rows(name):
    lg = labeled(name)
    # the top order 6 costs about 9/10 of the reference's time
    for max_n in (3, 6):
        assert check_freeness(lg, 1, 2, max_n) == freeness_over_full_rows(lg, 1, 2, max_n)


@settings(max_examples=60, deadline=None)
@given(lg=labeled_multigraphs(), data=st.data())
def test_property_closed_form_matches_moebius(lg, data):
    # integer letter weights, not only the 0/1 weights of T_k
    n = data.draw(st.integers(1, 6))
    weight = st.integers(-2, 3)
    signed = signed_edges(lg.graph)
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


@settings(max_examples=100, deadline=None)
@given(lg=labeled_multigraphs(max_edges=5), data=st.data())
def test_property_label_families_are_diagram_distinct(lg, data):
    # check_freeness reports this as a constant: a base edge carries one
    # |label|, so no letter of one family shares a base edge with, or
    # inverts, a letter of the other
    assume(lg.max_label >= 2)
    k1, k2 = data.draw(
        st.lists(st.integers(1, lg.max_label), min_size=2, max_size=2, unique=True)
    )
    signed = signed_edges(lg.graph)
    fam1 = [ReducedPath((s,)) for s in signed if abs(label(lg, s)) == k1]
    fam2 = [ReducedPath((s,)) for s in signed if abs(label(lg, s)) == k2]
    assert all(diagram_distinct(a, b) for a in fam1 for b in fam2)
