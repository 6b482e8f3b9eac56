import itertools

import pytest

from groupoidlab import automaton
from groupoidlab.automaton import build_tree, is_fractaloid
from groupoidlab.errors import BudgetExceededError
from groupoidlab.graphs import GraphError

import paper
from paper import (
    EMPTY,
    EMPTY_WEIGHT,
    FIXTURES,
    GraphAutomaton,
    concat,
    inverted,
    label,
    labeled,
    out_edges,
    reduce_word,
    signed_by_name,
    signed_edges,
)


def automaton_for(name):
    return GraphAutomaton(labeled(name))


def test_phi_circulant_edge():
    aut = automaton_for("circulant-3")
    e2 = signed_by_name(aut.lg.graph, "e2")  # v2 -> v3
    out = aut.phi(aut.vertex_state("v2"), (e2,))
    assert out.endpoints == ("v2", "v3")
    assert out.labels == (1,)


def test_phi_empty_absorbing():
    aut = automaton_for("circulant-3")
    e1 = signed_by_name(aut.lg.graph, "e1")
    assert aut.phi(EMPTY_WEIGHT, (e1,)) == EMPTY_WEIGHT


def test_phi_non_admissible():
    aut = automaton_for("circulant-3")
    e2 = signed_by_name(aut.lg.graph, "e2")
    assert aut.phi(aut.vertex_state("v1"), (e2,)) == EMPTY_WEIGHT


def test_phi_path_returns_last_edge_weight():
    aut = automaton_for("circulant-3")
    g = aut.lg.graph
    path = (signed_by_name(g, "e1"), signed_by_name(g, "e2"))
    out = aut.phi(aut.vertex_state("v1"), path)
    assert out.endpoints == ("v2", "v3")
    assert out.labels == (1,)
    # inadmissible internal step
    bad = (signed_by_name(g, "e1"), signed_by_name(g, "e1"))
    assert aut.phi(aut.vertex_state("v1"), bad) == EMPTY_WEIGHT


def test_psi_edge_and_path_forms():
    aut = automaton_for("circulant-3")
    g = aut.lg.graph
    e1, e2 = signed_by_name(g, "e1"), signed_by_name(g, "e2")
    state = aut.vertex_state("v1")
    assert aut.psi_edge(state, (e1,)) == e1
    assert aut.psi_edge(state, (e1, e2)) == e1
    assert aut.psi_path(state, (e1, e2)) == (e1, e2)
    assert aut.psi_edge(EMPTY_WEIGHT, (e1,)) is EMPTY
    assert aut.psi_path(state, (e2,)) is EMPTY


def test_action_composition_law_circulant():
    # act(e1) o act(e2) agrees with act of the word (e2, e1) on all
    # single-edge states and all vertex states
    aut = automaton_for("circulant-3")
    g = aut.lg.graph
    states = [aut.vertex_state(v) for v in g.vertices]
    states += [aut.phi(aut.vertex_state(s.src), (s,)) for s in signed_edges(g)]
    for e1, e2 in itertools.product(signed_edges(g), repeat=2):
        composed = lambda x: aut.act((e1,))(aut.act((e2,))(x))
        word_act = aut.act((e2, e1))
        for x in states:
            assert composed(x) == word_act(x)


def test_action_on_empty_state():
    aut = automaton_for("circulant-3")
    e1 = signed_by_name(aut.lg.graph, "e1")
    assert aut.act((e1,))(EMPTY_WEIGHT) == EMPTY_WEIGHT


def test_vertex_action_via_edge_and_inverse():
    # the word (e, ~e) acts only on states terminating at s(e), and
    # preserves that terminal vertex
    aut = automaton_for("circulant-3")
    g = aut.lg.graph
    e = signed_by_name(g, "e1")  # v1 -> v2
    action = aut.act((e, inverted(e)))
    for v in g.vertices:
        out = action(aut.vertex_state(v))
        if v == "v1":
            assert not out.is_empty
            assert out.terminal == "v1"
        else:
            assert out.is_empty


def test_actions_realize_groupoid_composition():
    # nonempty action composites match nonempty groupoid products on
    # sampled words of the circulant graph
    aut = automaton_for("circulant-3")
    g = aut.lg.graph
    words = list(itertools.product(signed_edges(g), repeat=2))
    for w1 in words:
        for w2 in words:
            a1, a2 = reduce_word(w1), reduce_word(w2)
            if a1 is EMPTY or a2 is EMPTY:
                continue
            both = w1 + w2
            state = aut.vertex_state(w1[0].src)
            acted = aut.act(both)(state)
            composed = concat(a1, a2)
            assert (composed is EMPTY) == acted.is_empty


def test_build_tree_one_loop_depth2():
    aut = automaton_for("one-loop")
    tree = paper.build_tree(aut, "v", 2)
    nodes = tree.nodes()
    assert len(nodes) == 7  # 1 + 2 + 4
    for node in nodes:
        assert len(node.children) in (0, 2)


def test_build_tree_single_edge_depth1():
    aut = automaton_for("single-edge")
    tree = paper.build_tree(aut, "v1", 1)
    assert len(tree.root.children) == 1
    (child,) = tree.root.children
    assert child.edge.name() == "e1"
    assert child.state.endpoints == ("v1", "v2")


def test_build_tree_circulant_two_children_everywhere():
    aut = automaton_for("circulant-3")
    tree = paper.build_tree(aut, "v1", 3)
    for node in tree.nodes():
        if node.depth < 3:
            assert len(node.children) == 2


def test_build_tree_deterministic_child_order():
    aut = automaton_for("two-loop")
    tree = paper.build_tree(aut, "v", 1)
    assert [c.edge.name() for c in tree.root.children] == ["e1", "~e1", "e2", "~e2"]


def test_tree_depth_monotone_prefix():
    aut = automaton_for("example-6-2")

    def signature(tree, depth):
        out = []

        def walk(node, path):
            if node.depth <= depth:
                out.append((path, node.state))
                for c in node.children:
                    walk(c, path + (c.edge.name(),))

        walk(tree.root, ())
        return sorted(out)

    t3 = paper.build_tree(aut, "v1", 3)
    t4 = paper.build_tree(aut, "v1", 4)
    assert signature(t3, 3) == signature(t4, 3)


def test_deep_tree_root_hashes_and_prints():
    # nodes hash by identity and print without their subtrees, so depth
    # is not limited by the recursion limit
    aut = automaton_for("single-edge")
    tree = paper.build_tree(aut, "v1", 1500)
    root = tree.root
    assert hash(root) == hash(root)
    assert root == root and root != tree.nodes()[1]
    assert repr(root).endswith("depth=0, children=1)")
    assert hash(tree) == hash(tree)
    assert "children=1)" in repr(tree)


def test_build_tree_unknown_root():
    with pytest.raises(GraphError):
        build_tree(labeled("one-loop"), "nope", 2)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("circulant-3", True),
        ("one-loop", True),
        ("two-loop", True),
        ("three-loop", True),
        ("example-6-2", False),
        ("single-edge", False),
    ],
)
def test_fractaloid_verdicts(name, expected):
    verdict = is_fractaloid(labeled(name), depth=4)
    assert verdict.fractaloid is expected
    assert verdict.depth == 4
    trees_regular = all(reg for _, reg, _ in verdict.trees)
    assert trees_regular is expected
    if expected:
        assert verdict.witness is None
        # every tree is the full 2N-regular tree to depth 4
        two_n = 2 * verdict.max_label
        size = sum(two_n**k for k in range(5))
        assert all(cnt == size for _, _, cnt in verdict.trees)
    else:
        assert verdict.witness is not None


def test_fractaloid_witness_is_genuine():
    lg = labeled("example-6-2")
    verdict = is_fractaloid(lg, depth=2)
    v = verdict.witness["vertex"]
    labels = sorted(label(lg, s) for s in out_edges(lg.graph, v))
    n = lg.max_label
    assert labels != sorted(list(range(-n, 0)) + list(range(1, n + 1)))


def test_fractaloid_depth_guard():
    with pytest.raises(ValueError):
        is_fractaloid(labeled("one-loop"), depth=0)


def test_tree_dot_output():
    tree = build_tree(labeled("single-edge"), "v1", 1)
    assert (tree.root, tree.depth, len(tree.nodes())) == ("v1", 1, 2)
    assert tree.dot.startswith("digraph")
    assert '"e1"' in tree.dot and "(v1,v2)|1" in tree.dot


def assert_same_tree(lg, root, depth):
    """The DOT and node count from the tables equal those rendered from
    the automaton's node objects.  A mismatch names the first line that
    differs: pytest's diff of two long DOT texts would take minutes."""
    tree = build_tree(lg, root, depth)
    objects = paper.build_tree(GraphAutomaton(lg), root, depth)
    got, want = tree.dot.splitlines(), paper.tree_dot(objects).splitlines()
    same = got == want
    if not same:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(want))
        assert same, (root, depth, i, got[i : i + 1], want[i : i + 1])
    assert len(tree.nodes()) == len(objects.nodes()), (root, depth)


@pytest.mark.parametrize("name", FIXTURES)
def test_table_tree_matches_the_object_tree(name):
    lg = labeled(name)
    for root in lg.graph.vertices:
        for depth in range(6):
            assert_same_tree(lg, root, depth)


def test_build_tree_node_budget(monkeypatch):
    # two-loop at depth 3: 1 + 4 + 16 + 64 nodes
    lg = labeled("two-loop")
    monkeypatch.setattr(automaton, "NODE_BUDGET", 85)
    assert len(build_tree(lg, "v", 3).nodes()) == 85
    monkeypatch.setattr(automaton, "NODE_BUDGET", 84)
    with pytest.raises(BudgetExceededError, match="tree of 85 nodes exceeds the node budget 84"):
        build_tree(lg, "v", 3)


def test_build_tree_stops_counting_past_the_node_budget(monkeypatch):
    # two-loop: 1 + 4 + 16 nodes pass 20 at depth 2, however deep the tree
    monkeypatch.setattr(automaton, "NODE_BUDGET", 20)
    with pytest.raises(
        BudgetExceededError, match="tree of more than 21 nodes exceeds the node budget 20"
    ):
        build_tree(labeled("two-loop"), "v", 10**9)


@pytest.mark.parametrize("name", FIXTURES)
def test_fractaloid_node_bound(name):
    lg = labeled(name)
    verdict = is_fractaloid(lg, depth=5)
    largest = max(cnt for _, _, cnt in verdict.trees)
    assert is_fractaloid(lg, depth=5, max_nodes=largest) == verdict
    with pytest.raises(BudgetExceededError):
        is_fractaloid(lg, depth=5, max_nodes=largest - 1)
    # counting stops at the first level past the bound
    with pytest.raises(BudgetExceededError, match="at depth 6$"):
        is_fractaloid(lg, depth=10**9, max_nodes=largest)


def test_fractaloid_node_bound_names_the_first_root_in_vertex_order():
    # example-6-2 trees of 1, 4, 13, 44, 145, 484 nodes at v1 and 1, 5,
    # 19, 65, 219, 729 at v2: past 40, both pass at depth 3, and the
    # error names v1; past 50, v2 passes first (depth 3), and counting
    # stops there, before v1 passes at depth 4
    lg = labeled("example-6-2")
    for max_nodes, note in (
        (40, "the depth-5 tree at v1 passes max_nodes at depth 3"),
        (50, "the depth-5 tree at v2 passes max_nodes at depth 3"),
        (500, "the depth-5 tree at v2 passes max_nodes at depth 5"),
    ):
        with pytest.raises(BudgetExceededError) as exc:
            is_fractaloid(lg, depth=5, max_nodes=max_nodes)
        assert str(exc.value) == note
