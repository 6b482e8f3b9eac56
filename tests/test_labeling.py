import itertools
import random
from math import factorial

import pytest

from groupoidlab.errors import BudgetExceededError
from groupoidlab.fixtures import fixture
from groupoidlab.graphs import DirectedGraph, Edge, GraphError, shadow
from groupoidlab.labeling import (
    MODE_EXPLICIT,
    MODE_MULTIEDGE,
    MODE_VERTEX,
    assign_weights,
    count_axis_paths,
)

from paper import (
    EMPTY_WEIGHT,
    ReducedPath,
    Vertex,
    base_labels,
    inverse,
    inverted,
    label,
    omega_plus,
    out_edges,
    reduce_word,
    signed_by_name,
    signed_edges,
    theta,
    weight,
)


def labeled(name, mode=MODE_VERTEX, explicit=None):
    return assign_weights(shadow(fixture(name).graph), mode, explicit)


def test_circulant_all_labels_one():
    lg = labeled("circulant-3")
    assert lg.max_label == 1
    assert set(base_labels(lg).values()) == {1}


def test_example_6_2_multiedge_mode():
    lg = labeled("example-6-2", MODE_MULTIEDGE)
    assert base_labels(lg) == {"e12:1": 1, "e12:2": 2, "e13:1": 1, "e22:1": 1}
    assert lg.max_label == 2


def test_example_6_2_vertex_mode():
    lg = labeled("example-6-2", MODE_VERTEX)
    assert base_labels(lg) == {"e12:1": 1, "e12:2": 2, "e13:1": 3, "e22:1": 1}
    assert lg.max_label == 3


def test_explicit_mode_fixture_labels():
    f = fixture("example-6-2")
    lg = labeled("example-6-2", MODE_EXPLICIT, f.labels)
    assert base_labels(lg) == f.labels
    assert lg.max_label == 2


def test_explicit_mode_missing_labels():
    with pytest.raises(GraphError):
        labeled("example-6-2", MODE_EXPLICIT, {"e12:1": 1})


def test_explicit_mode_bad_label():
    f = dict(fixture("example-6-2").labels)
    f["e12:1"] = 0
    with pytest.raises(GraphError):
        labeled("example-6-2", MODE_EXPLICIT, f)


@pytest.mark.parametrize("mode", [MODE_VERTEX, MODE_MULTIEDGE])
def test_only_explicit_mode_takes_a_label_map(mode):
    with pytest.raises(GraphError, match="takes no label map"):
        labeled("example-6-2", mode, fixture("example-6-2").labels)


def test_inverse_edges_negated():
    lg = labeled("two-loop")
    g = lg.graph
    assert label(lg, signed_by_name(g, "e1")) == 1
    assert label(lg, signed_by_name(g, "~e1")) == -1
    assert label(lg, signed_by_name(g, "e2")) == 2
    assert label(lg, signed_by_name(g, "~e2")) == -2


def test_vertex_mode_bijective_per_vertex():
    lg = labeled("example-6-2", MODE_VERTEX)
    g = lg.graph
    for v in g.vertices:
        out = [base_labels(lg)[e.id] for e in g.edges if e.src == v]
        assert len(set(out)) == len(out)


@pytest.mark.parametrize("mode", [MODE_VERTEX, MODE_MULTIEDGE])
def test_labels_number_each_group_by_sorted_id(mode):
    # the definition: the edges sharing a source (vertex mode) or both
    # endpoints (multiedge mode), sorted by id, get 1, 2, ... in turn
    rng = random.Random(5)
    for _ in range(300):
        vs = [f"v{i}" for i in range(rng.randint(1, 4))]
        ids = rng.sample(range(100), rng.randint(1, 12))
        g = DirectedGraph(vs, [Edge(f"e{i}", rng.choice(vs), rng.choice(vs)) for i in ids])
        key = (lambda e: e.src) if mode == MODE_VERTEX else (lambda e: (e.src, e.dst))
        want = {}
        for k in {key(e) for e in g.edges}:
            group = sorted((e for e in g.edges if key(e) == k), key=lambda e: e.id)
            want.update((e.id, j) for j, e in enumerate(group, start=1))
        assert base_labels(assign_weights(g, mode)) == want


def test_weight_circulant_paths():
    lg = labeled("circulant-3")
    g = lg.graph
    e1, e2, e3 = (signed_by_name(g, n) for n in ("e1", "e2", "e3"))
    w = (e2, e3, e1)
    assert weight(lg, w).endpoints == ("v2", "v2")
    assert weight(lg, w).labels == (1, 1, 1)
    y = (inverted(e1), inverted(e3))
    assert weight(lg, y).endpoints == ("v2", "v3")
    assert weight(lg, y).labels == (-1, -1)


def test_weight_vertex():
    lg = labeled("circulant-3")
    we = weight(lg, Vertex("v1"))
    assert we.endpoints == ("v1", "v1")
    assert we.labels == (0,)


def test_weight_non_admissible_is_empty_weight():
    lg = labeled("circulant-3")
    g = lg.graph
    assert weight(lg, (signed_by_name(g, "e1"), signed_by_name(g, "e3"))) == EMPTY_WEIGHT
    assert EMPTY_WEIGHT.is_empty


def test_weight_inverse_reversed_negated():
    lg = labeled("example-6-2", MODE_MULTIEDGE)
    g = lg.graph
    rng = random.Random(3)
    for _ in range(200):
        cur = None
        word = []
        for _ in range(rng.randint(1, 6)):
            options = out_edges(g, cur) if cur else signed_edges(g)
            s = rng.choice(options)
            word.append(s)
            cur = s.dst
        a = reduce_word(tuple(word))
        if not isinstance(a, ReducedPath):
            continue
        wa, wb = weight(lg, a), weight(lg, inverse(a))
        assert wb.labels == tuple(-k for k in reversed(wa.labels))
        assert wb.endpoints == (wa.endpoints[1], wa.endpoints[0])


def test_theta_cancellation():
    assert theta([1, -1]).is_zero
    assert theta([1, 1, 1]).as_dict() == {1: 3}


def test_theta_separates_vector_from_integer_sum():
    bal = theta([2, -1, -1])
    assert bal.as_dict() == {1: -2, 2: 1}
    assert sum(k * c for k, c in bal.counts) == 0
    assert not bal.is_zero


def test_theta_monoid_morphism():
    rng = random.Random(17)
    for _ in range(300):
        a = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(0, 6))]
        b = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(0, 6))]
        assert theta(a + b) == theta(a) + theta(b)


def test_omega_plus_vertex_zero():
    lg = labeled("circulant-3")
    ends, bal = omega_plus(weight(lg, Vertex("v1")))
    assert ends == ("v1", "v1")
    assert bal.is_zero


def test_omega_plus_circulant_square():
    lg = labeled("circulant-3")
    g = lg.graph
    e1, e2, e3 = (signed_by_name(g, n) for n in ("e1", "e2", "e3"))
    w2 = (e2, e3, e1, e2, e3, e1)
    ends, bal = omega_plus(weight(lg, w2))
    assert ends == ("v2", "v2")
    assert bal.as_dict() == {1: 6}


def test_balance_necessary_for_vertex_reduction():
    lg = labeled("example-6-2", MODE_MULTIEDGE)
    g = lg.graph
    rng = random.Random(23)
    hits = 0
    for _ in range(4000):
        cur = None
        word = []
        for _ in range(rng.randint(2, 6)):
            options = out_edges(g, cur) if cur else signed_edges(g)
            s = rng.choice(options)
            word.append(s)
            cur = s.dst
        if isinstance(reduce_word(tuple(word)), Vertex):
            hits += 1
            assert theta(weight(lg, tuple(word)).labels).is_zero
    assert hits > 0


def test_balance_not_sufficient_witness():
    # e1 e2 ~e1 ~e2 on the two-loop graph balances but does not reduce
    lg = labeled("two-loop")
    g = lg.graph
    e1, e2 = signed_by_name(g, "e1"), signed_by_name(g, "e2")
    word = (e1, e2, inverted(e1), inverted(e2))
    assert theta(weight(lg, word).labels).is_zero
    assert not isinstance(reduce_word(word), Vertex)


def test_count_axis_paths_odd_zero():
    for k in (1, 3, 5, 7):
        assert count_axis_paths(1, k) == 0
        assert count_axis_paths(3, k) == 0


def test_count_axis_paths_pascal_column():
    assert [count_axis_paths(1, k) for k in (2, 4, 6, 8)] == [2, 6, 20, 70]


def test_count_axis_paths_n2_k4():
    assert count_axis_paths(2, 4) == 36


def count_axis_paths_brute(max_label, length):
    """Reference: every label word of the given length, kept when each
    label k occurs as often as -k.  Exponential; small inputs only."""
    alphabet = [k for k in range(-max_label, max_label + 1) if k]
    return sum(
        all(w.count(k) == w.count(-k) for k in range(1, max_label + 1))
        for w in itertools.product(alphabet, repeat=length)
    )


def test_count_axis_paths_matches_brute():
    for n in (1, 2, 3):
        for k in range(1, 9):
            if (2 * n) ** k > 300_000:
                continue
            assert count_axis_paths(n, k) == count_axis_paths_brute(n, k)


def count_axis_paths_compositions(max_label, length):
    """Reference: the sum over compositions m_1+...+m_N = k/2 of
    k! / prod(m_j!)^2, one term per composition."""
    if length % 2:
        return 0
    half = length // 2
    total = 0
    for cut in itertools.combinations(range(half + max_label - 1), max_label - 1):
        parts = []
        prev = -1
        for c in cut:
            parts.append(c - prev - 1)
            prev = c
        parts.append(half + max_label - 2 - prev)
        denom = 1
        for m in parts:
            denom *= factorial(m) ** 2
        total += factorial(length) // denom
    return total


def test_count_axis_paths_matches_composition_sum():
    for n in range(1, 7):
        for k in range(1, 25):
            assert count_axis_paths(n, k) == count_axis_paths_compositions(n, k), (n, k)


def test_count_axis_paths_budget_counts_recurrence_terms():
    # N = 3, k = 8: one middle step of 1 + 2 + ... + 5 terms, then 5
    assert count_axis_paths(3, 8, budget=20) == count_axis_paths(3, 8)
    with pytest.raises(BudgetExceededError, match="20 recurrence terms"):
        count_axis_paths(3, 8, budget=19)
    # odd lengths and N = 1 sum nothing
    assert count_axis_paths(3, 9, budget=1) == 0
    assert count_axis_paths(1, 8, budget=1) == 70


def test_assign_weights_empty_graph_errors():
    with pytest.raises(GraphError):
        assign_weights(shadow(DirectedGraph(["v"], [])))
