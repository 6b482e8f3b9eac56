"""The moment engine's contract: argument checks and closed forms."""

import time
from itertools import accumulate
from math import comb

import pytest

from groupoidlab import _kernel
from groupoidlab.errors import BudgetExceededError
from groupoidlab.graphs import DirectedGraph, Edge, shadow
from groupoidlab.labeling import assign_weights, count_axis_paths

from paper import (
    FIXTURES,
    base_labels,
    edge_index,
    inverted,
    label,
    labeled,
    out_edges,
    signed_edges,
)


@pytest.mark.parametrize("name", FIXTURES)
def test_kernel_layout_is_the_signed_edge_order(name):
    # the tables, built by index, agree with the SignedEdge objects of
    # the paper model, numbered in the order of signed_edges(kg.graph)
    kg = labeled(name)
    g = kg.graph
    index, vertices = edge_index(kg), g.vertices
    assert kg.n_signed == len(signed_edges(g)) == 2 * len(g.edges)
    for e, s in enumerate(signed_edges(g)):
        assert (e % 2 == 1) == s.inverse
        assert kg.inv[e] == e ^ 1 == index[inverted(s)]
        assert (vertices[kg.src[e]], vertices[kg.dst[e]]) == (s.src, s.dst)
        assert kg.labels[e] == label(kg, s)
        assert kg.names[e] == s.name()
    # one balance coordinate per distinct label
    assert kg.n_labels == len(set(base_labels(kg).values()))
    for v, name in enumerate(vertices):
        assert kg.out[v] == tuple(index[s] for s in out_edges(g, name))


def test_kernel_rejects_bad_args():
    kg = labeled("one-loop")
    with pytest.raises(ValueError):
        _kernel.tally_words(kg, 0, "reduction")
    with pytest.raises(ValueError):
        _kernel.tally_words(kg, 2, "nope")


@pytest.mark.parametrize("n", [3, 4])
def test_counts_and_words_refuse_an_unknown_mode_alike(n):
    # one check, before any work: odd n and a budget of 0 included
    kg = labeled("one-loop")
    for call in (_kernel.tally_words, _kernel.closed_words):
        with pytest.raises(ValueError, match="^unknown mode 'nope'$"):
            call(kg, n, "nope", budget=0)


@pytest.mark.parametrize("mode", ["reduction", "balance"])
@pytest.mark.parametrize("budget", [None, 10**18])
def test_words_kept_stop_at_their_cap_whatever_the_budget(monkeypatch, mode, budget):
    # past KEPT_LETTERS the words found so far, a prefix of the full
    # list, ride on the error; a budget that runs out first still
    # returns its flag
    kg = labeled("example-6-2")
    full, _ = _kernel.closed_words(kg, 4, mode, budget)
    monkeypatch.setattr(_kernel, "KEPT_LETTERS", 4 * 5 + 3)
    with pytest.raises(BudgetExceededError, match="the words kept pass the cap of 23 letters") as exc:
        _kernel.closed_words(kg, 4, mode, budget)
    assert exc.value.partial == full[:5]
    words, truncated = _kernel.closed_words(kg, 4, mode, 10)
    assert truncated is True and words == full[: len(words)]
    # no word longer than the cap is walked for
    with pytest.raises(BudgetExceededError) as exc:
        _kernel.closed_words(kg, 24, mode, budget)
    assert exc.value.partial == []


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("mode", ["reduction", "balance"])
def test_words_below_the_letters_of_one_word_skip_the_walk(name, mode):
    # a kept word costs n letters, so under a budget below an even n the
    # walk keeps none and runs out: the early return is what it gives
    kg = labeled(name)
    walk = _kernel._tree_walk if mode == "reduction" else _kernel._balanced_walk
    for n in range(2, 13, 2):
        for budget in range(n):
            words = []
            assert walk(kg, n, _kernel._Budget(budget), words) is True
            assert words == []
            assert _kernel.closed_words(kg, n, mode, budget) == ([], True)
        assert _kernel.closed_words(kg, n + 1, mode, 0) == ([], False)


@pytest.mark.parametrize("mode", ["reduction", "balance"])
def test_one_loop_closed_form_at_large_n(mode):
    # F_1: a word reduces (and balances) exactly when it has as many
    # e as ~e letters
    kg = labeled("one-loop")
    counts, words, truncated = _kernel.tally_words(kg, 400, mode)
    assert counts == [comb(400, 200)]
    assert words == 2**400
    assert not truncated


def test_balance_count_on_bouquets_is_the_lattice_count():
    # on the N-loop bouquet every label word is a closed walk
    for N in (1, 2, 3):
        edges = [Edge(f"e{j}", "v", "v") for j in range(1, N + 1)]
        kg = assign_weights(shadow(DirectedGraph(["v"], edges)))
        for n in range(1, 17):
            counts, _, _ = _kernel.tally_words(kg, n, "balance")
            assert counts == [count_axis_paths(N, n)], (N, n)
    assert counts == [27_770_358_330]


def test_balance_budget_charges_half_walks_only():
    # odd n charges nothing; even n charges the first n/2 steps, which
    # the full-length walk charges too
    kg = labeled("two-loop")
    assert _kernel.tally_words(kg, 9, "balance", budget=1)[::2] == ([0], False)
    # n = 8 from v: the balance vectors (a, b) with |a| + |b| = j, j - 2,
    # ... after j = 0..3 steps number 1 + 4 + 9 + 16, and 4 edges leave
    # each state
    assert _kernel.tally_words(kg, 8, "balance", budget=120)[::2] == ([4900], False)
    assert _kernel.tally_words(kg, 8, "balance", budget=119)[2]


def test_walk_count_stops_at_its_own_cap():
    # the count of admissible words feeds no result: at n = 10^9 it reads
    # 0 once its steps have added ENUM_BUDGET limbs or budget limbs,
    # whichever is fewer
    kg = labeled("one-loop")
    t0 = time.perf_counter()
    assert _kernel.tally_words(kg, 10**9, "reduction", budget=10**5) == ([0], 0, True)
    # the counts of single-edge never grow: only the budget stops it soon
    kg = labeled("single-edge")
    assert _kernel.tally_words(kg, 10**9, "reduction", budget=10**5) == ([0, 0], 0, True)
    assert time.perf_counter() - t0 < 2
    # each step adds n_signed one-limb counts: 2 · 10 limbs at n = 10
    assert _kernel.tally_words(kg, 10, "balance", budget=20)[1] == 2
    assert _kernel.tally_words(kg, 10, "balance", budget=19)[1] == 0


def test_length_dp_charges_its_tables_before_building_them():
    # no vertex finishes before the tables are built, so a budget that
    # cannot pay for them stops the count at once, whatever n is: at
    # n = 20000 the tables would take 4 * 10^4 * 9999 / 2 transitions
    import time

    kg = labeled("two-loop")
    start = time.perf_counter()
    counts, _, truncated = _kernel.tally_words(kg, 20000, "reduction", budget=10**7)
    assert (counts, truncated) == ([0], True)
    assert time.perf_counter() - start < 2
    # n = 8: 4 * 4 * 3 / 2 = 24 table transitions, then 4 * 5 / 2 = 10
    # to finish v
    assert _kernel.tally_words(kg, 8, "reduction", budget=23)[::2] == ([0], True)
    assert _kernel.tally_words(kg, 8, "reduction", budget=33)[::2] == ([0], True)
    assert _kernel.tally_words(kg, 8, "reduction", budget=34)[::2] == ([2092], False)


def balance_costs(kg, n):
    """Per start vertex, the transitions the balance count charges for
    it: the out-edges of each distinct (vertex, balance vector) state
    of its first n/2 steps, with the vector a tuple of per-label
    counts."""
    def moved(vector, k):
        vector = list(vector)
        vector[abs(k) - 1] += 1 if k > 0 else -1
        return tuple(vector)

    costs = []
    for s in range(kg.n_vertices):
        states, cost = {(s, (0,) * kg.max_label)}, 0
        for _ in range(n // 2):
            cost += sum(len(kg.out[v]) for v, _ in states)
            states = {(kg.dst[e], moved(b, kg.labels[e])) for v, b in states for e in kg.out[v]}
        costs.append(cost)
    return costs


@pytest.mark.parametrize(
    "name, n", [("example-6-2", 6), ("circulant-3", 6), ("two-loop", 8), ("single-edge", 6)]
)
def test_balance_partial_counts_at_every_budget(name, n):
    # a start vertex finishes when the transitions of it and of the
    # vertices before it fit the budget, whether the count stops before
    # it or inside it; the others read 0.  Every budget up to the total
    # is tried, so each side of each vertex's boundary is.  A truncated
    # count reads 0 words.
    kg = labeled(name)
    full = _kernel.tally_words(kg, n, "balance")[0]
    spent = list(accumulate(balance_costs(kg, n)))
    for budget in range(1, spent[-1] + 2):
        counts, seen, truncated = _kernel.tally_words(kg, n, "balance", budget=budget)
        assert counts == [c if end <= budget else 0 for c, end in zip(full, spent)], budget
        assert truncated == (spent[-1] > budget)
        if truncated:
            assert seen == 0


def test_balance_count_does_not_begin_a_vertex_it_cannot_finish():
    # each of the n/2 steps charges a transition, so at n = 10^9 no
    # start vertex fits the default budget and the count stops at once
    t0 = time.perf_counter()
    for name in ("single-edge", "one-loop", "two-loop"):
        kg = labeled(name)
        counts, words, truncated = _kernel.tally_words(kg, 10**9, "balance", budget=10**7)
        assert (counts, words, truncated) == ([0] * kg.n_vertices, 0, True)
    assert time.perf_counter() - t0 < 1
