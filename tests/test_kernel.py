"""The moment engine's contract: argument checks and closed forms."""

import time
from itertools import accumulate, count
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


def partial_of(call, *args, **kwargs):
    """What finished: the partial of the BudgetExceededError that
    call(*args, **kwargs) raises."""
    with pytest.raises(BudgetExceededError) as exc:
        call(*args, **kwargs)
    return exc.value.partial


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
    # list, ride on the error; a budget that runs out first raises with
    # its own note
    kg = labeled("example-6-2")
    full = _kernel.closed_words(kg, 4, mode, budget)
    monkeypatch.setattr(_kernel, "KEPT_LETTERS", 4 * 5 + 3)
    with pytest.raises(BudgetExceededError, match="the words kept pass the cap of 23 letters") as exc:
        _kernel.closed_words(kg, 4, mode, budget)
    assert exc.value.partial == full[:5]
    with pytest.raises(BudgetExceededError, match="^word set n=4: letter budget exhausted$") as exc:
        _kernel.closed_words(kg, 4, mode, 10)
    words = exc.value.partial
    assert words == full[: len(words)]
    # no word longer than the cap is walked for
    with pytest.raises(BudgetExceededError, match="the words kept pass the cap of 23 letters") as exc:
        _kernel.closed_words(kg, 24, mode, budget)
    assert exc.value.partial == []


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("mode", ["reduction", "balance"])
def test_words_below_the_letters_of_one_word_skip_the_walk(name, mode):
    # a kept word costs n letters, so under a budget below an even n the
    # walk keeps none and runs out: the early error is what it gives
    kg = labeled(name)
    walk = _kernel._tree_walk if mode == "reduction" else _kernel._balanced_walk
    for n in range(2, 13, 2):
        for budget in range(n):
            spend, keep = _kernel._Budget(budget, "letters"), _kernel._Budget(None, "kept")
            assert partial_of(walk, kg, n, spend, keep, []) == []
            assert partial_of(_kernel.closed_words, kg, n, mode, budget) == []
        assert _kernel.closed_words(kg, n + 1, mode, 0) == []


@pytest.mark.parametrize("mode", ["reduction", "balance"])
def test_one_loop_closed_form_at_large_n(mode):
    # F_1: a word reduces (and balances) exactly when it has as many
    # e as ~e letters
    kg = labeled("one-loop")
    counts, words = _kernel.tally_words(kg, 400, mode)
    assert counts == [comb(400, 200)]
    assert words == 2**400


def test_balance_count_on_bouquets_is_the_lattice_count():
    # on the N-loop bouquet every label word is a closed walk
    for N in (1, 2, 3):
        edges = [Edge(f"e{j}", "v", "v") for j in range(1, N + 1)]
        kg = assign_weights(shadow(DirectedGraph(["v"], edges)))
        for n in range(1, 17):
            counts, _ = _kernel.tally_words(kg, n, "balance")
            assert counts == [count_axis_paths(N, n)], (N, n)
    assert counts == [27_770_358_330]


def test_balance_budget_charges_half_walks_only():
    # odd n charges nothing; even n charges the first n/2 steps, which
    # the full-length walk charges too
    kg = labeled("two-loop")
    assert _kernel.tally_words(kg, 9, "balance", budget=1)[0] == [0]
    # n = 8 from v: the balance vectors (a, b) with |a| + |b| = j, j - 2,
    # ... after j = 0..3 steps number 1 + 4 + 9 + 16, and 4 edges leave
    # each state
    assert _kernel.tally_words(kg, 8, "balance", budget=120)[0] == [4900]
    assert partial_of(_kernel.tally_words, kg, 8, "balance", budget=119) == [0]


def test_walk_count_stops_at_its_own_cap():
    # the count of admissible words feeds no result: at n = 10^9 it reads
    # 0 once its steps have added ENUM_BUDGET limbs or budget limbs,
    # whichever is fewer, and never raises
    kg = labeled("one-loop")
    t0 = time.perf_counter()
    assert partial_of(_kernel.tally_words, kg, 10**9, "reduction", budget=10**5) == [0]
    assert _kernel._walk_count(kg, 10**9, 10**5) == 0
    # the counts of single-edge never grow: only the budget stops it soon
    kg = labeled("single-edge")
    assert partial_of(_kernel.tally_words, kg, 10**9, "reduction", budget=10**5) == [0, 0]
    assert _kernel._walk_count(kg, 10**9, 10**5) == 0
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
    assert partial_of(_kernel.tally_words, kg, 20000, "reduction", budget=10**7) == [0]
    assert time.perf_counter() - start < 2
    # n = 8: 4 * 4 * 3 / 2 = 24 table transitions, then 4 * 5 / 2 = 10
    # to finish v
    assert partial_of(_kernel.tally_words, kg, 8, "reduction", budget=23) == [0]
    assert partial_of(_kernel.tally_words, kg, 8, "reduction", budget=33) == [0]
    assert _kernel.tally_words(kg, 8, "reduction", budget=34)[0] == [2092]


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


def joint_weights(kg, n):
    """The letter weights of the joint moment of labels 1, -1, 1, ...,
    -1 (n of them): 1 on the letters that carry each position's label."""
    return [tuple(int(k == j) for k in kg.labels) for j in (1, -1) * (n // 2)]


# Every route of the kernel that takes a budget, as (kg, budget) -> the
# counts per vertex index or the word list.
ROUTES = {
    "tally-reduction": lambda kg, budget: _kernel.tally_words(kg, 8, "reduction", budget)[0],
    "tally-balance": lambda kg, budget: _kernel.tally_words(kg, 8, "balance", budget)[0],
    "interval-joint": lambda kg, budget: _kernel.closed_by_interval(
        kg, joint_weights(kg, 8), budget
    ),
    "words-reduction": lambda kg, budget: _kernel.closed_words(kg, 4, "reduction", budget),
    "words-balance": lambda kg, budget: _kernel.closed_words(kg, 4, "balance", budget),
}


def finished_part(partial, full) -> bool:
    """partial is what a route finished: the full counts on a prefix of
    the vertex indices and 0 elsewhere, or a prefix of the full words."""
    if isinstance(full[0], tuple):
        return partial == full[: len(partial)]
    return any(partial == full[:k] + [0] * (len(full) - k) for k in range(len(full) + 1))


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("route", ROUTES)
def test_every_budget_gives_the_full_value_or_raises_with_what_finished(route, name):
    # every budget from 0 up to the first that finishes.  The balance
    # count finishes a start vertex when the transitions of it and of
    # the vertices before it fit the budget, whether it stops before the
    # vertex or inside it, so each side of each vertex's boundary is
    # tried: the partial is exactly the vertices that fit
    kg = labeled(name)
    call = ROUTES[route]
    full = call(kg, None)
    spent = list(accumulate(balance_costs(kg, 8)))
    for budget in count():
        try:
            got = call(kg, budget)
        except BudgetExceededError as exc:
            assert finished_part(exc.partial, full), budget
            if route == "tally-balance":
                assert exc.partial == [c if end <= budget else 0 for c, end in zip(full, spent)]
            continue
        assert got == full
        if route == "tally-balance":
            assert budget == spent[-1]
        break


def test_balance_count_does_not_begin_a_vertex_it_cannot_finish():
    # each of the n/2 steps charges a transition, so at n = 10^9 no
    # start vertex fits the default budget and the count stops at once
    t0 = time.perf_counter()
    for name in ("single-edge", "one-loop", "two-loop"):
        kg = labeled(name)
        counts = partial_of(_kernel.tally_words, kg, 10**9, "balance", budget=10**7)
        assert counts == [0] * kg.n_vertices
    assert time.perf_counter() - t0 < 1
