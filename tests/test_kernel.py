"""The moment engine's contract: argument checks and closed forms."""

from math import comb

import pytest

from groupoidlab import _kernel
from groupoidlab.fixtures import FIXTURES, fixture
from groupoidlab.graphs import DirectedGraph, Edge, shadow
from groupoidlab.labeling import (
    MODE_EXPLICIT,
    MODE_VERTEX,
    assign_weights,
    count_axis_paths,
)

from paper import edge_index, inverted, label, out_edges


def kgraph(name):
    f = fixture(name)
    mode = MODE_EXPLICIT if f.labels else MODE_VERTEX
    lg = assign_weights(shadow(f.graph), mode, f.labels)
    return _kernel.kernel_graph(lg), lg


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_kernel_layout_is_the_signed_edge_order(name):
    # the tables, built by index, agree with the SignedEdge objects of
    # the paper model, numbered in the order of shadowed.signed_edges
    kg, lg = kgraph(name)
    sh = lg.shadowed
    index, vertices = edge_index(lg), lg.graph.vertices
    assert kg.n_signed == len(sh.signed_edges) == 2 * len(lg.graph.edges)
    for e, s in enumerate(sh.signed_edges):
        assert (e % 2 == 1) == s.inverse
        assert kg.inv[e] == e ^ 1 == index[inverted(s)]
        assert (vertices[kg.src[e]], vertices[kg.dst[e]]) == (s.src, s.dst)
        assert kg.labels[e] == label(lg, s)
        assert kg.names[e] == s.name()
    for v, name in enumerate(vertices):
        assert kg.out(v) == tuple(index[s] for s in out_edges(sh, name))


def test_kernel_rejects_bad_args():
    kg, _ = kgraph("one-loop")
    with pytest.raises(ValueError):
        _kernel.tally_words(kg, 0, "reduction")
    with pytest.raises(ValueError):
        _kernel.tally_words(kg, 2, "nope")


@pytest.mark.parametrize("mode", ["reduction", "balance"])
def test_one_loop_closed_form_at_large_n(mode):
    # F_1: a word reduces (and balances) exactly when it has as many
    # e as ~e letters
    kg, _ = kgraph("one-loop")
    counts, words, truncated = _kernel.tally_words(kg, 400, mode)
    assert counts == [comb(400, 200)]
    assert words == 2**400
    assert not truncated


def test_balance_count_on_bouquets_is_the_lattice_count():
    # on the N-loop bouquet every label word is a closed walk
    for N in (1, 2, 3):
        edges = [Edge(f"e{j}", "v", "v") for j in range(1, N + 1)]
        kg = _kernel.kernel_graph(assign_weights(shadow(DirectedGraph(["v"], edges))))
        for n in range(1, 17):
            counts, _, _ = _kernel.tally_words(kg, n, "balance")
            assert counts == [count_axis_paths(N, n)], (N, n)
    assert counts == [27_770_358_330]


def test_balance_budget_charges_half_walks_only():
    # odd n charges nothing; even n charges the first n/2 steps, which
    # the full-length walk charges too
    kg, _ = kgraph("two-loop")
    assert _kernel.tally_words(kg, 9, "balance", budget=1) == ([0], 4**9, False)
    # n = 8 from v: the balance vectors (a, b) with |a| + |b| = j, j - 2,
    # ... after j = 0..3 steps number 1 + 4 + 9 + 16, and 4 edges leave
    # each state
    assert _kernel.tally_words(kg, 8, "balance", budget=120)[::2] == ([4900], False)
    assert _kernel.tally_words(kg, 8, "balance", budget=119)[2]


def test_length_dp_charges_its_tables_before_building_them():
    # no vertex finishes before the tables are built, so a budget that
    # cannot pay for them stops the count at once, whatever n is: at
    # n = 20000 the tables would take 4 * 10^4 * 9999 / 2 transitions
    import time

    kg, _ = kgraph("two-loop")
    start = time.perf_counter()
    counts, _, truncated = _kernel.tally_words(kg, 20000, "reduction", budget=10**7)
    assert (counts, truncated) == ([0], True)
    assert time.perf_counter() - start < 2
    # n = 8: 4 * 4 * 3 / 2 = 24 table transitions, then 4 * 5 / 2 = 10
    # to finish v
    assert _kernel.tally_words(kg, 8, "reduction", budget=23)[::2] == ([0], True)
    assert _kernel.tally_words(kg, 8, "reduction", budget=33)[::2] == ([0], True)
    assert _kernel.tally_words(kg, 8, "reduction", budget=34)[::2] == ([2092], False)
