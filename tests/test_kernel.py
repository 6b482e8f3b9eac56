"""The moment engine's contract: argument checks and closed forms."""

from math import comb

import pytest

from groupoidlab import _kernel
from groupoidlab.fixtures import fixture
from groupoidlab.graphs import DirectedGraph, Edge, shadow
from groupoidlab.labeling import (
    MODE_EXPLICIT,
    MODE_VERTEX,
    assign_weights,
    count_axis_paths,
)


def kgraph(name):
    f = fixture(name)
    mode = MODE_EXPLICIT if f.labels else MODE_VERTEX
    lg = assign_weights(shadow(f.graph), mode, f.labels)
    return _kernel.kernel_graph(lg), lg


def test_kernel_rejects_bad_args():
    kg, _ = kgraph("one-loop")
    with pytest.raises(ValueError):
        _kernel.tally_words(kg, 0, "reduction")
    with pytest.raises(ValueError):
        _kernel.tally_words(kg, 2, "nope")
    with pytest.raises(ValueError):
        _kernel.tally_words(kg, 2, "reduction", pattern=(1,))
    with pytest.raises(ValueError):
        _kernel.tally_words(kg, 2, "balance", pattern=(1, -1))


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
