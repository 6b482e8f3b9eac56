"""The moment engine's contract: argument checks and closed forms."""

from math import comb

import pytest

from groupoidlab import _kernel
from groupoidlab.fixtures import fixture
from groupoidlab.graphs import shadow
from groupoidlab.labeling import MODE_EXPLICIT, MODE_VERTEX, assign_weights


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


@pytest.mark.parametrize("mode", ["reduction", "balance"])
def test_one_loop_closed_form_at_large_n(mode):
    # F_1: a word reduces (and balances) exactly when it has as many
    # e as ~e letters
    kg, _ = kgraph("one-loop")
    counts, words, truncated = _kernel.tally_words(kg, 400, mode)
    assert counts == [comb(400, 200)]
    assert words == 2**400
    assert not truncated
