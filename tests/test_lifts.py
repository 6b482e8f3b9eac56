"""Random lifts as an exact oracle at any size.

A k-fold lift of a labeled graph, each base edge's label copied to its
k lifts, has the base graph's labeled universal cover: every reduced
path and every tree walk lifts uniquely from a chosen start above its
base vertex.  So at each lifted vertex the reduction moments, the
operator oracle, the joint moments, the cumulants, the action-tree node
counts and the fractaloid verdict equal their values at the vertex
below it.  The balance count is only at most that value: a balanced
loop of the base need not lift to a loop.

(Leighton, Finite common coverings of graphs, JCTB 33 (1982);
Amit-Linial, Random graph coverings I, Combinatorica 22 (2002).)
"""

import contextlib
import io
import json
import os
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupoidlab import cli
from groupoidlab.automaton import is_fractaloid
from groupoidlab.moments import (
    balance_moment,
    cumulant_direct,
    cumulant_via_wc,
    joint_moment,
    moment,
)
from groupoidlab.operators import oracle_expectation_power

import paper
from paper import FIXTURES, base_labels, graph_obj, labeled
from test_crossroutes import labeled_multigraphs


def below(kg, lg, base, route) -> tuple:
    """(route's value at each vertex of the lift lg, its value at the
    vertex of kg below it): route maps a flat view to a dict vertex ->
    integer, a missing vertex counting 0."""
    up, down = route(lg), route(kg)
    return {u: up.get(u, 0) for u in base}, {u: down.get(v, 0) for u, v in base.items()}


def diagonal(route):
    return lambda g: route(g).as_dict()


def trees(g, depth) -> dict:
    verdict = is_fractaloid(g, depth)
    return {v: (verdict.fractaloid, regular, nodes) for v, regular, nodes in verdict.trees}


def assert_lift_keeps_the_invariants(kg, lg, base) -> bool:
    """Assert each invariant at every vertex of the lift lg of kg, and
    the balance inequality; whether that inequality was strict
    somewhere."""
    for n in range(1, 15):
        up, down = below(kg, lg, base, diagonal(lambda g: moment(g, n)))
        assert up == down, n
    for n in (4, 6, 8):
        up, down = below(kg, lg, base, lambda g: oracle_expectation_power(g, n, n // 2))
        assert up == down, n
    indices = (1, kg.max_label, -kg.max_label, -1)
    up, down = below(kg, lg, base, diagonal(lambda g: joint_moment(g, indices)))
    assert up == down
    for n in (2, 4, 6):
        up, down = below(kg, lg, base, diagonal(lambda g: cumulant_direct(g, n)))
        assert up == down, n
    up, down = below(kg, lg, base, diagonal(lambda g: cumulant_via_wc(g, 4)))
    assert up == down
    up, down = below(kg, lg, base, lambda g: trees(g, 3))
    assert up == down
    strict = False
    for n in (2, 4, 6, 8):
        up, down = below(kg, lg, base, diagonal(lambda g: balance_moment(g, n)))
        assert all(up[u] <= down[u] for u in base), n
        strict = strict or up != down
    return strict


@pytest.mark.parametrize("name", FIXTURES)
def test_lifts_of_the_fixtures_keep_every_invariant(name):
    kg = labeled(name)
    rng = random.Random(name)
    lifts = [paper.lift(kg, k, rng) for k in (2, 3, 5) for _ in range(4)]
    for lifted in filter(None, lifts):
        assert_lift_keeps_the_invariants(kg, *lifted)
    # a tree lifts only to k copies of itself; every other fixture has
    # connected lifts among these
    assert any(lifts) == (name != "single-edge")


def test_a_lift_can_lose_balanced_loops():
    # two-loop's balanced word e1 e2 ~e1 ~e2 closes in a lift only where
    # the two edges' permutations commute
    kg = labeled("two-loop")
    lifted = paper.lift(kg, 3, random.Random(2))
    assert assert_lift_keeps_the_invariants(kg, *lifted)


@settings(max_examples=25, deadline=None)
@given(kg=labeled_multigraphs(), k=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**16))
def test_property_lifts_keep_every_invariant(kg, k, seed):
    lifted = paper.lift(kg, k, random.Random(seed))
    assume(lifted is not None)
    assert_lift_keeps_the_invariants(kg, *lifted)


def test_cli_moments_on_a_lift_of_5100_vertices(tmp_path):
    kg = labeled("example-6-2")
    lg, base = paper.lift(kg, 1700, random.Random(0))
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(graph_obj(lg.graph, base_labels(lg))))
    reports = []
    for graph in (os.path.join(paper.FIXTURE_DIR, "example-6-2.json"), str(path)):
        out = io.StringIO()
        # the reduction DP charges 3,655,000 transitions on the lift at
        # n=40; the balance count, a diagnostic, runs out of the rest
        argv = ["moments", "--graph", graph, "--n", "40", "--budget", "3700000", "--json"]
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        reports.append(json.loads(out.getvalue())["result"]["diagonal"])
    down, up = reports
    assert len(up) == 5100
    assert up == {u: down[v] for u, v in base.items()}
