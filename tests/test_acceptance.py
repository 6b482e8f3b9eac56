"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (visible with -s / -v);
a failed assertion is the FAIL signal.  Run:

    pytest tests/test_acceptance.py -v -s
"""

import io
import json
import math
import random
import sys

import pytest

from groupoidlab import cli
from groupoidlab.automaton import is_fractaloid
from groupoidlab.fixtures import FIXTURES, fixture
from groupoidlab.graphio import dump_graph_file
from groupoidlab.graphs import shadow
from groupoidlab.labeling import (
    MODE_EXPLICIT,
    MODE_VERTEX,
    assign_weights,
    count_axis_paths,
)
from groupoidlab.moments import (
    DiagonalElement,
    balance_moment,
    check_freeness,
    cumulant_direct,
    moment,
    moment_via_cumulants,
)
from groupoidlab.ncpartitions import catalan, enumerate_nc, moebius, nested
from groupoidlab.operators import (
    build_basis,
    labeling_operator,
    oracle_expectation_power,
    total_labeling_operator,
)

from paper import (
    EMPTY,
    ReducedPath,
    Vertex,
    basis_elements,
    concat,
    inverse,
    inverted,
    is_admissible,
    out_edges,
    partition,
    reduce_word,
    right_mult,
    signed_edges,
)
from test_labeling import count_axis_paths_brute

ORACLE_FIXTURES = ["circulant-3", "one-loop", "two-loop", "example-6-2", "single-edge"]
ALL_FIXTURES = ORACLE_FIXTURES + ["three-loop", "example-6-2-noloop"]


def labeled(name):
    f = fixture(name)
    mode = MODE_EXPLICIT if f.labels else MODE_VERTEX
    return assign_weights(shadow(f.graph), mode, f.labels)


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    for name, f in FIXTURES.items():
        dump_graph_file(str(d / f"{name}.json"), f.graph, f.labels)
    return str(d)


def test_acceptance_1_example_6_2_reproduction(fixture_dir):
    code, out = run_cli(
        ["moments", "--graph", f"{fixture_dir}/example-6-2-noloop.json", "--n", "2", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["diagonal"] == {"v1": "3", "v2": "2", "v3": "1"}

    code, out = run_cli(
        ["moments", "--graph", f"{fixture_dir}/example-6-2.json", "--n", "2", "--verify", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["diagonal"] == {"v1": "3", "v2": "4", "v3": "1"}
    assert rep["diagnostics"]["oracle"] == {"v1": "3", "v2": "4", "v3": "1"}
    assert any("loop-edge words" in note for note in rep["diagnostics"]["notes"])
    print("ACCEPTANCE 1 PASS: Example 6.2 moments reproduced, oracle-equal, note carried")


def test_acceptance_2_oracle_equivalence():
    for name in ORACLE_FIXTURES:
        lg = labeled(name)
        for n in range(1, 7):
            enumerated = moment(lg, n)
            oracle = DiagonalElement.of(oracle_expectation_power(lg, n, n))
            assert enumerated == oracle, (name, n)
    print("ACCEPTANCE 2 PASS: moment == oracle for 5 fixtures, n = 1..6, exact")


def test_acceptance_3_free_group_moments():
    one = labeled("one-loop")
    got = [moment(one, 2 * n).as_dict().get("v", 0) for n in range(1, 6)]
    assert got == [2, 6, 20, 70, 252]
    assert got == [math.comb(2 * n, n) for n in range(1, 6)]
    two = labeled("two-loop")
    assert moment(two, 2).as_dict() == {"v": 4}
    assert moment(two, 4).as_dict() == {"v": 28}
    assert balance_moment(two, 4).as_dict() == {"v": 36}
    assert count_axis_paths(2, 4) == 36  # |L_2^o(4)|, the balance-side count
    print(
        "ACCEPTANCE 3 PASS: central binomials on the 1-loop graph; "
        "2-loop gives 4/28 with balance count 36 reported alongside"
    )


def test_acceptance_4_cumulants():
    one = labeled("one-loop")
    assert cumulant_direct(one, 2).as_dict() == {"v": 2}
    assert cumulant_direct(one, 4).as_dict() == {"v": -2}
    for name in ALL_FIXTURES:
        lg = labeled(name)
        for n in (1, 3, 5):
            assert cumulant_direct(lg, n).is_zero, (name, n)
            assert moment(lg, n).is_zero, (name, n)
    for name in ORACLE_FIXTURES:
        lg = labeled(name)
        for n in range(1, 7):
            assert moment_via_cumulants(lg, n) == moment(lg, n), (name, n)
    print(
        "ACCEPTANCE 4 PASS: k2=2, k4=-2 on the 1-loop graph; odd moments and "
        "cumulants vanish; inversion rebuilds moments for n <= 6"
    )


def test_acceptance_5_nc_machinery():
    for n in range(1, 9):
        assert len(enumerate_nc(n)) == catalan(n)
        singletons = next(pi for pi in enumerate_nc(n) if len(pi.blocks) == n)
        assert moebius(singletons) == (-1) ** (n - 1) * catalan(n - 1)
    # at n = 1 the lattice is a point and the row sums to 1, not 0
    assert sum(moebius(pi) for pi in enumerate_nc(1)) == 1
    for n in range(2, 9):
        assert sum(moebius(pi) for pi in enumerate_nc(n)) == 0
    pi = partition(5, ((1, 4), (2, 3), (5,)))
    out = nested(
        pi,
        [f"a{i}" for i in range(1, 6)],
        close=lambda args: "E(" + ".".join(args) + ")",
        multiply=lambda a, b: f"{a}.{b}",
    )
    assert out == "E(a1.E(a2.a3).a4).E(a5)"
    print("ACCEPTANCE 5 PASS: |NC(n)| = Catalan, Moebius identities (n <= 8), nested E_pi")


def test_acceptance_6_freeness():
    rep = check_freeness(labeled("two-loop"), 1, 2, max_n=4)
    assert rep.max_abs_coefficient == 0
    assert rep.free_to_order
    assert rep.tuples_checked == sum(4**n - 2 * 2**n for n in range(2, 5))
    print(
        f"ACCEPTANCE 6 PASS: all {rep.tuples_checked} mixed cumulants vanish "
        "between the two loop families up to order 4"
    )


def test_acceptance_7_fractaloid_verdicts():
    expected = {
        "circulant-3": True,
        "one-loop": True,
        "two-loop": True,
        "three-loop": True,
        "example-6-2": False,
        "single-edge": False,
    }
    for name, want in expected.items():
        verdict = is_fractaloid(labeled(name), depth=4)
        assert verdict.fractaloid is want, name
        assert verdict.depth == 4
        assert all(reg is want for _, reg, _ in verdict.trees), name
        if not want:
            assert verdict.witness is not None
    print("ACCEPTANCE 7 PASS: fractaloid verdicts with depth-4 tree evidence on 6 fixtures")


def test_acceptance_8_operator_identities():
    for name in ALL_FIXTURES:
        lg = labeled(name)
        L = 4
        basis = build_basis(lg, L)
        elements = basis_elements(lg, basis)
        for k in range(1, lg.max_label + 1):
            tk = labeling_operator(lg, k, basis)
            assert tk.transpose() == labeling_operator(lg, -k, basis), (name, k)
        tg = total_labeling_operator(lg, basis)
        assert tg.transpose() == tg, name
        for s in signed_edges(lg.graph):
            w = ReducedPath((s,))
            r = right_mult(lg, w, basis)
            prod = r @ right_mult(lg, inverse(w), basis) @ r
            for j, a in enumerate(elements):
                length = 0 if isinstance(a, Vertex) else len(a.word)
                if length <= L - 3:
                    assert prod.cols[j] == r.cols[j], (name, s.name(), a)
    print(
        "ACCEPTANCE 8 PASS: T_k^T = T_-k and T_G symmetric at L=4; "
        "R_w R_w* R_w = R_w away from the boundary"
    )


def test_acceptance_9_lattice_counts():
    for n in range(1, 7):
        assert count_axis_paths(1, 2 * n) == math.comb(2 * n, n)
    for N in (1, 2, 3):
        for k in range(1, 9):
            assert count_axis_paths(N, k) == count_axis_paths_brute(N, k)
    for k in (1, 3, 5, 7):
        for N in (1, 2, 3):
            assert count_axis_paths(N, k) == 0
    print("ACCEPTANCE 9 PASS: Pascal column, brute-enumeration agreement, odd lengths zero")


def _random_words(g, count, max_len, rng):
    for _ in range(count):
        n = rng.randint(1, max_len)
        word = []
        cur = None
        for _ in range(n):
            options = out_edges(g, cur) if cur else signed_edges(g)
            if not options:
                break
            s = rng.choice(options)
            word.append(s)
            cur = s.dst
        if word:
            yield tuple(word)


def _reduce_random_order(word, rng):
    if not word or not is_admissible(word):
        return EMPTY
    letters = list(word)
    while True:
        pairs = [
            i for i in range(len(letters) - 1) if letters[i] == inverted(letters[i + 1])
        ]
        if not pairs:
            break
        i = rng.choice(pairs)
        del letters[i : i + 2]
    if not letters:
        return Vertex(word[0].src)
    return ReducedPath(tuple(letters))


def test_acceptance_10_property_suites(fixture_dir):
    rng = random.Random(6_28_2026)
    for name in ORACLE_FIXTURES:
        g = shadow(fixture(name).graph)
        elems = []
        for word in _random_words(g, 10_000, 8, rng):
            r = reduce_word(word)
            assert r == _reduce_random_order(word, rng), (name, word)
            if isinstance(r, ReducedPath):
                assert reduce_word(r.word) == r
                elems.append(r)
        for a, b, c in zip(elems[0::3], elems[1::3], elems[2::3]):
            ab, bc = concat(a, b), concat(b, c)
            if ab is EMPTY or bc is EMPTY:
                continue
            assert concat(ab, c) == concat(a, bc)
    argv = [
        "moments", "--graph", f"{fixture_dir}/example-6-2.json", "--n", "4", "--json"
    ]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second and first[0] == 0
    print(
        "ACCEPTANCE 10 PASS: reduction idempotent and order-invariant on 10^4 "
        "words per fixture; concat associative; repeated runs byte-identical"
    )
