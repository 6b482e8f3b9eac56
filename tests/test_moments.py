import itertools

import pytest

from groupoidlab import _kernel
from groupoidlab.errors import BudgetExceededError
from groupoidlab.moments import (
    DiagonalElement,
    balance_moment,
    check_freeness,
    closed_form_cumulant,
    cumulant_direct,
    cumulant_of,
    cumulant_via_wc,
    edge_sum,
    expectation_pi,
    joint_cumulant,
    joint_moment,
    moment,
    moment_via_cumulants,
    total_sum,
    w_m_set,
)
from groupoidlab.ncpartitions import catalan, enumerate_nc
from groupoidlab.operators import oracle_expectation_power

from paper import (
    FIXTURES as ALL_FIXTURES,
    expectation_of_word,
    inverted,
    labeled,
    mu_w,
    out_edges,
    partition,
    signed_by_name,
    signed_edges,
)

FIXTURES = ["circulant-3", "one-loop", "two-loop", "example-6-2", "single-edge"]


# --- independent brute oracle (scan-based reduction, product enumeration)


def brute_reduce_leftmost(word):
    """Quadratic leftmost-pair canceller, independent of the stack pass."""
    letters = list(word)
    while True:
        for i in range(len(letters) - 1):
            if letters[i] == inverted(letters[i + 1]):
                del letters[i : i + 2]
                break
        else:
            return letters


def brute_moment(lg, n):
    g = lg.graph
    acc = {}
    for word in itertools.product(signed_edges(g), repeat=n):
        if any(word[i].dst != word[i + 1].src for i in range(n - 1)):
            continue
        if not brute_reduce_leftmost(word):
            v = word[0].src
            acc[v] = acc.get(v, 0) + 1
    return acc


# --- expectation of a single word


def test_expectation_of_word():
    g = labeled("single-edge").graph
    e = signed_by_name(g, "e1")
    assert expectation_of_word((e, inverted(e))).as_dict() == {"v1": 1}
    assert expectation_of_word((e, e)).is_zero  # not even admissible
    loop = signed_by_name(labeled("one-loop").graph, "e1")
    assert expectation_of_word((loop, loop)).is_zero  # reduces to a path


# --- word sets


def letter_names(lg, words):
    """Words of signed-edge indices as tuples of letter names."""
    signed = signed_edges(lg.graph)
    return [tuple(signed[e].name() for e in w) for w in words]


def test_w_m_set_example_6_2_noloop_matches_published_list():
    lg = labeled("example-6-2-noloop")
    rep = w_m_set(lg, 2)
    names = set(letter_names(lg, rep.words))
    assert names == {
        ("e12:1", "~e12:1"),
        ("~e12:1", "e12:1"),
        ("e12:2", "~e12:2"),
        ("~e12:2", "e12:2"),
        ("e13:1", "~e13:1"),
        ("~e13:1", "e13:1"),
    }
    assert rep.tallies.as_dict() == {"v1": 3, "v2": 2, "v3": 1}


def test_w_m_set_example_6_2_full_includes_loop_words():
    lg = labeled("example-6-2")
    rep = w_m_set(lg, 2)
    names = set(letter_names(lg, rep.words))
    assert ("e22:1", "~e22:1") in names
    assert ("~e22:1", "e22:1") in names
    assert rep.count == 8
    assert rep.tallies.as_dict() == {"v1": 3, "v2": 4, "v3": 1}


def test_w_m_set_two_loop_reduction_vs_balance():
    lg = labeled("two-loop")
    assert w_m_set(lg, 4, "reduction").count == 28
    assert w_m_set(lg, 4, "balance").count == 36


def test_w_m_set_odd_reduction_empty():
    for name in FIXTURES:
        assert w_m_set(labeled(name), 3).count == 0


def test_w_m_set_checks_the_mode_before_walking():
    # a budget of 0 runs out at the first letter: the mode error comes first
    with pytest.raises(ValueError, match="unknown mode"):
        w_m_set(labeled("two-loop"), 4, "loops", budget=0)


def test_reduction_words_subset_of_balance_words():
    for name in ["circulant-3", "two-loop", "example-6-2"]:
        lg = labeled(name)
        for n in (2, 4):
            red = set(w_m_set(lg, n, "reduction").words)
            bal = set(w_m_set(lg, n, "balance").words)
            assert red <= bal


# --- moments


def test_moment_example_6_2_noloop_published():
    assert moment(labeled("example-6-2-noloop"), 2).as_dict() == {
        "v1": 3,
        "v2": 2,
        "v3": 1,
    }


def test_moment_example_6_2_full_frozen():
    lg = labeled("example-6-2")
    expected = brute_moment(lg, 2)
    assert expected == {"v1": 3, "v2": 4, "v3": 1}  # frozen from the brute oracle
    assert moment(lg, 2).as_dict() == expected


def test_moment_one_loop_central_binomials():
    lg = labeled("one-loop")
    assert [moment(lg, 2 * n).as_dict()["v"] for n in range(1, 6)] == [2, 6, 20, 70, 252]


def test_moment_two_loop_kesten():
    lg = labeled("two-loop")
    assert moment(lg, 2).as_dict() == {"v": 4}
    assert moment(lg, 4).as_dict() == {"v": 28}
    assert balance_moment(lg, 4).as_dict() == {"v": 36}


def test_moment_odd_zero_everywhere():
    for name in FIXTURES:
        lg = labeled(name)
        for n in (1, 3, 5):
            assert moment(lg, n).is_zero


@pytest.mark.parametrize("name", FIXTURES)
def test_moment_matches_brute(name):
    lg = labeled(name)
    for n in range(1, 5):
        assert moment(lg, n).as_dict() == brute_moment(lg, n)


@pytest.mark.parametrize("name", FIXTURES)
def test_oracle_equivalence(name):
    lg = labeled(name)
    for n in range(1, 7):
        diag = oracle_expectation_power(lg, n, n)
        assert moment(lg, n) == DiagonalElement.of(diag)


@pytest.mark.parametrize("name", FIXTURES)
def test_moment_agrees_with_enumeration(name):
    lg = labeled(name)
    for n in range(1, 7):
        assert moment(lg, n) == w_m_set(lg, n).tallies


def test_moment_budget_truncation():
    # the budget caps DP transitions; a count that runs out raises with
    # exact per-vertex counts, and some budgets leave a nonempty part;
    # the walk count the kernel returns beside a finished count is
    # exact, or 0 once its steps pass the budget
    lg = labeled("example-6-2")
    for count, mode in ((moment, "reduction"), (balance_moment, "balance")):
        exact = count(lg, 6, budget=None).as_dict()
        words = _kernel.tally_words(lg, 6, mode)[1]
        partial_seen = False
        budget = 1
        while True:
            try:
                got = count(lg, 6, budget=budget).as_dict()
            except BudgetExceededError as exc:
                part = exc.partial.as_dict()
                assert all(exact[v] == c for v, c in part.items()), (mode, budget, part)
                partial_seen = partial_seen or bool(part)
                budget += 1
                continue
            assert got == exact
            assert _kernel.tally_words(lg, 6, mode, budget=budget)[1] in (0, words)
            break
        assert partial_seen, mode
    with pytest.raises(BudgetExceededError, match="^reduction count n=6: DP budget exhausted$") as exc:
        moment(labeled("two-loop"), 6, budget=10)
    assert exc.value.partial == DiagonalElement.zero()


def test_joint_moment_budget_truncation_points():
    # the interval tables cost 14 transitions per signed edge at n = 8
    # (112 on example-6-2); no vertex finishes before they are paid for,
    # then each vertex costs 1 + 2 + 3 + 4 = 10
    lg = labeled("example-6-2")
    idx = (1, -1) * 4
    seen = {}
    for budget in (111, 112, 121, 122, 141, 142):
        try:
            seen[budget] = (joint_moment(lg, idx, budget=budget).as_dict(), False)
        except BudgetExceededError as exc:
            assert str(exc) == f"joint moment {idx}: DP budget exhausted"
            seen[budget] = (exc.partial.as_dict(), True)
    assert seen == {
        111: ({}, True),
        112: ({}, True),
        121: ({}, True),
        122: ({"v1": 34}, True),
        141: ({"v1": 34, "v2": 13}, True),
        142: ({"v1": 34, "v2": 13}, False),
    }


# --- joint moments


def test_joint_moment_two_loop_pairs():
    lg = labeled("two-loop")
    assert joint_moment(lg, (1, -1)).as_dict() == {"v": 1}
    assert joint_moment(lg, (1, 1)).is_zero


def test_joint_moment_sums_to_moment():
    for name in ["two-loop", "example-6-2"]:
        lg = labeled(name)
        for n in (1, 2, 3, 4):
            alphabet = [k for k in range(-lg.max_label, lg.max_label + 1) if k]
            total = DiagonalElement.of(
                pair
                for idx in itertools.product(alphabet, repeat=n)
                for pair in joint_moment(lg, idx).coeffs
            )
            assert total == moment(lg, n)


def test_joint_moment_bad_index():
    with pytest.raises(ValueError):
        joint_moment(labeled("one-loop"), (2,))
    with pytest.raises(ValueError):
        joint_moment(labeled("one-loop"), (0,))


# --- mu_w and cumulants


def test_mu_w_pair():
    lg = labeled("single-edge")
    e = signed_by_name(lg.graph, "e1")
    assert mu_w(lg, (e, inverted(e))) == 1


def test_mu_w_requires_vertex_reduction():
    lg = labeled("one-loop")
    e = signed_by_name(lg.graph, "e1")
    with pytest.raises(ValueError):
        mu_w(lg, (e, e))


def test_mu_w_one_loop_length_4_values():
    # hand-checked: alternating words weigh -1, the rest 0
    lg = labeled("one-loop")
    e = signed_by_name(lg.graph, "e1")
    f = inverted(e)
    values = {
        (e, f, e, f): -1,
        (f, e, f, e): -1,
        (e, e, f, f): 0,
        (f, f, e, e): 0,
        (e, f, f, e): 0,
        (f, e, e, f): 0,
    }
    for word, expected in values.items():
        assert mu_w(lg, word) == expected
    assert sum(values.values()) == -2  # aggregates to k_4


def test_cumulant_direct_one_loop():
    lg = labeled("one-loop")
    assert cumulant_direct(lg, 2).as_dict() == {"v": 2}  # m2 - m1^2
    assert cumulant_direct(lg, 4).as_dict() == {"v": -2}  # inversion of 2, 6


def test_cumulant_direct_closed_form_values():
    # k_2m(T_G)_v = outdeg(v) (-1)^(m-1) C_(m-1), past the NC budget too
    lg = labeled("example-6-2")
    outdeg = {v: len(out_edges(lg.graph, v)) for v in lg.graph.vertices}
    for m in (1, 2, 5, 6, 7, 20):
        expected = {v: d * (-1) ** (m - 1) * catalan(m - 1) for v, d in outdeg.items()}
        assert cumulant_direct(lg, 2 * m).as_dict() == expected
        assert cumulant_direct(lg, 2 * m + 1).is_zero


def test_cumulant_direct_order_budget():
    lg = labeled("one-loop")
    assert cumulant_direct(lg, 10_000).as_dict() == {"v": -2 * catalan(4999)}
    with pytest.raises(BudgetExceededError) as exc:
        cumulant_direct(lg, 10_002)
    assert exc.value.partial is None


def test_closed_form_cumulant_alternates_an_edge_with_its_inverse():
    # one letter weight per signed edge: only e, inv(e), e, ... survives
    lg = labeled("single-edge")
    e = signed_by_name(lg.graph, "e1")
    signed = signed_edges(lg.graph)
    unit = {s: tuple(int(t == s) for t in signed) for s in signed}
    f = inverted(e)
    assert closed_form_cumulant(lg, [unit[e], unit[f]] * 3).as_dict() == {"v1": 2}
    assert closed_form_cumulant(lg, [unit[f], unit[e]] * 3).as_dict() == {"v2": 2}
    assert closed_form_cumulant(lg, [unit[e], unit[f], unit[f], unit[e]]).is_zero


def test_cumulants_odd_zero():
    for name in FIXTURES:
        lg = labeled(name)
        for n in (1, 3, 5):
            assert cumulant_direct(lg, n).is_zero
            assert cumulant_via_wc(lg, n).is_zero


def test_cumulant_via_wc_matches_direct_on_one_loop():
    lg = labeled("one-loop")
    for n in (2, 4, 6):
        assert cumulant_via_wc(lg, n) == cumulant_direct(lg, n)


@pytest.mark.parametrize("name", FIXTURES)
def test_cumulant_routes_agree_on_fixtures(name):
    lg = labeled(name)
    for n in (2, 4):
        assert cumulant_via_wc(lg, n) == cumulant_direct(lg, n), n


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_wc_past_the_nc_budget_decides_before_any_word(name):
    # odd n: no loop word reduces, so 0 whatever the budget; even n:
    # the Moebius row of NC(n) comes first and is over budget
    lg = labeled(name)
    for budget in (1, None):
        for n in (13, 15, 10**9 + 1):
            assert cumulant_via_wc(lg, n, budget=budget).is_zero
        for n in (14, 16):
            with pytest.raises(BudgetExceededError) as exc:
                cumulant_via_wc(lg, n, budget=budget)
            assert exc.value.partial is None
            assert str(exc.value) == f"n={n} exceeds the NC enumeration budget 12"


def test_mu_w_balanced_row_matches_the_full_even_row():
    # the balanced-block filter skips only terms that are exactly 0: on a
    # loop edge every balanced sign pattern, on a non-loop edge the two
    # alternating words
    for name, edge in (("one-loop", "e1"), ("single-edge", "e1")):
        lg = labeled(name)
        signed = signed_edges(lg.graph)
        e = signed_by_name(lg.graph, edge)
        for n in (2, 4, 6, 8):
            full = enumerate_nc(n, even=True)
            for word in itertools.product((e, inverted(e)), repeat=n):
                if expectation_of_word(word).is_zero:
                    continue
                letters = [tuple(int(t == s) for t in signed) for s in word]
                want = cumulant_of(lg, letters, parts=full).as_dict().get(word[0].src, 0)
                assert mu_w(lg, word) == want, word


@pytest.mark.parametrize("name", FIXTURES)
def test_moment_cumulant_inversion(name):
    lg = labeled(name)
    for n in range(1, 7):
        assert moment_via_cumulants(lg, n) == moment(lg, n)


# --- joint cumulants and freeness


def test_first_cumulant_is_expectation_zero():
    lg = labeled("two-loop")
    for k in (1, -1, 2, -2):
        assert joint_cumulant(lg, (k,)).is_zero


def test_mixed_pair_cumulant_vanishes():
    lg = labeled("two-loop")
    assert joint_cumulant(lg, (1, 2)).is_zero
    assert joint_cumulant(lg, (1, -2)).is_zero


def test_conjugate_pair_cumulant():
    lg = labeled("two-loop")
    assert joint_cumulant(lg, (1, -1)).as_dict() == {"v": 1}
    assert joint_cumulant(lg, (-1, 1)).as_dict() == {"v": 1}


def test_joint_cumulant_multilinear():
    lg = labeled("two-loop")
    t1, t2 = edge_sum(lg, 1), edge_sum(lg, 2)
    mix = tuple(3 * a - 2 * b for a, b in zip(t1, t2))
    other = [edge_sum(lg, -1), edge_sum(lg, 1), edge_sum(lg, -1)]
    lhs = cumulant_of(lg, [mix] + other)
    k1, k2 = cumulant_of(lg, [t1] + other), cumulant_of(lg, [t2] + other)
    rhs = DiagonalElement.of([(v, 3 * c) for v, c in k1.coeffs] + [(v, -2 * c) for v, c in k2.coeffs])
    assert lhs == rhs


def test_cumulant_of_with_a_shared_memo():
    # one memo of block closes across all tuples, as check_freeness uses
    # it, gives each tuple's own cumulant
    lg = labeled("example-6-2")
    memo = {}
    for n in (1, 2, 3, 4):
        for idx in itertools.product((1, -1, 2, -2), repeat=n):
            operands = [edge_sum(lg, k) for k in idx]
            assert cumulant_of(lg, operands, memo=memo) == joint_cumulant(lg, idx), idx
    assert memo


def test_check_freeness_two_loop():
    rep = check_freeness(labeled("two-loop"), 1, 2, max_n=4)
    assert rep.free_to_order
    assert rep.max_abs_coefficient == 0
    assert rep.nonzero == ()
    assert rep.families_diagram_distinct
    assert rep.tuples_checked == sum(
        4**n - 2 * 2**n for n in range(2, 5)
    )


def test_check_freeness_same_family_rejected():
    with pytest.raises(ValueError):
        check_freeness(labeled("two-loop"), 1, 1)


def test_check_freeness_example_6_2_report():
    # distinct base edges are diagram-distinct even when parallel, so the
    # graph-side sufficient condition holds here and the computation
    # confirms the vanishing (recorded, not assumed)
    rep = check_freeness(labeled("example-6-2"), 1, 2, max_n=4)
    assert rep.tuples_checked == 280
    assert rep.families_diagram_distinct
    assert rep.max_abs_coefficient == 0


# --- algebra plumbing


def test_diagonal_element_algebra():
    a = DiagonalElement.of({"x": 2, "y": -1})
    b = DiagonalElement.of({"y": 1, "z": 4})
    assert DiagonalElement.of(a.coeffs + b.coeffs).as_dict() == {"x": 2, "z": 4}
    assert DiagonalElement.of({"x": 0}).is_zero
    assert a.max_abs() == 2


def test_total_sum_expectation_is_zero():
    lg = labeled("example-6-2")
    assert expectation_pi(lg, partition(1, ((1,),)), [total_sum(lg)]).is_zero
    sq = expectation_pi(lg, partition(2, ((1, 2),)), [total_sum(lg)] * 2)
    assert sq == moment(lg, 2)
