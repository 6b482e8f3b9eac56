import itertools

import pytest

from groupoidlab.errors import BudgetExceededError
from groupoidlab.ncpartitions import (
    NoncrossingPartition,
    _has_crossing,
    catalan,
    e_pi,
    enumerate_nc,
    kreweras,
    leq,
    moebius,
    moebius_row,
    one_partition,
    zero_partition,
)


def all_set_partitions(n):
    """Every set partition of {1..n} (crossing or not), for the filter
    oracle."""
    if n == 0:
        yield []
        return
    for rest in all_set_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n]] + rest[i + 1 :]
        yield rest + [[n]]


def crossing_free(blocks):
    for b1, b2 in itertools.combinations(blocks, 2):
        for a, c in itertools.combinations(b1, 2):
            for b, d in itertools.combinations(b2, 2):
                if a < b < c < d or b < a < d < c:
                    return False
    return True


def test_catalan_values():
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_enumerate_counts_match_catalan():
    for n in range(1, 9):
        assert len(enumerate_nc(n)) == catalan(n)


def test_enumerate_small():
    assert len(enumerate_nc(1)) == 1
    assert len(enumerate_nc(3)) == 5
    assert len(enumerate_nc(4)) == 14


def test_enumerate_matches_crossing_filter():
    for n in range(1, 7):
        expected = {
            tuple(tuple(sorted(b)) for b in sorted(p, key=min))
            for p in all_set_partitions(n)
            if crossing_free([sorted(b) for b in p])
        }
        got = {pi.blocks for pi in enumerate_nc(n)}
        assert got == expected


def test_enumerate_deterministic_and_budgeted():
    assert [pi.blocks for pi in enumerate_nc(4)] == [
        pi.blocks for pi in enumerate_nc(4)
    ]
    with pytest.raises(BudgetExceededError):
        enumerate_nc(13)
    with pytest.raises(ValueError):
        enumerate_nc(0)


def test_crossing_check_matches_brute_force():
    for n in range(1, 8):
        for p in all_set_partitions(n):
            blocks = tuple(tuple(sorted(b)) for b in sorted(p, key=min))
            assert _has_crossing(blocks) == (not crossing_free(blocks)), blocks


def test_crossing_rejected_by_type():
    with pytest.raises(ValueError):
        NoncrossingPartition.of(4, [(1, 3), (2, 4)])
    with pytest.raises(ValueError):
        NoncrossingPartition.of(3, [(1, 2)])  # not a partition


def test_leq_basics():
    z4, o4 = zero_partition(4), one_partition(4)
    for pi in enumerate_nc(4):
        assert leq(z4, pi)
        assert leq(pi, o4)
    a = NoncrossingPartition.of(4, [(1, 2), (3, 4)])
    assert leq(a, o4)
    b = NoncrossingPartition.of(4, [(1, 3), (2,), (4,)])
    assert not leq(b, a)


def test_leq_mismatched_n():
    with pytest.raises(ValueError):
        leq(zero_partition(3), zero_partition(4))


def test_kreweras_block_counts():
    for n in range(1, 9):
        for pi in enumerate_nc(n):
            sizes = kreweras(pi)
            assert sum(sizes) == n
            assert len(sizes) == n + 1 - len(pi.blocks)
            assert sizes == sorted(sizes)
        assert kreweras(zero_partition(n)) == [n]
        assert kreweras(one_partition(n)) == [1] * n


def test_moebius_zero_to_one():
    for n in range(1, 9):
        assert moebius(zero_partition(n)) == (-1) ** (n - 1) * catalan(n - 1)


def test_moebius_sums_to_zero():
    for n in range(2, 9):
        assert sum(mu for _, mu in moebius_row(n)) == 0


def test_moebius_top_reflexive():
    for n in range(1, 8):
        assert moebius(one_partition(n)) == 1


def test_moebius_matches_zeta_inversion():
    # direct recursion mu(pi, top) = -sum_{sigma > pi} mu(sigma, top)
    for n in range(1, 7):
        pis = enumerate_nc(n)
        mu = {one_partition(n).blocks: 1}
        changed = True
        while changed:
            changed = False
            for pi in pis:
                if pi.blocks in mu:
                    continue
                above = [s for s in pis if s.blocks != pi.blocks and leq(pi, s)]
                if all(s.blocks in mu for s in above):
                    mu[pi.blocks] = -sum(mu[s.blocks] for s in above)
                    changed = True
        for pi in pis:
            assert moebius(pi) == mu[pi.blocks]


def test_moebius_inversion_kronecker():
    # sum over sigma in [pi, 1_n] of mu(sigma, 1_n) = [pi == 1_n]
    for n in range(1, 7):
        pis = enumerate_nc(n)
        top = one_partition(n)
        for pi in pis:
            s = sum(moebius(sig) for sig in pis if leq(pi, sig))
            assert s == (1 if pi.blocks == top.blocks else 0)


def test_e_pi_paper_nesting():
    # pi = {(1,4),(2,3),(5)} evaluated symbolically
    pi = NoncrossingPartition.of(5, [(1, 4), (2, 3), (5,)])
    ops = [f"a{i}" for i in range(1, 6)]
    out = e_pi(pi, ops, expect=lambda x: f"E({x})", multiply=lambda a, b: f"{a}.{b}")
    assert out == "E(a1.E(a2.a3).a4).E(a5)"


@pytest.mark.parametrize(
    "n, blocks, expected",
    [
        # two sibling blocks in one gap
        (4, [(1, 4), (2,), (3,)], "E(a1.E(a2).E(a3).a4)"),
        # nested three deep
        (6, [(1, 6), (2, 5), (3, 4)], "E(a1.E(a2.E(a3.a4).a5).a6)"),
    ],
)
def test_e_pi_symbolic_nesting(n, blocks, expected):
    pi = NoncrossingPartition.of(n, blocks)
    ops = [f"a{i}" for i in range(1, n + 1)]
    out = e_pi(pi, ops, expect=lambda x: f"E({x})", multiply=lambda a, b: f"{a}.{b}")
    assert out == expected


def test_e_pi_top_and_bottom():
    ops = ["a1", "a2", "a3"]
    top = one_partition(3)
    bot = zero_partition(3)
    j = lambda a, b: f"{a}.{b}"
    e = lambda x: f"E({x})"
    assert e_pi(top, ops, e, j) == "E(a1.a2.a3)"
    assert e_pi(bot, ops, e, j) == "E(a1).E(a2).E(a3)"


def test_e_pi_scalar_reduces_to_block_products():
    # with commutative scalar callbacks, nesting is irrelevant
    import math

    vals = [2, 3, 5, 7, 11, 13]
    for pi in enumerate_nc(5):
        out = e_pi(pi, vals[:5], expect=lambda x: x, multiply=lambda a, b: a * b)
        expected = math.prod(math.prod(vals[x - 1] for x in b) for b in pi.blocks)
        assert out == expected


def test_e_pi_wrong_arity():
    with pytest.raises(ValueError):
        e_pi(one_partition(3), [1, 2], lambda x: x, lambda a, b: a * b)
