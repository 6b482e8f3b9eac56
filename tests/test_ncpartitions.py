import itertools
from functools import reduce
from math import comb

import pytest

import paper
from groupoidlab.errors import BudgetExceededError
from groupoidlab.ncpartitions import catalan, enumerate_nc, moebius, nested


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


def partition(n, blocks):
    """The noncrossing partition of 1..n with the given blocks, in any
    order, in canonical form, with its mu from the Kreweras oracle."""
    canon = tuple(tuple(sorted(b)) for b in sorted(blocks, key=min))
    assert sorted(x for b in canon for x in b) == list(range(1, n + 1))
    assert crossing_free(canon)
    return paper.partition(n, canon)


def walked(n, blocks):
    """The partition with the given blocks as enumerate_nc makes it, mu
    included."""
    canon = partition(n, blocks).blocks
    return next(pi for pi in enumerate_nc(n) if pi.blocks == canon)


def zero(n):
    return walked(n, [(i,) for i in range(1, n + 1)])


def one(n):
    return walked(n, [range(1, n + 1)])


def leq(pi, theta):
    """Refinement order: every block of pi fits inside a block of theta."""
    owner = {x: i for i, b in enumerate(theta.blocks) for x in b}
    return all(len({owner[x] for x in b}) == 1 for b in pi.blocks)


def e_pi(pi, operands, expect, multiply):
    """E_pi: each block multiplies its operands, with the blocks nested
    in it spliced in, and closes with expect."""
    return nested(pi, operands, lambda args: expect(reduce(multiply, args)), multiply)


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


def even_blocks(pi):
    return all(len(b) % 2 == 0 for b in pi.blocks)


def test_even_generator_is_the_filtered_enumeration():
    for n in range(1, 13):
        expected = [pi.blocks for pi in enumerate_nc(n) if even_blocks(pi)]
        assert [pi.blocks for pi in enumerate_nc(n, even=True)] == expected


def test_even_row_sizes_are_fuss_catalan():
    # C(3m, m)/(2m+1) for n = 2m; no partition of odd n has only even blocks
    for n in range(1, 13):
        m = n // 2
        expected = 0 if n % 2 else comb(3 * m, m) // (2 * m + 1)
        assert len(enumerate_nc(n, even=True)) == expected
    with pytest.raises(BudgetExceededError):
        enumerate_nc(14, even=True)


def test_kreweras_block_counts():
    for n in range(1, 9):
        for pi in enumerate_nc(n):
            sizes = paper.kreweras(n, pi.blocks)
            assert sum(sizes) == n
            assert len(sizes) == n + 1 - len(pi.blocks)
            assert sizes == sorted(sizes)
        assert paper.kreweras(n, zero(n).blocks) == [n]
        assert paper.kreweras(n, one(n).blocks) == [1] * n


def test_walk_carries_the_kreweras_moebius_value():
    # the walk's gaps and top-level blocks give every partition the mu
    # of the cycle type of pi^-1 gamma
    for n in range(1, 11):
        for even in (False, True):
            for pi in enumerate_nc(n, even):
                assert pi == paper.partition(n, pi.blocks), (n, even, pi)


def test_moebius_zero_to_one():
    for n in range(1, 9):
        assert moebius(zero(n)) == (-1) ** (n - 1) * catalan(n - 1)


def test_moebius_sums_to_zero():
    for n in range(2, 9):
        assert sum(moebius(pi) for pi in enumerate_nc(n)) == 0


def test_moebius_top_reflexive():
    for n in range(1, 8):
        assert moebius(one(n)) == 1


def test_moebius_matches_zeta_inversion():
    # direct recursion mu(pi, top) = -sum_{sigma > pi} mu(sigma, top)
    for n in range(1, 7):
        pis = enumerate_nc(n)
        mu = {one(n).blocks: 1}
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
        top = one(n)
        for pi in pis:
            s = sum(moebius(sig) for sig in pis if leq(pi, sig))
            assert s == (1 if pi.blocks == top.blocks else 0)


def test_e_pi_paper_nesting():
    # pi = {(1,4),(2,3),(5)} evaluated symbolically
    pi = partition(5, [(1, 4), (2, 3), (5,)])
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
    pi = partition(n, blocks)
    ops = [f"a{i}" for i in range(1, n + 1)]
    out = e_pi(pi, ops, expect=lambda x: f"E({x})", multiply=lambda a, b: f"{a}.{b}")
    assert out == expected


def test_e_pi_top_and_bottom():
    ops = ["a1", "a2", "a3"]
    top = one(3)
    bot = zero(3)
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
        e_pi(one(3), [1, 2], lambda x: x, lambda a, b: a * b)
