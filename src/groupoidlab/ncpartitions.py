"""Noncrossing partitions of {1..n}: enumeration, Moebius functional,
Catalan counts, and nested partition-dependent evaluation.

The Moebius value against the top element comes from the walk that
makes each partition.  The interval [pi, 1_n] is a product of smaller
noncrossing lattices indexed by the blocks of the Kreweras complement
of pi, so mu multiplies haar(|K|) = (-1)^(|K|-1) c_(|K|-1) over those
blocks K (Nica-Speicher, Lectures 9-10).  The walk meets every such
block: the gap between two neighbours of a block closes one, of size
1 + the gap's top-level blocks, and one more collects the top-level
blocks of pi.  The two anchor identities mu(0_n, 1_n) =
(-1)^(n-1) c_(n-1) and sum_pi mu(pi, 1_n) = 0 are held by the test
suite, with the cycle type of pi^-1 gamma as the oracle.

Nested quantities (E_pi and the partition-dependent cumulants of
groupoidlab.moments) share one left-to-right evaluator, nested(); the
caller's close and multiply fix the algebra.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import comb

from .errors import BudgetExceededError, Value

NC_BUDGET = 12


def catalan(k: int) -> int:
    if k < 0:
        raise ValueError("catalan index must be >= 0")
    return comb(2 * k, k) // (k + 1)


@lru_cache(maxsize=None)
def haar(s: int) -> int:
    """(-1)^(s-1) c_(s-1): the Moebius value mu(0_s, 1_s), which is also
    the free cumulant of order 2s of a Haar unitary and its adjoint."""
    return (-1) ** (s - 1) * catalan(s - 1)


class NoncrossingPartition(Value):
    """A noncrossing partition in canonical form: blocks sorted by their
    minimum, elements sorted inside each block, with its Moebius value
    mu(pi, 1_n).  The constructor trusts its blocks to be canonical and
    noncrossing, and mu to be their value, as enumerate_nc makes them."""

    # __dict__ holds the cached ``ends``
    __slots__ = ("n", "blocks", "mu", "__dict__")

    @cached_property
    def ends(self) -> tuple:
        """(opens a block, closes a block) for each position 1..n."""
        firsts = {b[0] for b in self.blocks}
        lasts = {b[-1] for b in self.blocks}
        return tuple((x in firsts, x in lasts) for x in range(1, self.n + 1))

    def __repr__(self) -> str:
        return "NC(" + "".join("(" + ",".join(map(str, b)) + ")" for b in self.blocks) + ")"


def _gen_blocks(elems, even=False):
    """Yield (blocks, top, inner) for each noncrossing partition of the
    sorted tuple elems; with even, only those whose blocks all have
    even size, in the same order.  top counts the blocks nested in no
    other, and inner is the product of haar over the Kreweras blocks
    that lie inside a block, so mu = inner * haar(top).

    The block of the first element leaves gaps that the rest fill
    independently, so with even the block size steps by 2 and a choice
    that leaves an odd gap is skipped.  Each gap before the block's
    last element closes a Kreweras block of its top-level blocks plus
    one; the blocks after it stay top-level, beside the first block.
    The gaps come in increasing order and each yields its blocks by
    minimum, so the block list is canonical as it is joined."""
    if not elems:
        yield (), 0, 1
        return
    first = elems[0]
    others = elems[1:]
    step = 2 if even else 1
    for k in range(step - 1, len(others) + 1, step):
        for extra in itertools.combinations(others, k):
            block = (first,) + extra
            segments = []
            seg = []
            chosen = set(extra)
            for x in others:
                if x in chosen:
                    segments.append(tuple(seg))
                    seg = []
                else:
                    seg.append(x)
            segments.append(tuple(seg))
            if even and any(len(s) % 2 for s in segments):
                continue
            for parts in itertools.product(*(_gen_blocks(s, even) for s in segments)):
                _, top, inner = parts[-1]
                for _, gap_top, gap_inner in parts[:-1]:
                    inner *= gap_inner * haar(gap_top + 1)
                yield (block, *(b for p in parts for b in p[0])), top + 1, inner


def check_nc_budget(n: int) -> None:
    """Raise BudgetExceededError when n is above NC_BUDGET: the count of
    NC(n) is catalan(n), which explodes quickly."""
    if n > NC_BUDGET:
        raise BudgetExceededError(f"n={n} exceeds the NC enumeration budget {NC_BUDGET}")


def enumerate_nc(n: int, even: bool = False):
    """All noncrossing partitions of {1..n}, deterministically ordered,
    each with its mu(pi, 1_n) from the walk; with even, only those whose
    blocks all have even size (none for odd n, C(3m, m)/(2m+1) for
    n = 2m), in the same relative order.  Guarded by check_nc_budget."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_nc_budget(n)
    walk = _gen_blocks(tuple(range(1, n + 1)), even)
    return [NoncrossingPartition(n, bs, inner * haar(top)) for bs, top, inner in walk]


def moebius(pi: NoncrossingPartition) -> int:
    """mu(pi, 1_n) in the noncrossing incidence algebra, as the walk
    that made pi carried it."""
    return pi.mu


def moebius_row(n: int):
    """(pi, mu(pi, 1_n)) for every pi, in enumeration order."""
    return [(pi, moebius(pi)) for pi in enumerate_nc(n)]


def nested(pi: NoncrossingPartition, operands, close, multiply):
    """Evaluate operands (1-indexed by position) along the nesting of pi.

    Positions are read left to right with a stack holding the argument
    list of each open block; since pi is noncrossing, the innermost open
    block is the block of the current position.  A closing block's value
    close(args) multiplies the last argument of the enclosing block from
    the right, or, at the outermost level, the running product of the
    blocks before it.
    """
    if len(operands) != pi.n:
        raise ValueError("operand count must equal n")
    stack = []
    result = None
    for op, (first, last) in zip(operands, pi.ends):
        if first:
            stack.append([op])
        else:
            stack[-1].append(op)
        if last:
            value = close(stack.pop())
            if stack:
                stack[-1][-1] = multiply(stack[-1][-1], value)
            else:
                result = value if result is None else multiply(result, value)
    return result
