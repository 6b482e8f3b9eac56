"""Diagonal-valued moments and free cumulants of labeling operators.

Values live in the diagonal algebra: finite integer maps vertex ->
coefficient.  Every route here takes the labeled graph as its one flat
view, the _kernel.KernelGraph that labeling.assign_weights returns.
Moments count admissible words
that freely reduce to a vertex (the reduction characterization) with
the excursion DP of _kernel.  The words themselves (w_m_set) come from
the word walk of _kernel, which builds only the qualifying words and
their prefixes; its tallies are a cross-check on the DP.  Words here
are tuples of signed-edge indices in the layout that _kernel.KernelGraph
states, which also names the letters.

Cumulant operands are letter weights (one integer per signed edge).
The edge operators are free over the diagonal and each pairs with its
inverse as a Haar partial isometry, so the free cumulants have a closed
form (closed_form_cumulant), the primary route of cumulant_direct and
joint_cumulant.  Its oracles stay close to the definitions: Moebius
inversion over noncrossing partitions (cumulant_of), whose nested
expectations E_pi close each block with the excursion DP, weighted, so
no product of groupoid elements is ever formed; and the word-set route
(single-base-edge loop words weighted by mu_w), computed alongside and
compared, never trusted; mu_w is the Moebius cumulant of a word's
letters.  check_freeness keeps the Moebius route: its sums are the
evidence that mixed cumulants vanish.
"""

from __future__ import annotations

import itertools
from functools import partial
from math import prod
from operator import add, mul

from . import _kernel, ncpartitions
from ._kernel import KernelGraph
from .errors import ENUM_BUDGET, BudgetExceededError, Value
from .ncpartitions import NoncrossingPartition, enumerate_nc, haar, moebius, nested

# The closed-form k_n has about 0.3 n digits: Python converts at most
# 4300 digits of an int to a string by default, and building and
# printing the value take time about quadratic in n.
ORDER_BUDGET = 10_000
# The nonzero mixed cumulants a FreenessReport lists; max_abs_coefficient
# still covers them all.
NONZERO_CAP = 16


class DiagonalElement(Value):
    """Exact element of the diagonal algebra: vertex -> coefficient,
    zero coefficients dropped."""

    __slots__ = ("coeffs",)  # ((vertex, int), ...) sorted

    @staticmethod
    def of(mapping) -> "DiagonalElement":
        items = mapping.items() if isinstance(mapping, dict) else mapping
        acc: dict[str, int] = {}
        for v, c in items:
            acc[v] = acc.get(v, 0) + c
        return DiagonalElement(tuple(sorted((v, c) for v, c in acc.items() if c)))

    @staticmethod
    def zero() -> "DiagonalElement":
        return DiagonalElement(())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

    def max_abs(self) -> int:
        return max((abs(c) for _, c in self.coeffs), default=0)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Diagonal(0)"
        return "Diagonal(" + ", ".join(f"{v}: {c}" for v, c in self.coeffs) + ")"


class TallyResult(Value):
    __slots__ = ("diagonal", "truncated")


class WordSetReport(Value):
    # words: tuples of signed-edge indices of the flat view
    __slots__ = ("n", "mode", "words", "tallies")

    @property
    def count(self) -> int:
        return len(self.words)


def w_m_set(
    kg: KernelGraph,
    n: int,
    mode: str = "reduction",
    budget: int | None = ENUM_BUDGET,
) -> WordSetReport:
    """The qualifying length-n words themselves, as tuples of
    signed-edge indices in lexicographic order, with per-vertex tallies:
    the word walk of _kernel, which builds only the qualifying words and
    their prefixes.  budget caps its letters, tried and kept; when it
    runs out, the words found so far are the partial result."""
    if mode not in ("reduction", "balance"):
        raise ValueError(f"unknown mode {mode!r}")
    found, truncated = _kernel.closed_words(kg, n, mode, budget=budget)
    vs = kg.vertices
    report = WordSetReport(
        n,
        mode,
        tuple(found),
        DiagonalElement.of((vs[kg.src[w[0]]], 1) for w in found),
    )
    if truncated:
        raise BudgetExceededError(f"word set n={n}: letter budget exhausted", partial=report)
    return report


def tally(
    kg: KernelGraph,
    n: int,
    mode: str = "reduction",
    budget: int | None = ENUM_BUDGET,
) -> TallyResult:
    """Tally of qualifying length-n words by vertex, from the moment
    engine in _kernel; budget caps its DP transitions."""
    counts, _, truncated = _kernel.tally_words(kg, n, mode, budget=budget)
    return TallyResult(_diagonal(kg, counts), truncated)


def _unwrap(result: TallyResult, what: str) -> DiagonalElement:
    if result.truncated:
        raise BudgetExceededError(f"{what}: DP budget exhausted", partial=result)
    return result.diagonal


def moment(kg: KernelGraph, n: int, budget: int | None = ENUM_BUDGET) -> DiagonalElement:
    """E(T_G^n): the admissible length-n words whose free reduction is
    a vertex, counted by the excursion DP."""
    return _unwrap(tally(kg, n, "reduction", budget=budget), f"moment n={n}")


def balance_moment(kg: KernelGraph, n: int, budget: int | None = ENUM_BUDGET) -> DiagonalElement:
    """The balance-condition count (loop words with zero balance vector).
    Diagnostic: agrees with moment on some graphs, not all."""
    return _unwrap(tally(kg, n, "balance", budget=budget), f"balance n={n}")


def joint_moment(
    kg: KernelGraph, indices, budget: int | None = ENUM_BUDGET
) -> DiagonalElement:
    """Joint moment for an index tuple: the admissible words whose j-th
    letter carries label indices[j] and which reduce to a vertex,
    counted by the weighted excursion DP on the letter weights of
    T_indices[j] (edge_sum); budget caps its transitions."""
    indices = tuple(indices)
    _check_indices(kg, indices)
    counts, truncated = _kernel.closed_by_interval(kg, [edge_sum(kg, k) for k in indices], budget)
    diag = _diagonal(kg, counts)
    if truncated:
        raise BudgetExceededError(f"joint moment {indices}: DP budget exhausted", partial=diag)
    return diag


def _check_indices(kg: KernelGraph, indices) -> None:
    if not indices:
        raise ValueError("index tuple must be nonempty")
    for k in indices:
        if k == 0 or abs(k) > kg.max_label:
            raise ValueError(f"label index {k} out of range for N={kg.max_label}")


# ---------------------------------------------------------------------------
# Cumulants


def edge_sum(kg: KernelGraph, k: int) -> tuple:
    """T_k as letter weights, one per signed edge of kg: 1 on each
    signed edge labeled k, 0 elsewhere."""
    return tuple(int(label == k) for label in kg.labels)


def total_sum(kg: KernelGraph) -> tuple:
    """T_G as letter weights: 1 on every signed edge."""
    return (1,) * kg.n_signed


def _right_mult(tables):
    """The product of nested(): a diagonal d (a per-vertex list, the
    value of a closed block) multiplies letter weights x from the right,
    so x[e] picks up d at the target of e; at the outermost level two
    diagonals multiply pointwise."""

    def multiply(x, d):
        if isinstance(x, list):
            return list(map(mul, x, d))
        return tuple(map(mul, x, map(d.__getitem__, tables.dst)))

    return multiply


def _diagonal(kg: KernelGraph, counts) -> DiagonalElement:
    # the vertices are sorted and distinct: no merge and no sort needed
    return DiagonalElement(tuple((v, c) for v, c in zip(kg.vertices, counts) if c))


def expectation_pi(
    kg: KernelGraph, pi: NoncrossingPartition, operands, memo=None
) -> DiagonalElement:
    """Partition-dependent expectation E_pi of letter-weight operands:
    each block, with the values of the blocks nested in it multiplied
    in, closes with the weighted excursion DP (the closed walks from
    each vertex, weighted by the product of their letters' weights).
    memo: a dict of block closes keyed by the block's weights, shared
    between calls on the same kg."""

    def close(weights):
        if memo is None:
            return _kernel.closed_by_interval(kg, weights)[0]
        key = tuple(weights)
        if key not in memo:
            memo[key] = _kernel.closed_by_interval(kg, weights)[0]
        return memo[key]

    operands = [tuple(x) for x in operands]
    return _diagonal(kg, nested(pi, operands, close, _right_mult(kg)))


def _moebius_row(n: int) -> list:
    """(pi, mu(pi, 1_n)) for every pi in NC(n) whose blocks all have
    even size, through this module's enumerate_nc and moebius.  The
    other pi add nothing to a Moebius sum of E_pi: a word reduces to a
    vertex only when each letter meets its inverse, so a block of odd
    size closes to 0.  Empty for odd n."""
    return [(pi, moebius(pi)) for pi in enumerate_nc(n, even=True)]


def cumulant_of(kg: KernelGraph, operands, row=None, memo=None) -> DiagonalElement:
    """Joint free cumulant of letter-weight operands by Moebius
    inversion: sum over pi of mu(pi, 1_n) E_pi(...).  The oracle of
    closed_form_cumulant, and the route of check_freeness.
    row: the (pi, mu) pairs to sum over, when the caller holds them;
    by default the pi in NC(n) with only even blocks, since E_pi is 0
    for the others (see _moebius_row).
    memo: block closes shared with other calls (see expectation_pi);
    by default, one memo for this call."""
    operands = list(operands)
    if row is None:
        row = _moebius_row(len(operands))
    if memo is None:
        memo = {}
    index = {v: i for i, v in enumerate(kg.vertices)}
    acc = [0] * len(index)
    for pi, mu in row:
        for v, c in expectation_pi(kg, pi, operands, memo).coeffs:
            acc[index[v]] += mu * c
    return _diagonal(kg, acc)


def _closed_form(tables, operands) -> list:
    """Free cumulant of letter-weight operands, per vertex.  The edge
    operators are free over the diagonal, and each pair of a signed
    edge e and its inverse is a Haar partial isometry, so for n = 2m
    only the words e, inv(e), e, ... survive, each with the Haar
    unitary cumulant (-1)^(m-1) C_(m-1):

        k(x_1..x_n)_v = (-1)^(m-1) C_(m-1) sum_{e in out(v)}
                        prod_{j odd} x_j[e] prod_{j even} x_j[inv e],

    and every odd cumulant is 0."""
    n = len(operands)
    counts = [0] * tables.n_vertices
    if n % 2:
        return counts
    odd, even = operands[0::2], operands[1::2]
    for e, f in enumerate(tables.inv):
        counts[tables.src[e]] += prod(x[e] for x in odd) * prod(x[f] for x in even)
    weight = haar(n // 2)
    return [weight * c for c in counts]


def closed_form_cumulant(kg: KernelGraph, operands) -> DiagonalElement:
    """Joint free cumulant of letter-weight operands in closed form:
    O(n |E|) work, no noncrossing partition enumerated.  The primary
    route of cumulant_direct and joint_cumulant."""
    return _diagonal(kg, _closed_form(kg, list(operands)))


def cumulant_direct(kg: KernelGraph, n: int) -> DiagonalElement:
    """k_n(T_G, ..., T_G) in closed form: outdeg(v) (-1)^(m-1) C_(m-1)
    for n = 2m.  Orders past ORDER_BUDGET raise BudgetExceededError."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ORDER_BUDGET:
        raise BudgetExceededError(
            f"n={n} exceeds the cumulant order budget {ORDER_BUDGET}"
        )
    return closed_form_cumulant(kg, [total_sum(kg)] * n)


def joint_cumulant(kg: KernelGraph, indices) -> DiagonalElement:
    """Joint cumulant with per-position operators T_{indices[j]}, in
    closed form."""
    indices = tuple(indices)
    _check_indices(kg, indices)
    return closed_form_cumulant(kg, [edge_sum(kg, k) for k in indices])


def _balanced_row(row, codes) -> list:
    """The (pi, mu) of row whose blocks each sum their positions' codes
    to 0.  A block closes to a nonzero value only when its letters
    reduce to a vertex, so each letter meets its inverse: when a letter
    and its inverse carry opposite codes, the other pi add exactly 0 to
    a Moebius sum of E_pi."""
    return [
        (pi, mu) for pi, mu in row if not any(sum(codes[i - 1] for i in b) for b in pi.blocks)
    ]


def _mu_w(kg: KernelGraph, word, row, memo) -> int:
    """mu_w of a word of signed-edge indices, summed over the pi of row
    that are balanced in its first letter (coded 1) and that letter's
    inverse (coded -1)."""
    first, back = word[0], kg.inv[word[0]]
    codes = [1 if s == first else -1 if s == back else 0 for s in word]
    letters = [tuple(int(t == s) for t in range(kg.n_signed)) for s in word]
    k = cumulant_of(kg, letters, row=_balanced_row(row, codes), memo=memo)
    return k.as_dict().get(kg.vertices[kg.src[first]], 0)


def cumulant_via_wc(
    kg: KernelGraph, n: int, budget: int | None = ENUM_BUDGET
) -> DiagonalElement:
    """k_n(T_G, ..., T_G) by the word-set formula: single-base-edge loop
    words reducing to a vertex, each weighted by mu_w.  An oracle of
    cumulant_direct: `cumulants --formula both` reports whether the two
    agree.

    The words are tuples of signed-edge indices, walked base edge by
    base edge in lexicographic order, one unit of budget each: in the
    layout of _kernel.KernelGraph, base edge i signs as 2i (forward)
    and 2i + 1 (shadow, its inverse); every word over the two is a
    loop word when the edge is a loop, otherwise only the two
    alternating words are.  No loop word of odd length reduces, so
    odd n is 0 at once.  At even n the Moebius row of the even-block
    partitions (see _moebius_row) is built before any word, so past
    NC_BUDGET the route stops there.  The letters of a word are one
    edge and its inverse, so mu_w depends only on which letters equal
    the first one and on whether the edge is a loop: it is computed
    once per such pattern."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2:
        return DiagonalElement.zero()
    row = _moebius_row(n)
    acc = [0] * kg.n_vertices
    seen = 0
    memo: dict = {}
    weight: dict = {}
    for fwd in range(0, kg.n_signed, 2):
        pair = (fwd, fwd + 1)
        loop = kg.src[fwd] == kg.dst[fwd]
        words = (
            itertools.product(pair, repeat=n) if loop
            else (pair * (n // 2), pair[::-1] * (n // 2))
        )
        for w in words:
            seen += 1
            if budget is not None and seen > budget:
                raise BudgetExceededError(
                    "cumulant_via_wc: enumeration budget exhausted",
                    partial=_diagonal(kg, acc),
                )
            # over one generator the reduced word is e^(#e - #inv e), so
            # the word reduces to a vertex exactly when the counts match
            if 2 * w.count(fwd) == n:
                key = (tuple(s == w[0] for s in w), loop)
                if key not in weight:
                    weight[key] = _mu_w(kg, w, row, memo)
                acc[kg.src[w[0]]] += weight[key]
    return _diagonal(kg, acc)


def _k_pi(tables, pi: NoncrossingPartition, operands) -> list:
    """Partition-dependent cumulant, as a per-vertex list: like E_pi,
    but each block closes with the closed-form cumulant instead of an
    expectation."""
    return nested(pi, operands, partial(_closed_form, tables), _right_mult(tables))


def moment_via_cumulants(kg: KernelGraph, n: int) -> DiagonalElement:
    """Reconstruct E(T_G^n) as the sum over NC(n) of the
    partition-dependent cumulants (the inversion identity)."""
    x = total_sum(kg)
    acc = [0] * kg.n_vertices
    for pi in enumerate_nc(n):
        acc = list(map(add, acc, _k_pi(kg, pi, [x] * n)))
    return _diagonal(kg, acc)


# ---------------------------------------------------------------------------
# Freeness


class FreenessReport(Value):
    __slots__ = (
        "families",
        "max_n",
        "tuples_checked",
        "max_abs_coefficient",
        "nonzero",  # ((indices, DiagonalElement), ...) capped
        "families_diagram_distinct",
    )

    @property
    def free_to_order(self) -> bool:
        return self.max_abs_coefficient == 0


def check_freeness(kg: KernelGraph, k1: int, k2: int, max_n: int = 4) -> FreenessReport:
    """Mixed joint cumulants between the families {T_k1, T_-k1} and
    {T_k2, T_-k2}, all orders 2..max_n, with letters from both families.
    A zero maximum confirms freeness over the diagonal to that order.
    Also reports the diagram-distinctness of the two edge families (the
    sufficient condition on the graph side).

    Only terms that are exactly 0 are skipped.  A block of pi closes to
    a nonzero value only when its letters reduce to a vertex, so each
    letter meets its inverse, whose label is the negation: the block
    holds as many letters of each label k as of -k.  So a tuple with
    unbalanced label counts has every E_pi = 0 and is not summed (it
    still counts in tuples_checked), and a balanced tuple sums only the
    pi of the even-block row whose blocks are all balanced."""
    if k1 == k2:
        raise ValueError("families must be distinct")
    for k in (k1, k2):
        if not 1 <= k <= kg.max_label:
            raise ValueError(f"family index {k} out of range 1..{kg.max_label}")
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    # up front: the orders below max_n would otherwise all run first
    ncpartitions.check_nc_budget(max_n)
    alphabet = (k1, -k1, k2, -k2)
    weights = {k: edge_sum(kg, k) for k in alphabet}
    memo: dict = {}
    checked = 0
    max_abs = 0
    nonzero = []
    # letters hold as many k1 as -k1 and as many k2 as -k2 exactly when
    # their codes sum to 0: fewer than max_n + 1 letters carry k1 or -k1
    code = {k1: 1, -k1: -1, k2: max_n + 1, -k2: -(max_n + 1)}
    for n in range(2, max_n + 1):
        row = _moebius_row(n)
        for idx in itertools.product(alphabet, repeat=n):
            if {abs(i) for i in idx} != {k1, k2}:
                continue
            checked += 1
            codes = [code[k] for k in idx]
            if sum(codes):  # an unbalanced tuple: every E_pi is 0
                continue
            balanced = _balanced_row(row, codes)
            # the Moebius route, not the closed form: this sum is the
            # evidence that the mixed cumulants vanish
            operands = [weights[k] for k in idx]
            val = cumulant_of(kg, operands, row=balanced, memo=memo)
            if not val.is_zero:
                if len(nonzero) < NONZERO_CAP:
                    nonzero.append((idx, val))
                max_abs = max(max_abs, val.max_abs())
    return FreenessReport(
        families=(k1, k2),
        max_n=max_n,
        tuples_checked=checked,
        max_abs_coefficient=max_abs,
        nonzero=tuple(nonzero),
        # each base edge carries one |label|, so no letter of one family
        # shares a base edge with, or inverts, a letter of the other
        families_diagram_distinct=True,
    )
