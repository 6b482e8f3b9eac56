"""Diagonal-valued moments and free cumulants of labeling operators.

Values live in the diagonal algebra: finite integer maps vertex ->
coefficient.  Moments count admissible words that freely reduce to a
vertex (the reduction characterization) with the excursion DP of
_kernel; word enumeration (w_m_set) stays as a cross-check.
Cumulants come from Moebius inversion over noncrossing partitions.
Their operands are letter weights (one integer per signed edge), and
each nested expectation E_pi closes its blocks with the same excursion
DP, weighted, so no product of groupoid elements is ever formed.  The
word-set route (single-base-edge loop words weighted by mu_w) is
computed alongside and compared, never trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from . import _kernel, groupoid, ncpartitions
from .errors import BudgetExceededError
from .groupoid import ReducedPath, Vertex, diagram_distinct, reduce_word
from .labeling import LabeledGraph, theta
from .ncpartitions import NoncrossingPartition, enumerate_nc, moebius, nested

ENUM_BUDGET = 10_000_000


@dataclass(frozen=True)
class DiagonalElement:
    """Exact element of the diagonal algebra: vertex -> coefficient,
    zero coefficients dropped."""

    coeffs: tuple  # tuple[(vertex, int), ...] sorted

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

    @staticmethod
    def unit(v: str) -> "DiagonalElement":
        return DiagonalElement(((v, 1),))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

    def __add__(self, other: "DiagonalElement") -> "DiagonalElement":
        return DiagonalElement.of(list(self.coeffs) + list(other.coeffs))

    def scale(self, c: int) -> "DiagonalElement":
        return DiagonalElement.of((v, c * x) for v, x in self.coeffs)

    def __mul__(self, other: "DiagonalElement") -> "DiagonalElement":
        rhs = other.as_dict()
        return DiagonalElement.of(
            (v, c * rhs[v]) for v, c in self.coeffs if v in rhs
        )

    def max_abs(self) -> int:
        return max((abs(c) for _, c in self.coeffs), default=0)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Diagonal(0)"
        return "Diagonal(" + ", ".join(f"{v}: {c}" for v, c in self.coeffs) + ")"


@dataclass(frozen=True)
class TallyResult:
    diagonal: DiagonalElement
    words: int
    truncated: bool


@dataclass(frozen=True)
class WordSetReport:
    n: int
    mode: str
    words: tuple
    tallies: DiagonalElement

    @property
    def count(self) -> int:
        return len(self.words)


def expectation_of_word(w) -> DiagonalElement:
    """E on a single word: unit mass at the vertex it reduces to, zero
    otherwise."""
    r = reduce_word(tuple(w))
    if isinstance(r, Vertex):
        return DiagonalElement.unit(r.v)
    return DiagonalElement.zero()


def _qualifies(word, mode: str, lg: LabeledGraph) -> str | None:
    """The tally vertex when the word qualifies under the given mode."""
    if mode == "reduction":
        r = reduce_word(word)
        return r.v if isinstance(r, Vertex) else None
    if mode == "balance":
        if word[0].src != word[-1].dst:
            return None
        bal = theta(lg.label(s) for s in word)
        return word[0].src if bal.is_zero else None
    raise ValueError(f"unknown mode {mode!r}")


def w_m_set(
    lg: LabeledGraph,
    n: int,
    mode: str = "reduction",
    budget: int | None = ENUM_BUDGET,
) -> WordSetReport:
    """The qualifying length-n words themselves, with per-vertex tallies.
    Diagnostic route: plain Python enumeration, no kernel."""
    words = []
    tally: dict[str, int] = {}
    seen = 0
    for w in groupoid.enumerate_admissible_words(lg.shadowed, n):
        seen += 1
        if budget is not None and seen > budget:
            raise BudgetExceededError(
                f"word set n={n}: enumeration budget exhausted",
                partial=WordSetReport(n, mode, tuple(words), DiagonalElement.of(tally)),
            )
        v = _qualifies(w, mode, lg)
        if v is not None:
            words.append(w)
            tally[v] = tally.get(v, 0) + 1
    return WordSetReport(n, mode, tuple(words), DiagonalElement.of(tally))


def tally(
    lg: LabeledGraph,
    n: int,
    mode: str = "reduction",
    pattern=None,
    budget: int | None = ENUM_BUDGET,
) -> TallyResult:
    """Tally of qualifying length-n words by vertex, from the moment
    engine in _kernel; budget caps its DP transitions."""
    kg = _kernel.kernel_graph(lg)
    counts, words, truncated = _kernel.tally_words(
        kg, n, mode, pattern=pattern, budget=budget
    )
    vs = lg.graph.vertices
    diag = DiagonalElement.of((vs[i], c) for i, c in enumerate(counts))
    return TallyResult(diag, words, truncated)


def _unwrap(result: TallyResult, what: str) -> DiagonalElement:
    if result.truncated:
        raise BudgetExceededError(f"{what}: DP budget exhausted", partial=result)
    return result.diagonal


def moment(lg: LabeledGraph, n: int, budget: int | None = ENUM_BUDGET) -> DiagonalElement:
    """E(T_G^n): the admissible length-n words whose free reduction is
    a vertex, counted by the excursion DP."""
    return _unwrap(tally(lg, n, "reduction", budget=budget), f"moment n={n}")


def balance_moment(lg: LabeledGraph, n: int, budget: int | None = ENUM_BUDGET) -> DiagonalElement:
    """The balance-condition count (loop words with zero balance vector).
    Diagnostic: agrees with moment on some graphs, not all."""
    return _unwrap(tally(lg, n, "balance", budget=budget), f"balance n={n}")


def joint_moment(
    lg: LabeledGraph, indices, budget: int | None = ENUM_BUDGET
) -> DiagonalElement:
    """Joint moment for an index tuple: tally admissible words whose
    j-th letter carries label indices[j] and which reduce to a vertex."""
    indices = tuple(indices)
    _check_indices(lg, indices)
    return _unwrap(
        tally(lg, len(indices), "reduction", pattern=indices, budget=budget),
        f"joint moment {indices}",
    )


def _check_indices(lg: LabeledGraph, indices) -> None:
    if not indices:
        raise ValueError("index tuple must be nonempty")
    for k in indices:
        if k == 0 or abs(k) > lg.max_label:
            raise ValueError(f"label index {k} out of range for N={lg.max_label}")


# ---------------------------------------------------------------------------
# Cumulants


def edge_sum(lg: LabeledGraph, k: int) -> tuple:
    """T_k as letter weights, indexed like lg.shadowed.signed_edges: 1 on
    each signed edge labeled k, 0 elsewhere."""
    return tuple(int(lg.label(s) == k) for s in lg.shadowed.signed_edges)


def total_sum(lg: LabeledGraph) -> tuple:
    """T_G as letter weights: 1 on every signed edge."""
    return (1,) * len(lg.shadowed.signed_edges)


def _right_mult(tables):
    """The product of nested(): a diagonal d (a per-vertex list, the
    value of a closed block) multiplies letter weights x from the right,
    so x[e] picks up d at the target of e; at the outermost level two
    diagonals multiply pointwise."""

    def multiply(x, d):
        if isinstance(x, list):
            return list(map(mul, x, d))
        return tuple(w * d[v] for w, v in zip(x, tables.dst))

    return multiply


def _diagonal(lg: LabeledGraph, counts) -> DiagonalElement:
    return DiagonalElement.of(zip(lg.graph.vertices, counts))


def expectation_pi(
    lg: LabeledGraph, pi: NoncrossingPartition, operands, tables=None
) -> DiagonalElement:
    """Partition-dependent expectation E_pi of letter-weight operands:
    each block, with the values of the blocks nested in it multiplied
    in, closes with the weighted excursion DP (the closed walks from
    each vertex, weighted by the product of their letters' weights).
    tables: lg's _kernel.signed_tables, when the caller holds them."""
    if tables is None:
        tables = _kernel.signed_tables(lg.shadowed)
    unlimited = _kernel._Budget(None)

    def close(weights):
        return _kernel._closed_by_interval(tables, weights, unlimited)[0]

    operands = [tuple(x) for x in operands]
    return _diagonal(lg, nested(pi, operands, close, _right_mult(tables)))


def cumulant_of(
    lg: LabeledGraph, operands, nc_budget: int = ncpartitions.NC_BUDGET
) -> DiagonalElement:
    """Joint free cumulant of letter-weight operands by Moebius
    inversion: sum over pi of mu(pi, 1_n) E_pi(...)."""
    operands = list(operands)
    tables = _kernel.signed_tables(lg.shadowed)
    acc = DiagonalElement.zero()
    for pi in enumerate_nc(len(operands), nc_budget):
        acc = acc + expectation_pi(lg, pi, operands, tables).scale(moebius(pi))
    return acc


def cumulant_direct(
    lg: LabeledGraph, n: int, nc_budget: int = ncpartitions.NC_BUDGET
) -> DiagonalElement:
    """k_n(T_G, ..., T_G) via Moebius inversion over NC(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return cumulant_of(lg, [total_sum(lg)] * n, nc_budget)


def joint_cumulant(
    lg: LabeledGraph, indices, nc_budget: int = ncpartitions.NC_BUDGET
) -> DiagonalElement:
    """Joint cumulant with per-position operators T_{indices[j]}."""
    indices = tuple(indices)
    _check_indices(lg, indices)
    return cumulant_of(lg, [edge_sum(lg, k) for k in indices], nc_budget)


def mu_w(lg: LabeledGraph, word) -> int:
    """The cumulant weight of a vertex-reducing word: the Moebius sum
    over the noncrossing partitions each of whose blocks, its letters
    read in order, reduces to a vertex.  These are exactly the
    partitions whose nested expectation of the letters reproduces E of
    the whole word (a nonzero unit mass)."""
    word = tuple(word)
    if expectation_of_word(word).is_zero:
        raise ValueError("mu_w requires a word that reduces to a vertex")
    return sum(
        moebius(pi)
        for pi in enumerate_nc(len(word))
        if all(
            isinstance(reduce_word(tuple(word[x - 1] for x in b)), Vertex)
            for b in pi.blocks
        )
    )


def cumulant_via_wc(
    lg: LabeledGraph, n: int, budget: int | None = ENUM_BUDGET
) -> DiagonalElement:
    """k_n(T_G, ..., T_G) by the word-set formula: single-base-edge loop
    words reducing to a vertex, each weighted by mu_w.  Compared against
    cumulant_direct by cumulant_comparison, never silently trusted."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc: dict[str, int] = {}
    seen = 0
    for w in groupoid.d_loop_words(lg.shadowed, n):
        seen += 1
        if budget is not None and seen > budget:
            raise BudgetExceededError(
                "cumulant_via_wc: enumeration budget exhausted",
                partial=DiagonalElement.of(acc),
            )
        r = reduce_word(w)
        if isinstance(r, Vertex):
            acc[r.v] = acc.get(r.v, 0) + mu_w(lg, w)
    return DiagonalElement.of(acc)


def cumulant_comparison(lg: LabeledGraph, n: int) -> dict:
    """Both cumulant routes side by side, with their disagreement."""
    direct = cumulant_direct(lg, n)
    wc = cumulant_via_wc(lg, n)
    diff = direct + wc.scale(-1)
    return {"direct": direct, "wc": wc, "equal": diff.is_zero, "diff": diff}


def _k_pi(lg: LabeledGraph, tables, pi: NoncrossingPartition, operands) -> list:
    """Partition-dependent cumulant, as a per-vertex list: like E_pi,
    but each block closes with a cumulant instead of an expectation."""

    def close(weights):
        k = cumulant_of(lg, weights).as_dict()
        return [k.get(v, 0) for v in lg.graph.vertices]

    return nested(pi, operands, close, _right_mult(tables))


def moment_via_cumulants(lg: LabeledGraph, n: int) -> DiagonalElement:
    """Reconstruct E(T_G^n) as the sum over NC(n) of the
    partition-dependent cumulants (the inversion identity)."""
    tables = _kernel.signed_tables(lg.shadowed)
    x = total_sum(lg)
    acc = DiagonalElement.zero()
    for pi in enumerate_nc(n):
        acc = acc + _diagonal(lg, _k_pi(lg, tables, pi, [x] * n))
    return acc


# ---------------------------------------------------------------------------
# Freeness


@dataclass(frozen=True)
class FreenessReport:
    families: tuple
    max_n: int
    tuples_checked: int
    max_abs_coefficient: int
    nonzero: tuple  # ((indices, DiagonalElement), ...) capped
    families_diagram_distinct: bool

    @property
    def free_to_order(self) -> bool:
        return self.max_abs_coefficient == 0


def check_freeness(
    lg: LabeledGraph, k1: int, k2: int, max_n: int = 4, nonzero_cap: int = 16
) -> FreenessReport:
    """Mixed joint cumulants between the families {T_k1, T_-k1} and
    {T_k2, T_-k2}, all orders 2..max_n, with letters from both families.
    A zero maximum confirms freeness over the diagonal to that order.
    Also reports the diagram-distinctness of the two edge families (the
    sufficient condition on the graph side)."""
    if k1 == k2:
        raise ValueError("families must be distinct")
    for k in (k1, k2):
        if not 1 <= k <= lg.max_label:
            raise ValueError(f"family index {k} out of range 1..{lg.max_label}")
    # every tuple is built before the first cumulant: check first
    ncpartitions.check_nc_budget(max_n)
    alphabet = (k1, -k1, k2, -k2)

    def mixed(indices):
        fams = {abs(i) for i in indices}
        return fams == {k1, k2}

    todo = [
        idx
        for n in range(2, max_n + 1)
        for idx in itertools.product(alphabet, repeat=n)
        if mixed(idx)
    ]
    max_abs = 0
    nonzero = []
    for idx in todo:
        val = joint_cumulant(lg, idx)
        if not val.is_zero:
            if len(nonzero) < nonzero_cap:
                nonzero.append((idx, val))
            max_abs = max(max_abs, val.max_abs())
    fam1 = [ReducedPath((s,)) for k in (k1, -k1) for s in lg.signed_with_label(k)]
    fam2 = [ReducedPath((s,)) for k in (k2, -k2) for s in lg.signed_with_label(k)]
    distinct = all(diagram_distinct(a, b) for a in fam1 for b in fam2)
    return FreenessReport(
        families=(k1, k2),
        max_n=max_n,
        tuples_checked=len(todo),
        max_abs_coefficient=max_abs,
        nonzero=tuple(nonzero),
        families_diagram_distinct=distinct,
    )
