import pytest

from groupoidlab import _kernel
from groupoidlab.errors import BudgetExceededError
from groupoidlab.fixtures import FIXTURES, fixture
from groupoidlab.graphs import GraphError, shadow
from groupoidlab.labeling import MODE_EXPLICIT, MODE_VERTEX, assign_weights
from groupoidlab.operators import (
    SparseOperator,
    build_basis,
    labeling_operator,
    level_sizes,
    oracle_expectation_power,
    total_labeling_operator,
)

from paper import (
    EMPTY,
    ReducedPath,
    Vertex,
    basis_elements,
    basis_index,
    concat,
    inverse,
    right_mult,
    signed_by_name,
    signed_edges,
)


def labeled(name):
    f = fixture(name)
    mode = MODE_EXPLICIT if f.labels else MODE_VERTEX
    return assign_weights(shadow(f.graph), mode, f.labels)


def test_basis_one_loop_l3():
    lg = labeled("one-loop")
    b = build_basis(lg, 3)
    assert len(b) == 7
    lengths = sorted(
        0 if isinstance(a, Vertex) else len(a.word) for a in basis_elements(lg, b)
    )
    assert lengths == [0, 1, 1, 2, 2, 3, 3]


def test_basis_l0_vertices_only():
    lg = labeled("example-6-2")
    b = build_basis(lg, 0)
    assert len(b) == 3
    assert all(isinstance(a, Vertex) for a in basis_elements(lg, b))


def test_basis_two_loop_l2():
    b = build_basis(labeled("two-loop"), 2)
    assert len(b) == 17  # 1 + 4 + 12


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_basis_order_by_length_and_index_sequence(name):
    lg = labeled(name)
    g = lg.graph
    b = build_basis(lg, 4)
    rank = {s: i for i, s in enumerate(signed_edges(g))}

    def key(a):
        if isinstance(a, Vertex):
            return (0, (g.vertices.index(a.v),))
        return (len(a.word), tuple(rank[s] for s in a.word))

    keys = [key(a) for a in basis_elements(lg, b)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(b) == len(basis_index(lg, b))
    assert b.n_vertices == len(g.vertices)


def right_mult_by_concat(lg, w, basis, elements, index):
    """Reference right multiplication: each basis element times w by
    concat, located through the basis index."""
    op = SparseOperator(len(basis))
    for j, a in enumerate(elements):
        t = concat(a, w)
        if t is not EMPTY and t in index:
            op.cols[j][index[t]] = 1
    return op


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_right_mult_trie_walk_matches_concat(name):
    lg = labeled(name)
    g = lg.graph
    b = build_basis(lg, 4)
    elements, index = basis_elements(lg, b), basis_index(lg, b)
    factors = [a for a in elements if isinstance(a, Vertex) or len(a.word) <= 3]
    assert len(factors) >= len(g.vertices) + len(signed_edges(g))
    for w in factors:
        assert right_mult(lg, w, b) == right_mult_by_concat(lg, w, b, elements, index), w


def test_basis_closed_under_inverse():
    lg = labeled("example-6-2")
    b = build_basis(lg, 3)
    index = basis_index(lg, b)
    for a in index:
        assert inverse(a) in index


def test_basis_budget():
    with pytest.raises(BudgetExceededError):
        build_basis(labeled("three-loop"), 8, budget=100)


def built_level_sizes(lg, basis, max_len):
    """The number of basis elements of each length 1..max_len."""
    lengths = [0 if isinstance(a, Vertex) else len(a.word) for a in basis_elements(lg, basis)]
    return [lengths.count(ell) for ell in range(1, max_len + 1)]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_counted_level_sizes_match_the_built_levels(name):
    lg = labeled(name)
    sizes = level_sizes(lg, 6)
    # counting stops at the first empty length: every longer one is empty
    assert sizes + [0] * (6 - len(sizes)) == built_level_sizes(lg, build_basis(lg, 6), 6)
    assert all(sizes)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_basis_budget_boundary(name):
    lg = labeled(name)
    for max_len in range(1, 6):
        basis = build_basis(lg, max_len)
        size = len(basis)
        assert len(build_basis(lg, max_len, budget=size)) == size
        # one element fewer is refused at the last nonempty length
        sizes = built_level_sizes(lg, basis, max_len)
        longest = max(ell for ell, k in enumerate(sizes, 1) if k)
        with pytest.raises(BudgetExceededError) as exc:
            build_basis(lg, max_len, budget=size - 1)
        assert str(exc.value) == f"basis exceeds budget {size - 1} at length {longest}"


def test_over_budget_basis_is_refused_before_any_level_is_built(monkeypatch):
    # the levels are built from KernelGraph.out; the count never calls it
    def out(self, v):
        raise AssertionError("a level was built")

    monkeypatch.setattr(_kernel.KernelGraph, "out", out)
    t = labeled("three-loop")
    with pytest.raises(BudgetExceededError, match="^basis exceeds budget 100000 at length 7$"):
        build_basis(t, 8)


def test_vertex_projection_idempotent_selfadjoint():
    lg = labeled("example-6-2")
    b = build_basis(lg, 3)
    for v in lg.graph.vertices:
        p = right_mult(lg, Vertex(v), b)
        assert p @ p == p
        assert p.transpose() == p


def test_partial_isometry_identity_on_safe_columns():
    lg = labeled("example-6-2")
    L = 4
    b = build_basis(lg, L)
    for s in signed_edges(lg.graph):
        w = ReducedPath((s,))
        r = right_mult(lg, w, b)
        rs = right_mult(lg, inverse(w), b)  # adjoint
        assert r.transpose() == rs
        prod = r @ rs @ r
        for j, a in enumerate(basis_elements(lg, b)):
            length = 0 if isinstance(a, Vertex) else len(a.word)
            if length <= L - 3:
                assert prod.cols[j] == r.cols[j], f"column {a}"


def test_product_rule_matches_concat():
    lg = labeled("circulant-3")
    L = 5
    b = build_basis(lg, L)
    g = lg.graph
    e1 = ReducedPath((signed_by_name(g, "e1"),))  # v1 -> v2
    e2 = ReducedPath((signed_by_name(g, "e2"),))  # v2 -> v3
    # R_{w1} R_{w2} = R_{w2 w1} away from the truncation boundary
    lhs = right_mult(lg, e2, b) @ right_mult(lg, e1, b)
    rhs = right_mult(lg, concat(e1, e2), b)
    for j, a in enumerate(basis_elements(lg, b)):
        length = 0 if isinstance(a, Vertex) else len(a.word)
        if length <= L - 2:
            assert lhs.cols[j] == rhs.cols[j]
    # non-composable symbols multiply to zero
    assert concat(e2, e1) is EMPTY
    zero = right_mult(lg, e1, b) @ right_mult(lg, e2, b)
    assert all(not col for col in zero.cols)


def test_column_sparsity():
    lg = labeled("example-6-2")
    b = build_basis(lg, 3)
    for s in signed_edges(lg.graph):
        r = right_mult(lg, ReducedPath((s,)), b)
        assert all(len(col) <= 1 for col in r.cols)
        assert all(v == 1 for col in r.cols for v in col.values())


def right_mult_sum(lg, signed, basis):
    """The entry-wise sum of the right multiplications by the given
    signed edges."""
    total = SparseOperator(len(basis))
    for s in signed:
        op = right_mult(lg, ReducedPath((s,)), basis)
        for col, add in zip(total.cols, op.cols):
            for r, v in add.items():
                col[r] = col.get(r, 0) + v
    return total


def test_labeling_operator_example_6_2():
    lg = labeled("example-6-2")
    b = build_basis(lg, 3)
    g = lg.graph
    t1 = labeling_operator(lg, 1, b)
    assert t1 == right_mult_sum(lg, [signed_by_name(g, e) for e in ("e12:1", "e13:1", "e22:1")], b)
    t2 = labeling_operator(lg, 2, b)
    assert t2 == right_mult(lg, ReducedPath((signed_by_name(g, "e12:2"),)), b)
    assert total_labeling_operator(lg, b) == right_mult_sum(lg, signed_edges(g), b)


def test_labeling_operator_refuses_a_label_out_of_range():
    lg = labeled("example-6-2")
    b = build_basis(lg, 2)
    for k in (0, lg.max_label + 1, -lg.max_label - 1):
        with pytest.raises(GraphError, match="out of range"):
            labeling_operator(lg, k, b)


@pytest.mark.parametrize(
    "name", ["circulant-3", "one-loop", "two-loop", "example-6-2", "single-edge"]
)
def test_adjoint_and_selfadjointness(name):
    lg = labeled(name)
    b = build_basis(lg, 4)
    for k in range(1, lg.max_label + 1):
        assert labeling_operator(lg, k, b).transpose() == labeling_operator(lg, -k, b)
    t = total_labeling_operator(lg, b)
    assert t.transpose() == t


def test_oracle_one_loop():
    lg = labeled("one-loop")
    assert oracle_expectation_power(lg, 2, 2) == {"v": 2}


def test_oracle_example_6_2_full():
    lg = labeled("example-6-2")
    assert oracle_expectation_power(lg, 2, 2) == {"v1": 3, "v2": 4, "v3": 1}


@pytest.mark.parametrize("name", ["circulant-3", "two-loop", "example-6-2"])
def test_oracle_odd_power_zero(name):
    lg = labeled(name)
    for n in (1, 3, 5):
        assert set(oracle_expectation_power(lg, n, n).values()) <= {0}


@pytest.mark.parametrize("name", ["one-loop", "example-6-2"])
def test_oracle_truncation_stable(name):
    lg = labeled(name)
    base = oracle_expectation_power(lg, 3, 3)
    for L in (4, 5, 6):
        assert oracle_expectation_power(lg, 3, L) == base


def test_oracle_requires_max_len_ge_n():
    lg = labeled("one-loop")
    with pytest.raises(ValueError):
        oracle_expectation_power(lg, 3, 2)


def full_basis_oracle(lg, n, max_len):
    """<T_G^n xi_v, xi_v> over the whole basis of length max_len: T_G
    applied n times to the vertex columns, no path dropped early."""
    basis = build_basis(lg, max_len)
    t = total_labeling_operator(lg, basis)
    vertices = basis.vertex_positions()
    x = SparseOperator(len(basis))
    for i in vertices.values():
        x.cols[i][i] = 1
    p = t.power(n, x)
    return {v: p.entry(i, i) for v, i in vertices.items()}


def outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_half_length_oracle_matches_the_full_basis(name):
    # the oracle walks the basis of length n // 2 only; the value, and
    # a refusal of the basis of length max_len, are the full basis's
    lg = labeled(name)
    for n in range(1, 9):
        for max_len in (n, n + 2):
            expected = outcome(full_basis_oracle, lg, n, max_len)
            assert outcome(oracle_expectation_power, lg, n, max_len) == expected


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_oracle_refuses_the_declared_basis_one_element_over(name):
    lg = labeled(name)
    for n in range(1, 6):
        size = len(build_basis(lg, n))
        expected = outcome(build_basis, lg, n, size - 1)
        assert expected.startswith(f"basis exceeds budget {size - 1} at length ")
        assert outcome(oracle_expectation_power, lg, n, n, size - 1) == expected


def test_oracle_charges_its_products_on_a_tree():
    # the basis of a tree is finite, so only the n products can run long
    lg = labeled("single-edge")
    assert oracle_expectation_power(lg, 6, 6, budget=6) == {"v1": 1, "v2": 1}
    with pytest.raises(BudgetExceededError, match="^n=7 products exceed the basis budget 6$"):
        oracle_expectation_power(lg, 7, 7, budget=6)
