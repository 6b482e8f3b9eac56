import itertools
import random

import pytest

from groupoidlab.graphs import Edge, shadow
from paper import (
    EMPTY,
    ReducedPath,
    SignedEdge,
    Vertex,
    concat,
    diagram,
    diagram_distinct,
    fixture,
    inverse,
    inverted,
    is_admissible,
    out_edges,
    reduce_word,
    signed_by_name,
    signed_edges,
    source,
    target,
)


def sh(name):
    return shadow(fixture(name)[0])


def enumerate_admissible_words(g, n):
    """Reference: every admissible length-n word on the shadowed graph g,
    in lexicographic signed-edge order, built letter by letter."""
    words = [(s,) for s in signed_edges(g)]
    for _ in range(n - 1):
        words = [w + (s,) for w in words for s in out_edges(g, w[-1].dst)]
    return words


def reduce_random_order(word, rng):
    """Independent canceller: repeatedly remove a random adjacent
    inverse pair.  Order-insensitivity of the result is the point."""
    if not word or not is_admissible(word):
        return EMPTY
    letters = list(word)
    while True:
        pairs = [
            i
            for i in range(len(letters) - 1)
            if letters[i] == inverted(letters[i + 1])
        ]
        if not pairs:
            break
        i = rng.choice(pairs)
        del letters[i : i + 2]
    if not letters:
        return Vertex(word[0].src)
    return ReducedPath(tuple(letters))


def random_words(g, count, max_len, rng):
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


def test_cancel_pair_gives_source_vertex():
    g = sh("single-edge")
    e = signed_by_name(g, "e1")
    assert reduce_word((e, inverted(e))) == Vertex("v1")
    assert reduce_word((inverted(e), e)) == Vertex("v2")


def test_cancellation_compares_equal_but_distinct_edges():
    # a caller may build equal Edge objects that are not the same object
    x = SignedEdge(Edge("e1", "v1", "v2"))
    y = SignedEdge(Edge("e1", "v1", "v2"), True)
    assert x.edge is not y.edge
    assert reduce_word((x, y)) == Vertex("v1")
    assert reduce_word((y, x)) == Vertex("v2")
    assert concat(ReducedPath((x,)), ReducedPath((y,))) == Vertex("v1")
    # a parallel edge with the other id does not cancel
    z = SignedEdge(Edge("e2", "v1", "v2"), True)
    assert reduce_word((x, z)) == ReducedPath((x, z))
    assert concat(ReducedPath((x,)), ReducedPath((z,))) == ReducedPath((x, z))


def test_non_admissible_is_empty():
    g = sh("circulant-3")
    e1 = signed_by_name(g, "e1")  # v1 -> v2
    e3 = signed_by_name(g, "e3")  # v3 -> v1
    assert reduce_word((e1, e3)) is EMPTY
    # its letters cancel in pairs, yet the word is no walk
    assert reduce_word((e1, e3, inverted(e3), inverted(e1))) is EMPTY
    assert reduce_word(()) is EMPTY


def test_nested_cancellation():
    g = sh("example-6-2")
    e1 = signed_by_name(g, "e12:1")
    e2 = signed_by_name(g, "e22:1")
    e3 = signed_by_name(g, "e12:2")
    word = (e1, e2, inverted(e2), inverted(e1), e3)
    assert reduce_word(word) == reduce_word((e3,))


@pytest.mark.parametrize("name", ["circulant-3", "two-loop", "example-6-2"])
def test_reduce_matches_random_order_canceller(name):
    g = sh(name)
    rng = random.Random(20260808)
    for word in random_words(g, 10_000, 8, rng):
        assert reduce_word(word) == reduce_random_order(word, rng)


@pytest.mark.parametrize("name", ["circulant-3", "two-loop", "example-6-2"])
def test_reduce_idempotent(name):
    g = sh(name)
    rng = random.Random(7)
    for word in random_words(g, 2_000, 8, rng):
        r = reduce_word(word)
        if isinstance(r, ReducedPath):
            assert reduce_word(r.word) == r


def test_concat_vertex_identity():
    g = sh("circulant-3")
    e1 = signed_by_name(g, "e1")
    w = ReducedPath((e1,))
    assert concat(Vertex("v1"), w) == w
    assert concat(w, Vertex("v2")) == w
    assert concat(Vertex("v2"), w) is EMPTY
    assert concat(Vertex("v1"), Vertex("v1")) == Vertex("v1")
    assert concat(Vertex("v1"), Vertex("v2")) is EMPTY


def test_concat_with_inverse_gives_source():
    g = sh("example-6-2")
    rng = random.Random(99)
    for word in random_words(g, 1_000, 6, rng):
        a = reduce_word(word)
        if a is EMPTY or isinstance(a, Vertex):
            continue
        assert concat(a, inverse(a)) == Vertex(source(a))
        assert concat(inverse(a), a) == Vertex(target(a))


def test_concat_mismatched_endpoints_empty():
    g = sh("example-6-2")
    a = ReducedPath((signed_by_name(g, "e12:1"),))  # v1 -> v2
    b = ReducedPath((signed_by_name(g, "e13:1"),))  # v1 -> v3
    assert concat(a, b) is EMPTY
    assert concat(a, EMPTY) is EMPTY
    assert concat(EMPTY, a) is EMPTY


def test_concat_associative_on_defined_triples():
    g = sh("two-loop")
    rng = random.Random(5)
    words = list(random_words(g, 300, 4, rng))
    elems = [reduce_word(w) for w in words]
    elems = [a for a in elems if a is not EMPTY][:40]
    for a, b, c in itertools.product(elems, repeat=3):
        ab, bc = concat(a, b), concat(b, c)
        if ab is EMPTY or bc is EMPTY:
            continue
        assert concat(ab, c) == concat(a, bc)


def test_inverse_involution_and_fixed_points():
    g = sh("example-6-2")
    rng = random.Random(11)
    assert inverse(Vertex("v1")) == Vertex("v1")
    assert inverse(EMPTY) is EMPTY
    for word in random_words(g, 10_000, 8, rng):
        a = reduce_word(word)
        if a is EMPTY:
            continue
        assert inverse(inverse(a)) == a


def test_inverse_reverses_and_flips():
    g = sh("circulant-3")
    e1, e2 = signed_by_name(g, "e1"), signed_by_name(g, "e2")
    a = ReducedPath((e1, e2))
    assert inverse(a) == ReducedPath((inverted(e2), inverted(e1)))


def test_enumerate_one_loop_n2():
    g = sh("one-loop")
    e = signed_by_name(g, "e1")
    words = list(enumerate_admissible_words(g, 2))
    assert words == [
        (e, e),
        (e, inverted(e)),
        (inverted(e), e),
        (inverted(e), inverted(e)),
    ]


def test_enumerate_example_6_2_n1():
    assert len(list(enumerate_admissible_words(sh("example-6-2"), 1))) == 8


@pytest.mark.parametrize("name,n", [("circulant-3", 3), ("example-6-2", 3), ("two-loop", 4)])
def test_enumerate_count_matches_adjacency_power(name, n):
    g = sh(name)
    verts = list(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    dim = len(verts)
    adj = [[0] * dim for _ in range(dim)]
    for s in signed_edges(g):
        adj[idx[s.src]][idx[s.dst]] += 1
    power = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(n):
        power = [
            [sum(power[i][k] * adj[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
    expected = sum(sum(row) for row in power)
    assert sum(1 for _ in enumerate_admissible_words(g, n)) == expected


def test_diagram_loop_powers_share_diagram():
    g = sh("one-loop")
    e = signed_by_name(g, "e1")
    l1 = reduce_word((e,))
    l2 = reduce_word((e, e))
    assert diagram(l1) == diagram(l2)
    assert not diagram_distinct(l1, l2)


def test_diagram_distinct_base_edges():
    g = sh("two-loop")
    a = ReducedPath((signed_by_name(g, "e1"),))
    b = ReducedPath((signed_by_name(g, "e2"),))
    assert diagram_distinct(a, b)
    assert diagram_distinct(a, ReducedPath((signed_by_name(g, "~e2"),)))


def test_diagram_not_distinct_from_inverse():
    g = sh("circulant-3")
    a = ReducedPath((signed_by_name(g, "e1"), signed_by_name(g, "e2")))
    assert not diagram_distinct(a, inverse(a))


def test_diagram_empty_errors():
    with pytest.raises(ValueError):
        diagram(EMPTY)


def test_free_group_ball_sizes():
    # one-vertex-N-loop graph: reduced words of length <= L match the
    # free group F_N ball, sphere sizes 2N (2N-1)^(l-1)
    for n_loops, L in [(1, 5), (2, 4), (3, 3)]:
        g = sh(f"{['one','two','three'][n_loops-1]}-loop")
        reduced = set()
        for ell in range(1, L + 1):
            for w in enumerate_admissible_words(g, ell):
                r = reduce_word(w)
                if isinstance(r, ReducedPath):
                    reduced.add(r)
        expected = sum(
            2 * n_loops * (2 * n_loops - 1) ** (ell - 1) for ell in range(1, L + 1)
        )
        assert len(reduced) == expected
