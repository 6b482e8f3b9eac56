"""Words over signed edges, free reduction, and graph groupoid elements.

A word is a tuple of SignedEdge.  It is admissible when consecutive
endpoints match; reduction cancels adjacent (x, x~) pairs until none
remain.  A fully cancelled word collapses to the vertex it started at,
a non-admissible word to the absorbing Empty element.

These objects state the paper's definitions and back its public
checks (mu_w, the operator basis, the automaton); the word walks of the
moment layer work on signed-edge indices instead (see _kernel).
"""

from __future__ import annotations

from .errors import Value


class _EmptyElement:
    """The absorbing empty element of the groupoid (unique instance)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Empty"

    def __bool__(self) -> bool:
        return False


EMPTY = _EmptyElement()


class Vertex(Value):
    __slots__ = ("v",)

    def __repr__(self) -> str:
        return f"Vertex({self.v})"


class ReducedPath(Value):
    """A nonempty admissible word with no adjacent inverse pair."""

    __slots__ = ("word",)

    def __repr__(self) -> str:
        return "Path(" + " ".join(s.name() for s in self.word) + ")"

    def __len__(self) -> int:
        return len(self.word)


GroupoidElement = object  # Vertex | ReducedPath | _EmptyElement


def is_admissible(word) -> bool:
    if not word:
        return False
    return all(word[i].dst == word[i + 1].src for i in range(len(word) - 1))


def source(a):
    if isinstance(a, Vertex):
        return a.v
    if isinstance(a, ReducedPath):
        return a.word[0].src
    raise ValueError("Empty element has no source")


def target(a):
    if isinstance(a, Vertex):
        return a.v
    if isinstance(a, ReducedPath):
        return a.word[-1].dst
    raise ValueError("Empty element has no target")


def _cancels(s, t) -> bool:
    """Whether t is the inverse of s: the same base edge, in the other
    orientation.  Base edges compare by equality, since callers may build
    equal but distinct Edge objects; identity is only the fast path."""
    return t.inverse == (not s.inverse) and (t.edge is s.edge or t.edge == s.edge)


def reduce_word(word) -> GroupoidElement:
    """Reduce an edge word to its groupoid element.

    Non-admissible words give Empty.  Cancellation is a single stack
    pass; confluence of free reduction makes the order irrelevant
    (cross-checked by the randomized canceller in the test suite).
    """
    if not word or not is_admissible(word):
        return EMPTY
    stack = []
    for s in word:
        if stack and _cancels(s, stack[-1]):
            stack.pop()
        else:
            stack.append(s)
    if not stack:
        return Vertex(word[0].src)
    return ReducedPath(tuple(stack))


def inverse(a) -> GroupoidElement:
    """Groupoid inverse: reverse the word and flip every orientation."""
    if a is EMPTY or isinstance(a, Vertex):
        return a
    return ReducedPath(tuple(s.inverted() for s in reversed(a.word)))


def concat(a, b) -> GroupoidElement:
    """Partially defined product: Empty unless target(a) = source(b).
    Both words are reduced, so letters cancel only where they meet."""
    if a is EMPTY or b is EMPTY:
        return EMPTY
    if target(a) != source(b):
        return EMPTY
    if isinstance(a, Vertex):
        return b
    if isinstance(b, Vertex):
        return a
    x, y = a.word, b.word
    k = 0
    while k < min(len(x), len(y)) and _cancels(x[-1 - k], y[k]):
        k += 1
    word = x[: len(x) - k] + y[k:]
    return ReducedPath(word) if word else Vertex(x[0].src)


def diagram(a) -> frozenset:
    """Base-edge support of an element, orientation and multiplicity
    forgotten.  Vertices have empty support.
    """
    if a is EMPTY:
        raise ValueError("Empty element has no diagram")
    if isinstance(a, Vertex):
        return frozenset()
    return frozenset(s.base_id for s in a.word)


def diagram_distinct(a, b) -> bool:
    """Distinctness test backing the freeness criterion: the elements
    must not be mutually inverse and must have different diagrams.
    """
    if a is EMPTY or b is EMPTY:
        raise ValueError("diagram_distinct undefined on Empty")
    return a != inverse(b) and diagram(a) != diagram(b)
