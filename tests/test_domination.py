"""Accepted trees are Roman trees: gamma_R(T, X) = 2 gamma(T, X).

A member of order at least 2 has gamma_r = gamma_R and no minimum weak
Roman function uses the value 1, so every minimum Roman function takes only
the values 0 and 2, and its 2s form a least set dominating X (Cockayne,
Dreyer, Hedetniemi and Hedetniemi, "Roman domination in graphs", Discrete
Mathematics 278, 2004, call a graph with gamma_R = 2 gamma a Roman graph).
``gamma_x`` below computes gamma(T, X) by its own dynamic program, apart
from the recognizer and from ``treedp``, and the equation is checked on
accepted inputs far beyond the exhaustive oracle's cap.  It is a necessary
condition only: many non-members satisfy it too.
"""

import pytest

from strongroman.generator import random_member
from strongroman.graphs import Tree
from strongroman.recognizer import Triple, decide_in_S, triple_for_tree
from strongroman.treedp import gamma_R_tree

from conftest import subsets, trees_of_order


def gamma_x(t: Tree, x) -> int:
    """The least size of a vertex set dominating every vertex of ``x``.

    The tree dynamic program of Cockayne, Goodman and Hedetniemi, "A linear
    algorithm for the domination number of a tree", Information Processing
    Letters 4(2), 1975, with the vertices outside ``x`` free to stay
    undominated.  One pass over ``Tree.walk`` in reverse, with no
    recursion: each vertex folds what its children pushed, then pushes its
    own terms into its parent's entries.  For a vertex v of the rooted tree,
    ``taken`` is the best of its branch with v in the set, ``left`` the
    best with v outside it and v's own domination left to its parent, and
    ``settled`` the best with v outside it and dominated or outside ``x``.
    """
    parent, order = t.walk
    in_x = bytearray(t.n)
    for v in x:
        in_x[v] = 1
    taken = [1] * t.n  # 1 + the least of taken and left, per child
    left = [0] * t.n  # settled, per child
    gap = [t.n + 1] * t.n  # the least extra cost of taking a child
    for v in reversed(order):
        a, c = taken[v], left[v]
        settled = min(a, c + gap[v] if in_x[v] else c)
        p = parent[v]
        taken[p] += min(a, c)
        left[p] += settled
        gap[p] = min(gap[p], a - settled)
    # the root comes last; it has no parent to lean on
    return settled


def brute_gamma_x(t: Tree, xs) -> list[int]:
    """gamma(T, X) for each X in ``xs``, over every vertex set."""
    closed = [1 << v for v in range(t.n)]
    for a, b in t.edges:
        closed[a] |= 1 << b
        closed[b] |= 1 << a
    dominated = [0] * (1 << t.n)  # per vertex set, as a bit mask: what it dominates
    for d in range(1, 1 << t.n):
        low = d & -d
        dominated[d] = dominated[d ^ low] | closed[low.bit_length() - 1]
    wants = [sum(1 << v for v in x) for x in xs]
    return [min(d.bit_count() for d, m in enumerate(dominated) if want & ~m == 0) for want in wants]


def test_matches_brute_force_every_x_up_to_order_7():
    for n in range(1, 8):
        for t in trees_of_order(n):
            xs = list(subsets(n))
            assert [gamma_x(t, x) for x in xs] == brute_gamma_x(t, xs)


def test_matches_brute_force_every_tree_up_to_order_10():
    for n in range(8, 11):
        for t in trees_of_order(n):
            assert gamma_x(t, range(n)) == brute_gamma_x(t, [range(n)])[0]


def _caterpillar(leaves) -> Tree:
    """A spine 0 .. k-1 with ``leaves[i]`` leaves on spine vertex i."""
    n = len(leaves)
    edges = [(i, i + 1) for i in range(n - 1)]
    for i, count in enumerate(leaves):
        edges += [(i, n + j) for j in range(count)]
        n += count
    return Tree(n, edges)


def _star(k: int) -> Tree:
    """K_{1,k}: the spider with k legs of length 1."""
    return Tree(k + 1, [(0, i) for i in range(1, k + 1)])


def _assert_roman(tr: Triple) -> None:
    ok, _ = decide_in_S(tr)
    assert ok and tr.n >= 2
    assert gamma_R_tree(tr.tree, tr.x) == 2 * gamma_x(tr.tree, tr.x)


# Caterpillar members with X = V: spines whose leaf counts repeat a pattern
# that the recognizer accepts, C_k (three leaves on each spine vertex) the
# first.  Among spiders with at most six legs of length at most 5, it
# accepts with X = V only the stars K_{1,k}, k >= 3.
_PATTERNS = ((3,), (4,), (3, 0), (3, 0, 4), (5, 0, 3, 3))


@pytest.mark.parametrize("pattern", _PATTERNS)
def test_caterpillar_members(pattern):
    # the last spine makes a tree of about 10^5 vertices
    for k in [*range(1, 31), 100_000 * len(pattern) // (len(pattern) + sum(pattern))]:
        _assert_roman(triple_for_tree(_caterpillar([pattern[i % len(pattern)] for i in range(k)])))


def test_star_members():
    for k in [*range(3, 31), 99_999]:
        _assert_roman(triple_for_tree(_star(k)))


def test_enumerated_members(closure10):
    for m in closure10.values():
        if m.n >= 2:
            _assert_roman(m)


def test_grown_members():
    for n in range(2, 61):
        for seed in range(3):
            _assert_roman(random_member(n, seed)[0])
    for n, seed in ((1_000, 0), (1_000, 1), (10_000, 0)):
        _assert_roman(random_member(n, seed)[0])
