"""Linear-time Roman domination on trees.

Standard rooted dynamic program with four states per vertex; vertices outside
the constrained set may stay at value 0 without ever being dominated.  A
rerooting pass over the same recurrence gives, for every vertex at once, the
minimum weight with that vertex forced to value 2, and from it the set of
vertices that see a 2 under some minimum assignment.
"""

from __future__ import annotations

import math
from typing import Iterable

from .graphs import Tree

_INF = math.inf


def _constrained_set(t: Tree, x: Iterable[int]) -> frozenset[int]:
    xset = frozenset(x)
    for v in xset:
        if not (0 <= v < t.n):
            raise ValueError(f"x contains vertex {v} outside 0..{t.n - 1}")
    return xset


def _rooted(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """Parent of every vertex (the root is its own) and a top-down order."""
    parent = [-1] * t.n
    order = [root]
    parent[root] = root
    for v in order:
        for u in t.neighbors(v):
            if parent[u] == -1:
                parent[u] = v
                order.append(u)
    return parent, order


# A vertex's state is the minimum weight of its branch in each of four cases:
# value 2, value 1, value 0 with a 2-child, value 0 unclaimed.  The unclaimed
# state is only usable under a value-2 parent when the vertex is constrained,
# and at the root only when it is not.  A branch hands its parent three terms:
# its best under any parent, its best under a parent of value below 2, and the
# extra cost of making it the 2 its parent leans on.


def _combine(any_sum, no2_sum, pen, constrained: bool) -> tuple:
    """A vertex's terms from the summed terms of its branches below and their
    least penalty.  At the root, the second term is the tree's minimum weight.
    """
    # States 2, 1, 0 with a 2-child and 0 unclaimed weigh 2 + any_sum,
    # 1 + no2_sum, no2_sum + pen and no2_sum.
    s2 = 2 + any_sum
    claimed = 1 + no2_sum
    if s2 < claimed:
        claimed = s2
    if no2_sum + pen < claimed:
        claimed = no2_sum + pen
    any_parent = no2_sum if no2_sum < claimed else claimed
    no2_parent = claimed if constrained else any_parent
    return any_parent, no2_parent, s2 - no2_parent


def _down_terms(t: Tree, xset: frozenset[int], parent: list[int], order: list[int]) -> list:
    """Per vertex, the terms of its subtree below the root of ``order``."""
    terms = [None] * t.n
    for v in reversed(order):
        any_sum = no2_sum = 0
        pen = _INF
        for c in t.neighbors(v):
            if parent[c] == v:
                a, b, p = terms[c]
                any_sum += a
                no2_sum += b
                if p < pen:
                    pen = p
        terms[v] = _combine(any_sum, no2_sum, pen, v in xset)
    return terms


def gamma_R_tree(t: Tree, x: Iterable[int], *, root: int = 0) -> int:
    """Minimum weight over assignments where value-0 vertices of ``x`` see a 2.

    Agrees with the exhaustive ``solver.gamma_R`` on every input; the root
    choice does not affect the result.
    """
    xset = _constrained_set(t, x)
    if not (0 <= root < t.n):
        raise ValueError(f"root {root} out of range")
    parent, order = _rooted(t, root)
    return int(_down_terms(t, xset, parent, order)[root][1])


def _all_roots(t: Tree, xset: frozenset[int]) -> tuple[int, list[int]]:
    """``gamma_R_tree`` and, per vertex ``w``, the least weight with f(w) = 2.

    Rerooting: the branch at ``parent(v)`` seen from ``v`` is the parent's
    state over its other branches; sums leave one branch out by subtraction
    and the penalty minimum by keeping the two smallest.
    """
    parent, order = _rooted(t, 0)
    down = _down_terms(t, xset, parent, order)
    up = [None] * t.n  # terms of the branch at parent(v), as seen from v
    forced = [0] * t.n
    for v in order:
        branches = [(c, down[c]) for c in t.neighbors(v) if c != parent[v]]
        if v != 0:
            branches.append((parent[v], up[v]))
        any_sum = no2_sum = 0
        best = second = (_INF, -1)
        for c, (a, b, p) in branches:
            any_sum += a
            no2_sum += b
            if p < best[0]:
                best, second = (p, c), best
            elif p < second[0]:
                second = (p, c)
        forced[v] = 2 + any_sum
        for c, (a, b, _) in branches:
            if c != parent[v]:
                pen = second[0] if best[1] == c else best[0]
                up[c] = _combine(any_sum - a, no2_sum - b, pen, v in xset)
    return int(down[0][1]), forced


def forced_two_weights(t: Tree, x: Iterable[int]) -> list[int]:
    """Per vertex ``w``, the minimum weight as in ``gamma_R_tree`` with f(w) = 2."""
    return _all_roots(t, _constrained_set(t, x))[1]


def two_neighbourhood(t: Tree, x: Iterable[int]) -> frozenset[int]:
    """The vertices with a 2 in their closed neighbourhood under some minimum
    Roman function of ``(t, x)``: ``N[S2]`` where ``S2`` holds the vertices
    whose forced-2 weight equals ``gamma_R_tree``.

    For a member triple ``(t, x, y)`` other than the constrained one-vertex
    seed this is exactly ``y`` (acceptance property (iv)).
    """
    gamma, forced = _all_roots(t, _constrained_set(t, x))
    out = set()
    for w in t.vertices():
        if forced[w] == gamma:
            out.add(w)
            out.update(t.neighbors(w))
    return frozenset(out)
