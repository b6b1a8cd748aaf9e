"""Linear-time Roman domination on trees.

Standard rooted dynamic program with four states per vertex; vertices outside
the constrained set may stay at value 0 without ever being dominated.  It is
one push-style pass over a breadth-first walk, in reverse: each vertex folds
the sums its children pushed into three flat lists, then pushes its own terms
into its parent's entries.  The walk is the one that certified the tree
(``Tree.walk``, rooted at vertex 0), so no traversal is repeated.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Tree, vertex_subset


# A vertex's state is the minimum weight of its branch in each of four cases:
# value 2, value 1, value 0 with a 2-child, value 0 unclaimed.  The unclaimed
# state is only usable under a value-2 parent when the vertex is constrained,
# and at the root only when it is not.  A branch hands its parent three terms:
# its best under any parent, its best under a parent of value below 2, and the
# extra cost of making it the 2 its parent leans on (its penalty).


def gamma_R_tree(t: Tree, x: Iterable[int]) -> int:
    """Minimum weight over assignments where value-0 vertices of ``x`` see a 2.

    Agrees with the exhaustive ``solver.gamma_R`` on every input.
    """
    xset = vertex_subset(t, x, "x")
    parent, order = t.walk
    constrained = bytearray(t.n)
    for v in xset:
        constrained[v] = 1
    # Per vertex, the summed terms of its branches below, and the weight its
    # states 1 and 0-with-a-2-child add to the no-2 sum: 1, or the least
    # penalty of a branch when that is smaller.
    any_sum = [0] * t.n
    no2_sum = [0] * t.n
    least = [1] * t.n
    for v in reversed(order):
        b = no2_sum[v]
        s2 = 2 + any_sum[v]
        claimed = b + least[v]
        if s2 < claimed:
            claimed = s2
        any_parent = b if b < claimed else claimed
        no2_parent = claimed if constrained[v] else any_parent
        p = parent[v]
        any_sum[p] += any_parent
        no2_sum[p] += no2_parent
        if s2 - no2_parent < least[p]:
            least[p] = s2 - no2_parent
    # the root comes last, and its second term is the tree's minimum weight
    return no2_parent
