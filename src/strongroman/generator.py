"""Constructive side: grow members of the strongly-equal class bottom-up.

Five extension operations are applied to triples, starting from the two
one-vertex seeds.  The closure of the seeds under the operations is exactly
the class the recognizer and the exhaustive oracle decide, which the test
suite checks in both directions.

New vertices always take the next free identifiers: the single added vertex
of operations 1, 4 and 5 is ``n``; operation 2 adds ``v, w1, w2 = n, n+1,
n+2``; operation 3 adds ``v, w1, w2, w3 = n .. n+3``.

Each operation is stated once: ``_check`` holds its applicability condition
and ``_extension`` the edges and X/Y vertices it adds.  ``apply_op`` and
``applicable_steps`` are the per-step API on immutable triples;
``random_member`` and ``replay`` apply the same steps on one mutable
``_Builder`` and draw in ``applicable_steps``' order.

Cost: operations 4 and 5 are anchored at reduction configurations.
``enumerate_T`` lists a parent's steps with ``applicable_steps``, which
reads ``Triple.anchors`` (one O(n) pass by the S-leaf rule, kept on the
triple), and applies each child with ``apply_op``, which builds
and validates the child tree in O(n log n); it relabels a child canonically
only when its canonical form is new.  Sequential growth and replay run on
the builder instead, which keeps the counts that the S-leaf rule reads at
one vertex.  Replay checks each op-4 or op-5 anchor by the rule there, so a
step applies in O(1) amortized time; growth also keeps the anchors counted
from its first draw on, so a step is drawn (from the pools' member counts
and one Fenwick search) and applied in O(log n) amortized time.  One tree
is validated at the end, so replaying a member of order n costs O(n) plus
that tree, and growing it O(n log n).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Optional, Sequence

from .graphs import Tree, _canonical_mapping, _canonical_rooting, rooted
from .recognizer import Triple
from .solver import SizeCapError

ENUMERATION_ORDER_CAP = 10

# Constrained-set variants per operation: which of the newly touched vertices
# join X.  Anchors: u for ops 1-3, the configuration's v for op 4, one of its
# branch roots for op 5.
_VARIANTS = {1: 1, 2: 2, 3: 4, 4: 2, 5: 1}

# Each operation's anchor set, an index into (Y, X, cut vertices, branch
# roots), and the clause that refuses its anchor: operations 1-3 anchor
# outside their set, 4 and 5 inside it.  Operation 2's anchor must avoid Y,
# not just X: the two-branch reduction pins the smaller certificate set to
# Y minus the anchor, so anchoring at a Y-vertex would demand a second,
# different certificate set for the same (tree, X), which uniqueness
# forbids.  Anchoring at a Y-vertex demonstrably creates triples the
# exhaustive oracle rejects.
_POOL = {1: 0, 2: 0, 3: 1, 4: 2, 5: 3}
_CLAUSE = (
    "anchor must lie outside Y",
    "anchor must lie outside X",
    "anchor is not the cut vertex of any valid configuration",
    "anchor is not a branch root of any valid configuration",
)

# The operations in the order ``applicable_steps`` yields their steps.
_ORDER = (1, 4, 5, 2, 3)


class OperationNotApplicable(ValueError):
    """The operation's applicability condition fails at the given anchor."""

    def __init__(self, op: int, clause: str):
        super().__init__(f"operation {op}: {clause}")
        self.op = op
        self.clause = clause


@dataclass(frozen=True, slots=True)
class OpStep:
    """One extension: operation number, anchor vertex, constrained-set variant."""

    op: int
    anchor: int
    variant: int = 0

    def __post_init__(self):
        if self.op not in _VARIANTS:
            raise ValueError(f"unknown operation {self.op}")
        if not (0 <= self.variant < _VARIANTS[self.op]):
            raise ValueError(f"operation {self.op} has no variant {self.variant}")

    def to_json_dict(self) -> dict:
        return {"op": self.op, "anchor": self.anchor, "variant": self.variant}

    @classmethod
    def from_json_dict(cls, d: dict) -> "OpStep":
        return cls(op=int(d["op"]), anchor=int(d["anchor"]), variant=int(d.get("variant", 0)))


def _check(step: OpStep, n: int, sets: Sequence[Container[int]]) -> None:
    """Raise ``OperationNotApplicable`` unless the anchor is a vertex of an
    order-``n`` triple in its operation's pool.  ``sets`` holds Y, X, the
    cut vertices and the branch roots; the pools are the vertices outside
    the first two and the members of the other two."""
    op, a = step.op, step.anchor
    if not (0 <= a < n):
        raise OperationNotApplicable(op, f"anchor {a} is not a vertex")
    i = _POOL[op]
    if (a in sets[i]) != (i >= 2):
        raise OperationNotApplicable(op, _CLAUSE[i])


def _extension(step: OpStep, n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """The edges ``(old or earlier new vertex, new vertex)`` that ``step``
    adds to an order-``n`` triple, in the order of the new vertices, and the
    vertices that join X and Y."""
    a, variant = step.anchor, step.variant
    if step.op == 2:
        v, w1, w2 = n, n + 1, n + 2
        return ((a, v), (v, w1), (v, w2)), ((a, w1, w2), (a, v, w1, w2))[variant], (a, v, w1, w2)
    if step.op == 3:
        v, w1, w2, w3 = n, n + 1, n + 2, n + 3
        new_x = ((w1, w2, w3), (a, w1, w2, w3), (v, w1, w2, w3), (a, v, w1, w2, w3))[variant]
        return ((a, v), (v, w1), (v, w2), (v, w3)), new_x, (a, v, w1, w2, w3)
    if step.op == 4:
        return ((a, n),), ((), (n,))[variant], (n,)
    return ((a, n),), (), ()  # operations 1 and 5 add one unconstrained leaf


# New vertices per operation.
_ADDED = {op: len(_extension(OpStep(op, 0), 0)[0]) for op in _VARIANTS}


def _fitting(n: int, max_order: int) -> list[int]:
    """The operations whose result from order ``n`` stays within
    ``max_order``, in ``applicable_steps``' order."""
    return [op for op in _ORDER if n + _ADDED[op] <= max_order]


def base_triples() -> tuple[Triple, Triple]:
    """The two one-vertex seeds: fully unconstrained and fully constrained."""
    k1 = Tree(1, ())
    return Triple(k1, frozenset(), frozenset()), Triple(k1, frozenset({0}), frozenset({0}))


def _triple_pools(tr: Triple) -> tuple[Sequence[int], ...]:
    """The anchor pools of ``tr``, each in increasing order."""
    outside = [[u for u in tr.tree.vertices() if u not in s] for s in (tr.y, tr.x)]
    return (*outside, *tr.anchors)


def apply_op(tr: Triple, step: OpStep) -> Triple:
    """Apply one extension operation, validating its applicability condition."""
    _check(step, tr.n, (tr.y, tr.x, *tr.anchors))
    edges, new_x, new_y = _extension(step, tr.n)
    links = [(p, v) for v, p in enumerate(tr.tree.walk[0]) if p != v]  # the parent's edges
    return Triple(Tree(tr.n + len(edges), links + list(edges)), tr.x.union(new_x), tr.y.union(new_y))


def applicable_steps(tr: Triple, max_order: int) -> Iterator[OpStep]:
    """Every step applicable to ``tr`` whose result stays within ``max_order``.

    ``tr.anchors`` is read, and so the configurations scanned, only when a
    step of order n + 1 fits.
    """
    ops = _fitting(tr.n, max_order)
    pools = _triple_pools(tr) if ops else ()
    for op in ops:
        variants = range(_VARIANTS[op])
        for a in pools[_POOL[op]]:
            for variant in variants:
                yield OpStep(op, a, variant)


def enumerate_T(n_max: int) -> dict[str, Triple]:
    """Closure of the seeds under the operations, up to ``n_max`` vertices.

    Returns one canonically labelled representative per canonical form,
    keyed by the canonical string.  Breadth-first; since every operation
    grows the tree, members of order k are complete before order k+1 opens.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > ENUMERATION_ORDER_CAP:
        raise SizeCapError(f"n_max {n_max} exceeds the configured cap {ENUMERATION_ORDER_CAP}")
    members: dict[str, Triple] = {}
    queue: deque[Triple] = deque()
    for seed in base_triples():  # one vertex each: already canonical
        members[seed.canonical_key] = seed
        queue.append(seed)
    while queue:
        tr = queue.popleft()
        for step in applicable_steps(tr, n_max):
            child = apply_op(tr, step)
            key, rooting = _canonical_rooting(child.tree, child.colors())
            if key not in members:
                members[key] = canon = child.relabelled(key, _canonical_mapping(child.tree, *rooting))
                queue.append(canon)
    return members


class _Pool:
    """A set of vertices below a fixed capacity, empty at first, that
    answers ``in``, its member count ``size``, and the k-th smallest member
    or non-member in O(log n): a Fenwick tree over membership flags
    (Fenwick, "A new data structure for cumulative frequency tables",
    Software: Practice and Experience 24(3), 1994).  The flags and ``size``
    are kept always; the tree is built from the flags in O(cap) on the
    first ``kth``, and kept up to date from then on."""

    def __init__(self, cap: int):
        self.flags = bytearray(cap)
        self.size = 0
        # one-based: tree[i] counts the members among i - lowbit(i) .. i - 1
        self.tree: Optional[list[int]] = None

    def __contains__(self, v: int) -> bool:
        return self.flags[v] == 1

    def _count(self) -> list[int]:
        if not self.size:
            self.tree = [0] * (len(self.flags) + 1)
            return self.tree
        self.tree = tree = [0, *self.flags]
        for i in range(1, len(tree)):
            if (j := i + (i & -i)) < len(tree):
                tree[j] += tree[i]
        return tree

    def set(self, v: int, member: bool) -> bool:
        """Whether this changed the membership of v."""
        if self.flags[v] == member:
            return False
        self.flags[v] = member
        d = 1 if member else -1
        self.size += d
        tree = self.tree
        if tree is not None:
            i, end = v + 1, len(tree)
            while i < end:
                tree[i] += d
                i += i & -i
        return True

    def kth(self, k: int, member: bool = True) -> int:
        """The member, or the non-member, with exactly ``k`` smaller ones."""
        tree, pos, step = self.tree or self._count(), 0, 1 << len(self.flags).bit_length()
        while step:
            # tree[pos + step] counts the members among the next ``step`` slots
            if pos + step < len(tree) and (count := tree[pos + step] if member else step - tree[pos + step]) <= k:
                pos += step
                k -= count
            step >>= 1
        return pos


class _Cuts:
    """The cut vertices of a ``_Builder``'s triple: a set that answers
    ``in`` by the S-leaf rule at one vertex, from the builder's Y flags and
    per-vertex counts.  It holds those, not the builder, so that no
    reference cycle keeps a dropped builder alive."""

    def __init__(
        self, adj: list[list[int]], y: bytearray, x_count: list[int], leaf_count: list[int], other_sum: list[int]
    ):
        self.adj, self.y, self.x_count, self.leaf_count, self.other_sum = adj, y, x_count, leaf_count, other_sum

    def __contains__(self, v: int) -> bool:
        k = len(self.adj[v]) - self.leaf_count[v]  # neighbours that are not leaves of S
        y = self.y
        return y[v] == 1 and self.x_count[v] >= 3 and (k == 0 or (k == 1 and y[self.other_sum[v]] == 1))


class _Roots:
    """The branch roots of a ``_Builder``'s triple, the leaves of S hanging
    from a cut vertex: a set that answers ``in`` as ``_Cuts`` does."""

    def __init__(self, s_degree: list[int], s_sum: list[int], cuts: _Cuts):
        self.s_degree, self.s_sum, self.cuts = s_degree, s_sum, cuts

    def __contains__(self, w: int) -> bool:
        return self.s_degree[w] == 1 and self.s_sum[w] in self.cuts


class _Builder:
    """A triple under growth that answers, at any vertex, whether it
    anchors operation 4 or 5, and builds one validated ``Triple`` at the end.

    The anchors follow the S-leaf rule of ``Triple.anchors``, with S the
    minimal subtree spanning Y; ``_Cuts`` and ``_Roots`` evaluate it at one
    vertex from the counts kept here.  No operation removes a vertex from Y,
    so S only grows.  Parent pointers are rooted at the first Y-vertex, and
    a new Y-vertex joins S by walking them up to S.  Per vertex the builder
    keeps its degree in S (-1 outside S), the sum of its neighbours in S (a
    leaf's one neighbour there), its X-neighbour count, how many of its
    neighbours are leaves of S, and the sum of those that are not (the one
    such neighbour, when there is one).  That is all ``apply`` checks and
    updates, and all ``replay`` pays for: O(1) amortized per step beside
    the walks into S.

    ``draw`` needs the anchors counted as well.  From the first draw on,
    the builder also keeps them in two ``_Pool`` sets, which that draw fills
    by one pass over the rule.  After it, a step marks the vertices whose
    counts it changes, and ``_settle``, at the next draw, evaluates the rule
    again there and, where a cut vertex came or went, at its neighbours.
    Every count that the cut condition reads changes monotonically after
    the first Y-vertex, so each vertex changes its cut status O(1) times and
    growth costs O(log n) amortized per step.

    Each fact is held once: the tree as its adjacency lists, and Y, X, the
    cut vertices and the branch roots as ``pools``, the sets ``_check``
    reads, the last two as the rule.  ``counted`` is the same four sets as
    ``draw`` reads them, by ``size`` and ``kth``: Y and X shared, the
    anchors as settled.  Every array has room for ``cap`` vertices from the
    start.
    """

    def __init__(self, start: Triple, cap: int):
        """A builder holding ``start``, with room for ``cap`` vertices."""
        self.n = start.n
        self.adj: list[list[int]] = [[] for _ in range(cap)]
        self.parent = [-1] * cap
        self.s_degree = [-1] * cap
        self.s_sum, self.x_count, self.leaf_count, self.other_sum = ([0] * cap for _ in range(4))
        y, x = _Pool(cap), _Pool(cap)
        cuts = _Cuts(self.adj, y.flags, self.x_count, self.leaf_count, self.other_sum)
        self.pools = (y, x, cuts, _Roots(self.s_degree, self.s_sum, cuts))
        # from the first draw on: the pools counted, and the vertices to settle
        self.counted: Optional[tuple[_Pool, ...]] = None
        self.dirty: Optional[set[int]] = None
        for a, b in start.tree.edges:
            self._link(a, b)
        for v in start.y:
            self._join_y(v)
        for v in start.x:
            self._join_x(v)

    def draw(self, rng: random.Random, max_order: int) -> OpStep:
        """The step that ``rng.choice(list(applicable_steps(t, max_order)))``
        picks on the triple t held here, consuming the same randomness."""
        self._settle()
        pools, n = self.counted, self.n
        # every member of a pool is a vertex below n: Y and X offer their
        # non-members, the anchor pools their members
        counts = (n - pools[0].size, n - pools[1].size, pools[2].size, pools[3].size)
        ops = _fitting(n, max_order)
        sizes = [counts[_POOL[op]] * _VARIANTS[op] for op in ops]
        i = rng.randrange(sum(sizes))
        for op, size in zip(ops, sizes):
            if i < size:
                break
            i -= size
        k = _VARIANTS[op]
        return OpStep(op, pools[_POOL[op]].kth(i // k, _POOL[op] >= 2), i % k)

    def apply(self, step: OpStep) -> None:
        """Apply ``step`` as ``apply_op`` would, raising as it does."""
        _check(step, self.n, self.pools)
        edges, new_x, new_y = _extension(step, self.n)
        self.n += len(edges)
        for a, b in edges:
            self._link(a, b)
        for v in new_y:
            self._join_y(v)
        for v in new_x:
            self._join_x(v)

    def triple(self) -> Triple:
        tree = Tree(self.n, [(a, b) for a in range(self.n) for b in self.adj[a] if a < b])
        # the sets take their vertex ints from the walk, so as to share them
        y, x = (frozenset([v for v in tree.walk[1] if p.flags[v]]) for p in self.pools[:2])
        return Triple(tree, x, y)

    def _link(self, a: int, b: int) -> None:
        """Add the edge ab while b lies outside S and X; b hangs from a
        (before the first Y-vertex, ``_root_at`` resets every parent)."""
        x = self.pools[1].flags
        for p, q in ((a, b), (b, a)):
            self.adj[p].append(q)
            if self.s_degree[q] == 1:
                self.leaf_count[p] += 1
            else:
                self.other_sum[p] += q
            self.x_count[p] += x[q]
        self.parent[b] = a
        if self.dirty is not None:
            self.dirty.update((a, b))

    def _join_y(self, v: int) -> None:
        y = self.pools[0]
        if not y.set(v, True):
            return
        if self.dirty is not None:
            self.dirty.add(v)
            self.dirty.update(self.adj[v])  # a neighbour's one non-leaf may be v
        if y.size == 1:  # the first Y-vertex
            self._root_at(v)
            return
        path = []
        while self.s_degree[v] < 0:
            path.append(v)
            v = self.parent[v]
        for c in reversed(path):
            self._attach(c, v)
            v = c

    def _root_at(self, r: int) -> None:
        """Make r, the first Y-vertex, the one vertex of S and the root of
        the parent pointers."""
        self.s_degree[r] = 0
        self.parent = rooted(self.adj, r)[0]  # trailing slots, as yet no vertex, stay -1

    def _attach(self, c: int, p: int) -> None:
        """Add c to S as a leaf hanging from p."""
        self.s_degree[c] = 1
        self.s_sum[c] = p
        self._set_leaf(c, 1)
        self.s_degree[p] += 1
        self.s_sum[p] += c
        if self.s_degree[p] <= 2:  # p became a leaf (it was S alone) or stopped being one
            self._set_leaf(p, 1 if self.s_degree[p] == 1 else -1)

    def _set_leaf(self, z: int, d: int) -> None:
        """Record that z became a leaf of S (d = 1) or stopped being one (d = -1)."""
        for w in self.adj[z]:
            self.leaf_count[w] += d
            self.other_sum[w] -= d * z
        if self.dirty is not None:
            self.dirty.update(self.adj[z])
            self.dirty.add(z)

    def _join_x(self, v: int) -> None:
        if not self.pools[1].set(v, True):
            return
        for w in self.adj[v]:
            self.x_count[w] += 1
        if self.dirty is not None:
            self.dirty.update(self.adj[v])

    def _settle(self) -> None:
        """Bring the counted anchors up to the rule at the marked vertices;
        the first call counts them at every vertex and starts the marking."""
        if self.counted is None:
            cap = len(self.adj)
            self.counted = (*self.pools[:2], _Pool(cap), _Pool(cap))
            self.dirty = set(range(self.n))
        rule, cuts, roots = self.pools[2], *self.counted[2:]
        is_cut, is_root, dirty = cuts.flags, roots.flags, self.dirty
        for v in list(dirty):
            cut = v in rule
            if cut != is_cut[v]:
                cuts.set(v, cut)
                dirty.update(self.adj[v])
        for w in dirty:
            root = self.s_degree[w] == 1 and is_cut[self.s_sum[w]] == 1
            if root != is_root[w]:
                roots.set(w, root)
        dirty.clear()


def random_member(n: int, seed: int) -> tuple[Triple, list[OpStep]]:
    """A pseudo-random member of order exactly ``n`` with its growth recipe.

    Deterministic for a fixed seed.  Growth starts from the unconstrained
    seed and picks uniformly among the currently applicable steps that still
    fit; this samples reachable members, not any particular distribution.
    Replaying the returned steps from the unconstrained seed reproduces the
    triple (an order-1 result is one of the two seeds with no steps).
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    rng = random.Random(seed)
    empty, full = base_triples()
    if n == 1:
        return rng.choice((empty, full)), []
    # Growth never dead-ends: a grown member has X empty (then Y is empty
    # and operation 1 fits) or |X| >= 3 (then it has a configuration, and
    # operation 4 fits at its cut vertex).
    builder = _Builder(empty, n)
    steps: list[OpStep] = []
    while builder.n < n:
        step = builder.draw(rng, n)
        builder.apply(step)
        steps.append(step)
    return builder.triple(), steps


def replay(steps: Iterable[OpStep], start: Optional[Triple] = None) -> Triple:
    """Re-run a recorded step list from a seed (default: the unconstrained
    one), checking every step as ``apply_op`` does."""
    start = base_triples()[0] if start is None else start
    steps = list(steps)
    builder = _Builder(start, start.n + sum(_ADDED[s.op] for s in steps))
    for step in steps:
        builder.apply(step)
    return builder.triple()
