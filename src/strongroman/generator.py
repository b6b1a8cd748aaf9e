"""Constructive side: grow members of the strongly-equal class bottom-up.

Five extension operations are applied to triples, starting from the two
one-vertex seeds.  The closure of the seeds under the operations is exactly
the class the recognizer and the exhaustive oracle decide, which the test
suite checks in both directions.

New vertices always take the next free identifiers: the single added vertex
of operations 1, 4 and 5 is ``n``; operation 2 adds ``v, w1, w2 = n, n+1,
n+2``; operation 3 adds ``v, w1, w2, w3 = n .. n+3``.

Cost: operations 4 and 5 are anchored at reduction configurations, which
``recognizer.configurations`` lists in one O(n) pass, once per parent:
``random_member`` and ``enumerate_T`` hand its anchors both to the step
listing and to the op-4/op-5 check (the public ``applicable_steps`` and
``apply_op`` scan for themselves).  A growth step then builds and
re-validates the grown ``Tree`` in O(n log n); growing a member of order n
costs O(n² log n).  ``enumerate_T`` relabels a child canonically only when
its canonical form is new.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graphs import Tree, _canonical_mapping, _canonical_rooting
from .recognizer import Triple, configurations
from .solver import SizeCapError

ENUMERATION_ORDER_CAP = 10

# The op-4 and op-5 anchors of a triple, as ``_anchors`` lists them.
_Anchors = tuple[list[int], list[int]]

# Constrained-set variants per operation: which of the newly touched vertices
# join X.  Anchors: u for ops 1-3, the configuration's v for op 4, one of its
# branch roots for op 5.
_VARIANTS = {1: 1, 2: 2, 3: 4, 4: 2, 5: 1}


class OperationNotApplicable(ValueError):
    """The operation's applicability condition fails at the given anchor."""

    def __init__(self, op: int, clause: str):
        super().__init__(f"operation {op}: {clause}")
        self.op = op
        self.clause = clause


@dataclass(frozen=True)
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


def base_triples() -> tuple[Triple, Triple]:
    """The two one-vertex seeds: fully unconstrained and fully constrained."""
    k1 = Tree(1, ())
    return Triple(k1, frozenset(), frozenset()), Triple(k1, frozenset({0}), frozenset({0}))


def _anchors(tr: Triple) -> _Anchors:
    """The op-4 anchors (cut vertices) and the op-5 anchors (branch roots)
    of the configurations of ``tr``, each in increasing order."""
    configs = configurations(tr)
    cuts = sorted({v for v, _ in configs})
    roots = sorted({w for v, u in configs for w in tr.tree.neighbors(v) if w != u})
    return cuts, roots


def apply_op(tr: Triple, step: OpStep) -> Triple:
    """Apply one extension operation, validating its applicability condition."""
    return _apply(tr, step, _anchors(tr) if step.op in (4, 5) else None)


def _apply(tr: Triple, step: OpStep, anchors: Optional[_Anchors]) -> Triple:
    """``apply_op`` with the ``_anchors`` of ``tr`` given; operations 1-3
    do not read them."""
    t, x, y = tr.tree, tr.x, tr.y
    n = t.n
    a = step.anchor
    if not (0 <= a < n):
        raise OperationNotApplicable(step.op, f"anchor {a} is not a vertex")

    if step.op == 1:
        if a in y:
            raise OperationNotApplicable(1, "anchor must lie outside Y")
        tree = Tree(n + 1, t.edges + ((a, n),))
        return Triple(tree, x, y)

    if step.op == 2:
        # The anchor must avoid Y, not just X: the two-branch reduction pins
        # the smaller certificate set to Y minus the anchor, so anchoring at a
        # Y-vertex would demand a second, different certificate set for the
        # same (tree, X), which uniqueness forbids.  Anchoring at a Y-vertex
        # demonstrably creates triples the exhaustive oracle rejects.
        if a in y:
            raise OperationNotApplicable(2, "anchor must lie outside Y")
        v, w1, w2 = n, n + 1, n + 2
        tree = Tree(n + 3, t.edges + ((a, v), (v, w1), (v, w2)))
        new_x = {a, w1, w2} if step.variant == 0 else {a, v, w1, w2}
        return Triple(tree, x | new_x, y | {a, v, w1, w2})

    if step.op == 3:
        if a in x:
            raise OperationNotApplicable(3, "anchor must lie outside X")
        v, w1, w2, w3 = n, n + 1, n + 2, n + 3
        tree = Tree(n + 4, t.edges + ((a, v), (v, w1), (v, w2), (v, w3)))
        new_x = (
            {w1, w2, w3},
            {a, w1, w2, w3},
            {v, w1, w2, w3},
            {a, v, w1, w2, w3},
        )[step.variant]
        return Triple(tree, x | new_x, y | {a, v, w1, w2, w3})

    if step.op == 4:
        if a not in anchors[0]:
            raise OperationNotApplicable(
                4, "anchor is not the cut vertex of any valid configuration"
            )
        tree = Tree(n + 1, t.edges + ((a, n),))
        new_x = x if step.variant == 0 else x | {n}
        return Triple(tree, new_x, y | {n})

    # operation 5
    if a not in anchors[1]:
        raise OperationNotApplicable(
            5, "anchor is not a branch root of any valid configuration"
        )
    tree = Tree(n + 1, t.edges + ((a, n),))
    return Triple(tree, x, y)


def applicable_steps(tr: Triple, max_order: int) -> Iterator[OpStep]:
    """Every step applicable to ``tr`` whose result stays within ``max_order``."""
    yield from _steps(tr, max_order, _anchors(tr) if tr.n + 1 <= max_order else None)


def _steps(tr: Triple, max_order: int, anchors: Optional[_Anchors]) -> Iterator[OpStep]:
    """``applicable_steps`` with the ``_anchors`` of ``tr`` given; they are
    read only when a step of order n + 1 fits."""
    n = tr.n
    if n + 1 <= max_order:
        for u in tr.tree.vertices():
            if u not in tr.y:
                yield OpStep(1, u)
        cuts, roots = anchors
        for v in cuts:
            yield OpStep(4, v, 0)
            yield OpStep(4, v, 1)
        for w in roots:
            yield OpStep(5, w)
    if n + 3 <= max_order:
        for u in tr.tree.vertices():
            if u not in tr.y:
                yield OpStep(2, u, 0)
                yield OpStep(2, u, 1)
    if n + 4 <= max_order:
        for u in tr.tree.vertices():
            if u not in tr.x:
                for variant in range(4):
                    yield OpStep(3, u, variant)


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
        if tr.n == n_max:
            continue  # no step fits; skip the configuration scan
        anchors = _anchors(tr)
        for step in _steps(tr, n_max, anchors):
            child = _apply(tr, step, anchors)
            key, rooting = _canonical_rooting(child.tree, child.colors())
            if key not in members:
                members[key] = canon = child.relabelled(key, _canonical_mapping(child.tree, *rooting))
                queue.append(canon)
    return members


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
    tr, full = base_triples()
    if n == 1:
        return rng.choice((tr, full)), []
    # Growth never dead-ends: a grown member has X empty (then Y is empty
    # and operation 1 fits) or |X| >= 3 (then it has a configuration, and
    # operation 4 fits at its cut vertex).
    steps: list[OpStep] = []
    while tr.n < n:
        anchors = _anchors(tr)
        step = rng.choice(list(_steps(tr, n, anchors)))
        tr = _apply(tr, step, anchors)
        steps.append(step)
    return tr, steps


def replay(steps: Iterable[OpStep], start: Optional[Triple] = None) -> Triple:
    """Re-run a recorded step list from a seed (default: the unconstrained one)."""
    tr = base_triples()[0] if start is None else start
    for step in steps:
        tr = apply_op(tr, step)
    return tr
