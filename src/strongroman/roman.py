"""Assignments of {0,1,2} to vertices and the domination predicates on them.

The predicates are written as direct transliterations of their definitions;
exhaustive searches live in :mod:`strongroman.solver` and are cross-checked
against these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, vertex_subset


class MoveError(ValueError):
    """Raised when a unit move between vertices is undefined."""


@dataclass(frozen=True)
class Assignment:
    """A total map from vertices to {0, 1, 2}."""

    graph: Graph
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.graph.n:
            raise ValueError(f"expected {self.graph.n} values, got {len(self.values)}")
        for v, val in enumerate(self.values):
            if val not in (0, 1, 2):
                raise ValueError(f"value {val} at vertex {v} is outside {{0,1,2}}")

    @property
    def weight(self) -> int:
        return sum(self.values)

    def weight_on(self, vertices: Iterable[int]) -> int:
        return sum(self.values[v] for v in vertices)

    def digits(self) -> str:
        """Serialized form, one digit per vertex, e.g. ``"020"``."""
        return "".join(str(v) for v in self.values)

    @classmethod
    def from_digits(cls, graph: Graph, text: str) -> "Assignment":
        return cls(graph, tuple(int(c) for c in text))

    def positive_set(self) -> frozenset[int]:
        return frozenset(v for v, val in enumerate(self.values) if val >= 1)


def move(f: Assignment, v: int, u: int) -> Assignment:
    """Shift one unit of ``f`` from ``v`` to ``u``.

    Both results must stay within {0,1,2}, so ``f(v) >= 1`` and ``f(u) <= 1``
    are required.  Call sites that want saturating behaviour clamp explicitly.
    """
    if u == v:
        raise MoveError("source and target coincide")
    n = f.graph.n
    if not (0 <= u < n and 0 <= v < n):
        raise MoveError(f"vertices ({v},{u}) out of range")
    if f.values[v] == 0:
        raise MoveError(f"vertex {v} has no unit to move")
    if f.values[u] == 2:
        raise MoveError(f"vertex {u} is already at value 2")
    vals = list(f.values)
    vals[v] -= 1
    vals[u] += 1
    return Assignment(f.graph, tuple(vals))


def is_x_dominating(d: Iterable[int], x: Iterable[int], g: Graph) -> bool:
    """True iff every vertex of ``x`` outside ``d`` has a neighbor in ``d``."""
    dset = vertex_subset(g, d, "dominating set")
    xset = vertex_subset(g, x, "target set")
    return all(
        any(w in dset for w in g.neighbors(u)) for u in xset if u not in dset
    )


def is_rdf(g: Graph, x: Iterable[int], f: Assignment) -> bool:
    """True iff every value-0 vertex of ``x`` has a neighbor of value 2."""
    xset = vertex_subset(g, x, "x")
    return all(
        any(f.values[w] == 2 for w in g.neighbors(u))
        for u in xset
        if f.values[u] == 0
    )


def is_wrdf(g: Graph, x0: Iterable[int], x1: Iterable[int], f: Assignment) -> bool:
    """Weak variant: a value-0 vertex of ``x0 | x1`` needs a positive neighbor
    whose unit can move to it while keeping the positive set x0-dominating.
    """
    x0set = vertex_subset(g, x0, "x0")
    x1set = vertex_subset(g, x1, "x1")
    if x0set & x1set:
        raise ValueError("x0 and x1 must be disjoint")
    for u in sorted(x0set | x1set):
        if f.values[u] != 0:
            continue
        for v in g.neighbors(u):
            if f.values[v] >= 1 and is_x_dominating(move(f, v, u).positive_set(), x0set, g):
                break
        else:
            return False
    return True


def is_wrdf_x(g: Graph, x: Iterable[int], f: Assignment) -> bool:
    """Single-set form; identical to ``is_wrdf`` with an empty second set."""
    return is_wrdf(g, x, (), f)
