"""Canonical relabelling as it stood before it shared ``graphs.rooted``.

Nested encoding strings built over a dict-parent depth-first walk from each
center, the smaller string picked, and a second dict-parent walk that hands
out the new labels.  The tests compare ``graphs.canonical_relabel`` with it,
key and mapping, so any rewrite of the canonical form stays byte-identical.
"""

from __future__ import annotations

from typing import Mapping, Optional

from strongroman.graphs import Tree


def _centers(t: Tree) -> list[int]:
    """The one or two middle vertices of the tree (leaf peeling)."""
    if t.n <= 2:
        return list(t.vertices())
    degree = [t.degree(v) for v in t.vertices()]
    layer = [v for v in t.vertices() if degree[v] == 1]
    remaining = t.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in t.neighbors(v):
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
            degree[v] = 0
        layer = nxt
    return sorted(layer)


def _rooted_encoding(t: Tree, colors: Mapping[int, int], root: int) -> dict[int, str]:
    """Bottom-up subtree encodings; equal strings iff color-isomorphic subtrees."""
    parent = {root: root}
    order = [root]
    todo = [root]
    while todo:
        v = todo.pop()
        for u in t.neighbors(v):
            if u not in parent:
                parent[u] = v
                order.append(u)
                todo.append(u)
    enc: dict[int, str] = {}
    for v in reversed(order):
        kids = sorted(enc[u] for u in t.neighbors(v) if parent[u] == v and u != v)
        enc[v] = "(" + str(colors[v]) + "".join(kids) + ")"
    return enc


def canonical_relabel(t: Tree, colors: Optional[Mapping[int, int]] = None) -> tuple[str, dict[int, int]]:
    """Canonical string of a colored tree and the old-to-new relabelling."""
    if colors is None:
        colors = {v: 0 for v in t.vertices()}
    best: Optional[tuple[str, int, dict[int, str]]] = None
    for c in _centers(t):
        enc = _rooted_encoding(t, colors, c)
        if best is None or enc[c] < best[0]:
            best = (enc[c], c, enc)
    key, root, enc = best
    mapping: dict[int, int] = {}
    parent = {root: root}
    todo = [root]
    while todo:
        v = todo.pop()
        mapping[v] = len(mapping)
        kids = sorted(
            (u for u in t.neighbors(v) if u not in parent),
            key=lambda u: (enc[u], u),
        )
        for u in reversed(kids):
            parent[u] = v
            todo.append(u)
    return key, mapping
