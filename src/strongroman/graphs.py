"""Immutable graphs and trees with the structural queries used everywhere else.

Vertices are always the integers ``0 .. n-1``.  Labels, when present, are
cosmetic metadata and never participate in equality or canonical forms.
This module owns the primitives the other modules share: the adjacency
tuples, the one breadth-first traversal (``rooted(adj, root)``, over any
sequence of neighbour lists; every rooted pass goes through it) and the
vertex-range check on vertex sets (``vertex_subset``).  A tree keeps the
traversal from vertex 0 that certified it (``Tree.walk``), so passes rooted
there do not walk it again.  The edge-list parser reads all edges in bulk and
lets ``Graph`` check them; it walks the lines one by one only to name a bad one.
``parse_tree`` checks the header's edge count before any edge line is parsed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, TypeVar


class ParseError(ValueError):
    """Base class for edge-list parsing failures."""


class MalformedLineError(ParseError):
    pass


class VertexRangeError(ParseError):
    pass


class SelfLoopError(ParseError):
    pass


class DuplicateEdgeError(ParseError):
    pass


class NotATreeError(ValueError):
    pass


def _raise_first_bad_edge(n: int, edges: list) -> None:
    """Check the edges one by one and raise for the first bad one in input order.

    An edge that passes must also have endpoints that can index the
    per-vertex lists of a one-pass build, so an endpoint that is no integer
    fails at its own edge, with the error that indexing raises.  Nothing is
    allocated per vertex.
    """
    seen: set[tuple[int, int]] = set()
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise VertexRangeError(f"edge ({a},{b}) leaves the vertex range 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"self-loop at vertex {a}")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge ({e[0]},{e[1]})")
        seen.add(e)
        for v in (a, b):
            if not hasattr(v, "__index__"):
                raise TypeError(f"list indices must be integers or slices, not {type(v).__name__}")


class Graph:
    """A finite simple undirected graph on vertices ``0 .. n-1``.

    Instances are immutable after construction and safe to share between
    concurrent tasks; ``labels`` is a read-only view of the constructor's
    copy.  Equality and hashing ignore labels.  Construction
    sorts the edges once and validates them in one linear pass.
    """

    __slots__ = ("n", "edges", "labels", "_adj")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Optional[Mapping[int, str]] = None,
    ):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = list(edges)
        try:
            norm = sorted([(a, b) if a < b else (b, a) for a, b in edges])
            # sorted, so a duplicate sits next to its twin
            valid = all(0 <= a < b < n for a, b in norm) and all(map(ne, norm, norm[1:]))
        except (TypeError, ValueError):
            _raise_first_bad_edge(n, edges)
            raise
        if not valid:
            _raise_first_bad_edge(n, edges)
        # ``norm`` is sorted, so each vertex meets its smaller neighbours (as
        # the second endpoint) before its larger ones: every list is sorted.
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in norm:
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        if labels is not None:
            for v in labels:
                if not (0 <= v < n):
                    raise VertexRangeError(f"label for unknown vertex {v}")
            labels = MappingProxyType(dict(labels))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, a: int, b: int) -> bool:
        # an endpoint outside 0..n-1 is no vertex; a negative one must not wrap
        return 0 <= a < self.n and b in self._adj[a]

    def label_of(self, v: int) -> Optional[str]:
        return None if self.labels is None else self.labels.get(v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={len(self.edges)})"


def rooted(adj: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
    """Parent of every vertex reached from ``root`` over the neighbour lists
    ``adj`` (the root is its own, any other entry -1, so the list is as long
    as ``adj``) and the reached vertices in breadth-first order."""
    parent = [-1] * len(adj)
    order = [root]
    parent[root] = root
    for v in order:
        for u in adj[v]:
            if parent[u] == -1:
                parent[u] = v
                order.append(u)
    return parent, order


def vertex_subset(g: Graph, s: Iterable[int], name: str) -> frozenset[int]:
    """``s`` as a set, once every member is checked to be a vertex of ``g``."""
    out = frozenset(s)
    for v in out:
        if not (0 <= v < g.n):
            raise ValueError(f"{name} contains vertex {v} outside 0..{g.n - 1}")
    return out


def _tree_walk(g: Graph) -> Optional[tuple[list[int], list[int]]]:
    """``rooted(g._adj, 0)`` if it shows that ``g`` is a tree, else None."""
    if len(g.edges) == g.n - 1:
        walk = rooted(g._adj, 0)
        if len(walk[1]) == g.n:
            return walk
    return None


def is_tree(g: Graph) -> bool:
    """True iff ``g`` is connected and acyclic."""
    return _tree_walk(g) is not None


class Tree(Graph):
    """A graph certified connected and acyclic at construction time.

    ``walk`` keeps the certifying traversal, ``rooted(t._adj, 0)`` as a
    pair of tuples, for the passes that root the tree at vertex 0.
    """

    __slots__ = ("walk",)

    def __init__(self, n, edges=(), labels=None):
        super().__init__(n, edges, labels)
        walk = _tree_walk(self)
        if walk is None:
            raise NotATreeError(f"graph on {n} vertices with {len(self.edges)} edges is not a tree")
        object.__setattr__(self, "walk", tuple(map(tuple, walk)))


def _numbered(raw: list[str]) -> list[tuple[int, str]]:
    """Each line that is neither blank nor a comment, stripped, with its number."""
    return [(i, s) for i, s in enumerate(map(str.strip, raw), 1) if s and s[0] != "#"]


def _raise_first_bad_line(raw: list[str], n: int) -> None:
    """Check the edge lines one by one and raise for the first bad one in line
    order, naming its line; return when every line is an edge of two distinct
    vertices of ``0 .. n-1``."""
    for lineno, line in _numbered(raw)[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLineError(f"line {lineno}: expected 'a b', got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(f"line {lineno}: non-integer edge {line!r}") from None
        if not (0 <= a < n and 0 <= b < n):
            raise VertexRangeError(f"line {lineno}: edge ({a},{b}) leaves the vertex range 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"line {lineno}: self-loop at vertex {a}")


G = TypeVar("G", bound=Graph)


def _parse(text: str, cls: type[G]) -> G:
    """The edge-list parser, building ``cls`` (``Graph`` or ``Tree``); for a
    ``Tree``, a header ``n m`` with ``m != n - 1`` fails before any edge line
    is parsed, so before anything is allocated per vertex."""
    raw = text.splitlines()
    lines = [s for s in map(str.strip, raw) if s and s[0] != "#"]
    if not lines:
        raise MalformedLineError("empty input, expected a header line 'n m'")
    header, body = lines[0], lines[1:]
    parts = header.split()
    if len(parts) != 2:
        raise MalformedLineError(f"line {_numbered(raw)[0][0]}: expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedLineError(f"line {_numbered(raw)[0][0]}: non-integer header {header!r}") from None
    if n < 1 or m < 0:
        raise MalformedLineError(f"line {_numbered(raw)[0][0]}: invalid sizes n={n}, m={m}")
    if cls is Tree and m != n - 1:
        raise NotATreeError(f"graph on {n} vertices with {m} edges is not a tree")
    if len(body) != m:
        raise MalformedLineError(f"expected {m} edge lines, found {len(body)}")
    try:
        return cls(n, [(int(a), int(b)) for a, b in map(str.split, body)])
    except NotATreeError:
        # every edge line is sound, so no line can be named
        raise
    except ValueError:
        _raise_first_bad_line(raw, n)
        raise


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    The first meaningful line is ``n m``; the next ``m`` lines are ``a b``
    edges with ``0 <= a, b < n`` and ``a != b``.  Blank lines and lines
    starting with ``#`` are skipped.  The edges are read in bulk and checked
    by ``Graph``; only when that fails are the lines walked again, to name
    the first bad one.
    """
    return _parse(text, Graph)


def parse_tree(text: str) -> Tree:
    """``parse_edge_list`` for a tree, built by ``Tree``; a header ``n m``
    with ``m != n - 1`` fails before any edge line is parsed."""
    return _parse(text, Tree)


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {len(g.edges)}"]
    out.extend(f"{a} {b}" for a, b in g.edges)
    return "\n".join(out) + "\n"


def to_dot(g: Graph) -> str:
    """Plain structural DOT export, no layout or styling decisions."""
    out = ["graph G {"]
    for v in g.vertices():
        label = g.label_of(v)
        out.append(f'  {v} [label="{label}"];' if label is not None else f"  {v};")
    for a, b in g.edges:
        out.append(f"  {a} -- {b};")
    out.append("}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True, eq=False)
class Split:
    """Result of deleting ``v`` and keeping the side that contains ``u``.

    ``t_prime`` is the component of ``T - v`` containing ``u``, relabelled
    order-preservingly to ``0 .. n'-1``; ``to_prime`` maps old identifiers to
    the new ones.  ``branches`` lists every other neighbor ``w`` of ``v``
    together with the vertex set (original identifiers) of its component,
    ordered by ``w``.
    """

    t_prime: Tree
    to_prime: dict[int, int]
    branches: tuple[tuple[int, frozenset[int]], ...]


def split_at(t: Tree, v: int, u: int) -> Split:
    """Split ``t`` at ``v`` towards ``u``.

    The returned parts partition ``V(t) - {v}``: the ``u``-side component and
    one branch per remaining neighbor of ``v``.
    """
    if not (0 <= v < t.n and 0 <= u < t.n):
        raise ValueError(f"vertices ({v},{u}) out of range")
    if not t.has_edge(v, u):
        raise ValueError(f"{u} is not a neighbor of {v}")

    def component(start: int) -> list[int]:
        seen = {start, v}
        todo = [start]
        out = [start]
        while todo:
            a = todo.pop()
            for b in t.neighbors(a):
                if b not in seen:
                    seen.add(b)
                    out.append(b)
                    todo.append(b)
        return out

    prime_old = sorted(component(u))
    to_prime = {old: new for new, old in enumerate(prime_old)}
    prime_edges = [
        (to_prime[a], to_prime[b]) for a, b in t.edges if a in to_prime and b in to_prime
    ]
    prime_labels = None
    if t.labels:
        prime_labels = {to_prime[a]: s for a, s in t.labels.items() if a in to_prime}
    t_prime = Tree(len(prime_old), prime_edges, prime_labels)
    branches = tuple(
        (w, frozenset(component(w))) for w in t.neighbors(v) if w != u
    )
    return Split(t_prime=t_prime, to_prime=to_prime, branches=branches)


def _centers(t: Tree) -> list[int]:
    """The one or two middle vertices of the tree, sorted: a farthest vertex
    from any start ends a longest path, so a double sweep finds one, and its
    middle is the centre."""
    end = t.walk[1][-1]
    parent, order = rooted(t._adj, end)
    path = [order[-1]]
    while path[-1] != end:
        path.append(parent[path[-1]])
    return sorted(path[(len(path) - 1) // 2 : len(path) // 2 + 1])


def _rooted_encoding(t: Tree, colors: Mapping[int, int], root: int) -> tuple[list[str], list[int]]:
    """Bottom-up subtree encodings (equal strings iff color-isomorphic
    subtrees) and the parent list of ``t`` rooted at ``root``."""
    parent, order = rooted(t._adj, root)
    enc = [""] * t.n
    for v in reversed(order):
        kids = sorted(enc[u] for u in t.neighbors(v) if u != parent[v])
        enc[v] = "(" + str(colors[v]) + "".join(kids) + ")"
    return enc, parent


def _canonical_rooting(
    t: Tree, colors: Optional[Mapping[int, int]] = None
) -> tuple[str, tuple[int, list[str], list[int]]]:
    """The canonical form of a colored tree and the rooting that gives it:
    the best center, the subtree encodings and the parent list there, which
    ``_canonical_mapping`` turns into the relabelling."""
    if colors is None:
        colors = {v: 0 for v in t.vertices()}
    else:
        for v in t.vertices():
            if v not in colors:
                raise ValueError(f"color missing for vertex {v}")
    best: Optional[tuple[str, int, list[str], list[int]]] = None
    for c in _centers(t):
        enc, parent = _rooted_encoding(t, colors, c)
        if best is None or enc[c] < best[0]:
            best = (enc[c], c, enc, parent)
    key, root, enc, parent = best
    return key, (root, enc, parent)


def _canonical_mapping(t: Tree, root: int, enc: list[str], parent: list[int]) -> dict[int, int]:
    """Preorder numbering from the best root, children by encoding."""
    mapping: dict[int, int] = {}
    todo = [root]
    while todo:
        v = todo.pop()
        mapping[v] = len(mapping)
        kids = sorted((u for u in t.neighbors(v) if u != parent[v]), key=lambda u: (enc[u], u))
        todo.extend(reversed(kids))
    return mapping


def canonical_relabel(t: Tree, colors: Optional[Mapping[int, int]] = None) -> tuple[str, dict[int, int]]:
    """Canonical form of a colored tree plus a relabelling that realizes it.

    Two colored trees receive the same string exactly when some isomorphism
    maps one onto the other preserving colors.  The returned map sends old
    identifiers to the canonical ``0 .. n-1`` labelling; applying it to two
    color-isomorphic trees yields identical labelled trees.  The form comes
    from ``_canonical_rooting`` and the map from ``_canonical_mapping``, so
    a caller that needs the map only for some forms can skip the walk.
    """
    key, rooting = _canonical_rooting(t, colors)
    return key, _canonical_mapping(t, *rooting)


def canonical_form(t: Tree, colors: Optional[Mapping[int, int]] = None) -> str:
    """Canonical string of a colored tree, invariant under relabelling."""
    return _canonical_rooting(t, colors)[0]


def longest_x_path(t: Tree, x: Iterable[int]) -> list[int]:
    """A maximum-length path whose two endpoints both lie in ``x``.

    Ties break to the lexicographically smallest vertex sequence, so the
    result is deterministic; any maximum-length choice would do for the
    reductions built on top of this.  Linear time: a double sweep finds the
    path's two ends ``a`` and ``b``, then a walk from the smaller one takes
    the smallest next vertex that still reaches full length.
    """
    xs = sorted(set(x))
    for a in xs:
        if not (0 <= a < t.n):
            raise ValueError(f"vertex {a} out of range")
    if len(xs) < 2:
        raise ValueError("need at least two marked vertices")
    adj = t._adj

    def sweep(source: int) -> tuple[list[int], list[int], list[int]]:
        parent, order = rooted(adj, source)
        depth = [0] * t.n
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        return parent, order, depth

    # Every X-vertex that ends a longest X-path lies length/2 from the middle
    # of those paths.  Sweep one returns the smallest such end off xs[0]'s
    # side of the middle, sweep two the smallest off a's side; the smallest
    # end of all is off one of the two sides, so it is a or b.
    d0 = sweep(xs[0])[2]
    a = max(xs, key=d0.__getitem__)
    da = sweep(a)[2]
    b = max(xs, key=da.__getitem__)
    length = da[b]
    start = min(a, b)

    parent, order, depth = sweep(start)
    xset = set(xs)
    reaches = bytearray(t.n)  # subtree holds an X-vertex at depth ``length``
    for v in reversed(order):
        if depth[v] == length and v in xset:
            reaches[v] = 1
        if reaches[v]:
            reaches[parent[v]] = 1  # the root is its own parent
    path = [start]
    while len(path) <= length:
        v = path[-1]
        path.append(next(u for u in adj[v] if parent[u] == v and reaches[u]))
    return path
