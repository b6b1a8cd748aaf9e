"""Immutable graphs and trees with the structural queries used everywhere else.

Vertices are always the integers ``0 .. n-1``.  A graph is held flat, in CSR
form (compressed sparse rows): two ``array('i')``, ``_off`` with the n + 1
offsets and ``_nbr`` with the 2m neighbours, so that the neighbours of v are
``_nbr[_off[v]:_off[v + 1]]``, in increasing order.  No object is kept per
vertex or per edge; ``edges`` is derived from the arrays on each read.  This
module owns the primitives the other modules share: the flat layout, the one
breadth-first traversal (``rooted``, over the flat layout or over per-vertex
neighbour lists; every rooted pass goes through it) and the vertex-range
check on vertex sets (``vertex_subset``).  A tree keeps the traversal from
vertex 0 that certified it (``Tree.walk``), so passes rooted there do not
walk it again.  The edge-list parser reads the edges of a large input
straight into one flat array of endpoints (a small one as pairs) and lets
``Graph`` check them; it walks the lines one by one only to name a bad
one.  ``parse_tree`` checks the header's edge count before any edge line is
parsed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import eq, ne
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


def _raise_first_bad_edge(n: int, edges: Iterable) -> None:
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


def _from_ends(n: int, ends: array) -> tuple[array, array, None]:
    """The offsets and sorted neighbours of the graph on ``0 .. n-1`` whose
    edges are the endpoint pairs ``ends[0], ends[1]``, ``ends[2], ends[3]``
    ..., once range, loops and repeats are checked in bulk; the first bad
    edge in input order is named when one fails.  Besides the two arrays it
    allocates a degree per vertex and a number per edge, both let go on
    return.
    """
    if len(ends) % 2:
        raise ValueError(f"{len(ends)} endpoints do not pair up into edges")
    it = iter(ends)
    bad = bool(ends) and (min(ends) < 0 or max(ends) >= n) or any(map(eq, it, it))
    if not bad:
        # One number per edge, smaller endpoint first, sorted: a repeat sits
        # next to its twin, and in this order every vertex meets its smaller
        # neighbours (as the larger endpoint) before its larger ones, so the
        # fill below leaves each vertex's neighbours sorted.
        it = iter(ends)
        keys = [a * n + b if a < b else b * n + a for a, b in zip(it, it)]
        keys.sort()
        bad = any(map(eq, keys, islice(keys, 1, None)))
    if bad:
        it = iter(ends)
        _raise_first_bad_edge(n, zip(it, it))
    degree = [0] * (n + 1)
    for v in ends:
        degree[v + 1] += 1
    off = array("i", accumulate(degree))
    del degree
    free = off[:]  # the next free slot of each vertex
    nbr = array("i", bytes(4 * len(ends)))
    for k in keys:
        a, b = divmod(k, n)
        nbr[free[a]] = b
        free[a] += 1
        nbr[free[b]] = a
        free[b] += 1
    return off, nbr, None


def _from_pairs(n: int, edges: Iterable) -> tuple[array, array, list[list[int]]]:
    """``_from_ends`` for edge pairs, which also returns the neighbour list
    of every vertex that they are sorted into on the way."""
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)  # read twice when one is bad
    try:
        norm = sorted([(a, b) if a < b else (b, a) for a, b in edges])
        # sorted, so a duplicate sits next to its twin
        valid = all([0 <= a < b < n for a, b in norm]) and all(map(ne, norm, norm[1:]))
    except (TypeError, ValueError):
        _raise_first_bad_edge(n, edges)
        raise
    if not valid:
        _raise_first_bad_edge(n, edges)
    # ``norm`` is sorted, so each vertex meets its smaller neighbours (as
    # the second endpoint) before its larger ones: every list is sorted.
    runs: list[list[int]] = [[] for _ in range(n)]
    for a, b in norm:
        runs[a].append(b)
        runs[b].append(a)
    offsets, flat = [0], []
    for run in runs:
        flat += run
        offsets.append(len(flat))
    return array("i", offsets), array("i", flat), runs


class Graph:
    """A finite simple undirected graph on vertices ``0 .. n-1``.

    Held as two flat integer arrays: ``_off`` (n + 1 offsets) and ``_nbr``
    (the 2m neighbours, each vertex's run sorted), so a graph keeps 12 bytes
    per vertex of a tree and no object per vertex or edge; ``edges`` is
    derived from them on each read.  Instances are immutable after
    construction and safe to share between concurrent tasks.  The
    constructor's ``edges`` may be pairs, or one flat ``array`` of endpoints
    ``a0 b0 a1 b1 ...`` (what the parser reads from a large input: nothing
    is allocated per edge or vertex beyond the arrays, where pairs cost a
    few hundred bytes per vertex on the way but build faster); either way
    range, loops and repeats are checked in bulk, and the first bad edge in
    input order is named only when one fails.
    """

    __slots__ = ("n", "_off", "_nbr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        self._fill(n, edges)

    def _fill(self, n: int, edges) -> Optional[list[list[int]]]:
        """Check and set every attribute; return the neighbour lists that
        pairs are sorted into on the way (None for flat endpoints), which
        ``Tree`` walks to certify itself: indexing them costs less than
        slicing the arrays once per vertex."""
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        off, nbr, runs = (_from_ends if isinstance(edges, array) else _from_pairs)(n, edges)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_off", off)
        object.__setattr__(self, "_nbr", nbr)
        return runs

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge ``(a, b)`` with ``a < b``, in increasing order, derived
        from the arrays on each read."""
        off, nbr = self._off, self._nbr
        return tuple([(a, b) for a in range(self.n) for b in nbr[off[a] : off[a + 1]] if a < b])

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._nbr[self._off[v] : self._off[v + 1]])

    def degree(self, v: int) -> int:
        return self._off[v + 1] - self._off[v]

    def has_edge(self, a: int, b: int) -> bool:
        # an endpoint outside 0..n-1 is no vertex; a negative one must not wrap
        return 0 <= a < self.n and b in self._nbr[self._off[a] : self._off[a + 1]]

    def __eq__(self, other) -> bool:
        # sorted runs: the same n and edge set are the same two arrays
        return isinstance(other, Graph) and self._off == other._off and self._nbr == other._nbr

    def __hash__(self) -> int:
        return hash((self.n, self._nbr.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={len(self._nbr) // 2})"


def rooted(
    nbr: Sequence, root: int, off: Optional[Sequence[int]] = None
) -> tuple[list[int], list[int]]:
    """Parent of every vertex reached from ``root`` (the root is its own,
    any other entry -1) and the reached vertices in breadth-first order.
    The neighbours of v are ``nbr[v]`` or, given the offsets ``off`` of the
    flat layout, ``nbr[off[v]:off[v + 1]]``; the parent list has an entry
    per list or per offset but the last."""
    parent = [-1] * (len(nbr) if off is None else len(off) - 1)
    order = [root]
    parent[root] = root
    for v in order:
        for u in nbr[v] if off is None else nbr[off[v] : off[v + 1]]:
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


def _tree_walk(g: Graph, runs: Optional[list] = None) -> Optional[tuple[list[int], list[int]]]:
    """The walk from vertex 0, over ``runs`` when given (``g``'s neighbour
    lists) and else over ``g``'s arrays, if it shows that ``g`` is a tree,
    else None."""
    if len(g._nbr) == 2 * (g.n - 1):
        walk = rooted(g._nbr, 0, g._off) if runs is None else rooted(runs, 0)
        if len(walk[1]) == g.n:
            return walk
    return None


def is_tree(g: Graph) -> bool:
    """True iff ``g`` is connected and acyclic."""
    return _tree_walk(g) is not None


class Tree(Graph):
    """A graph certified connected and acyclic at construction time.

    ``walk`` keeps the certifying traversal, ``rooted(t._nbr, 0, t._off)``,
    as a pair of tuples (parents, then the breadth-first order), for the
    passes that root the tree at vertex 0.  With the graph's arrays a tree
    keeps about 60 bytes per vertex, most of them the walk's.
    """

    __slots__ = ("walk",)

    def __init__(self, n, edges=()):
        walk = _tree_walk(self, self._fill(n, edges))
        if walk is None:
            raise NotATreeError(f"graph on {n} vertices with {len(self._nbr) // 2} edges is not a tree")
        object.__setattr__(self, "walk", (tuple(walk[0]), tuple(walk[1])))


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

# The parser reads a graph of up to this order as pairs and a larger one
# into one flat array of endpoints.  Paired timings of ``parse_tree`` on
# relabelled paths and random trees (Python 3.11, 2-core Xeon) put the flat
# read 30-60% slower up to 1,000 vertices, 13-23% at 10,000, about 5% at
# 12,000 and level from 20,000, while pairs peak at about 400 bytes per
# vertex from 10,000 on against the flat read's 85.
_FLAT_ABOVE = 12_000


def _parse(text: str, cls: type[G]) -> G:
    """The edge-list parser, building ``cls`` (``Graph`` or ``Tree``); for a
    ``Tree``, a header ``n m`` with ``m != n - 1`` fails before any edge line
    is parsed, so before anything is allocated per vertex.  Past
    ``_FLAT_ABOVE`` vertices the edge lines go straight into one flat array
    of endpoints, and are let go before the graph is built."""
    lines = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    if not lines:
        raise MalformedLineError("empty input, expected a header line 'n m'")
    header = lines[0]

    def at_header(fault: str) -> MalformedLineError:
        return MalformedLineError(f"line {_numbered(text.splitlines())[0][0]}: {fault}")

    parts = header.split()
    if len(parts) != 2:
        raise at_header(f"expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise at_header(f"non-integer header {header!r}") from None
    if n < 1 or m < 0:
        raise at_header(f"invalid sizes n={n}, m={m}")
    if cls is Tree and m != n - 1:
        raise NotATreeError(f"graph on {n} vertices with {m} edges is not a tree")
    if len(lines) - 1 != m:
        raise MalformedLineError(f"expected {m} edge lines, found {len(lines) - 1}")
    body = islice(lines, 1, None)
    try:
        if n <= _FLAT_ABOVE:
            return cls(n, [(int(a), int(b)) for a, b in map(str.split, body)])
        # Each line as its first token and the rest: the rest of a line of
        # three or more tokens holds a space, which ``int`` refuses, and a
        # line of one token leaves the array short.
        ends = array("i", map(int, chain.from_iterable(map(str.split, body, repeat(None), repeat(1)))))
        del lines, body
        if len(ends) != 2 * m:
            raise ValueError  # a line of one token, which the rescan names
        return cls(n, ends)
    except NotATreeError:
        # every edge line is sound, so no line can be named
        raise
    except (ValueError, OverflowError):
        _raise_first_bad_line(text.splitlines(), n)
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
    edges = g.edges
    out = [f"{g.n} {len(edges)}"]
    out.extend(f"{a} {b}" for a, b in edges)
    return "\n".join(out) + "\n"


def to_dot(g: Graph, labels: Sequence[str] = ()) -> str:
    """Plain structural DOT export, no layout or styling decisions.  Vertex v
    is labelled with the name ``labels[v]`` that the caller hands in, when
    there is one."""
    out = ["graph G {"]
    for v in g.vertices():
        out.append(f'  {v} [label="{labels[v]}"];' if v < len(labels) else f"  {v};")
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
    t_prime = Tree(len(prime_old), prime_edges)
    branches = tuple(
        (w, frozenset(component(w))) for w in t.neighbors(v) if w != u
    )
    return Split(t_prime=t_prime, to_prime=to_prime, branches=branches)


def _diameter(t: Tree) -> tuple[list[int], list[int]]:
    """A longest path and the breadth-first order that finds it: a farthest
    vertex from any start ends a longest path, so the end of the certifying
    walk from 0 is one, and the walk from there ends at the other.  The path
    runs from that far end back to the walk's root."""
    end = t.walk[1][-1]
    parent, order = rooted(t._nbr, end, t._off)
    path = [order[-1]]
    while path[-1] != end:
        path.append(parent[path[-1]])
    return path, order


def _color_strings(t: Tree, colors: Optional[Mapping[int, int]]) -> list[str]:
    """Each vertex's color string, from a caller's map of integers (no map
    colors every vertex 0).  Only integers are safe inside an encoding: a
    color such as "a(b)" could fake a subtree.  Through int(), equal colors
    such as True and 1 give one string."""
    if colors is None:
        return ["0"] * t.n
    for v in t.vertices():
        if not isinstance(colors.get(v), int):
            raise ValueError(f"color of vertex {v} is missing or not an integer")
    return [str(int(colors[v])) for v in t.vertices()]


def _canonical_rooting(t: Tree, color: Sequence[str]) -> tuple[str, tuple[int, list[str]]]:
    """The canonical form of a colored tree and the rooting that gives it:
    the best center and the subtree encodings there (equal strings iff
    color-isomorphic subtrees), which ``_canonical_mapping`` turns into the
    relabelling.  ``color`` holds each vertex's color string, unchecked;
    the strings must hold no parenthesis, as an integer's never does.

    One walk serves every center.  It is rooted at the end of a longest
    path, and a center c on that path is reached by turning around the path
    from the walk's root to c.  A vertex's encoding joins its color and its
    children's encodings, sorted; a neighbour not yet encoded reads "" and
    adds nothing, so each vertex can join all its neighbours: off the turned
    path in reverse walk order (the parent comes later), then along the
    path from the walk's root to c (the next path vertex comes later).
    """
    off, nbr = t._off, t._nbr
    path, order = _diameter(t)
    half = len(path) // 2
    c = path[half]  # the center nearer the walk's root
    turned = path[half:]
    enc = [""] * t.n
    get = enc.__getitem__
    on_turned = set(turned)
    for v in reversed(order):
        if v not in on_turned:
            a, b = off[v], off[v + 1]
            # a leaf's one neighbour is its parent
            enc[v] = "(" + color[v] + ("".join(sorted(map(get, nbr[a:b]))) if b - a > 1 else "") + ")"
    for v in reversed(turned):
        enc[v] = "(" + color[v] + "".join(sorted(map(get, nbr[off[v] : off[v + 1]]))) + ")"
    root, key = c, enc[c]
    if len(path) % 2 == 0:
        # the other center d: rooted there, c loses its child d and d gains
        # c; every other encoding stays, and a tie keeps the smaller label
        d = path[half - 1]
        enc[c] = "(" + color[c] + "".join(sorted([enc[u] for u in nbr[off[c] : off[c + 1]] if u != d])) + ")"
        at_d = "(" + color[d] + "".join(sorted(map(get, nbr[off[d] : off[d + 1]]))) + ")"
        if (at_d, d) < (key, c):
            root, key, enc[d] = d, at_d, at_d
        else:
            enc[c] = key
    return key, (root, enc)


def _canonical_mapping(t: Tree, root: int, enc: list[str]) -> dict[int, int]:
    """Preorder numbering from the best root, children by encoding."""
    off, nbr = t._off, t._nbr
    mapping: dict[int, int] = {}
    todo = [root]
    while todo:
        v = todo.pop()
        mapping[v] = len(mapping)
        # the parent is the one neighbour already numbered; neighbours come
        # in increasing order and the sort is stable, so equal encodings
        # stay ordered by vertex
        kids = sorted([u for u in nbr[off[v] : off[v + 1]] if u not in mapping], key=enc.__getitem__)
        todo.extend(reversed(kids))
    return mapping


def canonical_relabel(t: Tree, colors: Optional[Mapping[int, int]] = None) -> tuple[str, dict[int, int]]:
    """Canonical form of a colored tree plus a relabelling that realizes it.

    Colors are integers, one per vertex (anything else raises ValueError).
    Two colored trees receive the same string exactly when some isomorphism
    maps one onto the other preserving colors.  The returned map sends old
    identifiers to the canonical ``0 .. n-1`` labelling; applying it to two
    color-isomorphic trees yields identical labelled trees.  The form comes
    from ``_canonical_rooting`` and the map from ``_canonical_mapping``, so
    a caller that needs the map only for some forms can skip the walk.
    """
    key, rooting = _canonical_rooting(t, _color_strings(t, colors))
    return key, _canonical_mapping(t, *rooting)


def canonical_form(t: Tree, colors: Optional[Mapping[int, int]] = None) -> str:
    """Canonical string of a colored tree, invariant under relabelling."""
    return _canonical_rooting(t, _color_strings(t, colors))[0]


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
    off, nbr = t._off, t._nbr

    def sweep(source: int) -> tuple[list[int], list[int], list[int]]:
        parent, order = rooted(nbr, source, off)
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
        path.append(next(u for u in nbr[off[v] : off[v + 1]] if parent[u] == v and reaches[u]))
    return path
