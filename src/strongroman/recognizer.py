"""Reduction-based membership test for the strongly-equal class of triples.

A triple bundles a tree with the constrained set X and the certificate set Y.
Membership is decided by repeatedly cutting away the far end of a longest
X-path: the cut configuration either fails one of a fixed list of structural
conditions (reject) or leaves a smaller triple whose membership is
equivalent.

The whole chain is one linear pass.  The tree is rooted once at r, the
X-vertex farthest from the smallest X-vertex.  In a tree the X-vertex
farthest from any vertex ends a longest X-path, and a cut removes only v and
the branches below it, so r and every depth survive each step: the deepest
remaining X-vertex w always gives the next cut, with v its parent and u the
parent of v, or, when no X-vertex lies outside v's subtree, u another
X-child of v (that step is always the last).  Deleted vertices are only
marked, and each branch is walked once, counting its Y-vertices.

In the three-or-more-branch pattern the reduced Y' may or may not keep u.
Both candidates have the same tree and X, hence the same later cuts, and
every later condition reads u's Y bit as "must lie in Y" or "must not".  So
the bit stays open until its first read, which fixes it to the value asked
for: the other candidate fails at exactly that read.  No Y* (and no rerooted
tree DP) is needed, and every decision comes with a replayable trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Optional

from .graphs import Split, Tree, canonical_form, canonical_relabel, longest_x_path, rooted, split_at, vertex_subset

# Vertex colors for canonical forms: outside both sets, in Y only, in X
# (membership in X forces membership in Y, so three colors suffice).
_COLOR_FREE = 0
_COLOR_Y_ONLY = 1
_COLOR_X = 2


class InternalInconsistencyError(AssertionError):
    """A condition guaranteed by construction failed; signals a bug here."""


@dataclass(frozen=True)
class Triple:
    """A tree with its constrained set ``x`` and certificate set ``y``.

    Requires ``x <= y <= V``; candidate members never violate this, so it is
    enforced at construction.  Two values are computed on first use and then
    kept, which is safe as a triple is immutable: ``canonical_key``, and
    ``anchors``, where the generator's operations 4 and 5 may attach.
    """

    tree: Tree
    x: frozenset[int]
    y: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "y", frozenset(self.y))
        if not self.x <= self.y:
            raise ValueError("x must be a subset of y")
        vertex_subset(self.tree, self.y, "y")

    @property
    def n(self) -> int:
        return self.tree.n

    def colors(self) -> dict[int, int]:
        return {
            v: _COLOR_X if v in self.x else _COLOR_Y_ONLY if v in self.y else _COLOR_FREE
            for v in self.tree.vertices()
        }

    @cached_property
    def canonical_key(self) -> str:
        return canonical_form(self.tree, self.colors())

    @cached_property
    def anchors(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The cut vertices (op-4 anchors) and the branch roots (op-5
        anchors) of the ``configurations``, each in increasing order."""
        configs = configurations(self)
        cuts = sorted({v for v, _ in configs})
        roots = sorted({w for v, u in configs for w in self.tree.neighbors(v) if w != u})
        return tuple(cuts), tuple(roots)

    def canonicalized(self) -> tuple["Triple", dict[int, int]]:
        """Canonically relabelled copy plus the old-to-new vertex map."""
        key, mapping = canonical_relabel(self.tree, self.colors())
        return self.relabelled(key, mapping), mapping

    def relabelled(self, key: str, mapping: dict[int, int]) -> "Triple":
        """The copy under ``mapping``, a relabelling that realizes the
        canonical form ``key`` (both as ``canonical_relabel`` returns them).
        """
        out = Triple(
            Tree(self.n, [(mapping[a], mapping[b]) for a, b in self.tree.edges]),
            frozenset(mapping[v] for v in self.x),
            frozenset(mapping[v] for v in self.y),
        )
        object.__setattr__(out, "canonical_key", key)
        return out


@dataclass(frozen=True, eq=False)
class ReductionLocus:
    """A cut configuration: the cut vertex ``v`` and its neighbor ``u``.

    At the far end of a longest X-path, ``v`` is the path's second vertex and
    ``u`` its third.  ``ws`` lists the other neighbors of ``v`` with the
    ``ell`` branches that meet X first (``ws[0]`` is the path's endpoint).
    ``split`` holds the kept component and its relabelling.
    """

    v: int
    u: int
    ws: tuple[int, ...]
    w_sets: tuple[frozenset[int], ...]
    ell: int
    split: Split


@dataclass(frozen=True)
class TraceStep:
    u: int
    v: int
    ws: tuple[int, ...]
    ell: int
    case: str  # "a" or "b"
    y_prime_has_u: bool

    def to_json_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "w": list(self.ws),
            "ell": self.ell,
            "case": self.case,
            "yPrimeHasU": self.y_prime_has_u,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TraceStep":
        return cls(
            u=int(d["u"]),
            v=int(d["v"]),
            ws=tuple(int(w) for w in d["w"]),
            ell=int(d["ell"]),
            case=str(d["case"]),
            y_prime_has_u=bool(d["yPrimeHasU"]),
        )


BASE_X_EMPTY = "x-empty"
BASE_K1_FULL = "k1-full"


@dataclass(frozen=True)
class ReductionTrace:
    """Chain of reduction steps ending in a base case, or a failure reason.

    A rejection keeps no steps.  It records how many steps preceded the
    failure (``depth``) and, when a cut failed rather than a base case, the
    cut's ``(v, u)`` (``locus``).
    """

    steps: tuple[TraceStep, ...]
    base: Optional[str]
    failure: Optional[str]
    depth: int = 0
    locus: Optional[tuple[int, int]] = None

    @property
    def accepted(self) -> bool:
        return self.base is not None

    def to_json_dict(self) -> dict:
        if self.accepted:
            terminal = {"base": self.base}
        else:
            terminal = {"failure": self.failure, "step": self.depth}
            if self.locus is not None:
                terminal["v"], terminal["u"] = self.locus
        return {"steps": [s.to_json_dict() for s in self.steps], "terminal": terminal}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReductionTrace":
        steps = tuple(TraceStep.from_json_dict(s) for s in d.get("steps", ()))
        terminal = d.get("terminal", {})
        locus = (int(terminal["v"]), int(terminal["u"])) if "v" in terminal else None
        return cls(
            steps=steps,
            base=terminal.get("base"),
            failure=terminal.get("failure"),
            depth=int(terminal.get("step", 0)),
            locus=locus,
        )


def _locus(tr: Triple, v: int, u: int) -> Optional[ReductionLocus]:
    """The configuration of ``tr`` at ``(v, u)``, or ``None`` when some
    branch holds an X-vertex below its root (the configuration premise fails).

    The X-meeting branches come first, each group ordered by root.  At the far
    end of the lexicographically smallest longest X-path every X-meeting root
    ends such a path, so the path's own endpoint is the smallest of them and
    comes first.
    """
    split = split_at(tr.tree, v, u)
    if any((wset & tr.x) - {w} for w, wset in split.branches):
        return None
    ordered = sorted(split.branches, key=lambda b: b[0] not in tr.x)
    return ReductionLocus(
        v=v,
        u=u,
        ws=tuple(w for w, _ in ordered),
        w_sets=tuple(s for _, s in ordered),
        ell=sum(w in tr.x for w, _ in ordered),
        split=split,
    )


def _classify(
    ell: int, u_in_x: bool, uv_in_y: bool, branches: Iterable[tuple[int, bool, int]]
) -> tuple[Optional[str], Optional[str]]:
    """``(case, None)`` when a cut admits a reduced triple, with case ``"a"``
    (two X-meeting branches) or ``"b"`` (three or more); otherwise
    ``(None, reason)`` for the first condition that fails.

    The facts: ``ell`` X-meeting branches, whether u lies in X, whether u and
    v both lie in Y, and per branch in order ``(w, w in Y, Y-vertices of the
    branch below w)``.
    """
    if ell == 0:
        return None, "no branch meets X"
    if ell == 1:
        return None, "a single branch meets X (need at least two)"
    if ell == 2 and not u_in_x:
        return None, "two branches meet X but the path vertex u is not in X"
    if not uv_in_y:
        return None, "u and v must both lie in Y"
    for w, w_in_y, below in branches:
        if not w_in_y or below:
            return None, f"branch at {w} must meet Y exactly in its root"
    return ("a" if ell == 2 else "b"), None


_OPEN = 2  # a Y bit left open by a case-"b" step until its first read


class _Chain:
    """A triple under a chain of reductions, kept in its own labels.

    A cut at ``(v, u)`` marks ``v`` and its branches away from ``u`` deleted,
    then takes ``u`` out of X and gives it the Y bit of the reduced triple,
    which a case-"b" step leaves open (``_OPEN``).  ``fixed`` holds, per
    step, the value that step's bit was fixed to (``None`` while open).
    """

    def __init__(self, tr: Triple):
        t = tr.tree
        self.adj = [t.neighbors(a) for a in t.vertices()]
        self.alive = bytearray(b"\x01") * t.n
        self.x = bytearray(t.n)
        self.y = bytearray(t.n)
        for a in tr.x:
            self.x[a] = 1
        for a in tr.y:
            self.y[a] = 1
        self.x_count = len(tr.x)
        self.opened: dict[int, int] = {}  # vertex with an open bit -> its step
        self.fixed: list[Optional[bool]] = []

    def read_y(self, a: int, want: int) -> bool:
        """Whether a's Y bit is ``want``; an open bit is fixed to ``want``."""
        bit = self.y[a]
        if bit == _OPEN:
            self.y[a] = want
            self.fixed[self.opened.pop(a)] = bool(want)
            return True
        return bit == want

    def cut(self, v: int, u: int) -> Optional[tuple[list[int], int, Optional[str], Optional[str]]]:
        """Delete ``v`` and its branches away from ``u``, and classify the cut.

        Returns ``(ws, ell, case, failure)``, with the X-meeting branch roots
        first in ``ws`` (each group by label), or ``None`` when a branch holds
        an X-vertex below its root.  Y bits are read in the order
        ``_classify`` tests them.
        """
        alive, adj, x = self.alive, self.adj, self.x
        alive[v] = 0
        roots = [w for w in adj[v] if alive[w] and w != u]
        ws = [w for w in roots if x[w]]
        ell = len(ws)
        ws += [w for w in roots if not x[w]]
        uv_in_y = self.read_y(u, 1) and self.read_y(v, 1)
        branches = []
        for w in ws:
            alive[w] = 0
            w_in_y = self.read_y(w, 1)
            below = 0
            todo = [w]
            for a in todo:
                for b in adj[a]:
                    if alive[b]:
                        if x[b]:
                            return None
                        alive[b] = 0
                        below += not self.read_y(b, 0)
                        todo.append(b)
            branches.append((w, w_in_y, below))
        self.x_count -= x[v] + ell
        case, failure = _classify(ell, x[u], uv_in_y, branches)
        return ws, ell, case, failure

    def settle(self, u: int, bit: int) -> None:
        """Take the kept path vertex ``u`` out of X and set its Y bit, which
        ``_OPEN`` leaves for a later read to fix; this ends a step."""
        self.x_count -= self.x[u]
        self.x[u] = 0
        self.y[u] = bit
        if bit == _OPEN:
            self.opened[u] = len(self.fixed)
        self.fixed.append(None if bit == _OPEN else bool(bit))

    def base(self) -> tuple[bool, str]:
        """(verdict, base marker or failure reason) once |X| <= 2."""
        if self.x_count == 0:
            if all(self.read_y(a, 0) for a in compress(range(len(self.alive)), self.alive)):
                return True, BASE_X_EMPTY
            return False, "Y must be empty when X is empty"
        if self.x_count == 1:
            if self.alive.count(1) == 1 and self.read_y(self.alive.index(1), 1):
                return True, BASE_K1_FULL
            return False, "a single constrained vertex only works on the one-vertex tree"
        return False, "exactly two constrained vertices never occur in the class"


def configuration_case(tr: Triple, v: int, u: int) -> Optional[str]:
    """``"a"``/``"b"`` when ``(v, u)`` forms a valid reduction configuration
    whose structural side conditions hold, else ``None``.
    """
    if not tr.tree.has_edge(v, u):
        raise ValueError(f"({v},{u}) is not an edge")
    found = _Chain(tr).cut(v, u)
    return None if found is None else found[2]


def configurations(tr: Triple) -> list[tuple[int, int]]:
    """Every ``(v, u)`` at which ``configuration_case`` is not ``None``, in
    order of ``v`` then ``u``, found in one linear pass.

    The counting form of ``_classify``: u and v lie in Y, every other
    neighbor w of v lies in Y with exactly one Y-vertex in its branch (which,
    as X <= Y, also gives the configuration premise), and ell, the number of
    those w in X, is at least three, or two with u in X.  A branch's Y-count
    is a subtree count over the tree's certifying walk from vertex 0, or |Y|
    minus the count on the other side of the edge.
    """
    t, x, y = tr.tree, tr.x, tr.y
    parent, order = t.walk
    below = [0] * t.n  # Y-vertices in the subtree of each vertex
    for w in reversed(order):
        below[w] += w in y
        if w != parent[w]:
            below[parent[w]] += below[w]
    out = []
    for v in t.vertices():
        if v not in y:
            continue
        up = len(y) - below[v]  # Y-vertices outside the subtree of v
        # neighbors that cannot root a branch; one of them can only be u
        bad = [w for w in t.neighbors(v) if w not in y or (below[w] if parent[w] == v else up) != 1]
        if len(bad) > 1:
            continue
        x_neighbors = sum(w in x for w in t.neighbors(v))
        for u in bad or t.neighbors(v):
            ell = x_neighbors - (u in x)
            if u in y and (ell >= 3 or (ell == 2 and u in x)):
                out.append((v, u))
    return out


def find_locus(tr: Triple) -> ReductionLocus:
    """Locate the reduction configuration at the far end of the
    lexicographically smallest longest X-path.

    The decider finds its cuts without it; the reference chain in the tests
    still uses it.  Requires at least three constrained vertices.
    """
    if len(tr.x) < 3:
        raise ValueError("locus search needs at least three constrained vertices")
    path = longest_x_path(tr.tree, tr.x)
    loc = _locus(tr, path[1], path[2])
    if loc is None or loc.ws[0] != path[0]:
        raise InternalInconsistencyError("longest-path locus breaks the configuration premise")
    return loc


def _decide(tr: Triple) -> tuple[bool, ReductionTrace]:
    """Follow the reduction chain on ``tr``, in its labels, in O(n).

    Each cut is taken at the deepest live X-vertex (see the module
    docstring); a case-"b" step leaves u's Y bit open until its first read.
    """
    chain = _Chain(tr)
    alive, x, adj = chain.alive, chain.x, chain.adj
    steps: list[tuple[int, int, list[int], int, str]] = []
    if chain.x_count > 2:
        # A breadth-first order lists vertices by depth, so its last X-vertex
        # is a farthest one, and its last live X-vertex a deepest one.
        _, order = rooted(tr.tree, min(tr.x))
        parent, order = rooted(tr.tree, next(a for a in reversed(order) if x[a]))
        todo = [a for a in order if x[a]]
    while chain.x_count > 2:
        while not (alive[todo[-1]] and x[todo[-1]]):
            todo.pop()
        w = todo[-1]
        v = parent[w]
        kids = [c for c in adj[v] if alive[c] and c != parent[v]]
        if x[v] + sum(x[c] for c in kids) == chain.x_count:
            # no X-vertex outside v's subtree: the longest X-path is w-v-u
            u = min(c for c in kids if x[c] and c != w)
        else:
            u = parent[v]
        found = chain.cut(v, u)
        if found is None:
            raise InternalInconsistencyError("deepest-first cut breaks the configuration premise")
        ws, ell, case, failure = found
        if failure is not None:
            return False, ReductionTrace((), None, failure, len(steps), (v, u))
        chain.settle(u, _OPEN if case == "b" else 0)
        steps.append((u, v, ws, ell, case))
    ok, marker = chain.base()
    if not ok:
        return False, ReductionTrace((), None, marker, len(steps))
    trace = tuple(
        TraceStep(u, v, tuple(ws), ell, case, has_u)
        for (u, v, ws, ell, case), has_u in zip(steps, chain.fixed)
    )
    return True, ReductionTrace(trace, marker, None)


def decide_in_S(tr: Triple) -> tuple[bool, ReductionTrace]:
    """Decide membership in the strongly-equal class, with a trace in the
    labels of ``tr`` that, when accepting, replays via ``verify_trace``."""
    return _decide(tr)


def verify_trace(tr: Triple, trace: ReductionTrace) -> bool:
    """Re-check a trace as a derivation without re-running any search.

    Accepts exactly the traces that chain valid reduction steps from ``tr``,
    in its own labels, down to a base case; each step's premise, ``ell``,
    branch roots and case are checked again as it is replayed, in O(n) in
    all.  Rejection traces are not derivations and never verify.
    """
    if not trace.accepted:
        return False
    chain = _Chain(tr)
    for step in trace.steps:
        v, u = step.v, step.u
        if not (tr.tree.has_edge(v, u) and chain.alive[v] and chain.alive[u]):
            return False
        found = chain.cut(v, u)
        if found is None:
            return False
        ws, ell, case, _ = found
        if ell != step.ell or sorted(ws) != sorted(step.ws) or case != step.case:
            return False
        if case == "a" and step.y_prime_has_u:
            return False
        chain.settle(u, int(step.y_prime_has_u))
    if chain.x_count > 2:
        return False
    ok, marker = chain.base()
    return ok and marker == trace.base


def triple_for_tree(t: Tree) -> Triple:
    """The headline query X = Y = V."""
    vs = frozenset(range(t.n))
    return Triple(t, vs, vs)
