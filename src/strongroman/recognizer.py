"""Reduction-based membership test for the strongly-equal class of triples.

A triple bundles a tree with the constrained set X and the certificate set Y.
Membership is decided by repeatedly cutting away the far end of a longest
X-path: the cut configuration either fails one of a fixed list of structural
conditions (reject) or leaves a smaller triple whose membership is
equivalent.  In the three-or-more-branch pattern the reduced Y' may or may
not keep the path vertex u; the chain keeps the candidate whose Y' equals
Y*(T', X'), the vertices that see a 2 under some minimum Roman function
(``treedp.two_neighbourhood``), since a member's Y is exactly that set.  The
decision is thus one chain of linear-time steps, and every decision comes
with a replayable trace.

Trace coordinates: ``decide_in_S`` relabels the input triple canonically
before working, and every child triple is canonically relabelled as well, so
steps are expressed in canonical labels at each level.  ``verify_trace``
repeats the same deterministic relabelling, which makes traces portable
between runs and across isomorphic inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .graphs import Split, Tree, canonical_relabel, longest_x_path, split_at
from .treedp import _rooted, two_neighbourhood

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
    enforced at construction.
    """

    tree: Tree
    x: frozenset[int]
    y: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "y", frozenset(self.y))
        vs = set(self.tree.vertices())
        if not self.x <= self.y:
            raise ValueError("x must be a subset of y")
        if not self.y <= vs:
            raise ValueError("y contains vertices outside the tree")

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
        return canonical_relabel(self.tree, self.colors())[0]

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
    child_canonical: str

    def to_json_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "w": list(self.ws),
            "ell": self.ell,
            "case": self.case,
            "yPrimeHasU": self.y_prime_has_u,
            "childCanonical": self.child_canonical,
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
            child_canonical=str(d["childCanonical"]),
        )


BASE_X_EMPTY = "x-empty"
BASE_K1_FULL = "k1-full"


@dataclass(frozen=True)
class ReductionTrace:
    """Chain of reduction steps ending in a base case, or a failure reason."""

    steps: tuple[TraceStep, ...]
    base: Optional[str]
    failure: Optional[str]

    @property
    def accepted(self) -> bool:
        return self.base is not None

    def to_json_dict(self) -> dict:
        terminal = {"base": self.base} if self.accepted else {"failure": self.failure}
        return {"steps": [s.to_json_dict() for s in self.steps], "terminal": terminal}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReductionTrace":
        steps = tuple(TraceStep.from_json_dict(s) for s in d.get("steps", ()))
        terminal = d.get("terminal", {})
        base = terminal.get("base")
        failure = terminal.get("failure")
        return cls(steps=steps, base=base, failure=failure)


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


def _classify(tr: Triple, loc: ReductionLocus) -> tuple[Optional[str], Optional[str]]:
    """``(case, None)`` when the locus admits a reduced triple, with case
    ``"a"`` (two X-meeting branches) or ``"b"`` (three or more); otherwise
    ``(None, reason)`` for the first condition that fails.
    """
    if loc.ell == 0:
        return None, "no branch meets X"
    if loc.ell == 1:
        return None, "a single branch meets X (need at least two)"
    if loc.ell == 2 and loc.u not in tr.x:
        return None, "two branches meet X but the path vertex u is not in X"
    if loc.u not in tr.y or loc.v not in tr.y:
        return None, "u and v must both lie in Y"
    for w, wset in zip(loc.ws, loc.w_sets):
        if wset & tr.y != {w}:
            return None, f"branch at {w} must meet Y exactly in its root"
    return ("a" if loc.ell == 2 else "b"), None


def configuration_case(tr: Triple, v: int, u: int) -> Optional[str]:
    """``"a"``/``"b"`` when ``(v, u)`` forms a valid reduction configuration
    whose structural side conditions hold, else ``None``.
    """
    loc = _locus(tr, v, u)
    return None if loc is None else _classify(tr, loc)[0]


def configurations(tr: Triple) -> list[tuple[int, int]]:
    """Every ``(v, u)`` at which ``configuration_case`` is not ``None``, in
    order of ``v`` then ``u``, found in one linear pass.

    The counting form of ``_classify``: u and v lie in Y, every other
    neighbor w of v lies in Y with exactly one Y-vertex in its branch (which,
    as X <= Y, also gives the ``_locus`` premise), and ell, the number of
    those w in X, is at least three, or two with u in X.  A branch's Y-count
    is a subtree count from one rooted traversal, or |Y| minus the count on
    the other side of the edge.
    """
    t, x, y = tr.tree, tr.x, tr.y
    parent, order = _rooted(t, 0)
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
    """Locate the reduction configuration at the far end of a longest X-path.

    Requires at least three constrained vertices.  The longest-path choice
    guarantees that no branch hides a constrained vertex below its root and
    that the path's endpoint is the first branch root; both are re-checked
    defensively.
    """
    if len(tr.x) < 3:
        raise ValueError("locus search needs at least three constrained vertices")
    path = longest_x_path(tr.tree, tr.x)
    loc = _locus(tr, path[1], path[2])
    if loc is None or loc.ws[0] != path[0]:
        raise InternalInconsistencyError("longest-path locus breaks the configuration premise")
    return loc


def _child_triple(tr: Triple, loc: ReductionLocus, with_u: bool) -> Triple:
    """The reduced triple on the kept component, in its own labelling."""
    to_prime = loc.split.to_prime
    x_new = frozenset(to_prime[a] for a in tr.x if a in to_prime and a != loc.u)
    y_new = set(to_prime[a] for a in tr.y if a in to_prime and a != loc.u)
    if with_u:
        y_new.add(to_prime[loc.u])
    return Triple(loc.split.t_prime, x_new, frozenset(y_new))


def _base_case(tr: Triple):
    """(verdict, base marker or failure reason) for triples with |X| <= 2."""
    if not tr.x:
        if tr.y:
            return False, "Y must be empty when X is empty"
        return True, BASE_X_EMPTY
    if len(tr.x) == 1:
        if tr.n == 1 and len(tr.y) == 1:
            return True, BASE_K1_FULL
        return False, "a single constrained vertex only works on the one-vertex tree"
    return False, "exactly two constrained vertices never occur in the class"


def _rejection(depth: int, reason: str) -> ReductionTrace:
    """A rejection whose text wraps ``reason`` once per step taken before it."""
    for _ in range(depth):
        reason = f"no reduced triple is accepted ({reason})"
    return ReductionTrace((), None, reason)


def _decide(tr: Triple) -> tuple[bool, ReductionTrace]:
    """Follow the reduction chain from the canonical triple ``tr``.

    In the three-or-more pattern the two candidates differ only at u, and a
    member's Y' is ``two_neighbourhood(T', X')``, so that set picks the one
    candidate that can be a member.  The identity fails for the constrained
    one-vertex seed, so a child with |X'| <= 2 keeps the candidate without u:
    no base case accepts the one with u.
    """
    steps: list[TraceStep] = []
    while len(tr.x) > 2:
        loc = find_locus(tr)
        case, failure = _classify(tr, loc)
        if failure is not None:
            return False, _rejection(len(steps), failure)
        child = _child_triple(tr, loc, False)
        if not len(child.x) < len(tr.x):
            raise InternalInconsistencyError("reduction did not shrink X")
        has_u = False
        if case == "b" and len(child.x) > 2:
            u_prime = loc.split.to_prime[loc.u]
            y_star = two_neighbourhood(child.tree, child.x)
            if y_star - {u_prime} != child.y:
                reason = "no reduced triple is accepted (neither Y' candidate is Y* of the reduced tree)"
                return False, _rejection(len(steps), reason)
            has_u = u_prime in y_star
            child = Triple(child.tree, child.x, y_star)
        child_c, _ = child.canonicalized()
        steps.append(
            TraceStep(
                u=loc.u,
                v=loc.v,
                ws=loc.ws,
                ell=loc.ell,
                case=case,
                y_prime_has_u=has_u,
                child_canonical=child_c.canonical_key,
            )
        )
        tr = child_c
    ok, marker = _base_case(tr)
    if not ok:
        return False, _rejection(len(steps), marker)
    return True, ReductionTrace(tuple(steps), marker, None)


def decide_in_S(tr: Triple) -> tuple[bool, ReductionTrace]:
    """Decide membership in the strongly-equal class, with a trace.

    The trace is expressed over the canonically relabelled input (see the
    module docstring) and, when accepting, replays via ``verify_trace``.
    """
    canon, _ = tr.canonicalized()
    return _decide(canon)


def verify_trace(tr: Triple, trace: ReductionTrace) -> bool:
    """Re-check a trace as a derivation without re-running any search.

    Accepts exactly the traces that chain valid reduction steps from the
    canonicalized ``tr`` down to a base case.  Rejection traces are not
    derivations and never verify.
    """
    if not trace.accepted:
        return False
    cur, _ = tr.canonicalized()
    for step in trace.steps:
        n = cur.n
        if not (0 <= step.v < n and 0 <= step.u < n) or not cur.tree.has_edge(step.v, step.u):
            return False
        loc = _locus(cur, step.v, step.u)
        if loc is None or loc.ell != step.ell or sorted(step.ws) != sorted(loc.ws):
            return False
        case, _ = _classify(cur, loc)
        if case != step.case or (case == "a" and step.y_prime_has_u):
            return False
        child = _child_triple(cur, loc, step.y_prime_has_u)
        child_c, _ = child.canonicalized()
        if child_c.canonical_key != step.child_canonical:
            return False
        cur = child_c
    ok, marker = _base_case(cur) if len(cur.x) <= 2 else (False, None)
    return ok and marker == trace.base


def triple_for_tree(t: Tree, x: Optional[Iterable[int]] = None, y: Optional[Iterable[int]] = None) -> Triple:
    """Convenience constructor; defaults to the headline query X = Y = V."""
    xs = frozenset(range(t.n)) if x is None else frozenset(x)
    ys = frozenset(range(t.n)) if y is None else frozenset(y)
    return Triple(t, xs, ys)
