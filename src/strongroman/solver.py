"""Exhaustive oracles for Roman and weak Roman domination numbers.

Everything here is a brute-force evaluation of the definitions, engineered to
stay usable at desk scale: the weak search is a depth-first walk over all
assignments in a fixed vertex order that prunes on partial weight, and the
Roman number enumerates candidate value-2 sets.  Every weak query goes
through ``_weak_search``, which builds one bit graph, sweeps the Roman number
once as the search bound and hands both numbers back.  Results are
deterministic; minimum assignments come out in lexicographic digit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import Graph, Tree, vertex_subset
from .roman import Assignment


class SizeCapError(ValueError):
    """An input exceeds an exhaustive-search cap; nothing is truncated."""


# Largest orders the value queries and the minimum-set enumeration accept.
VALUE_CAP = 18
ENUMERATION_CAP = 14


@dataclass(frozen=True)
class SolveReport:
    gamma_r: int
    gamma_R: int
    min_wrdf_count: int
    all_min_wrdfs_are_rdf: bool
    y: frozenset[int]

    def to_json_dict(self) -> dict:
        return {
            "gamma_r": self.gamma_r,
            "gamma_R": self.gamma_R,
            "min_wrdf_count": self.min_wrdf_count,
            "strong": self.all_min_wrdfs_are_rdf,
            "Y": sorted(self.y),
        }


class _BitGraph:
    """Bitmask adjacency plus split tables for O(1) neighborhood unions."""

    __slots__ = ("n", "adj", "h", "lo_mask", "lo", "hi")

    def __init__(self, g: Graph):
        self.n = g.n
        self.adj = [sum(1 << u for u in g.neighbors(v)) for v in g.vertices()]
        h = (self.n + 1) // 2
        self.h = h
        self.lo_mask = (1 << h) - 1
        lo = [0] * (1 << h)
        for m in range(1, 1 << h):
            b = m & -m
            lo[m] = lo[m ^ b] | self.adj[b.bit_length() - 1]
        hi = [0] * (1 << (self.n - h))
        for m in range(1, 1 << (self.n - h)):
            b = m & -m
            hi[m] = hi[m ^ b] | self.adj[h + b.bit_length() - 1]
        self.lo = lo
        self.hi = hi

    def nbhd(self, mask: int) -> int:
        return self.lo[mask & self.lo_mask] | self.hi[mask >> self.h]


def _gamma_R_bits(bg: _BitGraph, x: int) -> int:
    # Exact rewrite of the minimum: fix the value-2 set d, then the value-1
    # set is forced to be the x-vertices neither in d nor next to it.
    nbhd = bg.nbhd
    best = 2 * bg.n
    for d in range(1 << bg.n):
        c = 2 * d.bit_count() + (x & ~d & ~nbhd(d)).bit_count()
        if c < best:
            best = c
    return best


def _search_wrdfs(bg: _BitGraph, x0: int, x1: int, bound: int, collect: bool):
    """Depth-first over assignments, vertex order 0..n-1, values tried 0,1,2.

    ``bound`` must be an achievable weight (a Roman number works).  Branches
    whose partial weight already exceeds the best complete weight are pruned;
    weak-domination validity is checked only at complete assignments.  In
    value-only mode the walk additionally skips branches that cannot improve
    on the best weight, which leaves the returned value unchanged.
    """
    n = bg.n
    adj = bg.adj
    lo, hi, h, lom = bg.lo, bg.hi, bg.h, bg.lo_mask
    xall = x0 | x1
    best = bound
    minima: list[tuple[int, int]] = []

    # Repeats _can_rescue's loop inline: the hot check at the leaves, where a shared function measured slower.
    def wrdf_ok(ones: int, twos: int) -> bool:
        pos = ones | twos
        need = xall & ~pos
        while need:
            bit = need & -need
            need ^= bit
            cand = adj[bit.bit_length() - 1] & pos
            ok = False
            while cand:
                vbit = cand & -cand
                cand ^= vbit
                newpos = pos | bit
                if not twos & vbit:
                    newpos &= ~vbit
                if not x0 & ~newpos & ~(lo[newpos & lom] | hi[newpos >> h]):
                    ok = True
                    break
            if not ok:
                return False
        return True

    def rec(i: int, w: int, ones: int, twos: int):
        nonlocal best
        if i == n:
            if wrdf_ok(ones, twos):
                if w < best:
                    best = w
                    if collect:
                        minima.clear()
                        minima.append((ones, twos))
                elif collect and w == best:
                    minima.append((ones, twos))
            return
        rec(i + 1, w, ones, twos)
        bit = 1 << i
        room = best - w if collect else best - w - 1
        if room >= 1:
            rec(i + 1, w + 1, ones | bit, twos)
        if room >= 2:
            rec(i + 1, w + 2, ones, twos | bit)

    rec(0, 0, 0, 0)
    return best, minima


def _can_rescue(bg: _BitGraph, x0: int, pos: int, twos: int, u: int) -> bool:
    lo, hi, h, lom = bg.lo, bg.hi, bg.h, bg.lo_mask
    bit = 1 << u
    cand = bg.adj[u] & pos
    while cand:
        vbit = cand & -cand
        cand ^= vbit
        newpos = pos | bit
        if not twos & vbit:
            newpos &= ~vbit
        if not x0 & ~newpos & ~(lo[newpos & lom] | hi[newpos >> h]):
            return True
    return False


def _require_cap(g: Graph, cap: int):
    if g.n > cap:
        raise SizeCapError(f"graph order {g.n} exceeds the configured cap {cap}")


def gamma_R(g: Graph, x: Iterable[int]) -> int:
    """Minimum weight of an assignment where value-0 vertices of ``x`` see a 2."""
    _require_cap(g, VALUE_CAP)
    return _gamma_R_bits(_BitGraph(g), sum(1 << v for v in vertex_subset(g, x, "x")))


def _weak_search(g: Graph, x0: int, x1: int, collect: bool):
    """The weak search on vertex masks ``x0`` and ``x1`` (disjoint).

    Builds one bit graph and sweeps the Roman number of ``x0 | x1`` once as
    the bound; returns the bit graph, that Roman number, the weak number and
    (when ``collect``) the minimum ``(ones, twos)`` pairs.
    """
    bg = _BitGraph(g)
    roman = _gamma_R_bits(bg, x0 | x1)
    best, minima = _search_wrdfs(bg, x0, x1, roman, collect)
    return bg, roman, best, minima


def gamma_r(g: Graph, x0: Iterable[int], x1: Iterable[int] = ()) -> int:
    """Minimum weight of a weak Roman dominating function for ``(g, x0, x1)``."""
    _require_cap(g, VALUE_CAP)
    m0 = sum(1 << v for v in vertex_subset(g, x0, "x0"))
    m1 = sum(1 << v for v in vertex_subset(g, x1, "x1"))
    if m0 & m1:
        raise ValueError("x0 and x1 must be disjoint")
    return _weak_search(g, m0, m1, False)[2]


def enumerate_minimum_wrdfs(g: Graph, x: Iterable[int]) -> list[Assignment]:
    """All minimum weak Roman dominating functions, lexicographic by digits."""
    _require_cap(g, ENUMERATION_CAP)
    xm = sum(1 << v for v in vertex_subset(g, x, "x"))
    out = []
    for ones, twos in _weak_search(g, xm, 0, True)[3]:
        values = tuple(
            2 if twos >> v & 1 else 1 if ones >> v & 1 else 0 for v in range(g.n)
        )
        out.append(Assignment(g, values))
    return out


def solve_report(g: Graph, x: Iterable[int]) -> SolveReport:
    """One-pass report: both domination numbers, the minimum weak functions,
    whether they are all Roman, and the set of coverable-or-rescuable vertices.
    """
    _require_cap(g, ENUMERATION_CAP)
    xm = sum(1 << v for v in vertex_subset(g, x, "x"))
    bg, roman, best, minima = _weak_search(g, xm, 0, True)
    nbhd = bg.nbhd
    full = (1 << g.n) - 1
    all_rdf = True
    y = 0
    for ones, twos in minima:
        pos = ones | twos
        if xm & ~pos & ~nbhd(twos):
            all_rdf = False
        y |= pos
        zeros = full & ~pos & ~y
        while zeros:
            b = zeros & -zeros
            zeros ^= b
            if _can_rescue(bg, xm, pos, twos, b.bit_length() - 1):
                y |= b
    return SolveReport(
        gamma_r=best,
        gamma_R=roman,
        min_wrdf_count=len(minima),
        all_min_wrdfs_are_rdf=all_rdf,
        y=frozenset(v for v in range(g.n) if y >> v & 1),
    )


def compute_Y(t: Tree, x: Iterable[int]) -> frozenset[int]:
    """Vertices that some minimum weak function covers or can rescue.

    This is well defined whether or not every minimum is Roman; together with
    ``x`` it pins down the unique candidate certificate set for membership
    checks.
    """
    return solve_report(t, x).y


def in_S_oracle(t: Tree, x: Iterable[int]) -> Optional[frozenset[int]]:
    """Definition-level membership test for the strongly-equal class.

    Returns the certificate set when every minimum weak Roman dominating
    function for ``(t, x)`` is Roman, else ``None``.
    """
    report = solve_report(t, x)
    return report.y if report.all_min_wrdfs_are_rdf else None


def strongly_equal(t: Tree) -> bool:
    """True iff every minimum weak Roman dominating function of ``t`` is Roman."""
    return in_S_oracle(t, range(t.n)) is not None
