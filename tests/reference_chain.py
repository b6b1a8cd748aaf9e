"""The reduction chain as the recognizer ran it before its one-pass form.

Each step finds the far end of the lexicographically smallest longest X-path
(``find_locus``), builds the reduced triple on the split-off component and
relabels it canonically.  In the three-or-more pattern the chain keeps the Y'
that equals Y*(T', X'), the vertices that see a 2 under some minimum Roman
function, which the rerooting pass below computes; ``explore_both`` instead
decides both Y' candidates.  Steps carry the old trace fields, the child's
canonical key included.  The tests use both as references for the decider.
"""

from __future__ import annotations

from collections import namedtuple

from strongroman.graphs import Tree
from strongroman.recognizer import Triple, _classify, find_locus
from strongroman.treedp import _INF, _combine, _constrained_set, _down_terms, _rooted

ChainStep = namedtuple("ChainStep", "u v ws ell case y_prime_has_u child_canonical")


# -- Y* by rerooting the Roman tree DP -----------------------------------------


def _all_roots(t: Tree, xset: frozenset[int]) -> tuple[int, list[int]]:
    """``gamma_R_tree`` and, per vertex ``w``, the least weight with f(w) = 2.

    Rerooting: the branch at ``parent(v)`` seen from ``v`` is the parent's
    state over its other branches; sums leave one branch out by subtraction
    and the penalty minimum by keeping the two smallest.
    """
    parent, order = _rooted(t, 0)
    down = _down_terms(t, xset, parent, order)
    up = [None] * t.n  # terms of the branch at parent(v), as seen from v
    forced = [0] * t.n
    for v in order:
        branches = [(c, down[c]) for c in t.neighbors(v) if c != parent[v]]
        if v != 0:
            branches.append((parent[v], up[v]))
        any_sum = no2_sum = 0
        best = second = (_INF, -1)
        for c, (a, b, p) in branches:
            any_sum += a
            no2_sum += b
            if p < best[0]:
                best, second = (p, c), best
            elif p < second[0]:
                second = (p, c)
        forced[v] = 2 + any_sum
        for c, (a, b, _) in branches:
            if c != parent[v]:
                pen = second[0] if best[1] == c else best[0]
                up[c] = _combine(any_sum - a, no2_sum - b, pen, v in xset)
    return int(down[0][1]), forced


def forced_two_weights(t: Tree, x) -> list[int]:
    """Per vertex ``w``, the minimum weight as in ``gamma_R_tree`` with f(w) = 2."""
    return _all_roots(t, _constrained_set(t, x))[1]


def two_neighbourhood(t: Tree, x) -> frozenset[int]:
    """The vertices with a 2 in their closed neighbourhood under some minimum
    Roman function of ``(t, x)``: ``N[S2]`` where ``S2`` holds the vertices
    whose forced-2 weight equals ``gamma_R_tree``.

    For a member triple ``(t, x, y)`` other than the constrained one-vertex
    seed this is exactly ``y`` (acceptance property (iv)).
    """
    gamma, forced = _all_roots(t, _constrained_set(t, x))
    out = set()
    for w in t.vertices():
        if forced[w] == gamma:
            out.add(w)
            out.update(t.neighbors(w))
    return frozenset(out)


# -- the chain -------------------------------------------------------------------


def classify_locus(tr: Triple, loc) -> tuple:
    """``_classify`` on the facts of a ``find_locus`` configuration."""
    branches = [(w, w in tr.y, len((wset - {w}) & tr.y)) for w, wset in zip(loc.ws, loc.w_sets)]
    return _classify(loc.ell, loc.u in tr.x, loc.u in tr.y and loc.v in tr.y, branches)


def child_triple(tr: Triple, loc, with_u: bool) -> Triple:
    """The reduced triple on the kept component, in its own labelling."""
    to_prime = loc.split.to_prime
    x_new = frozenset(to_prime[a] for a in tr.x if a in to_prime and a != loc.u)
    y_new = set(to_prime[a] for a in tr.y if a in to_prime and a != loc.u)
    if with_u:
        y_new.add(to_prime[loc.u])
    return Triple(loc.split.t_prime, x_new, frozenset(y_new))


def base_case(tr: Triple) -> tuple[bool, str]:
    """(verdict, base marker) for triples with |X| <= 2."""
    if not tr.x:
        return not tr.y, "x-empty"
    return len(tr.x) == 1 and tr.n == 1 and len(tr.y) == 1, "k1-full"


def chain_decide(tr: Triple) -> tuple[bool, tuple[ChainStep, ...]]:
    """Verdict and, when accepting, the steps of the Y*-guided chain."""
    tr, _ = tr.canonicalized()
    steps = []
    while len(tr.x) > 2:
        loc = find_locus(tr)
        case, failure = classify_locus(tr, loc)
        if failure is not None:
            return False, ()
        child = child_triple(tr, loc, False)
        has_u = False
        if case == "b" and len(child.x) > 2:
            u_prime = loc.split.to_prime[loc.u]
            y_star = two_neighbourhood(child.tree, child.x)
            if y_star - {u_prime} != child.y:
                return False, ()
            has_u = u_prime in y_star
            child = Triple(child.tree, child.x, y_star)
        child_c, _ = child.canonicalized()
        steps.append(ChainStep(loc.u, loc.v, loc.ws, loc.ell, case, has_u, child_c.canonical_key))
        tr = child_c
    ok, _ = base_case(tr)
    return ok, tuple(steps) if ok else ()


def explore_both(tr: Triple) -> tuple[bool, tuple[ChainStep, ...]]:
    """As ``chain_decide``, but deciding both Y' candidates of every
    three-or-more step (memoized on canonical keys); at most one may pass.
    """
    canon, _ = tr.canonicalized()
    return _search(canon, {})


def _search(tr: Triple, memo: dict) -> tuple[bool, tuple[ChainStep, ...]]:
    key = tr.canonical_key
    if key in memo:
        return memo[key]
    if len(tr.x) <= 2:
        ok, _ = base_case(tr)
        result = (ok, ())
    else:
        loc = find_locus(tr)
        case, _ = classify_locus(tr, loc)
        accepted = []
        for has_u in {"a": (False,), "b": (False, True)}.get(case, ()):
            child_c, _ = child_triple(tr, loc, has_u).canonicalized()
            ok, sub = _search(child_c, memo)
            if ok:
                accepted.append((has_u, child_c, sub))
        assert len(accepted) <= 1, "both Y' candidates were accepted"
        if accepted:
            has_u, child_c, sub = accepted[0]
            step = ChainStep(loc.u, loc.v, loc.ws, loc.ell, case, has_u, child_c.canonical_key)
            result = (True, (step,) + sub)
        else:
            result = (False, ())
    memo[key] = result
    return result
