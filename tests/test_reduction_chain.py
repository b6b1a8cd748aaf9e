"""The reduction chain against references that search instead of choosing.

``reference_decide`` explores both Y' candidates in the three-or-more
pattern, as the recognizer did before it picked Y' by ``two_neighbourhood``;
``all_pairs_longest_x_path`` compares every pair of marked vertices.  The
chain must reach the same verdicts and byte-identical accepting traces.
"""

import json
import random
import sys
from collections import deque

from strongroman.generator import random_member
from strongroman.graphs import Tree, longest_x_path
from strongroman.recognizer import (
    ReductionTrace,
    TraceStep,
    Triple,
    _base_case,
    _child_triple,
    _classify,
    decide_in_S,
    find_locus,
    triple_for_tree,
)

from conftest import prufer_tree, trees_of_order


def reference_decide(tr: Triple) -> tuple[bool, ReductionTrace]:
    canon, _ = tr.canonicalized()
    return _search(canon, {})


def _search(tr: Triple, memo: dict) -> tuple[bool, ReductionTrace]:
    key = tr.canonical_key
    if key in memo:
        return memo[key]
    if len(tr.x) <= 2:
        ok, marker = _base_case(tr)
        result = (ok, ReductionTrace((), marker, None) if ok else ReductionTrace((), None, marker))
    else:
        loc = find_locus(tr)
        case, _ = _classify(tr, loc)
        accepted = []
        for has_u in {"a": (False,), "b": (False, True)}.get(case, ()):
            child_c, _ = _child_triple(tr, loc, has_u).canonicalized()
            ok, sub = _search(child_c, memo)
            if ok:
                accepted.append((has_u, child_c, sub))
        assert len(accepted) <= 1, "both Y' candidates were accepted"
        if accepted:
            has_u, child_c, sub = accepted[0]
            step = TraceStep(loc.u, loc.v, loc.ws, loc.ell, case, has_u, child_c.canonical_key)
            result = (True, ReductionTrace((step,) + sub.steps, sub.base, None))
        else:
            result = (False, ReductionTrace((), None, "no reduced triple is accepted"))
    memo[key] = result
    return result


def all_pairs_longest_x_path(t: Tree, x) -> list[int]:
    xs = sorted(set(x))
    best_key = None
    best_path = None
    for a in xs:
        parent = {a: a}
        dist = {a: 0}
        todo = deque([a])
        while todo:
            v = todo.popleft()
            for u in t.neighbors(v):
                if u not in parent:
                    parent[u] = v
                    dist[u] = dist[v] + 1
                    todo.append(u)
        for b in xs:
            if b == a:
                continue
            path = [b]
            while path[-1] != a:
                path.append(parent[path[-1]])
            path.reverse()
            key = (-dist[b], tuple(path))
            if best_key is None or key < best_key:
                best_key = key
                best_path = path
    return best_path


def assert_agrees(tr: Triple) -> bool:
    ok, trace = decide_in_S(tr)
    ref_ok, ref_trace = reference_decide(tr)
    assert ok == ref_ok, (tr.tree.edges, sorted(tr.x), sorted(tr.y))
    if ok:
        assert json.dumps(trace.to_json_dict()) == json.dumps(ref_trace.to_json_dict())
    return ok


def caterpillar(k: int) -> Tree:
    """A spine of ``k`` vertices with three leaves on each; a member under X = Y = V."""
    edges = [(i, i + 1) for i in range(k - 1)]
    for i in range(k):
        edges += [(i, k + 3 * i + j) for j in range(3)]
    return Tree(4 * k, edges)


def test_matches_reference_on_all_trees_full_x():
    accepted = sum(
        assert_agrees(triple_for_tree(t)) for n in range(1, 11) for t in trees_of_order(n)
    )
    assert accepted == 18  # the criterion-7 counts summed over orders 1..10


def test_matches_reference_on_oracle_y(oracle_n7):
    accepted = sum(assert_agrees(Triple(t, x, rep.y)) for t, x, rep in oracle_n7)
    assert accepted == sum(rep.all_min_wrdfs_are_rdf for _, _, rep in oracle_n7)


def test_matches_reference_on_grown_members():
    for n in (5, 10, 20, 30, 40, 50, 60):
        for seed in range(3):
            tr, _ = random_member(n, seed)
            assert assert_agrees(tr)
            extra = sorted(tr.y - tr.x)
            if extra:
                v = random.Random(seed).choice(extra)
                assert_agrees(Triple(tr.tree, tr.x, tr.y - {v}))


def test_longest_x_path_matches_all_pairs_reference():
    rng = random.Random(40)
    for _ in range(1000):
        n = rng.randint(2, 40)
        t = prufer_tree(n, rng)
        p = rng.random()
        x = {v for v in range(n) if rng.random() < p} | set(rng.sample(range(n), 2))
        assert longest_x_path(t, x) == all_pairs_longest_x_path(t, x), (t.edges, sorted(x))


def test_long_chain_runs_in_constant_stack():
    tr = triple_for_tree(caterpillar(150))
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        ok, trace = decide_in_S(tr)
    finally:
        sys.setrecursionlimit(limit)
    assert sys.getrecursionlimit() == limit
    assert ok and len(trace.steps) == 150
