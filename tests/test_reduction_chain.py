"""The one-pass decider against the reduction chain it replaced.

``reference_chain.chain_decide`` cuts at the end of the lexicographically
smallest longest X-path, relabels every reduced triple and picks Y' as Y*;
``explore_both`` decides both Y' candidates instead.  The decider must reach
the same verdict with as many steps, and replay every trace it accepts with;
``all_pairs_longest_x_path`` compares every pair of marked vertices.
"""

import random
import sys
from collections import deque

from strongroman.generator import random_member
from strongroman.graphs import Tree, longest_x_path
from strongroman.recognizer import Triple, decide_in_S, triple_for_tree, verify_trace

from conftest import caterpillar, prufer_tree, trees_of_order
from reference_chain import chain_decide, explore_both


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


def assert_agrees(tr: Triple, *, search: bool = False) -> bool:
    """The decider against the chain and, with ``search``, the chain against
    the search over both Y' candidates, step for step."""
    ok, trace = decide_in_S(tr)
    ref_ok, ref_steps = chain_decide(tr)
    assert ok == ref_ok, (tr.tree.edges, sorted(tr.x), sorted(tr.y))
    if search:
        assert explore_both(tr) == (ref_ok, ref_steps)
    if ok:
        assert len(trace.steps) == len(ref_steps)
        assert verify_trace(tr, trace)
    return ok


def test_matches_reference_on_all_trees_full_x():
    accepted = sum(
        assert_agrees(triple_for_tree(t), search=True) for n in range(1, 11) for t in trees_of_order(n)
    )
    assert accepted == 18  # the criterion-7 counts summed over orders 1..10


def test_matches_reference_on_oracle_y(oracle_n7):
    accepted = sum(assert_agrees(Triple(t, x, rep.y), search=True) for t, x, rep in oracle_n7)
    assert accepted == sum(rep.all_min_wrdfs_are_rdf for _, _, rep in oracle_n7)


def test_matches_reference_on_random_triples():
    rng = random.Random(6)
    accepted = 0
    for _ in range(3000):
        n = rng.randint(1, 14)
        t = prufer_tree(n, rng)
        y = frozenset(v for v in range(n) if rng.random() < 0.85)
        accepted += assert_agrees(Triple(t, frozenset(v for v in y if rng.random() < 0.7), y))
    assert accepted > 100


def test_matches_reference_on_members_with_y_flips(closure10):
    flipped = 0
    for m in closure10.values():
        assert assert_agrees(m)
        for v in sorted(set(range(m.n)) - m.x)[:3]:
            assert_agrees(Triple(m.tree, m.x, m.y ^ {v}))
            flipped += 1
    assert flipped > 1000


def test_matches_reference_on_grown_members():
    for n in (5, 10, 20, 30, 40, 50, 60):
        for seed in range(3):
            tr, _ = random_member(n, seed)
            assert assert_agrees(tr, search=True)
            extra = sorted(tr.y - tr.x)
            if extra:
                v = random.Random(seed).choice(extra)
                assert_agrees(Triple(tr.tree, tr.x, tr.y - {v}), search=True)


def test_matches_reference_on_grown_members_to_150():
    for n in range(5, 151):
        tr, _ = random_member(n, n % 3)
        assert assert_agrees(tr)
        extra = sorted(tr.y - tr.x)
        if extra:
            assert not assert_agrees(Triple(tr.tree, tr.x, tr.y - {random.Random(n).choice(extra)}))


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
