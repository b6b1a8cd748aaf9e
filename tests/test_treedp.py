import itertools
import random
import time

import pytest

from strongroman.graphs import Tree
from strongroman.roman import Assignment, is_rdf
from strongroman.solver import gamma_R, solve_report
from strongroman.treedp import gamma_R_tree

from conftest import prufer_tree, subsets, trees_of_order
from reference_chain import forced_two_weights, two_neighbourhood

K1 = Tree(1, ())
P3 = Tree(3, [(0, 1), (1, 2)])
P4 = Tree(4, [(0, 1), (1, 2), (2, 3)])


def test_examples():
    assert gamma_R_tree(K1, range(1)) == 1
    assert gamma_R_tree(P3, range(3)) == 2
    assert gamma_R_tree(P4, ()) == 0


def test_validation():
    with pytest.raises(ValueError):
        gamma_R_tree(P3, {5})
    with pytest.raises(ValueError):
        gamma_R_tree(P3, range(3), root=9)


def test_matches_oracle_all_small_trees_all_x():
    for n in range(1, 8):
        for t in trees_of_order(n):
            for x in subsets(n):
                assert gamma_R_tree(t, x) == gamma_R(t, x)


def test_matches_oracle_random():
    rng = random.Random(31)
    for _ in range(150):
        t = prufer_tree(rng.randint(1, 11), rng)
        x = frozenset(v for v in range(t.n) if rng.random() < 0.6)
        assert gamma_R_tree(t, x) == gamma_R(t, x)


def test_root_invariance():
    rng = random.Random(8)
    for _ in range(30):
        t = prufer_tree(rng.randint(2, 10), rng)
        x = frozenset(v for v in range(t.n) if rng.random() < 0.5)
        values = {gamma_R_tree(t, x, root=r) for r in range(t.n)}
        assert len(values) == 1


def test_large_tree_smoke():
    # linear-time sanity run on a hundred-thousand-vertex random tree;
    # no strict bound asserted, only that it completes promptly
    rng = random.Random(1)
    t = prufer_tree(100_000, rng)
    start = time.monotonic()
    value = gamma_R_tree(t, range(t.n))
    elapsed = time.monotonic() - start
    assert value > 0
    assert elapsed < 10.0


def relabelled(n, edges, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Tree(n, [(perm[a], perm[b]) for a, b in edges])


@pytest.mark.parametrize(
    "n, edges, expected",
    [
        (10_000, [(i, i + 1) for i in range(9_999)], -(-2 * 10_000 // 3)),  # P_n
        (10_000, [(0, i) for i in range(1, 10_000)], 2),  # K_{1,n-1}
        # C_k with k = 2500: a spine of k vertices with three leaves on each
        (
            10_000,
            [(i, i + 1) for i in range(2_499)]
            + [(i, 2_500 + 3 * i + j) for i in range(2_500) for j in range(3)],
            5_000,
        ),
    ],
    ids=["path", "star", "caterpillar"],
)
def test_closed_forms_at_ten_thousand(n, edges, expected):
    t = relabelled(n, edges, seed=11)
    assert gamma_R_tree(t, range(n)) == expected
    assert gamma_R_tree(t, range(n), root=n - 1) == expected


def naive_forced_two_weights(t: Tree, x) -> list:
    best = [None] * t.n
    for vals in itertools.product((0, 1, 2), repeat=t.n):
        f = Assignment(t, vals)
        if is_rdf(t, x, f):
            for w in range(t.n):
                if vals[w] == 2 and (best[w] is None or f.weight < best[w]):
                    best[w] = f.weight
    return best


def test_forced_two_weights_match_naive():
    for n in range(1, 7):
        for t in trees_of_order(n):
            for x in subsets(n):
                assert forced_two_weights(t, x) == naive_forced_two_weights(t, x)


def test_forced_two_weights_never_below_gamma():
    rng = random.Random(12)
    for _ in range(300):
        t = prufer_tree(rng.randint(1, 60), rng)
        x = frozenset(v for v in range(t.n) if rng.random() < rng.random())
        assert min(forced_two_weights(t, x)) >= gamma_R_tree(t, x)


def test_two_neighbourhood_is_y_of_generated_members(closure10):
    checked = 0
    for m in closure10.values():
        if m.n == 1 and m.x:
            continue  # the constrained one-vertex seed: Y = V, no 2 needed
        assert two_neighbourhood(m.tree, m.x) == solve_report(m.tree, m.x).y == m.y
        checked += 1
    assert checked == len(closure10) - 1


def test_two_neighbourhood_is_y_of_oracle_members(oracle_n7):
    checked = 0
    for t, x, rep in oracle_n7:
        if rep.all_min_wrdfs_are_rdf and not (t.n == 1 and x):
            assert two_neighbourhood(t, x) == rep.y
            checked += 1
    assert checked > 0
