import gc
import hashlib
import json
import random
import re
import weakref
from functools import cached_property

import pytest

from strongroman.graphs import Tree
from strongroman.generator import (
    OperationNotApplicable,
    OpStep,
    _Builder,
    _Pool,
    apply_op,
    applicable_steps,
    base_triples,
    enumerate_T,
    random_member,
    replay,
)
from strongroman.recognizer import Triple, decide_in_S, triple_for_tree
from strongroman.solver import SizeCapError, in_S_oracle

from conftest import run_child, subsets, trees_of_order

EMPTY, FULL = base_triples()
K13_FULL = triple_for_tree(Tree(4, [(1, 0), (1, 2), (1, 3)]))
K14_FULL = triple_for_tree(Tree(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))


class TestOpStep:
    def test_variant_ranges(self):
        OpStep(2, 0, 1)
        OpStep(3, 0, 3)
        with pytest.raises(ValueError):
            OpStep(1, 0, 1)
        with pytest.raises(ValueError):
            OpStep(3, 0, 4)
        with pytest.raises(ValueError):
            OpStep(6, 0)

    def test_json_roundtrip(self):
        s = OpStep(4, 2, 1)
        assert OpStep.from_json_dict(s.to_json_dict()) == s


class TestApplyOp:
    def test_op1_grows_pendant(self):
        out = apply_op(EMPTY, OpStep(1, 0))
        assert out.tree.edges == ((0, 1),) and out.x == out.y == frozenset()

    def test_op1_rejects_y_anchor(self):
        with pytest.raises(ValueError, match="outside Y"):
            apply_op(FULL, OpStep(1, 0))

    def test_op2_builds_star(self):
        out = apply_op(EMPTY, OpStep(2, 0, 1))
        assert out.canonical_key == K13_FULL.canonical_key
        partial = apply_op(EMPTY, OpStep(2, 0, 0))
        assert sorted(partial.x) == [0, 2, 3] and sorted(partial.y) == [0, 1, 2, 3]

    def test_op2_rejects_y_anchor(self):
        # anchoring the three-vertex extension at a Y-vertex would need a
        # second certificate set for the same tree and constraint set
        base = apply_op(EMPTY, OpStep(2, 0, 0))  # star, center outside X but in Y
        center = next(iter(base.y - base.x))
        with pytest.raises(ValueError, match="outside Y"):
            apply_op(base, OpStep(2, center, 0))

    def test_op3_builds_bigger_star(self):
        out = apply_op(EMPTY, OpStep(3, 0, 3))
        assert out.canonical_key == K14_FULL.canonical_key
        with pytest.raises(ValueError, match="outside X"):
            apply_op(FULL, OpStep(3, 0, 0))

    def test_op4_extends_cut_vertex(self):
        star = apply_op(EMPTY, OpStep(2, 0, 1))  # full star on 4 vertices
        center = next(v for v in star.tree.vertices() if star.tree.degree(v) == 3)
        grown = apply_op(star, OpStep(4, center, 1))
        assert grown.n == 5 and grown.x == grown.y == frozenset(range(5))
        # and the grown star is the same member op3 builds directly
        assert grown.canonical_key == K14_FULL.canonical_key

    def test_op4_rejects_leaf_anchor(self):
        star = apply_op(EMPTY, OpStep(2, 0, 1))
        leaf = next(v for v in star.tree.vertices() if star.tree.degree(v) == 1)
        with pytest.raises(ValueError, match="cut vertex"):
            apply_op(star, OpStep(4, leaf))

    def test_op5_extends_branch_root(self):
        star = apply_op(EMPTY, OpStep(2, 0, 1))
        center = next(v for v in star.tree.vertices() if star.tree.degree(v) == 3)
        leaf = next(v for v in star.tree.vertices() if star.tree.degree(v) == 1)
        grown = apply_op(star, OpStep(5, leaf))
        assert grown.n == 5
        assert grown.x == star.x and grown.y == star.y
        with pytest.raises(ValueError, match="branch root"):
            apply_op(star, OpStep(5, center))

    def test_bad_anchor(self):
        with pytest.raises(ValueError, match="not a vertex"):
            apply_op(EMPTY, OpStep(1, 5))


class TestEnumerate:
    def test_order_one_is_the_two_seeds(self):
        members = enumerate_T(1)
        got = sorted((sorted(m.x), sorted(m.y)) for m in members.values())
        assert got == [([], []), ([0], [0])]

    def test_order_two(self):
        members = enumerate_T(2)
        order2 = [m for m in members.values() if m.n == 2]
        assert [(sorted(m.x), sorted(m.y)) for m in order2] == [([], [])]
        assert not any(len(m.x) == 2 for m in members.values())

    def test_order_four_contains_full_star(self):
        assert K13_FULL.canonical_key in enumerate_T(4)

    def test_no_member_breaks_the_set_invariants(self):
        for m in enumerate_T(6).values():
            assert m.x <= m.y
            assert len(m.x) != 2

    def test_monotone_in_bound(self):
        small = enumerate_T(5)
        large = enumerate_T(6)
        assert set(small) <= set(large)
        assert {k for k, m in large.items() if m.n <= 5} == set(small)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            enumerate_T(11)
        with pytest.raises(ValueError):
            enumerate_T(0)

    def test_matches_oracle_both_directions_small(self):
        # soundness and completeness against the exhaustive oracle (n <= 6
        # here; the n <= 7 sweep runs in the acceptance suite)
        members = enumerate_T(6)
        for m in members.values():
            assert in_S_oracle(m.tree, m.x) == m.y
            ok, _ = decide_in_S(m)
            assert ok
        seen = set(members)
        for n in range(1, 7):
            for t in trees_of_order(n):
                for x in subsets(n):
                    y = in_S_oracle(t, x)
                    if y is not None:
                        assert Triple(t, x, y).canonical_key in seen


class TestRandomMember:
    def test_order_one(self):
        tr, steps = random_member(1, seed=0)
        assert steps == [] and tr.n == 1

    def test_deterministic_and_replayable(self):
        for seed in range(12):
            a, steps_a = random_member(6, seed=seed)
            b, steps_b = random_member(6, seed=seed)
            assert steps_a == steps_b
            assert a.canonical_key == b.canonical_key
            replayed = replay(steps_a)
            assert replayed.canonical_key == a.canonical_key

    def test_members_are_members(self):
        for seed in range(20):
            tr, _ = random_member(7, seed=seed)
            assert tr.n == 7
            ok, _ = decide_in_S(tr)
            assert ok

    def test_order_two_never_fully_constrained(self):
        for seed in range(30):
            tr, _ = random_member(2, seed=seed)
            assert tr.x == frozenset()

    @pytest.mark.parametrize(
        "n,seed,digest",
        [
            (40, 0, "b44bcf042b284442408480551758298111b67b36d1fce94839ba8e841d075bdd"),
            (80, 0, "909ea21c850f4fddd59c95ed40eee5c485c42b537d4650a76f23949fe0c60e8f"),
            (160, 0, "b71ea319c4322dfaefc5dbb1c92b30391156aa323dcde9fe216119d6a7733e7d"),
            (120, 5, "d08be9ec8cdd6b0211f0a48d2ae74122bf27715ec37cce324efb8adb7838ff98"),
        ],
    )
    def test_pinned_step_lists(self, n, seed, digest):
        # seeded growth picks from the applicable steps in yield order, so a
        # change of that order or of any anchor set changes these digests
        _, steps = random_member(n, seed)
        text = json.dumps([s.to_json_dict() for s in steps], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_growth_never_dead_ends(self, closure10):
        # every member but the constrained seed, which growth never starts
        # from, has a one-vertex step, so seeded growth reaches any order
        stuck = [
            key
            for key, m in closure10.items()
            if (m.n, m.x) != (1, {0})
            and not any(s.op in (1, 4, 5) for s in applicable_steps(m, m.n + 1))
        ]
        assert len(closure10) == 2097 and not stuck

    def test_pinned_closure(self, closure10):
        # keys in discovery order with each representative's edges, X and Y
        rows = [[key, [list(e) for e in m.tree.edges], sorted(m.x), sorted(m.y)] for key, m in closure10.items()]
        digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        assert digest == "60283fd0b19e97c53fde5455c5827eda53920986779e80f09b6d79571383bcfb"


def test_applicable_steps_respect_budget():
    steps = list(applicable_steps(EMPTY, 4))
    assert any(s.op == 2 for s in steps)
    assert all(s.op != 3 for s in steps)  # op 3 adds four vertices: overshoots
    steps = list(applicable_steps(EMPTY, 2))
    assert {s.op for s in steps} == {1}
    assert list(applicable_steps(FULL, 10)) == []  # the constrained seed is inert


def test_apply_op_accepts_exactly_the_yielded_anchors():
    for tr in enumerate_T(7).values():
        for op in (4, 5):
            yielded = {s.anchor for s in applicable_steps(tr, tr.n + 1) if s.op == op}
            accepted = set()
            for a in tr.tree.vertices():
                try:
                    apply_op(tr, OpStep(op, a))
                except OperationNotApplicable:
                    continue
                accepted.add(a)
            assert accepted == yielded


def test_configurations_scanned_once_per_parent(monkeypatch):
    # Triple.anchors keeps its pass, so listing a parent's steps and applying
    # its op-4 and op-5 steps scan the parent once, and a child not at all;
    # growth and replay keep the anchors on the builder and scan no triple
    scanned = []
    scan = Triple.anchors.func

    def counting(tr):
        scanned.append(tr)  # keeps each scanned triple alive, so ids stay unique
        return scan(tr)

    counted = cached_property(counting)
    counted.__set_name__(Triple, "anchors")
    monkeypatch.setattr(Triple, "anchors", counted)
    members = enumerate_T(8)
    ids = {id(tr) for tr in scanned}
    assert 0 < len(ids) == len(scanned)
    assert ids <= {id(m) for m in members.values() if m.n < 8}
    scanned.clear()
    for seed in range(3):
        tr, steps = random_member(60, seed)
        assert replay(steps) == tr
    assert scanned == []


def builder_anchors(b: _Builder) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(tuple(v for v in range(b.n) if v in pool) for pool in b.pools[2:])


@pytest.mark.parametrize("n", [12, 60, 200, 500])
def test_builder_anchors_follow_every_step(n):
    # the anchors kept up to date on the builder equal a fresh scan of the
    # triple that apply_op builds, after every step of seeded growth
    for seed in range(4):
        grown, steps = random_member(n, seed)
        builder, tr = _Builder(EMPTY, n), EMPTY
        for step in steps:
            builder.apply(step)
            tr = apply_op(tr, step)
            assert builder_anchors(builder) == tr.anchors
        assert builder.triple() == tr == grown


def test_builder_seeded_from_every_member(closure10):
    # a builder started from any member of enumerate_T(8) holds its anchors,
    # and applying any step there (replay from that member) gives what
    # apply_op gives
    for m in (m for m in closure10.values() if m.n <= 8):
        assert builder_anchors(_Builder(m, m.n)) == m.anchors
        for step in applicable_steps(m, m.n + 4):
            assert replay([step], m) == apply_op(m, step)


def test_builder_anchors_on_every_small_triple():
    # the anchor characterization holds for any X <= Y, member or not: every
    # tree up to order 7 with every such pair
    for n in range(1, 8):
        for t in trees_of_order(n):
            for y in subsets(n):
                for x in subsets(n):
                    if x <= y:
                        tr = Triple(t, x, y)
                        assert builder_anchors(_Builder(tr, n)) == tr.anchors


def counted_anchors(b: _Builder) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(tuple(v for v in range(b.n) if v in pool) for pool in b.counted[2:])


@pytest.mark.parametrize("n", [12, 60, 200, 500])
def test_draw_pools_follow_the_rule(n):
    # after every draw of seeded growth, the cut vertices and branch roots
    # that draw counts equal the rule's, which apply checks anchors by
    for seed in range(4):
        builder, rng = _Builder(EMPTY, n), random.Random(seed)
        while builder.n < n:
            step = builder.draw(rng, n)
            assert counted_anchors(builder) == builder_anchors(builder)
            builder.apply(step)


def test_draw_from_a_started_builder(closure10):
    # a builder started from a member counts pools that already have members
    # at its first draw, and draws what rng.choice over applicable_steps draws
    for i, m in enumerate(m for m in closure10.values() if 1 < m.n <= 8):
        builder, limit = _Builder(m, m.n + 4), m.n + 4
        expected = random.Random(i).choice(list(applicable_steps(m, limit)))
        assert builder.draw(random.Random(i), limit) == expected
        assert counted_anchors(builder) == m.anchors


def test_replay_counts_nothing(monkeypatch):
    # replay checks anchors by the rule alone: it builds no Fenwick counts,
    # settles nothing and marks no vertex dirty
    grown, steps = random_member(20_000, 0)
    kept, build = [], _Builder.triple

    def refuse(*args):
        raise AssertionError("replay counted a pool")

    def triple(b):
        kept.append(b)
        return build(b)

    monkeypatch.setattr(_Pool, "_count", refuse)
    monkeypatch.setattr(_Builder, "_settle", refuse)
    monkeypatch.setattr(_Builder, "triple", triple)
    assert replay(steps) == grown
    [b] = kept
    assert b.dirty is None and b.counted is None
    assert all(pool.tree is None for pool in b.pools[:2])


def test_replay_frees_its_builder(monkeypatch):
    # the rule sets hold the builder's lists, not the builder, so no cycle
    # keeps a replayed builder alive for the garbage collector to find
    refs, build = [], _Builder.triple

    def triple(b):
        refs.append(weakref.ref(b))
        return build(b)

    monkeypatch.setattr(_Builder, "triple", triple)
    gc.disable()
    try:
        replay(random_member(200, 0)[1])
        assert refs[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("cap", range(1, 41))
def test_pool_matches_a_list(cap):
    # membership, the member count, and the k-th member and the k-th
    # non-member for every valid k, against a flag list, from empty through
    # random sets and unsets and back to empty
    rng = random.Random(cap)
    pool, flags = _Pool(cap), [False] * cap

    def check():
        assert [v in pool for v in range(cap)] == flags
        assert pool.size == sum(flags)
        for member in (True, False):
            listed = [v for v in range(cap) if flags[v] == member]
            assert [pool.kth(k, member) for k in range(len(listed))] == listed

    check()
    for _ in range(4 * cap):
        v, member = rng.randrange(cap), rng.random() < 0.5
        assert pool.set(v, member) == (flags[v] != member)
        flags[v] = member
        check()
    for v in range(cap):
        pool.set(v, False)
    flags = [False] * cap
    check()
    assert pool.tree == [0] * (cap + 1)


# Bytes per vertex that growth keeps, by tracemalloc over the whole
# process: the builder and its step list after growing to order n.
_GROWTH_MEMORY_CHILD = """
import json, random, sys, tracemalloc
from strongroman.generator import _Builder, base_triples
n = int(sys.argv[1])
tracemalloc.start()
builder, steps, rng = _Builder(base_triples()[0], n), [], random.Random(0)
while builder.n < n:
    step = builder.draw(rng, n)
    builder.apply(step)
    steps.append(step)
kept = tracemalloc.get_traced_memory()[0]
print(json.dumps(kept / n))
"""


# Bytes per vertex that replay keeps: the builder after applying a step
# list of order n, grown before tracing starts.
_REPLAY_MEMORY_CHILD = """
import json, sys, tracemalloc
from strongroman.generator import _Builder, base_triples, random_member
n = int(sys.argv[1])
_, steps = random_member(n, 0)
tracemalloc.start()
builder = _Builder(base_triples()[0], n)
for step in steps:
    builder.apply(step)
print(json.dumps(tracemalloc.get_traced_memory()[0] / n))
"""


def test_growth_memory_per_vertex():
    # the builder holds each fact once: the adjacency lists, the per-vertex
    # counts and the four pools, with no edge list and no X or Y set beside
    # them; at 20,000 vertices growth keeps 296 bytes per vertex under
    # Python 3.11 and 3.12 and 287 under 3.10 (312 before ``OpStep`` had
    # slots, 431 with the edge list and the sets)
    kept = run_child(_GROWTH_MEMORY_CHILD, 20_000)
    assert kept <= 320, kept


def test_replay_memory_per_vertex():
    # a builder that never draws keeps flags for Y and X and no Fenwick
    # counts or counted anchors: at 20,000 vertices replay keeps 224 bytes
    # per vertex under Python 3.11 (258 with the counts of all four pools)
    kept = run_child(_REPLAY_MEMORY_CHILD, 20_000)
    assert kept <= 240, kept


def test_replay_refuses_what_apply_op_refuses():
    for tr in enumerate_T(7).values():
        for op, variant in ((1, 0), (2, 0), (3, 0), (4, 1), (5, 0)):
            for a in (-1, *tr.tree.vertices(), tr.n):
                step = OpStep(op, a, variant)
                try:
                    expected = apply_op(tr, step)
                except OperationNotApplicable as err:
                    with pytest.raises(OperationNotApplicable, match=f"^{re.escape(str(err))}$"):
                        replay([step], tr)
                else:
                    assert replay([step], tr) == expected


# The canonical key of a path grown by operation 1 at the newest vertex
# (X = Y = empty), in a child capped at 1 GiB of address space.
_PATH_KEY_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import json
from strongroman.generator import OpStep, replay
tr = replay([OpStep(1, i) for i in range(39_999)])
tr.canonical_key
print(json.dumps(tr.n))
"""


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the nested-string canonical key is quadratic in depth, "
    "so the key of a 40,000-vertex path raises MemoryError under 1 GiB",
)
def test_path_key_in_bounded_memory():
    assert run_child(_PATH_KEY_CHILD) == 40_000
