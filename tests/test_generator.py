import hashlib
import json

import pytest

from strongroman import recognizer
from strongroman.graphs import Tree
from strongroman.generator import (
    OperationNotApplicable,
    OpStep,
    apply_op,
    applicable_steps,
    base_triples,
    enumerate_T,
    random_member,
    replay,
)
from strongroman.recognizer import Triple, decide_in_S, triple_for_tree
from strongroman.solver import SizeCapError, in_S_oracle

from conftest import subsets, trees_of_order

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
    # Triple.anchors keeps the scan, so listing a parent's steps and applying
    # its op-4 and op-5 steps scan the parent once, and a child not at all
    scanned = []
    scan = recognizer.configurations

    def counting(tr):
        scanned.append(tr)  # keeps each scanned triple alive, so ids stay unique
        return scan(tr)

    def once_each() -> set:
        ids = {id(tr) for tr in scanned}
        assert 0 < len(ids) == len(scanned)
        return ids

    monkeypatch.setattr(recognizer, "configurations", counting)
    members = enumerate_T(8)
    assert once_each() <= {id(m) for m in members.values() if m.n < 8}
    for seed in range(3):
        scanned.clear()
        tr, steps = random_member(60, seed)
        assert len(once_each()) <= len(steps)  # one parent per step
        scanned.clear()
        assert replay(steps) == tr
        assert len(once_each()) <= len(steps)
