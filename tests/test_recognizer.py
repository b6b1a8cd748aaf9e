import contextlib
import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

import strongroman
from strongroman.graphs import Tree, format_edge_list
from strongroman.recognizer import (
    BASE_K1_FULL,
    BASE_X_EMPTY,
    ReductionTrace,
    TraceStep,
    Triple,
    _Chain,
    _decide,
    _locus,
    configuration_case,
    configurations,
    decide_in_S,
    find_locus,
    triple_for_tree,
    verify_trace,
)
from strongroman.solver import solve_report

from conftest import caterpillar, prufer_tree, subsets, trees_of_order
from reference_chain import child_triple

K1 = Tree(1, ())
P4 = Tree(4, [(0, 1), (1, 2), (2, 3)])
P5 = Tree(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
K13C1 = Tree(4, [(1, 0), (1, 2), (1, 3)])  # star with center 1
K14 = Tree(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
P2 = Tree(2, [(0, 1)])


class TestTriple:
    def test_validation(self):
        with pytest.raises(ValueError):
            Triple(P4, frozenset({0}), frozenset())  # x not inside y
        with pytest.raises(ValueError):
            Triple(P4, frozenset(), frozenset({9}))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_y_outside_the_vertex_range(self, bad):
        with pytest.raises(ValueError, match=rf"^y contains vertex {bad} outside 0\.\.3$"):
            Triple(P4, frozenset({0}), frozenset({0, 1, bad}))

    def test_canonical_key_is_isomorphism_invariant(self):
        a = Triple(Tree(3, [(0, 1), (1, 2)]), frozenset({0}), frozenset({0, 1}))
        b = Triple(Tree(3, [(2, 1), (1, 0)]), frozenset({2}), frozenset({2, 1}))
        assert a.canonical_key == b.canonical_key

    def test_canonicalized_idempotent(self):
        tr = triple_for_tree(K14)
        canon, _ = tr.canonicalized()
        again, mapping = canon.canonicalized()
        assert again == canon
        assert mapping == {v: v for v in range(canon.n)}


class TestFindLocus:
    def test_p4(self):
        loc = find_locus(triple_for_tree(P4))
        assert (loc.u, loc.v, loc.ws, loc.ell) == (2, 1, (0,), 1)

    def test_star_center_is_cut_vertex(self):
        loc = find_locus(triple_for_tree(K13C1))
        assert loc.v == 1
        assert loc.ell == 2
        assert len(loc.ws) == 2  # the two non-path leaves

    def test_k14(self):
        loc = find_locus(triple_for_tree(K14))
        assert loc.v == 0 and loc.ell == 3 and len(loc.ws) == 3

    def test_requires_three_marked(self):
        with pytest.raises(ValueError):
            find_locus(Triple(P4, frozenset({0, 3}), frozenset(range(4))))


def cut(tr, loc):
    """``(case, failure)`` of a fresh chain's cut at a locus."""
    return _Chain(tr).cut(loc.v, loc.u)[2:]


class TestReduce:
    def test_p4_rejected(self):
        tr = triple_for_tree(P4)
        assert cut(tr, find_locus(tr)) == (None, "a single branch meets X (need at least two)")

    def test_star_case_a(self):
        tr = triple_for_tree(K13C1)
        loc = find_locus(tr)
        assert cut(tr, loc) == ("a", None)
        child = child_triple(tr, loc, False)
        assert child.n == 1 and child.x == frozenset() and child.y == frozenset()

    def test_k14_case_b(self):
        tr = triple_for_tree(K14)
        loc = find_locus(tr)
        assert cut(tr, loc) == ("b", None)
        kids = [child_triple(tr, loc, with_u) for with_u in (False, True)]
        assert [sorted(k.y) for k in kids] == [[], [0]]
        assert all(k.x == frozenset() for k in kids)


# Every reason decide_in_S can give before its first step, and two from
# after it, with the terminal that records them; the texts are part of the
# rejection certificates, and (v, u) is in the input's labels.
REJECTIONS = {
    "single-branch": (
        P4,
        range(4),
        range(4),
        {"failure": "a single branch meets X (need at least two)", "step": 0, "v": 1, "u": 2},
    ),
    "u-outside-x": (
        Tree(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
        {1, 2, 4},
        {1, 2, 4},
        {"failure": "two branches meet X but the path vertex u is not in X", "step": 0, "v": 0, "u": 3},
    ),
    "uv-outside-y": (
        Tree(4, [(0, 1), (0, 2), (0, 3)]),
        {1, 2, 3},
        {1, 2, 3},
        {"failure": "u and v must both lie in Y", "step": 0, "v": 0, "u": 3},
    ),
    "branch-y": (
        Tree(5, [(0, 1), (0, 3), (0, 4), (1, 2)]),
        {1, 3, 4},
        range(5),
        {"failure": "branch at 1 must meet Y exactly in its root", "step": 0, "v": 0, "u": 4},
    ),
    # The second cut's v is the first cut's u: the Y' candidate without u
    # fails where v must lie in Y, the one with u at a branch read after it.
    "y-star": (
        Tree(9, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7), (1, 8)]),
        range(2, 8),
        range(8),
        {"failure": "branch at 8 must meet Y exactly in its root", "step": 1, "v": 1, "u": 7},
    ),
    "x-empty": (K1, (), {0}, {"failure": "Y must be empty when X is empty", "step": 0}),
    "x-single": (
        P2,
        {0},
        {0},
        {"failure": "a single constrained vertex only works on the one-vertex tree", "step": 0},
    ),
    "x-pair": (P2, {0, 1}, {0, 1}, {"failure": "exactly two constrained vertices never occur in the class", "step": 0}),
    "wrapped": (
        Tree(7, [(0, 1), (0, 4), (1, 2), (2, 3), (4, 5), (4, 6)]),
        {0, 1, 2, 3, 5, 6},
        range(7),
        {"failure": "a single branch meets X (need at least two)", "step": 1, "v": 2, "u": 3},
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejection_reason(name):
    tree, x, y, terminal = REJECTIONS[name]
    ok, trace = decide_in_S(Triple(tree, frozenset(x), frozenset(y)))
    assert not ok and trace.steps == () and trace.to_json_dict()["terminal"] == terminal
    assert ReductionTrace.from_json_dict(trace.to_json_dict()) == trace


class TestDecide:
    def test_base_cases(self):
        ok, trace = decide_in_S(triple_for_tree(K1))
        assert ok and trace.base == BASE_K1_FULL
        ok, trace = decide_in_S(Triple(K1, frozenset(), frozenset()))
        assert ok and trace.base == BASE_X_EMPTY
        ok, trace = decide_in_S(Triple(P4, frozenset(), frozenset()))
        assert ok and trace.base == BASE_X_EMPTY
        ok, _ = decide_in_S(Triple(P4, frozenset(), frozenset({2})))
        assert not ok
        ok, _ = decide_in_S(Triple(P4, frozenset({1}), frozenset({1})))
        assert not ok
        ok, _ = decide_in_S(Triple(P4, frozenset({0, 3}), frozenset(range(4))))
        assert not ok

    def test_star_accepts_one_step(self):
        ok, trace = decide_in_S(triple_for_tree(K13C1))
        assert ok
        assert len(trace.steps) == 1 and trace.steps[0].case == "a"

    def test_k14_accepts_case_b(self):
        ok, trace = decide_in_S(triple_for_tree(K14))
        assert ok and trace.steps[0].case == "b"

    def test_p5_rejected(self):
        ok, trace = decide_in_S(triple_for_tree(P5))
        assert not ok and trace.failure

    def test_wrong_y_rejected(self):
        # members with x a proper subset leave room to perturb y while
        # keeping x <= y <= V; uniqueness of the certificate set must reject
        rng = random.Random(77)
        checked = 0
        for n in range(3, 7):
            for t in trees_of_order(n):
                for x in subsets(n):
                    rep = solve_report(t, x)
                    if not rep.all_min_wrdfs_are_rdf:
                        continue
                    y_true = rep.y
                    candidates = sorted(y_true - x) + sorted(frozenset(range(n)) - y_true)
                    rng.shuffle(candidates)
                    for v in candidates[:2]:
                        wrong = y_true - {v} if v in y_true else y_true | {v}
                        ok, _ = decide_in_S(Triple(t, x, wrong))
                        assert not ok
                        checked += 1
        assert checked > 0

    def test_matches_oracle_small(self):
        # the broader sweeps live in the acceptance suite
        for n in range(1, 7):
            for t in trees_of_order(n):
                for x in subsets(n):
                    rep = solve_report(t, x)
                    ok, _ = decide_in_S(Triple(t, x, rep.y))
                    assert ok == rep.all_min_wrdfs_are_rdf


class TestVerifyTrace:
    def test_roundtrip(self):
        tr = triple_for_tree(K13C1)
        ok, trace = decide_in_S(tr)
        assert ok and verify_trace(tr, trace)

    def test_roundtrip_many(self):
        rng = random.Random(4)
        for n in range(1, 9):
            for t in trees_of_order(n):
                tr = triple_for_tree(t)
                ok, trace = decide_in_S(tr)
                if ok:
                    assert verify_trace(tr, trace)
                else:
                    assert not verify_trace(tr, trace)

    def test_corrupted_flag(self):
        tr = triple_for_tree(K13C1)
        _, trace = decide_in_S(tr)
        s = trace.steps[0]
        bad = ReductionTrace(
            (TraceStep(s.u, s.v, s.ws, s.ell, s.case, not s.y_prime_has_u),),
            trace.base,
            None,
        )
        assert not verify_trace(tr, bad)

    @pytest.mark.parametrize(
        "change",
        [
            {"ell": 3},
            {"ws": (0,)},
            {"ws": (0, 3)},
            {"ws": (0, 2, 3)},
            {"case": "b"},
            {"y_prime_has_u": True},
            {"v": -1},
            {"v": 4},
            {"u": -1},
            {"u": 4},
        ],
    )
    def test_corrupted_step(self, change):
        # wrong ell; a root missing; u in place of a root; u as an extra
        # root; the wrong case; u kept in a case-"a" Y'; v or u outside
        # 0..n-1, which must fail the check, not wrap or raise
        tr = triple_for_tree(K13C1)
        ok, trace = decide_in_S(tr)
        assert ok and trace.steps[0].ws == (0, 2) and trace.steps[0].u == 3
        bad = ReductionTrace((dataclasses.replace(trace.steps[0], **change),), trace.base, None)
        assert not verify_trace(tr, bad)

    def test_u_kept_in_case_a(self):
        # The case-"a" child that keeps u is a member here, so only the rule
        # that case "a" drops u from Y' rejects the trace.  The child's own
        # trace is lifted into the input's labels.  The cut is the one at
        # v = 5, which the longest-path locus does not pick in these labels.
        tr = Triple(
            Tree(8, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (5, 6), (5, 7)]),
            frozenset({0, 1, 3, 4, 6, 7}),
            frozenset({0, 1, 3, 4, 5, 6, 7}),
        )
        loc = _locus(tr, 5, 0)
        assert cut(tr, loc) == ("a", None)
        child = child_triple(tr, loc, True)
        ok, sub = decide_in_S(child)
        assert ok and sub.steps and verify_trace(child, sub)
        lift = {new: old for old, new in loc.split.to_prime.items()}
        steps = [TraceStep(loc.u, loc.v, loc.ws, loc.ell, "a", True)] + [
            TraceStep(lift[s.u], lift[s.v], tuple(lift[w] for w in s.ws), s.ell, s.case, s.y_prime_has_u)
            for s in sub.steps
        ]
        assert not verify_trace(tr, ReductionTrace(tuple(steps), sub.base, None))
        assert not decide_in_S(tr)[0]
        # the same replay with u kept by hand reaches the base case
        chain = _Chain(tr)
        chain.cut(loc.v, loc.u)
        chain.settle(loc.u, 1)
        for s in steps[1:]:
            assert chain.cut(s.v, s.u)[1:] == (s.ell, s.case, None)
            chain.settle(s.u, int(s.y_prime_has_u))
        assert chain.base() == (True, sub.base)

    def test_empty_trace_base_case(self):
        tr = triple_for_tree(K1)
        assert verify_trace(tr, ReductionTrace((), BASE_K1_FULL, None))
        assert not verify_trace(tr, ReductionTrace((), BASE_X_EMPTY, None))

    def test_json_roundtrip(self):
        tr = triple_for_tree(K14)
        _, trace = decide_in_S(tr)
        again = ReductionTrace.from_json_dict(trace.to_json_dict())
        assert again == trace
        assert verify_trace(tr, again)


def test_configuration_case_examples():
    tr = triple_for_tree(K13C1)
    assert configuration_case(tr, 1, 0) == "a"
    assert configuration_case(tr, 0, 1) is None  # no branches at a leaf
    big = triple_for_tree(K14)
    assert configuration_case(big, 0, 1) == "b"


def _reference_configurations(tr):
    return [(v, u) for v in tr.tree.vertices() for u in tr.tree.neighbors(v) if configuration_case(tr, v, u)]


def test_configurations_match_configuration_case(closure10):
    from strongroman.generator import random_member

    triples = list(closure10.values())
    rng = random.Random(4)
    for i in range(2400):
        n = rng.randint(1, 14)
        # every sixth tree is a star, whose centre can have no bad neighbor
        t = Tree(n, [(0, j) for j in range(1, n)]) if i % 6 == 0 else prufer_tree(n, rng)
        y = frozenset(v for v in range(n) if rng.random() < 0.8)
        triples.append(Triple(t, frozenset(v for v in y if rng.random() < 0.6), y))
    for n in range(5, 91, 5):
        for seed in range(2):
            tr, _ = random_member(n, seed)
            triples.append(tr)
            if tr.y - tr.x:
                triples.append(Triple(tr.tree, tr.x, tr.y - {min(tr.y - tr.x)}))
    found = 0
    for tr in triples:
        expected = _reference_configurations(tr)
        assert configurations(tr) == expected
        found += bool(expected)
    assert found > 1000  # the comparison is not vacuous


def test_scales_beyond_the_oracle_cap():
    from strongroman.generator import random_member, replay

    for seed in range(3):
        tr, steps = random_member(320, seed=seed)
        ok, trace = decide_in_S(tr)
        assert ok and verify_trace(tr, trace)
        assert replay(steps) == tr
    path = triple_for_tree(Tree(120, [(i, i + 1) for i in range(119)]))
    ok, _ = decide_in_S(path)
    assert not ok
    star = triple_for_tree(Tree(80, [(0, i) for i in range(1, 80)]))
    ok, trace = decide_in_S(star)
    assert ok and len(trace.steps) == 1 and verify_trace(star, trace)


def test_verdict_independent_of_labelling():
    # every tree up to order 9 with X = Y = V, as numbered by networkx and
    # under two random relabellings, against _decide on its canonical copy
    rng = random.Random(9)
    accepted = 0
    for n in range(1, 10):
        for t in trees_of_order(n):
            ok, ref = _decide(triple_for_tree(t).canonicalized()[0])
            accepted += ok
            labellings = [t]
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                labellings.append(Tree(n, [(perm[a], perm[b]) for a, b in t.edges]))
            for tree in labellings:
                tr = triple_for_tree(tree)
                got, trace = decide_in_S(tr)
                assert got == ok, tree.edges
                assert len(trace.steps) == (len(ref.steps) if ok else 0)
                assert verify_trace(tr, trace) == ok
    assert accepted == 12  # the criterion-7 counts summed over orders 1..9


# Run in a child process: cap its address space, then recognize and verify
# each tree file through the CLI and report the exit codes, the verdicts of
# verify and the peak RSS (KiB).
_BOUNDED_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import contextlib, io, json, sys
from strongroman import cli
results = []
for i, tree in enumerate(sys.argv[2:]):
    cert = f"{sys.argv[1]}/cert{i}.json"
    with open(cert, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        results.append(cli.run(["recognize", tree]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append(cli.run(["verify", cert]))
    results.append(json.loads(out.getvalue())["verified"])
print(json.dumps({"results": results, "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

# Exit code and error type of each command on one input, in a child capped
# at 1 GiB of address space.
_ERROR_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import contextlib, io, json, sys
from strongroman import cli
results = []
for command in ("recognize", "solve"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([command, sys.argv[1]])
    results.append([code, json.loads(out.getvalue())["error"]["type"]])
print(json.dumps(results))
"""


def run_child(script: str, *args):
    """Run ``script`` in a fresh interpreter that imports this package;
    return what it prints as JSON."""
    src = os.path.dirname(os.path.dirname(strongroman.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@contextlib.contextmanager
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestScale:
    """Inputs far beyond the oracle cap, decided and replayed under the
    interpreter's default recursion limit; no timing is asserted."""

    def test_caterpillar_ten_thousand_vertices(self):
        tr = triple_for_tree(caterpillar(2500))
        with default_recursion_limit():
            ok, trace = decide_in_S(tr)
            assert ok and len(trace.steps) == 2500
            assert verify_trace(tr, trace)

    def test_path_ten_thousand_rejected(self):
        tr = triple_for_tree(Tree(10_000, [(i, i + 1) for i in range(9_999)]))
        with default_recursion_limit():
            ok, trace = decide_in_S(tr)
        assert not ok and trace.failure == "a single branch meets X (need at least two)"

    def test_cli_in_bounded_memory(self, tmp_path):
        # P_100000 (rejected) and C_25000 (10^5 vertices, accepted) through
        # the CLI in a child capped at 1 GiB of address space
        files = [tmp_path / "path.txt", tmp_path / "cat.txt"]
        files[0].write_text(format_edge_list(Tree(100_000, [(i, i + 1) for i in range(99_999)])))
        files[1].write_text(format_edge_list(caterpillar(25_000)))
        report = run_child(_BOUNDED_CHILD, tmp_path, *files)
        assert report["results"] == [1, 0, True, 0, 0, True]
        assert report["maxrss_kib"] < 256 * 1024

    def test_huge_header_in_bounded_memory(self, tmp_path):
        # twelve bytes that claim 10^8 vertices and no edges: rejected as no
        # tree before a list per vertex is built (that alone needs gigabytes)
        p = tmp_path / "header.txt"
        p.write_text("100000000 0\n")
        assert run_child(_ERROR_CHILD, p) == [[2, "NotATreeError"], [2, "NotATreeError"]]

    @pytest.mark.parametrize("seed", range(3))
    def test_member_500(self, seed):
        from strongroman.generator import random_member

        tr, _ = random_member(500, seed)
        extra = sorted(tr.y - tr.x)
        assert extra
        with default_recursion_limit():
            ok, trace = decide_in_S(tr)
            assert ok and verify_trace(tr, trace)
            ok, _ = decide_in_S(Triple(tr.tree, tr.x, tr.y - {random.Random(seed).choice(extra)}))
            assert not ok
