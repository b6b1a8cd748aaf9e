import random

import pytest

from strongroman import solver
from strongroman.graphs import Tree
from strongroman.roman import is_wrdf
from strongroman.solver import (
    SizeCapError,
    compute_Y,
    enumerate_minimum_wrdfs,
    gamma_R,
    gamma_r,
    in_S_oracle,
    solve_report,
    strongly_equal,
)

from conftest import (
    all_graphs_upto,
    connected_graphs_upto,
    naive_gamma_R,
    naive_minimum_wrdfs,
    prufer_tree,
    subsets,
    trees_of_order,
)

K1 = Tree(1, ())
P2 = Tree(2, [(0, 1)])
P3 = Tree(3, [(0, 1), (1, 2)])
K13 = Tree(4, [(0, 1), (0, 2), (0, 3)])
P19 = Tree(19, [(i, i + 1) for i in range(18)])  # one past the value cap
K1_14 = Tree(15, [(0, i) for i in range(1, 15)])  # one past the enumeration cap


@pytest.fixture
def no_search(monkeypatch):
    """Fail any exhaustive search, so a cap test shows the cap fires first."""

    def refuse(g):
        raise AssertionError(f"search started on order {g.n}")

    monkeypatch.setattr(solver, "_BitGraph", refuse)


class TestGammaR:
    def test_examples(self):
        assert gamma_R(P2, range(2)) == 2
        assert gamma_R(K1, range(1)) == 1
        assert gamma_R(K13, range(4)) == 2

    def test_cap(self, no_search):
        assert solver.VALUE_CAP == 18
        with pytest.raises(SizeCapError):
            gamma_R(P19, range(19))


class TestGammar:
    def test_examples(self):
        assert gamma_r(P2, range(2)) == 1
        assert gamma_r(P3, range(3)) == 2
        assert gamma_r(P3, (), ()) == 0

    def test_disjointness(self):
        with pytest.raises(ValueError):
            gamma_r(P3, {0}, {0})

    def test_cap(self, no_search):
        with pytest.raises(SizeCapError):
            gamma_r(P19, range(19))


class TestEnumerate:
    def test_k1_unique(self):
        assert [a.digits() for a in enumerate_minimum_wrdfs(K1, range(1))] == ["1"]

    def test_p3_contains_both(self):
        digits = [a.digits() for a in enumerate_minimum_wrdfs(P3, range(3))]
        assert "020" in digits and "101" in digits
        assert digits == sorted(digits)  # deterministic lexicographic order

    def test_star_unique(self):
        assert [a.digits() for a in enumerate_minimum_wrdfs(K13, range(4))] == ["2000"]

    def test_cap(self, no_search):
        assert solver.ENUMERATION_CAP == 14
        for query in (enumerate_minimum_wrdfs, solve_report, compute_Y, in_S_oracle):
            with pytest.raises(SizeCapError):
                query(K1_14, range(15))
        with pytest.raises(SizeCapError):
            strongly_equal(K1_14)


class TestY:
    def test_k1_empty_x(self):
        assert compute_Y(K1, ()) == frozenset()

    def test_p3_full(self):
        assert compute_Y(P3, range(3)) == frozenset(range(3))

    def test_star_full(self):
        assert compute_Y(K13, range(4)) == frozenset(range(4))

    def test_determinism(self):
        first = compute_Y(K13, range(4))
        again = compute_Y(K13, range(4))
        assert first == again


class TestMembershipOracle:
    def test_k1(self):
        assert in_S_oracle(K1, range(1)) == frozenset({0})

    def test_two_marked_never_member(self):
        for n in range(2, 6):
            for t in trees_of_order(n):
                for a in range(n):
                    for b in range(a + 1, n):
                        assert in_S_oracle(t, {a, b}) is None

    def test_p3(self):
        assert in_S_oracle(P3, range(3)) is None

    def test_strongly_equal(self):
        assert strongly_equal(K1)
        assert not strongly_equal(P2)
        assert strongly_equal(K13)


class TestReport:
    def test_json_shape(self):
        rep = solve_report(K13, range(4))
        assert rep.to_json_dict() == {
            "gamma_r": 2,
            "gamma_R": 2,
            "min_wrdf_count": 1,
            "strong": True,
            "Y": [0, 1, 2, 3],
        }

    def test_invariants(self):
        rng = random.Random(17)
        for _ in range(50):
            t = prufer_tree(rng.randint(1, 8), rng)
            x = frozenset(v for v in range(t.n) if rng.random() < 0.5)
            rep = solve_report(t, x)
            assert rep.gamma_r <= rep.gamma_R
            assert rep.min_wrdf_count >= 1
            assert x <= rep.y


class TestAgainstNaiveEnumeration:
    """The pruned search must agree with plain 3^n enumeration."""

    def test_trees_full_x(self):
        for n in range(1, 9):
            for t in trees_of_order(n):
                expected_w, expected = naive_minimum_wrdfs(t, range(n))
                got = enumerate_minimum_wrdfs(t, range(n))
                assert gamma_r(t, range(n)) == expected_w
                assert [a.digits() for a in got] == sorted(f.digits() for f in expected)

    def test_small_graphs_all_x(self):
        for g in all_graphs_upto(4):
            for x in subsets(g.n):
                expected_w, expected = naive_minimum_wrdfs(g, x)
                assert gamma_r(g, x) == expected_w
                got = enumerate_minimum_wrdfs(g, x)
                assert [a.digits() for a in got] == sorted(f.digits() for f in expected)
                assert gamma_R(g, x) == naive_gamma_R(g, x)
                # Y by its definition: X, plus what some naive minimum covers
                # or can rescue as an extra vertex outside X
                y = set(x)
                for f in expected:
                    y |= f.positive_set()
                    y.update(
                        u for u in range(g.n)
                        if u not in x and f.values[u] == 0 and is_wrdf(g, x, {u}, f)
                    )
                assert solve_report(g, x).y == y

    def test_random_two_set_queries(self):
        rng = random.Random(99)
        for _ in range(40):
            t = prufer_tree(rng.randint(1, 7), rng)
            pool = list(range(t.n))
            rng.shuffle(pool)
            cut = rng.randint(0, t.n)
            cut2 = rng.randint(cut, t.n)
            x0, x1 = frozenset(pool[:cut]), frozenset(pool[cut:cut2])
            expected_w, _ = naive_minimum_wrdfs(t, x0, x1)
            assert gamma_r(t, x0, x1) == expected_w


def test_inequality_small_sample():
    # the full n <= 6 sweep lives in the acceptance suite
    for g in connected_graphs_upto(4):
        for x in subsets(g.n):
            assert gamma_r(g, x) <= gamma_R(g, x)
