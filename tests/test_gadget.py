import pytest

from strongroman import gadget, solver
from strongroman.gadget import (
    SAT_VARS_CAP,
    CnfError,
    CnfFormula,
    GadgetConsistencyError,
    build_gadget,
    sat_brute_force,
    verify_gadget,
)
from strongroman.graphs import is_tree
from strongroman.roman import Assignment, is_wrdf
from strongroman.solver import SizeCapError, enumerate_minimum_wrdfs, gamma_R, gamma_r

# two clauses over three variables: (x1 | x2 | ~x3) and (~x1 | x2 | ~x3)
SAMPLE = CnfFormula(
    3,
    (
        ((0, True), (1, True), (2, False)),
        ((0, False), (1, True), (2, False)),
    ),
)
# all four two-literal clause patterns over two variables: unsatisfiable
ALL_FOUR_PAIRS = CnfFormula(
    2,
    (
        ((0, True), (1, True)),
        ((0, True), (1, False)),
        ((0, False), (1, True)),
        ((0, False), (1, False)),
    ),
)


class TestFormula:
    def test_validation(self):
        with pytest.raises(CnfError):
            CnfFormula(1, ((),))  # empty clause
        with pytest.raises(CnfError):
            CnfFormula(1, (((0, True), (0, False)),))  # repeated variable
        with pytest.raises(CnfError):
            CnfFormula(1, (((1, True),),))  # unknown variable
        with pytest.raises(CnfError):
            CnfFormula(2, (((0, True), (1, True), (0, False), (1, False)),))

    def test_dimacs_roundtrip(self):
        text = SAMPLE.to_dimacs()
        assert CnfFormula.from_dimacs(text) == SAMPLE

    def test_dimacs_parsing(self):
        f = CnfFormula.from_dimacs("c comment\np cnf 2 1\n1 -2 0\n")
        assert f.n_vars == 2
        assert f.clauses == (((0, True), (1, False)),)

    def test_dimacs_errors(self):
        with pytest.raises(CnfError):
            CnfFormula.from_dimacs("1 2 0\n")  # clause before problem line
        with pytest.raises(CnfError):
            CnfFormula.from_dimacs("p cnf 2 1\n1 2\n")  # unterminated
        with pytest.raises(CnfError):
            CnfFormula.from_dimacs("p cnf 2 2\n1 0\n")  # clause count mismatch
        with pytest.raises(CnfError):
            CnfFormula.from_dimacs("p cnf 1 1\n5 0\n")  # unknown variable


class TestBuild:
    def test_sample_shape(self):
        gg = build_gadget(SAMPLE)
        g = gg.graph
        assert g.n == 14  # 4 per variable plus one per clause
        assert len(g.edges) == 21  # 5 per diamond plus 6 clause edges
        assert not is_tree(g)
        # clause vertices reach exactly their literals
        c1 = gg.clause_vertex(0)
        assert sorted(g.neighbors(c1)) == sorted(
            [gg.literal_vertex(0, True), gg.literal_vertex(1, True), gg.literal_vertex(2, False)]
        )

    def test_single_variable_no_clauses(self):
        g = build_gadget(CnfFormula(1, ())).graph
        assert g.n == 4 and len(g.edges) == 5

    def test_single_unit_clause(self):
        gg = build_gadget(CnfFormula(1, (((0, True),),)))
        assert gg.graph.n == 5
        assert gg.graph.neighbors(gg.clause_vertex(0)) == (gg.literal_vertex(0, True),)

    def test_degree_three_inside_diamond(self):
        gg = build_gadget(CnfFormula(2, ()))
        for i in range(2):
            pos, neg = gg.literal_vertex(i, True), gg.literal_vertex(i, False)
            fa, fb = gg.filler_vertices(i)
            assert gg.graph.degree(pos) == 3 and gg.graph.degree(neg) == 3
            assert gg.graph.degree(fa) == 2 and gg.graph.degree(fb) == 2
            assert not gg.graph.has_edge(fa, fb)

    def test_labels(self):
        gg = build_gadget(CnfFormula(1, (((0, True),),)))
        assert gg.names[gg.literal_vertex(0, True)] == "x1"
        assert gg.names[gg.literal_vertex(0, False)] == "~x1"
        assert gg.names[gg.clause_vertex(0)] == "c1"


class TestSat:
    def test_empty_clause_list(self):
        assert sat_brute_force(CnfFormula(1, ()))

    def test_contradiction(self):
        assert not sat_brute_force(CnfFormula(1, (((0, True),), ((0, False),))))

    def test_sample(self):
        assert sat_brute_force(SAMPLE)

    def test_cap(self):
        assert SAT_VARS_CAP == 20
        with pytest.raises(SizeCapError):
            sat_brute_force(CnfFormula(21, ()))


class TestQuantitative:
    def test_sample_report(self):
        rep = verify_gadget(SAMPLE)
        assert rep.gamma_r == 6  # twice the variable count
        assert rep.gamma_R == 6
        assert rep.satisfiable and rep.iff_holds
        assert rep.to_json_dict() == {
            "n": 3,
            "m": 2,
            "gamma_r": 6,
            "gamma_R": 6,
            "satisfiable": True,
            "iff_holds": True,
        }

    def test_literal_assignment_is_wrdf(self):
        gg = build_gadget(SAMPLE)
        g = gg.graph
        vals = [0] * g.n
        for v in gg.literal_vertices():
            vals[v] = 1
        assert is_wrdf(g, range(g.n), (), Assignment(g, tuple(vals)))

    def test_every_diamond_gets_weight_two(self):
        # over all minimum weak functions, each variable block carries >= 2
        for f in (SAMPLE, CnfFormula(2, (((0, True), (1, True)),))):
            gg = build_gadget(f)
            g = gg.graph
            for a in enumerate_minimum_wrdfs(g, range(g.n)):
                for i in range(f.n_vars):
                    block = [4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3]
                    assert a.weight_on(block) >= 2

    def test_width_two_satisfiable(self):
        f = CnfFormula(
            2,
            (
                ((0, True), (1, True)),
                ((0, True), (1, False)),
                ((0, False), (1, True)),
            ),
        )
        rep = verify_gadget(f)
        assert rep.satisfiable and rep.gamma_r == rep.gamma_R == 4

    def test_width_two_unsatisfiable(self):
        rep = verify_gadget(ALL_FOUR_PAIRS)
        assert not rep.satisfiable
        assert rep.gamma_r == 4 and rep.gamma_R == 5
        assert rep.iff_holds

    def test_unit_clauses_rejected(self):
        # a one-literal clause voids the quantitative guarantees: with the
        # two complementary unit clauses both numbers are 3, not twice the
        # variable count, and they coincide although the formula is
        # unsatisfiable
        f = CnfFormula(1, (((0, True),), ((0, False),)))
        with pytest.raises(CnfError, match="two literals"):
            verify_gadget(f)
        g = build_gadget(f).graph
        assert gamma_r(g, range(g.n)) == 3
        assert gamma_R(g, range(g.n)) == 3
        assert not sat_brute_force(f)


class TestVerifyGadgetSearch:
    """``verify_gadget`` takes both numbers from one weak search."""

    def test_one_bit_graph_and_one_roman_sweep(self, monkeypatch):
        calls = {"_BitGraph": 0, "_gamma_R_bits": 0}
        for name in calls:

            def counted(*args, _name=name, _real=getattr(solver, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(solver, name, counted)
        assert verify_gadget(SAMPLE).iff_holds
        assert calls == {"_BitGraph": 1, "_gamma_R_bits": 1}

    @staticmethod
    def _fake_search(monkeypatch, gamma_R, gamma_r):
        monkeypatch.setattr(gadget, "_weak_search", lambda *_: (None, gamma_R, gamma_r, []))

    def test_weak_number_off_twice_the_variables(self, monkeypatch):
        self._fake_search(monkeypatch, gamma_R=6, gamma_r=5)
        with pytest.raises(GadgetConsistencyError, match="weak Roman number 5 differs"):
            verify_gadget(SAMPLE)

    def test_equality_disagrees_with_satisfiability(self, monkeypatch):
        self._fake_search(monkeypatch, gamma_R=7, gamma_r=6)  # satisfiable, yet unequal
        with pytest.raises(GadgetConsistencyError, match=r"\(6 vs 7\) disagrees .* \(True\)"):
            verify_gadget(SAMPLE)
        self._fake_search(monkeypatch, gamma_R=4, gamma_r=4)  # unsatisfiable, yet equal
        with pytest.raises(GadgetConsistencyError, match=r"\(4 vs 4\) disagrees .* \(False\)"):
            verify_gadget(ALL_FOUR_PAIRS)

    def test_cap_before_any_bit_graph(self, monkeypatch):
        def refuse(g):
            raise AssertionError(f"search started on order {g.n}")

        monkeypatch.setattr(solver, "_BitGraph", refuse)
        f = CnfFormula(
            4,
            (((0, True), (1, True)), ((1, False), (2, True)), ((2, False), (3, True))),
        )
        assert build_gadget(f).graph.n == 19  # one past the value cap
        with pytest.raises(SizeCapError, match="graph order 19 exceeds the configured cap 18"):
            verify_gadget(f)
