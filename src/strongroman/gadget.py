"""CNF-to-graph construction whose two domination numbers coincide exactly
when the formula is satisfiable, plus desk-scale verification of that claim.

Per variable the graph carries a diamond (complete graph on four vertices
minus one edge); the two degree-3 vertices stand for the positive and
negative literal and connect to the vertices of the clauses they appear in.
Vertex layout: variable block i occupies ``4i .. 4i+3`` with the positive
literal at ``4i``, the negative at ``4i+1`` and the two fillers after them;
clause vertex j is ``4*n_vars + j``.  The graph holds no names: the gadget
derives each vertex's name from this layout (``x{i+1}``, ``~x{i+1}``,
``g{i+1}a``, ``g{i+1}b``, ``c{j+1}``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .solver import VALUE_CAP, SizeCapError, _require_cap, _weak_search

Literal = tuple[int, bool]  # (variable index, polarity)

SAT_VARS_CAP = 20


class CnfError(ValueError):
    """Malformed formula or DIMACS input."""


class GadgetConsistencyError(RuntimeError):
    """A quantitative claim the construction guarantees failed to verify.

    This can only happen through an implementation bug, so it is a hard
    error rather than a reportable result.
    """


@dataclass(frozen=True)
class CnfFormula:
    n_vars: int
    clauses: tuple[tuple[Literal, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "clauses",
            tuple(tuple((int(v), bool(p)) for v, p in cl) for cl in self.clauses),
        )
        if self.n_vars < 0:
            raise CnfError("negative variable count")
        for idx, clause in enumerate(self.clauses):
            if not clause:
                raise CnfError(f"clause {idx + 1} is empty")
            if len(clause) > 3:
                raise CnfError(f"clause {idx + 1} has more than three literals")
            seen = set()
            for v, _ in clause:
                if not (0 <= v < self.n_vars):
                    raise CnfError(f"clause {idx + 1} uses unknown variable {v}")
                if v in seen:
                    raise CnfError(f"clause {idx + 1} repeats variable {v}")
                seen.add(v)

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    @classmethod
    def from_dimacs(cls, text: str) -> "CnfFormula":
        n_vars = None
        n_clauses = None
        literals: list[int] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                if n_vars is not None:
                    raise CnfError(f"line {lineno}: duplicate problem line")
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise CnfError(f"line {lineno}: expected 'p cnf <vars> <clauses>'")
                try:
                    n_vars, n_clauses = int(parts[2]), int(parts[3])
                except ValueError:
                    raise CnfError(f"line {lineno}: non-integer problem sizes") from None
                continue
            if n_vars is None:
                raise CnfError(f"line {lineno}: clause before the problem line")
            try:
                literals.extend(int(tok) for tok in line.split())
            except ValueError:
                raise CnfError(f"line {lineno}: non-integer literal in {line!r}") from None
        if n_vars is None:
            raise CnfError("missing problem line")
        clauses: list[tuple[Literal, ...]] = []
        current: list[Literal] = []
        for lit in literals:
            if lit == 0:
                clauses.append(tuple(current))
                current = []
                continue
            v = abs(lit) - 1
            if not (0 <= v < n_vars):
                raise CnfError(f"literal {lit} uses unknown variable")
            current.append((v, lit > 0))
        if current:
            raise CnfError("last clause is not terminated by 0")
        if len(clauses) != n_clauses:
            raise CnfError(f"problem line promises {n_clauses} clauses, found {len(clauses)}")
        return cls(n_vars=n_vars, clauses=tuple(clauses))

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.n_vars} {self.n_clauses}"]
        for clause in self.clauses:
            lines.append(
                " ".join(str(v + 1 if p else -(v + 1)) for v, p in clause) + " 0"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GadgetGraph:
    graph: Graph
    n_vars: int
    n_clauses: int

    def literal_vertex(self, var: int, positive: bool) -> int:
        return 4 * var + (0 if positive else 1)

    def filler_vertices(self, var: int) -> tuple[int, int]:
        return 4 * var + 2, 4 * var + 3

    def clause_vertex(self, j: int) -> int:
        return 4 * self.n_vars + j

    def literal_vertices(self) -> frozenset[int]:
        return frozenset(
            4 * i + o for i in range(self.n_vars) for o in (0, 1)
        )

    @property
    def names(self) -> tuple[str, ...]:
        """The name of every vertex, by the layout."""
        block = ("x{}", "~x{}", "g{}a", "g{}b")
        return tuple(
            [s.format(i + 1) for i in range(self.n_vars) for s in block]
            + [f"c{j + 1}" for j in range(self.n_clauses)]
        )


def build_gadget(f: CnfFormula) -> GadgetGraph:
    """The reduction graph of ``f``: one diamond per variable, one vertex per
    clause, clause vertices wired to the literals they contain.
    """
    n = 4 * f.n_vars + f.n_clauses
    if n == 0:
        raise CnfError("a formula with no variables and no clauses has no gadget vertex")
    edges = []
    for i in range(f.n_vars):
        pos, neg, fa, fb = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        # diamond: the missing edge is between the two fillers
        edges += [(pos, neg), (pos, fa), (pos, fb), (neg, fa), (neg, fb)]
    for j, clause in enumerate(f.clauses):
        cj = 4 * f.n_vars + j
        for v, p in clause:
            edges.append((4 * v + (0 if p else 1), cj))
    return GadgetGraph(graph=Graph(n, edges), n_vars=f.n_vars, n_clauses=f.n_clauses)


def sat_brute_force(f: CnfFormula) -> bool:
    """Exhaustive satisfiability over all truth assignments."""
    if f.n_vars > SAT_VARS_CAP:
        raise SizeCapError(f"{f.n_vars} variables exceeds the cap {SAT_VARS_CAP}")
    for bits in range(1 << f.n_vars):
        if all(any((bits >> v & 1) == p for v, p in clause) for clause in f.clauses):
            return True
    return False


@dataclass(frozen=True)
class GadgetReport:
    n_vars: int
    n_clauses: int
    gamma_r: int
    gamma_R: int
    satisfiable: bool
    iff_holds: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_vars,
            "m": self.n_clauses,
            "gamma_r": self.gamma_r,
            "gamma_R": self.gamma_R,
            "satisfiable": self.satisfiable,
            "iff_holds": self.iff_holds,
        }


def verify_gadget(f: CnfFormula) -> GadgetReport:
    """Exhaustively check the construction's quantitative guarantees on ``f``.

    The weak number must equal twice the variable count, and the two numbers
    coincide exactly when the formula is satisfiable.  Either check failing
    means this implementation is broken, so it raises instead of reporting.

    Requires every clause to carry at least two literals.  A one-literal
    clause leaves its clause vertex hanging off a single literal vertex,
    which can push the weak number above twice the variable count and void
    both guarantees (two complementary unit clauses already do).
    """
    if any(len(clause) < 2 for clause in f.clauses):
        raise CnfError("quantitative verification needs every clause to have at least two literals")
    g = build_gadget(f).graph
    _require_cap(g, VALUE_CAP)
    _, gR, gr, _ = _weak_search(g, (1 << g.n) - 1, 0, False)
    sat = sat_brute_force(f)
    if gr != 2 * f.n_vars:
        raise GadgetConsistencyError(
            f"weak Roman number {gr} differs from twice the variable count {2 * f.n_vars}"
        )
    iff = (gr == gR) == sat
    if not iff:
        raise GadgetConsistencyError(
            f"equality of the numbers ({gr} vs {gR}) disagrees with satisfiability ({sat})"
        )
    return GadgetReport(
        n_vars=f.n_vars,
        n_clauses=f.n_clauses,
        gamma_r=gr,
        gamma_R=gR,
        satisfiable=sat,
        iff_holds=iff,
    )
