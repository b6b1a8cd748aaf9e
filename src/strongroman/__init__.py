"""Trees whose Roman domination number strongly equals the weak Roman one.

Library layout:

- :mod:`strongroman.graphs`      graphs/trees, traversal, range checks, canonical forms
- :mod:`strongroman.roman`       assignments and the domination predicates
- :mod:`strongroman.solver`      exhaustive oracles and the class-membership test
- :mod:`strongroman.treedp`      linear-time Roman number on trees
- :mod:`strongroman.recognizer`  reduction-based membership decision with traces
- :mod:`strongroman.generator`   the five extension operations and their closure
- :mod:`strongroman.gadget`      CNF reduction graph and its verification
- :mod:`strongroman.cli`         command-line front end
"""

__version__ = "0.1.0"

from .gadget import CnfFormula, GadgetGraph, GadgetReport, build_gadget, sat_brute_force, verify_gadget
from .generator import OpStep, apply_op, base_triples, enumerate_T, random_member
from .graphs import (
    Graph,
    Tree,
    canonical_form,
    canonical_relabel,
    format_edge_list,
    is_tree,
    parse_edge_list,
)
from .recognizer import ReductionTrace, Triple, decide_in_S, verify_trace
from .roman import Assignment, is_rdf, is_wrdf, is_wrdf_x, is_x_dominating, move
from .solver import (
    SizeCapError,
    SolveReport,
    compute_Y,
    enumerate_minimum_wrdfs,
    gamma_R,
    gamma_r,
    in_S_oracle,
    solve_report,
    strongly_equal,
)
from .treedp import gamma_R_tree

__all__ = [
    "Assignment",
    "CnfFormula",
    "GadgetGraph",
    "GadgetReport",
    "Graph",
    "OpStep",
    "ReductionTrace",
    "SizeCapError",
    "SolveReport",
    "Tree",
    "Triple",
    "apply_op",
    "base_triples",
    "build_gadget",
    "canonical_form",
    "canonical_relabel",
    "compute_Y",
    "decide_in_S",
    "enumerate_T",
    "enumerate_minimum_wrdfs",
    "format_edge_list",
    "gamma_R",
    "gamma_R_tree",
    "gamma_r",
    "in_S_oracle",
    "is_rdf",
    "is_tree",
    "is_wrdf",
    "is_wrdf_x",
    "is_x_dominating",
    "move",
    "parse_edge_list",
    "random_member",
    "sat_brute_force",
    "solve_report",
    "strongly_equal",
    "verify_gadget",
    "verify_trace",
]
