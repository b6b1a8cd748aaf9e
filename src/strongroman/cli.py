"""Command-line front end.

Every command writes exactly one JSON document to stdout (the ``enumerate``
command writes one JSON object per line); human-readable notes go to stderr.
Exit codes: 0 for success or a positive decision, 1 for a negative decision,
2 for any error.  Outputs are byte-identical for identical inputs and flags.

The ``solve``, ``recognize``, ``generate`` and ``gadget`` commands emit
certificates, each computing its result from its ``input`` payload.
``verify`` has one rule: compute the result again from the certificate's
input, one its command can emit, and compare it whole, as serialized.  Two
results are replayed instead, without repeating the search: an accepting
``recognize`` trace (``verify_trace``, which binds each step's ``w`` in its
emitted order) and a ``generate`` step list (``replay`` from a seed, which
binds the order ``n`` but not the ``seed``: the steps are not drawn again).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import __version__
from .gadget import CnfFormula, build_gadget, verify_gadget
from .generator import OpStep, base_triples, enumerate_T, random_member, replay
from .graphs import Graph, Tree, format_edge_list, parse_tree, to_dot, vertex_subset
from .recognizer import ReductionTrace, Triple, decide_in_S, triple_for_tree, verify_trace
from .solver import solve_report
from .treedp import gamma_R_tree

CERTIFICATE_VERSION = 3


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    return "sha256:" + hashlib.sha256(_dump(payload).encode()).hexdigest()


def _certificate(kind: str, input_payload: dict, result: dict) -> dict:
    return {
        "kind": kind,
        "version": __version__,
        "certificate_version": CERTIFICATE_VERSION,
        "input": input_payload,
        "digest": _digest(input_payload),
        "result": result,
    }


def _emit(obj) -> None:
    sys.stdout.write(_dump(obj) + "\n")


def _parse_x_spec(spec: str, t: Tree) -> frozenset[int]:
    if spec == "all":
        return frozenset(range(t.n))
    if spec == "none":
        return frozenset()
    return vertex_subset(t, (int(tok) for tok in map(str.strip, spec.split(",")) if tok), "x")


def _triple_json(tr: Triple) -> dict:
    return {
        "n": tr.n,
        "edges": [list(e) for e in tr.tree.edges],
        "x": sorted(tr.x),
        "y": sorted(tr.y),
    }


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _solve_result(inp: dict) -> tuple[dict, Tree, tuple]:
    t = parse_tree(inp["graph"])
    x = _parse_x_spec(inp["x"], t)
    fields = {"oracle": lambda: solve_report(t, x).to_json_dict(), "dp-rdf": lambda: {"gamma_R": gamma_R_tree(t, x)}}
    return {"method": inp["method"], **fields[inp["method"]]()}, t, ()


def _recognize_result(inp: dict) -> tuple[dict, Tree, tuple]:
    t = parse_tree(inp["graph"])
    ok, trace = decide_in_S(triple_for_tree(t))
    return {"strongly_equal": ok, "trace": trace.to_json_dict()}, t, ()


def _generate_result(base: Triple, steps: list[OpStep], triple: Triple) -> dict:
    return {
        "base": _triple_json(base),
        "steps": [s.to_json_dict() for s in steps],
        "tree": format_edge_list(triple.tree),
        "x": sorted(triple.x),
        "y": sorted(triple.y),
        "canonical": triple.canonical_key,
    }


def _grow(inp: dict) -> tuple[dict, None, tuple]:
    triple, steps = random_member(inp["n"], inp["seed"])
    base = triple if inp["n"] == 1 else base_triples()[0]
    return _generate_result(base, steps, triple), None, ()


def _cmd_enumerate(args) -> int:
    members = enumerate_T(args.max)
    rows = sorted(
        ({"order": m.n, "canonical": key, **_triple_json(m)} for key, m in members.items()),
        key=lambda r: (r["order"], r["canonical"]),
    )
    for row in rows:
        _emit(row)
    return 0


def _gadget_result(inp: dict) -> tuple[dict, Graph, tuple[str, ...]]:
    formula = CnfFormula.from_dimacs(inp["cnf"])
    gg = build_gadget(formula)
    names = gg.names
    result = {
        "graph": {
            "n": gg.graph.n,
            "edges": [list(e) for e in gg.graph.edges],
            "labels": {str(v): s for v, s in enumerate(names)},
        },
        "report": verify_gadget(formula).to_json_dict() if inp["verify"] else None,
    }
    return result, gg.graph, names


# Each certificate kind: the type of each value of its input payload, the
# payload from the parsed flags, and ``result, graph, names = compute(input)``
# (``--dot`` writes ``graph`` with its vertices' ``names``).
_KINDS = {
    "solve": (
        {"graph": str, "x": str, "method": str},
        lambda args: {"graph": _read(args.tree), "x": args.x, "method": args.method},
        _solve_result,
    ),
    "recognize": ({"graph": str}, lambda args: {"graph": _read(args.tree)}, _recognize_result),
    "generate": ({"n": int, "seed": int}, lambda args: {"n": args.n, "seed": args.seed}, _grow),
    "gadget": (
        {"cnf": str, "verify": bool},
        lambda args: {"cnf": _read(args.cnf), "verify": bool(args.verify)},
        _gadget_result,
    ),
}


def _cmd_certify(args) -> int:
    _, input_of, compute = _KINDS[args.command]
    inp = input_of(args)
    result, graph, names = compute(inp)
    if getattr(args, "dot", None):
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph, names))
    _emit(_certificate(args.command, inp, result))
    return 1 if result.get("strongly_equal") is False else 0


def _same(rebuilt: dict, result: dict) -> bool:
    """Whether two results serialize alike, so that an extra key or a retyped
    value (``1`` for ``true``, ``2.0`` for ``2``) counts as a difference."""
    return _dump(rebuilt) == _dump(result)


def _reproduced(kind: str, inp: dict, result: dict) -> bool:
    """Whether ``result`` is the one computed from ``inp``: it is computed
    again and compared whole, except for the two results that replay
    without repeating the work."""
    if kind == "generate":
        # Replay the step list from the base, which must be a seed, and
        # require order ``input.n``; as no step applies to the constrained
        # seed, that leaves it only order 1.
        base = next((s for s in base_triples() if _same(_triple_json(s), result["base"])), None)
        if base is None:
            return False
        steps = [OpStep.from_json_dict(s) for s in result["steps"]]
        triple = replay(steps, base)
        return _same(triple.n, inp.get("n")) and _same(_generate_result(base, steps, triple), result)
    if kind == "recognize" and result["strongly_equal"]:
        # replay the accepting trace, which must serialize as it was recorded
        trace = ReductionTrace.from_json_dict(result["trace"])
        if not _same({"strongly_equal": True, "trace": trace.to_json_dict()}, result):
            return False
        return verify_trace(triple_for_tree(parse_tree(inp["graph"])), trace)
    return _same(_KINDS[kind][2](inp)[0], result)


def _cmd_verify(args) -> int:
    with open(args.certificate, encoding="utf-8") as fh:
        cert = json.load(fh)
    kind = cert.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    if not _same(cert.get("certificate_version"), CERTIFICATE_VERSION):  # as serialized: 3.0 is not 3
        _emit({"kind": kind, "verified": False, "detail": f"certificate_version is not {CERTIFICATE_VERSION}"})
        return 1
    if cert.get("digest") != _digest(cert.get("input", {})):
        _emit({"kind": kind, "verified": False, "detail": "input digest mismatch"})
        return 1
    try:
        # an input the command cannot emit (a key added or dropped, a value of
        # another type, an unknown method) or a result that does not parse or
        # rebuild (a non-finite number, an inapplicable step) fails the check
        types = {key: type(value) for key, value in cert["input"].items()}
        ok = types == _KINDS[kind][0] and _reproduced(kind, cert["input"], cert["result"])
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
        ok = False
    _emit({"kind": kind, "verified": ok, "detail": "reproduced" if ok else "result mismatch"})
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later ``run`` in the process; argparse does not change a parser while
    parsing, so error exits and ``--help`` behave as with a fresh one.
    Every call returns that same object, which callers must not change."""
    parser = argparse.ArgumentParser(
        prog="strongroman",
        description="Decide, generate and cross-verify trees whose Roman domination "
        "number strongly equals the weak Roman domination number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exhaustive report for a tree")
    p.add_argument("tree", help="edge-list file")
    p.add_argument("--x", default="all", help="'all', 'none' or a comma list of vertices")
    p.add_argument("--method", choices=("oracle", "dp-rdf"), default="oracle")
    p.add_argument("--dot", default=None, help="also write the tree as DOT to this path")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("recognize", help="decide strong equality for a tree")
    p.add_argument("tree", help="edge-list file")
    p.add_argument("--dot", default=None, help="also write the tree as DOT to this path")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("generate", help="grow a pseudo-random member triple")
    p.add_argument("--n", type=int, required=True, help="target order")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("enumerate", help="all member triples up to an order")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("gadget", help="build the CNF reduction graph")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.add_argument("--verify", action="store_true", help="also check the quantitative claims")
    p.add_argument("--dot", default=None, help="also write the graph as DOT to this path")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="re-check an emitted certificate")
    p.add_argument("certificate", help="certificate JSON file")
    p.set_defaults(func=_cmd_verify)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; keep the contract
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - contract: never crash, report as JSON
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
