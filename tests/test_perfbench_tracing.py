"""The benchmark's per-layer tracer finds what it wraps and counts truly.

``perfbench/tracing.py`` patches each ``TRACED`` entry by name, so a renamed
or deleted function breaks ``--trace 1``, and a layer that production code
bypasses reads zero.  The file is read and executed in a private namespace,
so nothing is imported or written under ``perfbench/``.
"""

import importlib
import inspect
from pathlib import Path

from strongroman import cli, generator

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracing() -> dict:
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves():
    traced = tracing()["TRACED"]
    assert traced
    missing = []
    for mod_name, attr, metric in traced:
        owner = importlib.import_module(f"strongroman.{mod_name}")
        head, _, method = attr.partition(".")
        target = getattr(owner, head, None)
        if method or inspect.isclass(target):
            # the tracer patches the method, or __init__, in the class's own dict
            ok = inspect.isclass(target) and (method or "__init__") in vars(target)
        else:
            ok = callable(target)
        if not ok:
            missing.append((mod_name, attr, metric))
    assert not missing, missing


def test_enumerate_counters_read_the_growth_path():
    # enumerate_T grows through applicable_steps and apply_op, so the tracer
    # sees its children and the share of them that are new members
    ns = tracing()
    tracer = ns["Tracer"]()
    tracer.install()
    try:
        generator.enumerate_T(7)
    finally:
        tracer.uninstall()
    metrics = ns["layer_metrics"](tracer.snapshot())
    assert 0 < metrics["generator.enumerate.new_ratio"] <= 1
    assert metrics["generator.applicable_steps.calls"] > 0


def test_parsed_tree_is_charged_to_tree(tmp_path):
    # parse_tree builds through Tree's constructor, so the tracer, which
    # wraps Tree.__init__, charges the parsed tree's build to graphs.Tree
    path = tmp_path / "p5.txt"
    path.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    tracer = tracing()["Tracer"]()
    tracer.install()
    try:
        cli.run(["recognize", str(path)])
    finally:
        tracer.uninstall()
    assert tracer.calls["graphs.Tree"] >= 1
