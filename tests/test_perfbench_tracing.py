"""Every package name that the benchmark's per-layer tracer wraps resolves.

``perfbench/tracing.py`` patches each ``TRACED`` entry by name, so a renamed
or deleted function breaks ``--trace 1``.  The file is read and executed in a
private namespace, so nothing is imported or written under ``perfbench/``.
"""

import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names() -> tuple:
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["TRACED"]


def test_every_traced_name_resolves():
    traced = traced_names()
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
