"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``strongroman`` module that binds it, so calls are caught where their
callers look the name up; methods are patched on their class.  Nothing under
``src/`` is edited.  A span's self time is its duration minus the time its
child spans cover.  ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute, metric prefix).  An attribute "Class.method" patches a
# method; "Class" alone patches the class's ``__init__`` (one call per object).
TRACED = (
    ("cli", "run", "cli.run"),
    ("graphs", "parse_edge_list", "graphs.parse_edge_list"),
    ("graphs", "Tree", "graphs.Tree"),
    ("graphs", "longest_x_path", "graphs.longest_x_path"),
    ("graphs", "split_at", "graphs.split_at"),
    ("graphs", "canonical_relabel", "graphs.canonical_relabel"),
    ("recognizer", "decide_in_S", "recognizer.decide_in_S"),
    ("recognizer", "_decide", "recognizer.decide"),
    ("recognizer", "find_locus", "recognizer.find_locus"),
    ("recognizer", "Triple.canonicalized", "recognizer.canonicalized"),
    ("recognizer", "verify_trace", "recognizer.verify_trace"),
    ("recognizer", "configuration_case", "generator.configuration_case"),
    ("generator", "applicable_steps", "generator.applicable_steps"),
    ("generator", "apply_op", "generator.apply_op"),
    ("generator", "random_member", "generator.random_member"),
    ("generator", "enumerate_T", "generator.enumerate_T"),
    ("treedp", "gamma_R_tree", "treedp.gamma_R_tree"),
    ("solver", "solve_report", "solver.solve_report"),
    ("solver", "_search_wrdfs", "solver._search_wrdfs"),
    ("solver", "_gamma_R_bits", "solver._gamma_R_bits"),
    ("solver", "_BitGraph", "solver._BitGraph"),
    ("gadget", "verify_gadget", "gadget.verify_gadget"),
    ("gadget", "sat_brute_force", "gadget.sat_brute_force"),
    ("gadget", "build_gadget", "gadget.build_gadget"),
)

# Counters taken from return values in ``Tracer._on_result``.
COUNTERS = (
    "recognizer.decide.rejected",
    "recognizer.trace_steps",
    "generator.enumerate.children",
    "generator.enumerate.new",
    "solver.min_wrdfs",
)


class Tracer:
    """Call counts, self time and result counters per traced layer."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child time]
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        span = time.perf_counter() - start
        self.self_s[name] += span - child
        if self._stack:
            self._stack[-1][2] += span

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _on_result(self, name: str, result) -> None:
        if name == "recognizer.decide" and not result[0]:
            self.counts["recognizer.decide.rejected"] += 1
        elif name == "recognizer.decide_in_S":
            self.counts["recognizer.trace_steps"] += len(result[1].steps)
        elif name == "generator.apply_op" and self._inside("generator.enumerate_T"):
            self.counts["generator.enumerate.children"] += 1
        elif name == "generator.enumerate_T":
            # the two one-vertex seeds are members without being built
            self.counts["generator.enumerate.new"] += len(result) - 2
        elif name == "solver.solve_report":
            self.counts["solver.min_wrdfs"] += result.min_wrdf_count

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, name: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # Time spent inside the generator counts; time the consumer
                # spends between items does not.
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._on_result(name, result)
            return result

        return wrapper

    def install(self, package: str = "strongroman") -> None:
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for mod_name, attr, name in TRACED:
            owner = sys.modules[f"{package}.{mod_name}"]
            head, _, method = attr.partition(".")
            target = getattr(owner, head)
            if method or inspect.isclass(target):
                cls, meth = target, method or "__init__"
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
                continue
            wrapped = self._wrap(target, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def snapshot(self) -> dict[str, float]:
        """Every layer figure and counter as one flat dict of totals."""
        out: dict[str, float] = {}
        for _, _, name in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        return out


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics, with the two ratios formed from their totals."""
    out = dict(totals)
    decide_calls = totals["recognizer.decide.calls"]
    children = out.pop("generator.enumerate.children")
    new = out.pop("generator.enumerate.new")
    out["recognizer.decide.useful_ratio"] = totals["recognizer.trace_steps"] / decide_calls if decide_calls else 0.0
    out["generator.enumerate.new_ratio"] = new / children if children else 0.0
    return out
