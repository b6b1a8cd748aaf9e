"""Benchmark of the strongroman CLI and library, one workload per process.

    python3 perfbench/run.py --workload accept --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

A single sequential client (closed loop, one call at a time) runs whole
passes over the workload's tasks until ``--seconds`` have passed and at least
``MIN_PASSES`` passes are done.  Every output is checked.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
(measured in a separate traced half of the run) with ``--trace 1``.  The line
before it holds the details: sample counts, tail percentiles, error rate,
skipped sizes and the environment.  ``--workload all`` runs every workload in
its own process and prints a table.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("accept", "large", "grow", "oracle")

MIN_PASSES = 4
# Set-up is sampled in this process and then in fresh child processes until
# there are SETUP_MIN_SAMPLES samples and SETUP_MIN_S seconds of them (at most
# SETUP_MAX_SAMPLES); setup_s is their median.
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_MIN_S = 1.0
CALL_LIMIT_S = 30.0  # a call slower than this counts as failed
PASS_BUDGET_S = 100.0  # stop starting passes after this, even below MIN_PASSES
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "produce_p50_ms": "ms",
    "produce_tail_ms": "ms",
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import strongroman from the checkout's ``src/`` and the workload module."""
    if not os.path.isfile(os.path.join(SRC, "strongroman", "__init__.py")):
        raise SystemExit(f"error: no strongroman package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import strongroman
    import workloads

    if not os.path.abspath(strongroman.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: strongroman was imported from {strongroman.__file__}, not {SRC}")
    return workloads


def setup(workload: str, seed: int, work_root: str, tracer=None):
    """Import the package and build every input; returns (module, tasks, seconds)."""
    start = time.perf_counter()
    workloads = import_package()
    if tracer is not None:
        tracer.install()
    tasks = workloads.build(workload, seed, work_root)
    return workloads, tasks, time.perf_counter() - start


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Stats:
    def __init__(self):
        self.latency = {"produce": [], "check": []}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{label}: {message}")


def run_pass(tasks, stats: Stats) -> None:
    for task in tasks:
        state = {"cert_path": task.cert_path}
        for step in task.steps:
            stats.attempted += 1
            start = time.perf_counter()
            try:
                out = step.call(state)
            except Exception as exc:  # a raising call is a failed call, not a benchmark crash
                stats.latency[step.kind].append(time.perf_counter() - start)
                stats.fail(task.label, f"{type(exc).__name__}: {exc}")
                break
            elapsed = time.perf_counter() - start
            stats.latency[step.kind].append(elapsed)
            if elapsed > CALL_LIMIT_S:
                stats.fail(task.label, f"call took {elapsed:.1f} s, over the {CALL_LIMIT_S} s limit")
                break
            try:
                step.validate(state, out)
            except Exception as exc:  # CheckFailed, or output too malformed to read
                stats.fail(task.label, f"{type(exc).__name__}: {exc}")
                break


def run_passes(tasks, stats: Stats, seconds: float, min_passes: int) -> list[float]:
    """Whole passes until ``seconds`` are up and ``min_passes`` are done."""
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        if walls and time.perf_counter() - start > PASS_BUDGET_S:
            break
        t = time.perf_counter()
        run_pass(tasks, stats)
        walls.append(time.perf_counter() - t)
    return walls


def tail_percentile(calls_per_pass: int) -> float:
    """Highest listed percentile with at least 10 samples beyond it, taken
    from the sample count every run guarantees (``MIN_PASSES`` passes), so
    that the metric means the same on every run of a workload."""
    guaranteed = calls_per_pass * MIN_PASSES
    fits = [p for p in PERCENTILES if guaranteed * (100 - p) / 100 >= 10]
    return max(fits) if fits else 50


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(), "commit": commit}


def measure(args, work_root: str) -> tuple[dict, dict, Stats]:
    """One workload run; returns (metrics, details, stats)."""
    stats = Stats()
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        _, tasks, _ = setup(args.workload, args.seed, work_root, tracer)
        at_setup = tracer.snapshot()
        tracer.uninstall()
        plain = run_passes(tasks, stats, args.seconds / 2, 1)
        tracer.install()
        traced = run_passes(tasks, stats, args.seconds / 2, 1)
        tracer.uninstall()
        totals = tracer.snapshot()
        # one set-up plus the mean of one traced pass
        per_run = {k: at_setup[k] + (totals[k] - at_setup[k]) / len(traced) for k in totals}
        metrics = layer_metrics(per_run)
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        details["passes"] = {"untraced": len(plain), "traced": len(traced)}
        return {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}, details, stats

    workloads, tasks, own_setup = setup(args.workload, args.seed, work_root)
    setups = [own_setup]
    while len(setups) < SETUP_MIN_SAMPLES or (sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_SAMPLES):
        setups.append(child_setup_seconds(args.workload, args.seed))
    walls = run_passes(tasks, stats, args.seconds, MIN_PASSES)
    values = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls)}
    for kind in ("produce", "check"):
        lat = stats.latency[kind]
        per_pass = sum(1 for t in tasks for s in t.steps if s.kind == kind)
        p = tail_percentile(per_pass)
        values[f"{kind}_p50_ms"] = 1000 * statistics.median(lat)
        values[f"{kind}_tail_ms"] = 1000 * percentile(lat, p)
        details[f"{kind}_samples"] = len(lat)
        details[f"{kind}_tail_percentile"] = p
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details.update(
        passes=len(walls),
        setup_samples_s=setups,
        error_rate=stats.failed / stats.attempted,
        skipped=[s for s in workloads.SKIPPED if s["workload"] == args.workload],
    )
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, details, stats


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run_all(args) -> int:
    """Every workload in its own process; prints all metrics by name and unit."""
    print(f"{'workload':8} {'metric':16} {'value':>12} unit")
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:8} failed: {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:8} {metric:16} {m['value']:12.4f} {m['unit']}")
        print(f"{name:8} {'error_rate':16} {details['error_rate']:12.4f} ratio"
              f"  ({result['failed']} of {result['attempted']} calls)")
        print(f"{name:8} samples produce={details['produce_samples']} (tail p{details['produce_tail_percentile']}),"
              f" check={details['check_samples']} (tail p{details['check_tail_percentile']}),"
              f" passes={details['passes']}")
        status |= 0 if result["correct"] else 1
    print(json.dumps({"environment": environment()}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    work_root = os.path.join(HERE, ".work", str(os.getpid()))
    try:
        if args.setup_only:
            print(setup(args.workload, args.seed, work_root)[2])
            return 0
        metrics, details, stats = measure(args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, ".work"))
        except OSError:
            pass
    details["environment"] = environment()
    details["failures"] = stats.failures
    print(json.dumps(details))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
