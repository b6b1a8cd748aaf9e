"""The four workloads: inputs built from the seed, the calls, and their checks.

A workload is a list of tasks.  A task is a short chain of calls on one
input, each a *produce* call (recognize, solve, generate, enumerate, gadget or
library ``decide_in_S``) or a *check* call (``verify`` on the certificate just
emitted, or ``verify_trace``).  Every call's output is checked against facts
that do not come from the code under test; a failed check fails the call.

The package is reached only through module attributes (``cli.run``,
``recognizer.decide_in_S`` ...) so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from strongroman import cli, generator, recognizer

# Counts and sizes put the ranks that the median and tail read near the middle
# of a band of equal-cost calls (same shape and size, or a fixed-seed input),
# and keep the calls whose cost the seed changes (random trees, growth seeds,
# formulas) away from those ranks or numerous enough to average out; see
# README.md.
# The seed changes random trees and their labels, the labels of dp-rdf
# inputs, growth seeds and formulas, never the sizes or counts.
# Copy i of a caterpillar, and of a path or star in `large`, is relabelled
# with random.Random(i), whatever the seed.  Relabelling alone moves the cost
# of recognizing them by up to half, so seeded labels would move the medians;
# copies of one labelling would give a band of one cost, whose quantiles jump
# between the host's fast and slow states instead of moving smoothly.
ACCEPT_SPINES = ((14, 22), (26, 6))  # (k, copies) of C_k
ACCEPT_MEMBERS = (36, 8)  # (order, count) of members with seeded growth
ACCEPT_BASELINE = ((40, 0), (80, 0), (160, 0))  # ROADMAP baseline rows (n, growth seed)
# In `large`, recognizing P_120 or K_{1,279} and dp-rdf at 10^4 vertices all
# cost about 100 ms: the medians and tails read that band.
LARGE_RECOGNIZE = (("random", 60, 2), ("star", 280, 2), ("path", 120, 14))
LARGE_DP = (("path", 100_000), ("path", 10_000), ("star", 10_000), ("caterpillar", 2_500))
# In `grow`, fixed growth seeds give a fixed spread of costs (20-90 ms) for
# the medians to read; the seeded generates are cheaper and sit below them.
GROW_SEEDED = (20, 8)  # (order, count) with seeded growth
GROW_FIXED = tuple((n, seed) for n in (28, 32, 36) for seed in range(1, 9))  # (order, growth seed)
GROW_TAIL = (50, 0, 7)  # (order, growth seed, copies); the tails read these
GROW_ENUMERATE = ((8, 269), (9, 731))  # (max order, member lines emitted at commit 5e43b90)
# Oracle trees keep fixed labels: the exhaustive search visits vertices in
# label order, so relabelling alone moves its cost by about a fifth.  P_13
# solves and 16-vertex gadgets cost about the same (60-80 ms), so the medians
# and tails read one band of calls; C_3 (the strongly equal tree) and the
# random tree are too few to move those ranks.
ORACLE_FIXED = (("caterpillar", 3, 1), ("path", 13, 3))
ORACLE_RANDOM = (13, 1)  # (order, count) of random trees
ORACLE_CNF = ((3, 4),) * 9  # (variables, clauses): 16 vertices each

# Sizes that commit 5e43b90 cannot finish in a run, with the time measured there.
SKIPPED = (
    {"workload": "accept", "input": "random_member(320, 0) decide_in_S", "reason": "425 s at commit 5e43b90"},
    {"workload": "accept", "input": "caterpillar C_100 recognize", "reason": "38 s at commit 5e43b90"},
    {"workload": "large", "input": "path P_1600 recognize", "reason": "125 s at commit 5e43b90"},
)


# -- inputs -----------------------------------------------------------------


def prufer_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree decoded from a random sequence."""
    if n <= 2:
        return [(0, 1)] if n == 2 else []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_edges(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def caterpillar_edges(k: int) -> list[tuple[int, int]]:
    """C_k: a spine of k vertices with three leaves on each (4k vertices)."""
    edges = path_edges(k)
    for i in range(k):
        edges += [(i, k + 3 * i + j) for j in range(3)]
    return edges


SHAPES = {
    "path": path_edges,
    "star": star_edges,
    "caterpillar": caterpillar_edges,
}


def shape_order(shape: str, size: int) -> int:
    return 4 * size if shape == "caterpillar" else size


def plain(n: int, edges) -> str:
    """Edge-list text of the tree in its construction labels."""
    return f"{n} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def relabelled(n: int, edges, rng: random.Random) -> str:
    """Edge-list text of the tree under a random relabelling and edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    lines = [(perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a]) for a, b in edges]
    rng.shuffle(lines)
    return f"{n} {len(lines)}\n" + "".join(f"{a} {b}\n" for a, b in lines)


def random_cnf(n_vars: int, n_clauses: int, rng: random.Random) -> list[list[tuple[int, bool]]]:
    """Clauses of two or three literals on distinct variables."""
    return [
        [(v, rng.random() < 0.5) for v in rng.sample(range(n_vars), rng.choice((2, 3)))]
        for _ in range(n_clauses)
    ]


def dimacs(n_vars: int, clauses) -> str:
    body = "".join(" ".join(str(v + 1 if p else -(v + 1)) for v, p in c) + " 0\n" for c in clauses)
    return f"p cnf {n_vars} {len(clauses)}\n{body}"


def satisfiable(n_vars: int, clauses) -> bool:
    return any(
        all(any((bits >> v & 1) == p for v, p in c) for c in clauses) for bits in range(1 << n_vars)
    )


def gamma_R_closed_form(shape: str, size: int) -> int:
    """Roman number with X = V: ceil(2n/3) on P_n, 2 on stars and 2k on C_k."""
    return {"path": -(-2 * size // 3), "star": 2, "caterpillar": 2 * size}[shape]


# -- calls and tasks ----------------------------------------------------------


class CheckFailed(Exception):
    """An output disagrees with what the benchmark knows to be right."""


@dataclass
class Step:
    kind: str  # "produce" or "check"
    call: Callable[[dict], object]  # timed; reads and writes the task's state
    validate: Callable[[dict, object], None]  # untimed; raises CheckFailed


@dataclass
class Task:
    label: str
    steps: list[Step]
    cert_path: str = ""


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``strongroman.cli.run`` with stdout captured (stderr discarded)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def _certificate(state: dict, result, kind: str, expect_code: int) -> dict:
    code, text = result
    if code != expect_code:
        raise CheckFailed(f"{kind} exited {code}, expected {expect_code}: {text[:200]}")
    cert = json.loads(text)
    if cert.get("kind") != kind:
        raise CheckFailed(f"{kind} emitted {text[:200]}")
    with open(state["cert_path"], "w", encoding="utf-8") as fh:
        fh.write(text)
    return cert


def _verified(state: dict, result) -> None:
    code, text = result
    report = json.loads(text)
    if code != 0 or report.get("verified") is not True:
        raise CheckFailed(f"certificate did not verify: {text[:200]}")


def verify_step() -> Step:
    return Step("check", lambda s: run_cli(["verify", s["cert_path"]]), _verified)


def recognize_step(label: str, path: str, expect: Optional[bool]) -> Step:
    """CLI recognize; ``expect=None`` takes the verdict from the state key
    ``strong`` that an earlier step of the same task set."""

    def check(state, result):
        want = state["strong"] if expect is None else expect
        cert = _certificate(state, result, "recognize", 0 if want else 1)
        if cert["result"]["strongly_equal"] is not want:
            raise CheckFailed(f"{label}: verdict {cert['result']['strongly_equal']}, expected {want}")

    return Step("produce", lambda s: run_cli(["recognize", path]), check)


def recognize_task(work: str, label: str, text: str, expect: bool) -> Task:
    """CLI recognize, then verify of its certificate."""
    path = write(work, label + ".txt", text)
    return Task(label, [recognize_step(label, path, expect), verify_step()])


def write(root: str, name: str, text: str) -> str:
    path = os.path.join(root, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# -- workloads ----------------------------------------------------------------


def build_accept(rng: random.Random, work: str) -> list[Task]:
    tasks = []
    for k, copies in ACCEPT_SPINES:
        for i in range(copies):
            text = relabelled(4 * k, caterpillar_edges(k), random.Random(i))
            tasks.append(recognize_task(work, f"C{k}-{i}", text, True))
    order, count = ACCEPT_MEMBERS
    rows = [(order, rng.randrange(1 << 30)) for _ in range(count)] + list(ACCEPT_BASELINE)
    for n, seed in rows:
        triple, _ = generator.random_member(n, seed)
        tasks.append(member_task(f"member{n}s{seed}", triple))
    return tasks


def member_task(label: str, triple) -> Task:
    """Library decide_in_S on a generated member, then verify_trace."""

    def decided(state, result):
        ok, trace = result
        if not ok:
            raise CheckFailed(f"{label}: generated member rejected ({trace.failure})")
        state["trace"] = trace

    def replayed(state, ok):
        if ok is not True:
            raise CheckFailed(f"{label}: accepting trace did not verify")

    return Task(label, [
        Step("produce", lambda s: recognizer.decide_in_S(triple), decided),
        Step("check", lambda s: recognizer.verify_trace(triple, s["trace"]), replayed),
    ])


def dp_task(work: str, shape: str, size: int, rng: random.Random) -> Task:
    n = shape_order(shape, size)
    label = f"dp-{shape}{size}"
    path = write(work, label + ".txt", relabelled(n, SHAPES[shape](size), rng))
    want = gamma_R_closed_form(shape, size)

    def check(state, result):
        cert = _certificate(state, result, "solve", 0)
        if cert["result"]["gamma_R"] != want:
            raise CheckFailed(f"{label}: gamma_R {cert['result']['gamma_R']}, expected {want}")

    return Task(label, [Step("produce", lambda s: run_cli(["solve", path, "--method", "dp-rdf"]), check)])


def build_large(rng: random.Random, work: str) -> list[Task]:
    tasks = []
    for shape, n, copies in LARGE_RECOGNIZE:
        for i in range(copies):
            if shape == "random":
                text = relabelled(n, prufer_edges(n, rng), rng)
            else:
                text = relabelled(n, SHAPES[shape](n), random.Random(i))
            # Golden at commit 5e43b90: paths and random trees of these
            # orders are rejected, stars accepted.
            tasks.append(recognize_task(work, f"{shape}{n}-{i}", text, shape == "star"))
    for shape, size in LARGE_DP:
        tasks.append(dp_task(work, shape, size, rng))
    return tasks


def generate_task(n: int, seed: int) -> Task:
    label = f"generate{n}s{seed}"

    def check(state, result):
        cert = _certificate(state, result, "generate", 0)
        lines = cert["result"]["tree"].split("\n")
        edges = [tuple(map(int, line.split())) for line in lines[1:] if line]
        if lines[0] != f"{n} {n - 1}" or not _is_tree(n, edges):
            raise CheckFailed(f"{label}: emitted tree is not a tree of order {n}")
        if not set(cert["result"]["x"]) <= set(cert["result"]["y"]):
            raise CheckFailed(f"{label}: X is not inside Y")

    return Task(label, [
        Step("produce", lambda s: run_cli(["generate", "--n", str(n), "--seed", str(seed)]), check),
        verify_step(),
    ])


def _is_tree(n: int, edges) -> bool:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return len(edges) == n - 1


def enumerate_task(max_order: int, lines_expected: int) -> Task:
    def check(state, result):
        code, text = result
        rows = [json.loads(line) for line in text.splitlines()]
        if code != 0 or len(rows) != lines_expected or any(r["order"] > max_order for r in rows):
            raise CheckFailed(f"enumerate --max {max_order}: {len(rows)} lines, expected {lines_expected}")

    return Task(f"enumerate{max_order}", [
        Step("produce", lambda s: run_cli(["enumerate", "--max", str(max_order)]), check),
    ])


def build_grow(rng: random.Random, work: str) -> list[Task]:
    order, count = GROW_SEEDED
    tasks = [generate_task(order, rng.randrange(1 << 30)) for _ in range(count)]
    tasks += [generate_task(n, seed) for n, seed in GROW_FIXED]
    order, seed, copies = GROW_TAIL
    tasks += [generate_task(order, seed) for _ in range(copies)]
    tasks += [enumerate_task(m, lines) for m, lines in GROW_ENUMERATE]
    return tasks


def oracle_task(work: str, label: str, text: str, gamma_R: Optional[int]) -> Task:
    """Oracle solve, its verify, then recognize cross-checked against it."""
    path = write(work, label + ".txt", text)

    def solved(state, result):
        cert = _certificate(state, result, "solve", 0)
        if gamma_R is not None and cert["result"]["gamma_R"] != gamma_R:
            raise CheckFailed(f"{label}: gamma_R {cert['result']['gamma_R']}, expected {gamma_R}")
        state["strong"] = cert["result"]["strong"]

    return Task(label, [
        Step("produce", lambda s: run_cli(["solve", path]), solved),
        verify_step(),
        recognize_step(label, path, None),
    ])


def gadget_task(work: str, label: str, n_vars: int, clauses) -> Task:
    path = write(work, label + ".cnf", dimacs(n_vars, clauses))
    sat = satisfiable(n_vars, clauses)

    def check(state, result):
        report = _certificate(state, result, "gadget", 0)["result"]["report"]
        if not (report["iff_holds"] and report["satisfiable"] is sat and report["gamma_r"] == 2 * n_vars
                and (report["gamma_R"] == report["gamma_r"]) is sat):
            raise CheckFailed(f"{label}: gadget report {report} disagrees with satisfiable={sat}")

    return Task(label, [
        Step("produce", lambda s: run_cli(["gadget", path, "--verify"]), check),
        verify_step(),
    ])


def build_oracle(rng: random.Random, work: str) -> list[Task]:
    tasks = []
    for shape, size, copies in ORACLE_FIXED:
        n = shape_order(shape, size)
        for i in range(copies):
            label = f"{shape}{size}-{i}"
            tasks.append(oracle_task(work, label, plain(n, SHAPES[shape](size)), gamma_R_closed_form(shape, size)))
    order, count = ORACLE_RANDOM
    for i in range(count):
        tasks.append(oracle_task(work, f"random{order}-{i}", relabelled(order, prufer_edges(order, rng), rng), None))
    for i, (n_vars, n_clauses) in enumerate(ORACLE_CNF):
        tasks.append(gadget_task(work, f"cnf{i}", n_vars, random_cnf(n_vars, n_clauses, rng)))
    return tasks


WORKLOADS = {"accept": build_accept, "large": build_large, "grow": build_grow, "oracle": build_oracle}


def build(name: str, seed: int, work: str) -> list[Task]:
    """The workload's tasks, with input and certificate files under ``work``."""
    os.makedirs(work, exist_ok=True)
    rng = random.Random(seed)
    tasks = WORKLOADS[name](rng, work)
    # Host speed switches between a fast and a slow state every second or
    # so; shuffled, each band of like calls samples the whole run rather than
    # a few stretches of it.
    rng.shuffle(tasks)
    for i, task in enumerate(tasks):
        task.cert_path = os.path.join(work, f"cert{i}.json")
    return tasks
