"""Shared corpora and independent oracles for the test suite.

The naive oracles here enumerate all 3^n assignments through the public
predicates; they are deliberately independent of the solver's pruned search.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import random
import subprocess
import sys
from functools import lru_cache

import networkx as nx
import pytest

import strongroman
from strongroman.generator import enumerate_T
from strongroman.graphs import Graph, Tree
from strongroman.roman import Assignment, is_rdf, is_wrdf
from strongroman.solver import solve_report


def nx_to_graph(G) -> Graph:
    mapping = {v: i for i, v in enumerate(sorted(G.nodes()))}
    return Graph(len(mapping), [(mapping[a], mapping[b]) for a, b in G.edges()])


def nx_to_tree(G) -> Tree:
    g = nx_to_graph(G)
    return Tree(g.n, g.edges)


@lru_cache(maxsize=None)
def trees_of_order(n: int) -> tuple[Tree, ...]:
    """All non-isomorphic trees with ``n`` vertices."""
    if n == 1:
        return (Tree(1, ()),)
    if n == 2:
        return (Tree(2, ((0, 1),)),)
    return tuple(nx_to_tree(G) for G in nx.nonisomorphic_trees(n))


@lru_cache(maxsize=None)
def connected_graphs_upto(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic connected graphs with at most ``n`` vertices (n <= 7)."""
    out = []
    for G in nx.graph_atlas_g()[1:]:
        if 1 <= G.number_of_nodes() <= n and nx.is_connected(G):
            out.append(nx_to_graph(G))
    return tuple(out)


@lru_cache(maxsize=None)
def all_graphs_upto(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic graphs (connected or not) with 1..n vertices (n <= 7)."""
    out = []
    for G in nx.graph_atlas_g()[1:]:
        if 1 <= G.number_of_nodes() <= n:
            out.append(nx_to_graph(G))
    return tuple(out)


def prufer_tree(n: int, rng: random.Random) -> Tree:
    """Uniform random labelled tree via a decoded random sequence."""
    if n == 1:
        return Tree(1, ())
    if n == 2:
        return Tree(2, ((0, 1),))
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
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
    return Tree(n, edges)


def caterpillar(k: int) -> Tree:
    """C_k: a spine of ``k`` vertices with three leaves on each; a member under X = Y = V."""
    edges = [(i, i + 1) for i in range(k - 1)]
    for i in range(k):
        edges += [(i, k + 3 * i + j) for j in range(3)]
    return Tree(4 * k, edges)


def subsets(n: int):
    for mask in range(1 << n):
        yield frozenset(v for v in range(n) if mask >> v & 1)


def naive_minimum_wrdfs(g: Graph, x0, x1=()) -> tuple[int, list[Assignment]]:
    best = None
    minima: list[Assignment] = []
    for vals in itertools.product((0, 1, 2), repeat=g.n):
        f = Assignment(g, vals)
        if is_wrdf(g, x0, x1, f):
            if best is None or f.weight < best:
                best, minima = f.weight, [f]
            elif f.weight == best:
                minima.append(f)
    return best, minima


def naive_gamma_R(g: Graph, x) -> int:
    best = None
    for vals in itertools.product((0, 1, 2), repeat=g.n):
        f = Assignment(g, vals)
        if is_rdf(g, x, f) and (best is None or f.weight < best):
            best = f.weight
    return best


def run_child(script: str, *args):
    """Run ``script`` in a fresh interpreter that imports this package;
    return what it prints as JSON."""
    src = os.path.dirname(os.path.dirname(strongroman.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.fixture(scope="session")
def closure10():
    return enumerate_T(10)


@pytest.fixture(scope="session")
def oracle_n7():
    """solve_report for every tree with up to 7 vertices and every X."""
    out = []
    for n in range(1, 8):
        for t in trees_of_order(n):
            for x in subsets(n):
                out.append((t, x, solve_report(t, x)))
    return out
