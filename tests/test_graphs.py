import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongroman import graphs
from strongroman.graphs import (
    DuplicateEdgeError,
    Graph,
    MalformedLineError,
    NotATreeError,
    ParseError,
    SelfLoopError,
    Tree,
    VertexRangeError,
    _canonical_rooting,
    canonical_form,
    canonical_relabel,
    format_edge_list,
    is_tree,
    longest_x_path,
    parse_edge_list,
    parse_tree,
    rooted,
    split_at,
    to_dot,
)
from strongroman.recognizer import triple_for_tree

from conftest import caterpillar, prufer_tree, run_child, trees_of_order
from reference_canon import canonical_relabel as reference_relabel
from reference_parse import parse_edge_list as reference_parse

P3 = Tree(3, [(0, 1), (1, 2)])
P4 = Tree(4, [(0, 1), (1, 2), (2, 3)])
K13 = Tree(4, [(0, 1), (0, 2), (0, 3)])


class TestParse:
    def test_single_vertex(self):
        g = parse_edge_list("1 0")
        assert g.n == 1 and g.edges == ()

    def test_single_edge(self):
        g = parse_edge_list("2 1\n0 1")
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_star(self):
        g = parse_edge_list("4 3\n0 1\n0 2\n0 3")
        assert g.n == 4
        assert g.edges == ((0, 1), (0, 2), (0, 3))
        assert g.degree(0) == 3

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a star\n\n4 3\n0 1\n0 2\n\n0 3\n")
        assert g.edges == ((0, 1), (0, 2), (0, 3))

    def test_malformed_header(self):
        with pytest.raises(MalformedLineError):
            parse_edge_list("banana")
        with pytest.raises(MalformedLineError):
            parse_edge_list("2 1\n0 1 7")

    def test_missing_edges(self):
        with pytest.raises(MalformedLineError):
            parse_edge_list("3 2\n0 1")

    def test_out_of_range(self):
        with pytest.raises(VertexRangeError):
            parse_edge_list("2 1\n0 2")

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            parse_edge_list("2 1\n1 1")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            parse_edge_list("2 2\n0 1\n1 0")

    def test_roundtrip(self):
        text = format_edge_list(K13)
        assert parse_edge_list(text) == K13


def _path_text(n, faults=(), sep="\n"):
    """P_n as edge-list text, with edge line ``i`` (from 1) replaced by
    ``faults[i]`` where given."""
    faults = dict(faults)
    lines = [faults.get(i + 1, f"{i} {i + 1}") for i in range(n - 1)]
    return sep.join([f"{n} {n - 1}"] + lines) + sep


# Inputs the old per-line parser rejected, each with the error it raised.
MALFORMED = {
    "empty": "",
    "only comments": "# nothing\n\n   # more\n",
    "bad header": "banana",
    "header with three tokens": "3 2 1\n0 1\n1 2\n",
    "non-integer header": "three 2\n0 1\n1 2\n",
    "float header": "3.0 2\n0 1\n1 2\n",
    "n zero": "0 0\n",
    "n negative": "-2 0\n",
    "m negative": "3 -1\n",
    "header after comments": "# c\n\n\t# d\nx y\n",
    "fewer edge lines than m": "3 2\n0 1\n",
    "more edge lines than m": "3 1\n0 1\n1 2\n",
    "three tokens": _path_text(40, {31: "30 31 7"}),
    "one token": _path_text(40, {31: "30"}),
    "non-integer token": _path_text(40, {31: "30 x"}),
    "float token": _path_text(40, {31: "30 31.0"}),
    "out of range late": _path_text(40, {37: "36 40"}),
    "negative endpoint late": _path_text(40, {37: "-1 36"}),
    "self-loop late": _path_text(40, {38: "17 17"}),
    "duplicate late": _path_text(40, {39: "3 2"}),
    "duplicate then cycle": "4 3\n0 1\n1 0\n2 3\n",
    "range before non-integer": _path_text(40, {5: "4 99", 30: "29 a"}),
    "self-loop before range": _path_text(40, {5: "4 4", 30: "29 99"}),
    "range before self-loop": _path_text(40, {5: "4 99", 30: "29 29"}),
    "three tokens before range": _path_text(40, {5: "4 5 6", 30: "29 99"}),
    "duplicate before self-loop": _path_text(40, {5: "3 4", 30: "29 29"}),
    "non-integer before duplicate": _path_text(40, {5: "4 b", 30: "28 29"}),
    "crlf with range fault": _path_text(10, {9: "8 10"}, sep="\r\n"),
    "tabs, comments and blanks": "# tree\n\n3\t2\n\t0 1\n\n  # edge two\n1\t 3\n",
}

# Inputs both parsers accept.
WELL_FORMED = {
    "single vertex": "1 0",
    "tabs, comments and blanks": "# a star\n\n4\t3\n\t0 1 \n# between\n\n0\t2\n   # indented\n 3 0\n\n",
    "crlf": "3 2\r\n0 1\r\n2 1\r\n",
    "not a tree": "4 2\n0 1\n2 3\n",
    "long path": _path_text(500),
}


class TestParseMatchesReference:
    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    def test_same_error(self, text):
        with pytest.raises(ValueError) as ref:
            reference_parse(text)
        with pytest.raises(ValueError) as got:
            parse_edge_list(text)
        assert (type(got.value), str(got.value)) == (type(ref.value), str(ref.value))

    @pytest.mark.parametrize("text", WELL_FORMED.values(), ids=WELL_FORMED.keys())
    def test_same_graph(self, text):
        got, ref = parse_edge_list(text), reference_parse(text)
        assert got == ref and got.labels is None
        assert all(got.neighbors(v) == ref.neighbors(v) for v in got.vertices())

    def test_random_corruptions(self):
        for text in corrupted_tree_texts(99, 2000):
            assert outcome(parse_edge_list, text) == outcome(reference_parse, text), text


def corrupted_tree_texts(seed, count):
    """Edge lists of small random trees with up to three lines replaced or
    inserted, header included."""
    rng = random.Random(seed)
    tokens = ("0", "1", "-1", "x", "1.5", "#", "7 7", "")
    for _ in range(count):
        n = rng.randint(1, 8)
        lines = [f"{a} {b}" for a, b in prufer_tree(n, rng).edges]
        lines.insert(0, f"{n} {n - 1}")
        for _ in range(rng.choice((0, 1, 2, 3))):
            k = rng.randrange(len(lines) + 1)
            if rng.random() < 0.5 and k < len(lines):
                lines[k] = " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 3)))
            else:
                lines.insert(k, rng.choice((f"{rng.randint(-1, n)} {rng.randint(-1, n)}", "", "# c")))
        yield rng.choice(("\n", "\r\n")).join(lines)


class TestParseTree:
    def test_only_moves_not_a_tree_ahead(self):
        # the header check raises NotATreeError where the parser would have
        # named another fault first; anything else is the parser's outcome
        def via_graph(text):
            g = parse_edge_list(text)
            return Tree(g.n, g.edges)

        texts = [*MALFORMED.values(), *WELL_FORMED.values(), *corrupted_tree_texts(7, 2000)]
        for text in texts:
            got, ref = outcome(parse_tree, text), outcome(via_graph, text)
            if got != ref:
                assert got[0] is NotATreeError and issubclass(ref[0], ParseError), text
        assert outcome(parse_tree, MALFORMED["more edge lines than m"]) == (
            NotATreeError, "graph on 3 vertices with 1 edges is not a tree"
        )

    def test_wrong_count_fails_before_the_parser_runs(self, monkeypatch):
        # every line break that ``str.splitlines`` knows ends the header
        seps = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x85", "\u2028")
        for sep in seps:
            assert parse_tree(sep.join(["# c", "3 2", "0 1", "1 2"])) == Tree(3, [(0, 1), (1, 2)])

        def refuse(text):
            raise AssertionError("parsed although the header names no tree")

        monkeypatch.setattr(graphs, "parse_edge_list", refuse)
        for sep in seps:
            text = sep.join(["# c", "4 2", "0 1", "1 2"])
            assert outcome(parse_tree, text) == (NotATreeError, "graph on 4 vertices with 2 edges is not a tree")

    def test_not_a_tree_is_not_rescanned(self, monkeypatch):
        # m = n - 1, yet a triangle plus an isolated vertex: every line is
        # sound, so the constructor's error stands and no line is rescanned
        def refuse(raw, n):
            raise AssertionError("edge lines rescanned")

        monkeypatch.setattr(graphs, "_raise_first_bad_line", refuse)
        got = outcome(parse_tree, "4 3\n0 1\n1 2\n2 0\n")
        assert got == outcome(Tree, 4, [(0, 1), (1, 2), (2, 0)])
        assert got == (NotATreeError, "graph on 4 vertices with 3 edges is not a tree")


class TestTreeBasics:
    def test_is_tree(self):
        assert is_tree(Graph(2, [(0, 1)]))
        assert is_tree(Graph(1))
        assert not is_tree(Graph(3, [(0, 1)]))  # disconnected
        assert not is_tree(Graph(3, [(0, 1), (1, 2), (0, 2)]))  # cycle

    def test_tree_constructor_rejects(self):
        with pytest.raises(NotATreeError):
            Tree(3, [(0, 1)])
        with pytest.raises(NotATreeError):
            Tree(3, [(0, 1), (1, 2), (0, 2)])

    def test_immutability(self):
        with pytest.raises(AttributeError):
            P3.n = 5

    def test_dot_export(self):
        dot = to_dot(Graph(2, [(0, 1)], labels={0: "a"}))
        assert "0 -- 1;" in dot and 'label="a"' in dot


class TestKeptWalk:
    @staticmethod
    def assert_kept(t):
        parent, order = t.walk
        assert type(parent) is tuple and type(order) is tuple
        assert (list(parent), list(order)) == rooted(t._adj, 0)

    def test_every_way_to_build_a_tree(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 30)
            edges = list(prufer_tree(n, rng).edges)
            rng.shuffle(edges)
            t = Tree(n, edges)
            self.assert_kept(t)
            self.assert_kept(triple_for_tree(t).canonicalized()[0].tree)
            # the generator builder's shape: empty slots for vertices not yet added read -1
            padded = [*map(list, t._adj), [], []]
            assert rooted(padded, 0) == ([*t.walk[0], -1, -1], list(t.walk[1]))
            if n > 1:
                v, u = edges[0]
                self.assert_kept(split_at(t, v, u).t_prime)

    def test_walk_is_read_only(self):
        with pytest.raises(AttributeError):
            P3.walk = ((0, 0, 1), (0, 1, 2))
        with pytest.raises(TypeError):
            P3.walk[0][1] = 2


def reference_graph(n, edges, labels=None):
    """The per-edge construction loop that bulk validation replaced: edges and
    adjacency of a valid input, or the first error in input order.
    """
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    norm, seen = [], set()
    adj = [[] for _ in range(n)]
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise VertexRangeError(f"edge ({a},{b}) leaves the vertex range 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"self-loop at vertex {a}")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge ({e[0]},{e[1]})")
        seen.add(e)
        norm.append(e)
        adj[a].append(b)
        adj[b].append(a)
    norm.sort()
    if labels is not None:
        for v in labels:
            if not (0 <= v < n):
                raise VertexRangeError(f"label for unknown vertex {v}")
    return tuple(norm), tuple(tuple(sorted(a)) for a in adj)


def outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)


def random_edge_list(rng):
    """A random tree or edge list on n <= 12 with several bad edges mixed in;
    endpoints are drawn from -1..n, and now and then one is not an integer.
    """
    n = rng.randint(1, 12)
    if rng.random() < 0.4:
        edges = list(prufer_tree(n, rng).edges)
    else:
        edges = [(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(rng.randint(0, 2 * n))]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        bad = rng.choice(((rng.randint(-1, n), rng.randint(-1, n)), (n, 0), (0, 0), (-1, 1)))
        if edges and rng.random() < 0.4:
            bad = edges[rng.randrange(len(edges))][::-1]  # a duplicate
        edges.insert(rng.randrange(len(edges) + 1), bad)
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    if edges and rng.random() < 0.05:
        k = rng.randrange(len(edges))
        edges[k] = (rng.choice((0.0, 1.5, "1", None)), edges[k][1])
    labels = None
    if rng.random() < 0.3:
        labels = {v: f"v{v}" for v in range(-1, n + 1) if rng.random() < 0.3}
    return n, edges, labels


# The error that parsing a short input with a huge header raises, in a child
# capped at 1 GiB of address space.
_BAD_EDGE_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import json
from strongroman.graphs import parse_edge_list
try:
    parse_edge_list("100000000 1\\n0 0\\n")
except Exception as exc:
    print(json.dumps([type(exc).__name__, str(exc)]))
"""


class TestConstruction:
    def test_bulk_validation_matches_per_edge_loop(self):
        rng = random.Random(2024)
        valid = 0
        for _ in range(3000):
            n, edges, labels = random_edge_list(rng)
            expected = outcome(reference_graph, n, edges, labels)
            got = outcome(Graph, n, iter(edges), labels)
            if isinstance(got, Graph):
                valid += 1
                ref_edges, ref_adj = expected
                assert got.edges == ref_edges
                assert all(got.neighbors(v) == ref_adj[v] for v in range(n))
                # endpoints outside 0..n-1 are no vertices: never an edge, never an error
                assert all(
                    got.has_edge(a, b) == ((min(a, b), max(a, b)) in ref_edges)
                    for a in range(-1, n + 1)
                    for b in range(-1, n + 1)
                )
                assert got.labels == labels
            else:
                assert got == expected, (n, edges)
        assert valid >= 500

    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, [(0, 1)]),  # forest
            (4, [(0, 1), (2, 3)]),  # forest, n - 2 edges
            (3, [(0, 1), (1, 2), (0, 2)]),  # cycle
            (5, [(0, 1), (1, 2), (2, 0), (3, 4)]),  # cycle plus an edge, n - 1 edges
        ],
    )
    def test_from_graph_rejects_like_constructor(self, n, edges):
        # the graph's edge list, parsed as a tree, fails as the constructor does
        with pytest.raises(NotATreeError) as ref:
            Tree(n, edges)
        with pytest.raises(NotATreeError) as got:
            parse_tree(format_edge_list(Graph(n, edges)))
        assert str(got.value) == str(ref.value)

    def test_first_bad_edge_in_bounded_memory(self):
        # a header that claims 10^8 vertices before one self-loop: naming the
        # bad edge allocates nothing per vertex, in a child capped at 1 GiB
        # of address space
        assert run_child(_BAD_EDGE_CHILD) == ["SelfLoopError", "line 2: self-loop at vertex 0"]

    def test_from_graph_labels_are_read_only(self):
        source = {0: "a"}
        g = Graph(3, [(0, 1), (1, 2)], labels=source)
        t = Tree(3, [(0, 1), (1, 2)], labels=source)
        source[0] = "changed"
        for obj in (g, t):
            with pytest.raises(TypeError):
                obj.labels[0] = "changed"
            with pytest.raises(TypeError):
                obj.labels[2] = "new"
        assert g.labels == t.labels == {0: "a"}


class TestSplitAt:
    def test_path(self):
        sp = split_at(P4, 1, 2)
        assert sp.t_prime.n == 2 and sp.t_prime.edges == ((0, 1),)
        assert sp.to_prime == {2: 0, 3: 1}
        assert sp.branches == ((0, frozenset({0})),)

    def test_star_center(self):
        sp = split_at(K13, 0, 1)
        assert sp.t_prime.n == 1
        assert {w for w, _ in sp.branches} == {2, 3}
        assert all(s == frozenset({w}) for w, s in sp.branches)

    def test_star_k14_symmetry(self):
        k14 = Tree(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        sp = split_at(k14, 0, 2)
        assert len(sp.branches) == 3

    def test_not_adjacent(self):
        with pytest.raises(ValueError):
            split_at(P4, 0, 2)

    def test_partition_property(self):
        rng = random.Random(5)
        for _ in range(60):
            t = prufer_tree(rng.randint(2, 10), rng)
            v = rng.randrange(t.n)
            nbrs = t.neighbors(v)
            u = nbrs[rng.randrange(len(nbrs))]
            sp = split_at(t, v, u)
            parts = [frozenset(sp.to_prime)] + [s for _, s in sp.branches]
            union = set()
            for p in parts:
                assert not (union & p)
                union |= p
            assert union == set(t.vertices()) - {v}
            # every branch induces a connected subtree
            for w, s in sp.branches:
                sub = [e for e in t.edges if e[0] in s and e[1] in s]
                Tree(len(s), [(sorted(s).index(a), sorted(s).index(b)) for a, b in sub])


def _relabel(t: Tree, perm: list[int]) -> Tree:
    return Tree(t.n, [(perm[a], perm[b]) for a, b in t.edges])


class TestCenters:
    """``_centers`` against its definition: the vertices of minimum eccentricity."""

    @staticmethod
    def assert_centers(t):
        ecc = [max(d.values()) for d in _all_distances(t)[0]]
        assert graphs._centers(t) == [v for v in t.vertices() if ecc[v] == min(ecc)]

    def test_every_tree_up_to_order_10(self):
        rng = random.Random(3)
        for n in range(1, 11):
            for t in trees_of_order(n):
                self.assert_centers(t)
                perm = list(range(n))
                rng.shuffle(perm)
                self.assert_centers(_relabel(t, perm))

    def test_paths_stars_caterpillars_up_to_200(self):
        rng = random.Random(4)
        cases = [caterpillar(k) for k in (1, 2, 3, 24, 25, 49, 50)]
        for n in (*range(1, 13), 99, 100, 101, 199, 200):
            cases.append(Tree(n, [(v, v + 1) for v in range(n - 1)]))
            cases.append(Tree(n, [(0, v) for v in range(1, n)]))
        for t in cases:
            self.assert_centers(t)
            perm = list(range(t.n))
            rng.shuffle(perm)
            self.assert_centers(_relabel(t, perm))


class TestCanonicalForm:
    def test_relabel_invariance_examples(self):
        assert canonical_form(P3) == canonical_form(Tree(3, [(2, 1), (1, 0)]))
        k13b = _relabel(K13, [3, 0, 1, 2])
        assert canonical_form(K13) == canonical_form(k13b)

    def test_color_separation(self):
        leaf = canonical_form(P3, {0: 1, 1: 0, 2: 0})
        center = canonical_form(P3, {0: 0, 1: 1, 2: 0})
        assert leaf != center

    def test_curated_non_isomorphic(self):
        # same order, different shapes or colorings must separate
        forms = {
            canonical_form(P4),
            canonical_form(K13),
            canonical_form(P4, {0: 1, 1: 0, 2: 0, 3: 0}),
            canonical_form(P4, {0: 0, 1: 1, 2: 0, 3: 0}),
            canonical_form(K13, {0: 1, 1: 0, 2: 0, 3: 0}),
            canonical_form(K13, {0: 0, 1: 1, 2: 0, 3: 0}),
        }
        assert len(forms) == 6

    def test_all_trees_order_7_separate(self):
        forms = {canonical_form(t) for t in trees_of_order(7)}
        assert len(forms) == len(trees_of_order(7))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_relabel_invariance_random(self, data):
        n = data.draw(st.integers(1, 9))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        t = prufer_tree(n, rng)
        colors = {v: data.draw(st.integers(0, 2)) for v in range(n)}
        perm = data.draw(st.permutations(range(n)))
        t2 = _relabel(t, list(perm))
        colors2 = {perm[v]: c for v, c in colors.items()}
        assert canonical_form(t, colors) == canonical_form(t2, colors2)

    def test_relabel_map_realizes_form(self):
        rng = random.Random(11)
        for _ in range(40):
            t = prufer_tree(rng.randint(1, 9), rng)
            colors = {v: rng.randint(0, 2) for v in range(t.n)}
            key, mapping = canonical_relabel(t, colors)
            assert _canonical_rooting(t, colors)[0] == key
            t2 = _relabel(t, [mapping[v] for v in range(t.n)])
            colors2 = {mapping[v]: c for v, c in colors.items()}
            key2, mapping2 = canonical_relabel(t2, colors2)
            assert key2 == key
            assert mapping2 == {v: v for v in range(t.n)}

    def test_matches_reference(self):
        # key and mapping both, on random trees (half 3-coloured) and on
        # paths, stars and caterpillars, each of those also relabelled and coloured
        rng = random.Random(5)
        cases = []
        for i in range(5000):
            t = prufer_tree(rng.randint(1, 40), rng)
            cases.append((t, {v: rng.randint(0, 2) for v in range(t.n)} if i % 2 else None))
        for n in range(1, 41):
            cases.append((Tree(n, [(v, v + 1) for v in range(n - 1)]), None))
            cases.append((Tree(n, [(0, v) for v in range(1, n)]), None))
        for k in range(1, 11):
            cases.append((caterpillar(k), None))
        for t, _ in cases[5000:]:
            perm = list(range(t.n))
            rng.shuffle(perm)
            cases.append((_relabel(t, perm), {v: rng.randint(0, 2) for v in range(t.n)}))
        for t, colors in cases:
            key, mapping = canonical_relabel(t, colors)
            assert (key, mapping) == reference_relabel(t, colors)
            assert _canonical_rooting(t, colors)[0] == key

    def test_missing_color_rejected(self):
        with pytest.raises(ValueError):
            canonical_form(P3, {0: 0, 1: 0})

    def test_equal_strings_iff_color_isomorphic(self):
        # independent oracle: networkx isomorphism with color matching
        import networkx as nx

        def as_nx(t, colors):
            G = nx.Graph()
            for v in t.vertices():
                G.add_node(v, color=colors[v])
            G.add_edges_from(t.edges)
            return G

        rng = random.Random(2)
        samples = []
        for _ in range(40):
            n = rng.randint(1, 7)
            t = prufer_tree(n, rng)
            colors = {v: rng.randint(0, 1) for v in range(n)}
            samples.append((t, colors))
        match = nx.algorithms.isomorphism.categorical_node_match("color", None)
        for i, (t1, c1) in enumerate(samples):
            for t2, c2 in samples[i + 1 :]:
                if t1.n != t2.n:
                    continue
                same_key = canonical_form(t1, c1) == canonical_form(t2, c2)
                iso = nx.is_isomorphic(as_nx(t1, c1), as_nx(t2, c2), node_match=match)
                assert same_key == iso


class TestLongestXPath:
    def test_p4_full(self):
        assert longest_x_path(P4, range(4)) == [0, 1, 2, 3]

    def test_star_full(self):
        path = longest_x_path(K13, range(4))
        assert len(path) == 3 and path[1] == 0

    def test_p3_endpoints(self):
        assert longest_x_path(P3, {0, 2}) == [0, 1, 2]

    def test_too_small(self):
        with pytest.raises(ValueError):
            longest_x_path(P3, {1})

    def test_exhaustive_maximality(self):
        # oracle: tree distance over all pairs of marked vertices
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(2, 10)
            t = prufer_tree(n, rng)
            x = {v for v in range(n) if rng.random() < 0.6}
            if len(x) < 2:
                x = {0, n - 1}
            path = longest_x_path(t, x)
            assert path[0] in x and path[-1] in x
            dist, parent = _all_distances(t)
            best = max(dist[a][b] for a in x for b in x if a != b)
            assert len(path) - 1 == best
            # lexicographic minimality among maximum-length candidates
            cands = [
                _walk(parent[a], b)
                for a in sorted(x)
                for b in sorted(x)
                if a != b and dist[a][b] == best
            ]
            assert path == min(cands)


def _all_distances(t: Tree):
    """Distances and BFS parent pointers from every source vertex."""
    from collections import deque

    dist = []
    parents = []
    for s in t.vertices():
        d = {s: 0}
        parent = {s: s}
        q = deque([s])
        while q:
            v = q.popleft()
            for u in t.neighbors(v):
                if u not in d:
                    d[u] = d[v] + 1
                    parent[u] = v
                    q.append(u)
        dist.append(d)
        parents.append(parent)
    return dist, parents


def _walk(parent: dict, b: int) -> list[int]:
    """The path from the BFS source of ``parent`` to ``b``."""
    path = [b]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return path[::-1]
