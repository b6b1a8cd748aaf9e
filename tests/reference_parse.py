"""The edge-list parser as it stood before it read the edges in bulk.

It numbers every meaningful line, then checks each edge line in order
(two tokens, integers, in range, no self-loop) before ``Graph`` sees the
edges, so duplicates are the only fault ``Graph`` reports.  The tests
compare ``graphs.parse_edge_list`` with it, error type and message
included, so the bulk parser keeps the line-numbered errors.
"""

from __future__ import annotations

from strongroman.graphs import Graph, MalformedLineError, SelfLoopError, VertexRangeError


def parse_edge_list(text: str) -> Graph:
    stripped = (s.strip() for s in text.splitlines())
    lines = [(i, s) for i, s in enumerate(stripped, 1) if s and s[0] != "#"]
    if not lines:
        raise MalformedLineError("empty input, expected a header line 'n m'")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise MalformedLineError(f"line {lineno}: expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedLineError(f"line {lineno}: non-integer header {header!r}") from None
    if n < 1 or m < 0:
        raise MalformedLineError(f"line {lineno}: invalid sizes n={n}, m={m}")
    body = lines[1:]
    if len(body) != m:
        raise MalformedLineError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLineError(f"line {lineno}: expected 'a b', got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(f"line {lineno}: non-integer edge {line!r}") from None
        if not (0 <= a < n and 0 <= b < n):
            raise VertexRangeError(f"line {lineno}: edge ({a},{b}) leaves the vertex range 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"line {lineno}: self-loop at vertex {a}")
        edges.append((a, b))
    return Graph(n, edges)
