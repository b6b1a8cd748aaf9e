"""``verify`` accepts a certificate's result only as its command emitted it.

Genuine certificates of every kind are emitted once; hypothesis then edits
each ``result`` at one path (a retyped value, a value taken from elsewhere
in the certificate, a dropped or added key, a permuted or duplicated list)
and runs ``verify`` on it.  ``verify`` must exit 0 exactly when the edited
result serializes like the emitted one, 1 otherwise, and never 2: the
certificate is a JSON object of a known kind.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongroman.cli import run

STAR = "4 3\n0 1\n0 2\n0 3\n"
DOUBLE_STAR = "8 7\n0 1\n0 2\n0 3\n0 4\n4 5\n4 6\n4 7\n"
P4 = "4 3\n0 1\n1 2\n2 3\n"
CNF = "c sample\np cnf 3 2\n1 2 -3 0\n-1 2 -3 0\n"

# (name, argv with {file} for the input file, the input text, exit code)
COMMANDS = [
    ("recognize accept", ["recognize", "{file}"], DOUBLE_STAR, 0),
    ("recognize reject", ["recognize", "{file}"], P4, 1),
    ("solve oracle", ["solve", "{file}", "--x", "0,2"], STAR, 0),
    ("solve dp-rdf", ["solve", "{file}", "--method", "dp-rdf", "--x", "1,4,5"], DOUBLE_STAR, 0),
    ("generate", ["generate", "--n", "9", "--seed", "1"], None, 0),
    ("gadget", ["gadget", "{file}", "--verify"], CNF, 0),
]


def run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def paths(obj, prefix=()):
    """Every path into ``obj``, the empty one first."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


def at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def retyped(value) -> list:
    """Values of another JSON type that read alike, or nearly so."""
    if isinstance(value, bool):
        return [int(value), str(value).lower(), None]
    if isinstance(value, int):
        # json writes the infinities as Infinity and -Infinity and reads them
        # back, as it reads 1e400, as floats that int() refuses
        return [float(value), str(value), value != 0, [value], math.inf, -math.inf]
    if isinstance(value, str):
        return [int(value)] if value.lstrip("-").isdigit() else [[value], None]
    if isinstance(value, list):
        return [{str(i): v for i, v in enumerate(value)}, None]
    if isinstance(value, dict):
        return [list(value.values()), sorted(value)]
    return [0, False, ""]


def fits(op, path, value) -> bool:
    if op == "drop":
        return len(path) > 1  # the result itself stays
    if op == "add":
        return isinstance(value, dict)
    if op in ("permute", "duplicate"):
        return isinstance(value, list) and len(value) > 0
    return True  # "retype", "swap"


@st.composite
def edited(draw, cert):
    """``cert`` with its result edited at one path.  The edit is drawn first
    and the path among those it fits, so that the few lists and dicts of a
    result are edited as often as its many scalars."""
    cert = copy.deepcopy(cert)
    pool = [at(cert, p) for p in paths(cert)]
    where = {
        op: [p for p in paths(cert["result"], ("result",)) if fits(op, p, at(cert, p))]
        for op in ("retype", "swap", "drop", "add", "permute", "duplicate")
    }
    op = draw(st.sampled_from([op for op, ps in where.items() if ps]))
    path = draw(st.sampled_from(where[op]))
    parent, key = at(cert, path[:-1]), path[-1]
    target = parent[key]
    if op == "retype":
        parent[key] = draw(st.sampled_from(retyped(target)))
    elif op == "swap":
        parent[key] = copy.deepcopy(draw(st.sampled_from(pool)))
    elif op == "drop":
        del parent[key]
    elif op == "add":
        names = sorted({k for p in paths(cert) for k in p if isinstance(k, str)} | {"extra"})
        target[draw(st.sampled_from(names))] = copy.deepcopy(draw(st.sampled_from(pool)))
    elif op == "permute":
        parent[key] = draw(st.permutations(target))
    else:
        i = draw(st.integers(0, len(target) - 1))
        target.insert(draw(st.integers(0, len(target))), copy.deepcopy(target[i]))
    return cert


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("argv, text, code", [c[1:] for c in COMMANDS], ids=[c[0] for c in COMMANDS])
def test_verify_accepts_only_the_emitted_result(tmp_path, argv, text, code):
    source = tmp_path / "input.txt"
    if text is not None:
        source.write_text(text)
    got, out = run_quiet([a.format(file=source) for a in argv])
    assert got == code
    cert = json.loads(out)
    path = tmp_path / "cert.json"

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(edited(cert))
    def check(forged):
        path.write_text(json.dumps(forged))
        verdict, shown = run_quiet(["verify", str(path)])
        same = dump(forged["result"]) == dump(cert["result"])
        assert verdict == (0 if same else 1), (shown, forged["result"])

    check()
