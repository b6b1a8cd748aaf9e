"""``verify`` accepts a certificate's result only as its command emitted it.

Genuine certificates of every kind are emitted once; hypothesis then edits
each ``result`` at one path (a retyped value, a value taken from elsewhere
in the certificate, a dropped or added key, a permuted or duplicated list)
and runs ``verify`` on it.  ``verify`` must exit 0 exactly when the edited
result serializes like the emitted one, 1 otherwise, and never 2: the
certificate is a JSON object of a known kind.

Edits of the ``input`` are checked against the command itself: hypothesis
edits one input value within its type, the digest is recomputed, and the
command is run on the edited input for reference.  Where ``verify``
computes the result again, it must exit 0 exactly when the command's own
result equals the recorded one.  Where it replays the result (an accepting
trace, a step list), it must exit 0 when they are equal, and only when the
edited input's own command accepts: ``recognize`` exits 0, or ``generate``
grows a member of the recorded order (which a changed ``seed`` alone does,
the documented exemption).
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongroman.cli import _digest, run

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


# Values an input string may be edited to, besides the other certificates'
# values of the same key: texts that read alike and texts that do not.
TEXTS = {
    "graph": [
        "# a star\n" + STAR,
        STAR + "\n\n",
        DOUBLE_STAR.replace("\n", " \n"),
        "\n" + P4,
        "4 3\n0 3\n0 1\n0 2\n",  # the star, its edges in another order
        "4 3\n1 0\n1 2\n1 3\n",  # the star on another centre
        "8 7\n4 7\n4 6\n4 5\n4 0\n0 1\n0 2\n0 3\n",  # the double star relabelled
        "1 0\n",
        "4 3\n0 1\n1 2\n2 0\n",
        "",
    ],
    "x": ["all", "none", "0,2", "2,0", "0,2,", " 0 , 2 ", "1,4,5", "5,4,1", "1,4,5,6", "0,1,2,3", "9", "-1", "a", ""],
    "method": ["oracle", "dp-rdf", "Oracle", "bogus", ""],
    "cnf": [
        "p cnf 3 2\n1 2 -3 0\n-1 2 -3 0\n",  # CNF without its comment
        "p cnf 3 2\n-1 2 -3 0\n1 2 -3 0\n",
        "p cnf 2 2\n1 2 0\n-1 -2 0\n",
        "p cnf 1 2\n1 1 0\n-1 -1 0\n",
        "p cnf 1 1\n1 0\n",
        "p cnf 0 0\n",
        "",
    ],
}
INSERTED = "0123456789 \n#-pc"


@st.composite
def edited_text(draw, value, key, pool):
    """Another text: one from the pool, or ``value`` with one character
    dropped or inserted."""
    how = draw(st.sampled_from(["pool", "pool", "drop", "insert"] if value else ["pool", "insert"]))
    if how == "pool":
        return draw(st.sampled_from(sorted({*pool, *TEXTS[key]} - {value})))
    i = draw(st.integers(0, len(value) - (how == "drop")))
    if how == "drop":
        return value[:i] + value[i + 1 :]
    return value[:i] + draw(st.sampled_from(INSERTED)) + value[i:]


@st.composite
def edited_input(draw, cert, texts):
    """``cert`` with one input value edited within its type and the digest
    recomputed; ``texts`` maps each text input key to its emitted values."""
    cert = copy.deepcopy(cert)
    inp = cert["input"]
    key = draw(st.sampled_from(sorted(inp)))
    value = inp[key]
    if isinstance(value, bool):
        inp[key] = not value
    elif isinstance(value, int):
        inp[key] = draw(st.integers(-2, 24).filter(lambda v: v != value))
    else:
        inp[key] = draw(edited_text(value, key, texts[key]))
    cert["digest"] = _digest(inp)
    return cert


def command_result(tmp_path, kind, inp):
    """The command's own exit code and result on ``inp``, run through the
    CLI (None when it emits no certificate)."""
    source = tmp_path / "edited.txt"
    for key in ("graph", "cnf"):
        if key in inp:
            source.write_text(inp[key], newline="")
    argv = {
        "solve": lambda: ["solve", str(source), f"--x={inp['x']}", f"--method={inp['method']}"],
        "recognize": lambda: ["recognize", str(source)],
        "generate": lambda: ["generate", f"--n={inp['n']}", f"--seed={inp['seed']}"],
        "gadget": lambda: ["gadget", str(source)] + ["--verify"] * inp["verify"],
    }[kind]()
    with contextlib.redirect_stderr(io.StringIO()):  # argparse's usage text
        code, out = run_quiet(argv)
    if code == 2:
        return code, None
    cert = json.loads(out)
    assert cert["input"] == inp  # the command emits the input it was given
    return code, cert["result"]


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """The genuine certificate of every command, by name."""
    source = tmp_path_factory.mktemp("emitted") / "input.txt"
    out = {}
    for name, argv, text, code in COMMANDS:
        if text is not None:
            source.write_text(text)
        got, shown = run_quiet([a.format(file=source) for a in argv])
        assert got == code
        out[name] = json.loads(shown)
    return out


@pytest.mark.parametrize("name", [c[0] for c in COMMANDS])
def test_verify_binds_the_input_values(tmp_path, emitted, name):
    cert = emitted[name]
    texts = {}
    for other in emitted.values():
        for key, value in other["input"].items():
            if isinstance(value, str):
                texts.setdefault(key, set()).add(value)
    kind, recorded = cert["kind"], cert["result"]
    replayed = kind == "generate" or (kind == "recognize" and recorded["strongly_equal"])
    path = tmp_path / "cert.json"

    def order(result):
        return int(result["tree"].split()[0])

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(edited_input(cert, texts))
    def check(forged):
        path.write_text(json.dumps(forged))
        verdict, shown = run_quiet(["verify", str(path)])
        assert verdict in (0, 1), shown
        code, own = command_result(tmp_path, kind, forged["input"])
        same = own is not None and dump(own) == dump(recorded)
        if not replayed:
            assert verdict == (0 if same else 1), (shown, forged["input"])
        elif same:
            assert verdict == 0, (shown, forged["input"])
        elif verdict == 0:
            accepts = code == 0 and (kind == "recognize" or order(own) == order(recorded))
            assert accepts, (shown, forged["input"])

    check()
