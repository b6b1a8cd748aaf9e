import hashlib
import json
import random

import pytest

from strongroman import cli, graphs
from strongroman.cli import run
from strongroman.generator import OpStep, applicable_steps, base_triples, replay
from strongroman.graphs import Tree
from strongroman.recognizer import Triple

STAR = "4 3\n0 1\n0 2\n0 3\n"
P2 = "2 1\n0 1\n"
SAMPLE_CNF = "c sample\np cnf 3 2\n1 2 -3 0\n-1 2 -3 0\n"


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star.txt"
    p.write_text(STAR)
    return str(p)


@pytest.fixture
def p2_file(tmp_path):
    p = tmp_path / "p2.txt"
    p.write_text(P2)
    return str(p)


@pytest.fixture
def cnf_file(tmp_path):
    p = tmp_path / "f.cnf"
    p.write_text(SAMPLE_CNF)
    return str(p)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


class TestSolve:
    def test_oracle_report(self, capsys, star_file):
        code, (cert,) = run_json(capsys, ["solve", star_file])
        assert code == 0
        assert cert["kind"] == "solve"
        assert cert["result"] == {
            "method": "oracle",
            "gamma_r": 2,
            "gamma_R": 2,
            "min_wrdf_count": 1,
            "strong": True,
            "Y": [0, 1, 2, 3],
        }

    def test_dp_method(self, capsys, star_file):
        code, (cert,) = run_json(capsys, ["solve", star_file, "--method", "dp-rdf"])
        assert code == 0
        assert cert["result"] == {"method": "dp-rdf", "gamma_R": 2}

    def test_x_spec(self, capsys, star_file):
        code, (cert,) = run_json(capsys, ["solve", star_file, "--x", "none"])
        assert code == 0 and cert["result"]["gamma_r"] == 0
        code, (cert,) = run_json(capsys, ["solve", star_file, "--x", "1,2,3"])
        assert code == 0 and cert["result"]["gamma_r"] == 2
        code, (err,) = run_json(capsys, ["solve", star_file, "--x", "9"])
        assert code == 2 and "error" in err
        code, (err,) = run_json(capsys, ["solve", star_file, "--x", "0,99"])
        assert code == 2
        assert err["error"] == {"type": "ValueError", "message": "x contains vertex 99 outside 0..3"}

    def test_determinism(self, capsys, star_file):
        run(["solve", star_file])
        first = capsys.readouterr().out
        run(["solve", star_file])
        assert capsys.readouterr().out == first

    def test_rejects_non_tree(self, capsys, tmp_path):
        p = tmp_path / "cycle.txt"
        p.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, (err,) = run_json(capsys, ["solve", str(p)])
        assert code == 2 and err["error"]["type"] == "NotATreeError"


class TestRecognize:
    def test_positive(self, capsys, star_file):
        code, (cert,) = run_json(capsys, ["recognize", star_file])
        assert code == 0
        assert cert["result"]["strongly_equal"] is True
        steps = cert["result"]["trace"]["steps"]
        assert len(steps) == 1 and steps[0]["case"] == "a"

    def test_negative(self, capsys, p2_file):
        code, (cert,) = run_json(capsys, ["recognize", p2_file])
        assert code == 1
        assert cert["result"]["strongly_equal"] is False

    @pytest.mark.parametrize("text", [STAR, P2, "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"])
    def test_byte_identical_across_runs(self, capsys, tmp_path, text):
        p = tmp_path / "t.txt"
        p.write_text(text)
        run(["recognize", str(p)])
        first = capsys.readouterr().out
        run(["recognize", str(p)])
        assert capsys.readouterr().out == first

    def test_dot_side_output(self, capsys, star_file, tmp_path):
        dot = tmp_path / "t.dot"
        code, _ = run_json(capsys, ["recognize", star_file, "--dot", str(dot)])
        assert code == 0 and "--" in dot.read_text()


class TestGenerateEnumerate:
    def test_generate_deterministic(self, capsys):
        code, (a,) = run_json(capsys, ["generate", "--n", "6", "--seed", "11"])
        assert code == 0
        code, (b,) = run_json(capsys, ["generate", "--n", "6", "--seed", "11"])
        assert a == b
        code, (c,) = run_json(capsys, ["generate", "--n", "6", "--seed", "12"])
        assert c["result"] != a["result"] or c["digest"] != a["digest"]

    def test_enumerate_lines(self, capsys):
        code, rows = run_json(capsys, ["enumerate", "--max", "4"])
        assert code == 0
        assert [r["order"] for r in rows] == sorted(r["order"] for r in rows)
        assert sum(1 for r in rows if r["order"] == 1) == 2
        assert sum(1 for r in rows if r["order"] == 4) == 4

    def test_enumerate_pinned_output(self, capsys):
        assert run(["enumerate", "--max", "9"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 731
        assert hashlib.sha256(out.encode()).hexdigest() == "5ac22fafaa421e2b33d326c3f3f62f88416f5e5f076fb57410ae77661efd84a9"

    def test_enumerate_cap(self, capsys):
        code, (err,) = run_json(capsys, ["enumerate", "--max", "99"])
        assert code == 2 and err["error"]["type"] == "SizeCapError"


class TestGadget:
    def test_build_only(self, capsys, cnf_file):
        code, (cert,) = run_json(capsys, ["gadget", cnf_file])
        assert code == 0
        assert cert["result"]["graph"]["n"] == 14
        assert cert["result"]["report"] is None

    def test_verify_flag(self, capsys, cnf_file):
        code, (cert,) = run_json(capsys, ["gadget", cnf_file, "--verify"])
        assert code == 0
        assert cert["result"]["report"]["gamma_r"] == 6
        assert cert["result"]["report"]["iff_holds"] is True

    def test_bad_cnf(self, capsys, tmp_path):
        p = tmp_path / "bad.cnf"
        p.write_text("p cnf 1 1\n1 2 0\n")
        code, (err,) = run_json(capsys, ["gadget", str(p)])
        assert code == 2 and err["error"]["type"] == "CnfError"

    def test_empty_formula(self, capsys, tmp_path):
        p = tmp_path / "empty.cnf"
        p.write_text("p cnf 0 0\n")
        code, (err,) = run_json(capsys, ["gadget", str(p)])
        assert code == 2 and err["error"]["type"] == "CnfError"
        assert "no variables and no clauses" in err["error"]["message"]


class TestVerifyCommand:
    def _roundtrip(self, capsys, tmp_path, argv, expect_exit=0):
        code = run(argv)
        assert code == expect_exit
        out = capsys.readouterr().out
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        code, (res,) = run_json(capsys, ["verify", str(cert_path)])
        assert code == 0 and res["verified"] is True
        return json.loads(out)

    def test_dp_rdf_roundtrip_at_scale(self, capsys, tmp_path):
        # P_n under a random relabelling and edge order; gamma_R = ceil(2n/3)
        n = 100_000
        perm = list(range(n))
        rng = random.Random(3)
        rng.shuffle(perm)
        lines = [f"{perm[i]} {perm[i + 1]}" if rng.random() < 0.5 else f"{perm[i + 1]} {perm[i]}" for i in range(n - 1)]
        rng.shuffle(lines)
        p = tmp_path / "path.txt"
        p.write_text(f"{n} {n - 1}\n" + "\n".join(lines) + "\n")
        cert = self._roundtrip(capsys, tmp_path, ["solve", str(p), "--method", "dp-rdf"])
        assert cert["result"] == {"method": "dp-rdf", "gamma_R": -(-2 * n // 3)}

    def test_all_kinds_roundtrip(self, capsys, tmp_path, star_file, p2_file, cnf_file):
        self._roundtrip(capsys, tmp_path, ["solve", star_file])
        self._roundtrip(capsys, tmp_path, ["solve", star_file, "--method", "dp-rdf"])
        self._roundtrip(capsys, tmp_path, ["recognize", star_file])
        self._roundtrip(capsys, tmp_path, ["recognize", p2_file], expect_exit=1)
        self._roundtrip(capsys, tmp_path, ["generate", "--n", "5", "--seed", "3"])
        self._roundtrip(capsys, tmp_path, ["gadget", cnf_file, "--verify"])

    def test_tampered_result_fails(self, capsys, tmp_path, star_file):
        run(["solve", star_file])
        cert = json.loads(capsys.readouterr().out)
        cert["result"]["gamma_r"] = 7
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res["verified"] is False

    def test_generate_order_one_roundtrip(self, capsys, tmp_path):
        # order 1 keeps the drawn seed as its own base; seeds 0 and 1 draw both
        xs = [
            self._roundtrip(capsys, tmp_path, ["generate", "--n", "1", "--seed", seed])["result"]["x"]
            for seed in ("0", "1")
        ]
        assert xs == [[0], []]

    def test_generate_roundtrip_every_small_order(self, capsys, tmp_path):
        for n in range(1, 13):
            for seed in range(3):
                self._roundtrip(capsys, tmp_path, ["generate", "--n", str(n), "--seed", str(seed)])

    @pytest.mark.parametrize("field", ["y", "tree", "variant", "anchor", "op", "base", "seed", "order"])
    def test_tampered_generate_fails(self, capsys, tmp_path, field):
        # a step list or base that does not rebuild is a failed check (exit 1),
        # not an error: an inapplicable anchor, an unknown operation, and a
        # non-integer base edge each stop the replay.  Steps that do rebuild
        # still fail from a base that is no seed (P_2 with X = Y = V, which
        # recognize rejects) or past the order the input asks for.
        run(["generate", "--n", "6", "--seed", "2"])
        cert = json.loads(capsys.readouterr().out)
        result = cert["result"]
        last = result["steps"][-1]
        assert last == {"op": 4, "anchor": 1, "variant": 0}
        if field == "seed":
            p2 = Triple(Tree(2, [(0, 1)]), {0, 1}, {0, 1})
            cert = cli._certificate("generate", {"n": 2, "seed": 0}, cli._generate_result(p2, [], p2))
        elif field == "order":
            steps = [OpStep.from_json_dict(s) for s in result["steps"]]
            grown = replay(steps)
            steps.append(next(s for s in applicable_steps(grown, grown.n + 1) if s.op == 4))
            cert["result"] = cli._generate_result(base_triples()[0], steps, replay(steps))
        elif field == "y":
            result["y"] = result["y"][:-1]
        elif field == "tree":
            assert result["tree"] != "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"
            result["tree"] = "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"
        elif field == "variant":
            last["variant"] = 1
        elif field == "anchor":
            last["anchor"] = 99
        elif field == "op":
            last["op"] = 9
        else:
            result["base"]["edges"] = [[0.0, 1.0]]
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res == {"kind": "generate", "verified": False, "detail": "result mismatch"}

    @pytest.mark.parametrize("field", ["failure", "steps"])
    def test_tampered_negative_recognize_fails(self, capsys, tmp_path, p2_file, field):
        run(["recognize", p2_file])
        cert = json.loads(capsys.readouterr().out)
        trace = cert["result"]["trace"]
        if field == "failure":
            trace["terminal"]["failure"] = "anything at all"
        else:
            assert trace["steps"] == []
            trace["steps"].append({"u": 0, "v": 1, "w": [], "ell": 0, "case": "a", "yPrimeHasU": False})
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res["verified"] is False

    @pytest.mark.parametrize(
        "edit",
        ["result key", "strongly_equal 1", "trace key", "step u string", "step u float", "step w float", "step w permuted"],
    )
    def test_tampered_positive_recognize_fails(self, capsys, tmp_path, star_file, edit):
        # each edit still replays: only comparing the result whole catches it
        assert run(["recognize", star_file]) == 0
        cert = json.loads(capsys.readouterr().out)
        result = cert["result"]
        step = result["trace"]["steps"][0]
        assert step["u"] == 3 and step["w"] == [1, 2]
        if edit == "result key":
            result["note"] = "extra"
        elif edit == "strongly_equal 1":
            result["strongly_equal"] = 1
        elif edit == "trace key":
            result["trace"]["note"] = "extra"
        elif edit == "step u string":
            step["u"] = "2"
        elif edit == "step u float":
            step["u"] = 2.0
        elif edit == "step w permuted":
            step["w"] = [2, 1]
        else:
            step["w"] = [1.0, 2]
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res == {"kind": "recognize", "verified": False, "detail": "result mismatch"}

    @pytest.mark.parametrize("field, value", [("v", -1), ("v", 4), ("u", -1), ("u", 4)])
    def test_out_of_range_step_vertex_fails(self, capsys, tmp_path, star_file, field, value):
        # a step vertex outside 0..n-1 is a failed check (exit 1), not an error
        assert run(["recognize", star_file]) == 0
        cert = json.loads(capsys.readouterr().out)
        cert["result"]["trace"]["steps"][0][field] = value
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res == {"kind": "recognize", "verified": False, "detail": "result mismatch"}

    @pytest.mark.parametrize("edit", ["failure", "step", "v", "u", "drop v and u"])
    def test_tampered_rejection_terminal_fails(self, capsys, tmp_path, edit):
        p4 = tmp_path / "p4.txt"
        p4.write_text("4 3\n0 1\n1 2\n2 3\n")
        assert run(["recognize", str(p4)]) == 1
        cert = json.loads(capsys.readouterr().out)
        terminal = cert["result"]["trace"]["terminal"]
        assert terminal == {"failure": "a single branch meets X (need at least two)", "step": 0, "v": 1, "u": 2}
        if edit == "failure":
            terminal["failure"] = "no branch meets X"
        elif edit == "step":
            terminal["step"] = 1
        elif edit == "v":
            terminal["v"] = 2
        elif edit == "u":
            terminal["u"] = 3
        else:
            del terminal["v"], terminal["u"]
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res == {"kind": "recognize", "verified": False, "detail": "result mismatch"}

    @pytest.mark.parametrize(
        "edit",
        ["step without case", "step u text", "step w number", "steps null", "terminal list", "generate step without op"],
    )
    def test_malformed_result_fails(self, capsys, tmp_path, star_file, edit):
        # a result that does not parse is a failed check (exit 1), not an error
        if edit == "generate step without op":
            assert run(["generate", "--n", "6", "--seed", "2"]) == 0
            cert = json.loads(capsys.readouterr().out)
            del cert["result"]["steps"][-1]["op"]
        else:
            assert run(["recognize", star_file]) == 0
            cert = json.loads(capsys.readouterr().out)
            trace = cert["result"]["trace"]
            step = trace["steps"][0]
            if edit == "step without case":
                del step["case"]
            elif edit == "step u text":
                step["u"] = "x"
            elif edit == "step w number":
                step["w"] = 3
            elif edit == "steps null":
                trace["steps"] = None
            else:
                trace["terminal"] = []
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res == {"kind": cert["kind"], "verified": False, "detail": "result mismatch"}

    def test_recognize_route_never_canonicalizes(self, capsys, tmp_path, star_file, monkeypatch):
        # a member and a non-member, recognized and verified with every
        # canonical-form entry point refusing to run
        def refuse(*args, **kwargs):
            raise AssertionError("canonical form computed")

        monkeypatch.setattr(graphs, "canonical_relabel", refuse)
        monkeypatch.setattr(graphs, "_canonical_rooting", refuse)
        monkeypatch.setattr(Triple, "canonicalized", refuse)
        with pytest.raises(AssertionError, match="canonical form computed"):
            Triple(Tree(2, [(0, 1)]), {0}, {0}).canonical_key
        p4 = tmp_path / "p4.txt"
        p4.write_text("4 3\n0 1\n1 2\n2 3\n")
        self._roundtrip(capsys, tmp_path, ["recognize", star_file])
        self._roundtrip(capsys, tmp_path, ["recognize", str(p4)], expect_exit=1)

    @pytest.mark.parametrize("kind", ["dp-rdf gamma_R", "generate x", "gadget boolean"])
    def test_retyped_value_fails(self, capsys, tmp_path, star_file, cnf_file, kind):
        # each edit compares equal with ==; only the serialized text differs
        if kind == "dp-rdf gamma_R":
            assert run(["solve", star_file, "--method", "dp-rdf"]) == 0
            cert = json.loads(capsys.readouterr().out)
            cert["result"]["gamma_R"] = 2.0
        elif kind == "generate x":
            assert run(["generate", "--n", "6", "--seed", "2"]) == 0
            cert = json.loads(capsys.readouterr().out)
            assert cert["result"]["x"]
            cert["result"]["x"] = [float(v) for v in cert["result"]["x"]]
        else:
            assert run(["gadget", cnf_file, "--verify"]) == 0
            cert = json.loads(capsys.readouterr().out)
            assert cert["result"]["report"]["iff_holds"] is True
            cert["result"]["report"]["iff_holds"] = 1
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res["verified"] is False and res["detail"] == "result mismatch"

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["solve", "{star}"], "method", "bogus"),
            (["solve", "{star}"], "method", 0),
            (["gadget", "{cnf}", "--verify"], "verify", 1),
            (["gadget", "{cnf}", "--verify"], "verify", "yes"),
            (["gadget", "{cnf}"], "verify", []),
            (["generate", "--n", "6", "--seed", "2"], "seed", "x"),
            (["solve", "{star}"], "extra", "all"),
            (["recognize", "{star}"], "extra", None),
            (["generate", "--n", "6", "--seed", "2"], "extra", 0),
            (["gadget", "{cnf}"], "extra", False),
        ],
        ids=[
            "solve method bogus",
            "solve method 0",
            "gadget verify 1",
            "gadget verify yes",
            "gadget verify []",
            "generate seed x",
            "solve extra key",
            "recognize extra key",
            "generate extra key",
            "gadget extra key",
        ],
    )
    def test_forged_input_fails(self, capsys, tmp_path, star_file, cnf_file, argv, key, value):
        # an input the command never emits fails although its digest is
        # recomputed and its result is the one it would compute
        run([a.format(star=star_file, cnf=cnf_file) for a in argv])
        cert = json.loads(capsys.readouterr().out)
        cert["input"][key] = value
        cert["digest"] = cli._digest(cert["input"])
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res == {"kind": cert["kind"], "verified": False, "detail": "result mismatch"}

    def test_changed_generate_seed_still_verifies(self, capsys, tmp_path):
        # the documented exemption: the steps are replayed, not drawn again
        run(["generate", "--n", "12", "--seed", "3"])
        cert = json.loads(capsys.readouterr().out)
        cert["input"]["seed"] = 4
        cert["digest"] = cli._digest(cert["input"])
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 0 and res == {"kind": "generate", "verified": True, "detail": "reproduced"}

    @pytest.mark.parametrize("version", [2, 3.0, "3"])
    def test_other_certificate_version_fails(self, capsys, tmp_path, star_file, version):
        # the version is compared as serialized, like every other value
        run(["recognize", star_file])
        cert = json.loads(capsys.readouterr().out)
        assert cert["certificate_version"] == 3
        cert["certificate_version"] = version
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res == {"kind": "recognize", "verified": False, "detail": "certificate_version is not 3"}

    def test_negative_recognize_with_numeric_verdict_fails(self, capsys, tmp_path, p2_file):
        assert run(["recognize", p2_file]) == 1
        cert = json.loads(capsys.readouterr().out)
        cert["result"]["strongly_equal"] = 0
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res["verified"] is False

    def test_tampered_input_fails_digest(self, capsys, tmp_path, star_file):
        run(["recognize", star_file])
        cert = json.loads(capsys.readouterr().out)
        cert["input"]["graph"] = P2
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res["detail"] == "input digest mismatch"

    def test_unknown_kind(self, capsys, tmp_path):
        p = tmp_path / "cert.json"
        p.write_text(json.dumps({"kind": "nonsense", "input": {}, "digest": ""}))
        code, (err,) = run_json(capsys, ["verify", str(p)])
        assert code == 2 and "error" in err


# Each certificate command's exit code and the sha256 of its stdout; the
# certificates hold the input text, not its path, so the digests do not
# depend on where the files are.
PINNED_STDOUT = {
    "solve": (["solve", "star.txt"], 0, "7ee2507f6ea5d4238e8ef8f798ee0657b994dc241ecfbfdcace18864be6f7a78"),
    "solve dp-rdf": (
        ["solve", "star.txt", "--method", "dp-rdf"], 0, "08797d3031bd20e02125169357c435cf475d2ef5b1055fe749057081807f0756"
    ),
    "solve x": (["solve", "star.txt", "--x", "0,2"], 0, "711cfea2676dc48281690b36d31658936ca2c7f9582426afd9de734c7b791560"),
    "recognize member": (["recognize", "star.txt"], 0, "3fe5ca923a3a40227c865f89aa2aeb1e762a499403071292eb41295578ea11f3"),
    "recognize non-member": (["recognize", "p4.txt"], 1, "d60c85d45f320444ef68b5d9b362e1c6fc71b37c5c0ae1f15ee068e486591e7e"),
    "generate 1 0": (
        ["generate", "--n", "1", "--seed", "0"], 0, "e7e0c0e08819d84491bf922992852707ce707bb7a9cae9475919ea26c958c7d6"
    ),
    "generate 12 3": (
        ["generate", "--n", "12", "--seed", "3"], 0, "4914301e3ab0a825197b92fbfc9de1643f7afe5c7b8b4f1a7c8a2c8029310241"
    ),
    "gadget verify": (["gadget", "f.cnf", "--verify"], 0, "6495a9dba432c492c0a1e1622eb808393e29928306490926d8ddb8e3be07cbc6"),
}
# sha256 of the stdout of a successful ``verify``, per certificate kind
PINNED_VERIFY_STDOUT = {
    "solve": "ad9fe5f87c878ccc2a46d60bad8a960e0c8676240821c871be6e268149105a42",
    "recognize": "03ce378ed4772e5f359f918bf7e261aa7a878c225b1b043c68bdb23922d6cc1f",
    "generate": "ba55998971aa29bfe3f9849855d551c3c3da06f043d4d9ff0c22c94384434bb5",
    "gadget": "9043ca77212a79ed1803d906f2fe7d73965dd04fc0fa8108e8f2fe8c72dd65e7",
}


@pytest.mark.parametrize("case", PINNED_STDOUT)
def test_pinned_stdout(capsys, tmp_path, case):
    files = {"star.txt": STAR, "p4.txt": "4 3\n0 1\n1 2\n2 3\n", "f.cnf": SAMPLE_CNF}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv, code, digest = PINNED_STDOUT[case]
    assert run([str(tmp_path / a) if a in files else a for a in argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    assert run(["verify", str(cert)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_VERIFY_STDOUT[argv[0]]


# The sha256 of the ``--dot`` file of each command that writes one; the
# gadget's file names each vertex by its place in the layout.
PINNED_DOT = {
    "recognize": (["recognize", "star.txt"], "806e94d56ca64329accadf8f64332c3c165439d205fbc4e0cd3d022522de993e"),
    "solve": (["solve", "p4.txt"], "8bc2b2426426ae90fa979d45367be8ea06f485b5a271d47b4a415a241f8d2570"),
    "gadget": (["gadget", "f.cnf", "--verify"], "240aef3a9eccb85661cb6dc9cfeeb3740f102c76fc165fdfd77131aac3af601b"),
}


@pytest.mark.parametrize("case", PINNED_DOT)
def test_pinned_dot(capsys, tmp_path, case):
    files = {"star.txt": STAR, "p4.txt": "4 3\n0 1\n1 2\n2 3\n", "f.cnf": SAMPLE_CNF}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv, digest = PINNED_DOT[case]
    dot = tmp_path / "g.dot"
    assert run([str(tmp_path / a) if a in files else a for a in argv] + ["--dot", str(dot)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest


class TestParser:
    def test_built_once_and_reused(self, capsys):
        # a bad flag and --help leave the cached parser as they found it
        good = ["generate", "--n", "5", "--seed", "1"]
        cli.build_parser.cache_clear()
        first = (run(good), capsys.readouterr().out)
        assert run(["generate", "--n", "5", "--bogus"]) == 2
        assert run(["--help"]) == 0
        capsys.readouterr()
        assert (run(good), capsys.readouterr().out) == first
        assert first[0] == 0 and first[1]
        assert cli.build_parser.cache_info().misses == 1


class TestErrors:
    def test_missing_file(self, capsys):
        code, (err,) = run_json(capsys, ["solve", "/nonexistent/file.txt"])
        assert code == 2 and err["error"]["type"] == "FileNotFoundError"

    def test_garbage_input(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("garbage\n")
        code, (err,) = run_json(capsys, ["recognize", str(p)])
        assert code == 2 and err["error"]["type"] == "MalformedLineError"

    def test_bad_flags(self, capsys, star_file):
        assert run(["solve"]) == 2
        assert run(["frobnicate"]) == 2
        assert run(["--threads", "2", "recognize", star_file]) == 2
