import json

import pytest

from strongroman.cli import run

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

    @pytest.mark.parametrize("field", ["y", "tree", "variant"])
    def test_tampered_generate_fails(self, capsys, tmp_path, field):
        run(["generate", "--n", "6", "--seed", "2"])
        cert = json.loads(capsys.readouterr().out)
        result = cert["result"]
        if field == "y":
            result["y"] = result["y"][:-1]
        elif field == "tree":
            assert result["tree"] != "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"
            result["tree"] = "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"
        else:
            last = result["steps"][-1]
            assert last == {"op": 4, "anchor": 1, "variant": 0}
            last["variant"] = 1
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res["verified"] is False

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
        ["result key", "strongly_equal 1", "trace key", "step u string", "step u float", "step w float"],
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
        else:
            step["w"] = [1.0, 2]
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
        assert terminal == {"failure": "a single branch meets X (need at least two)", "step": 0, "v": 0, "u": 1}
        if edit == "failure":
            terminal["failure"] = "no branch meets X"
        elif edit == "step":
            terminal["step"] = 1
        elif edit == "v":
            terminal["v"] = 2
        elif edit == "u":
            terminal["u"] = 2
        else:
            del terminal["v"], terminal["u"]
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res == {"kind": "recognize", "verified": False, "detail": "result mismatch"}

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

    def test_other_certificate_version_fails(self, capsys, tmp_path, star_file):
        run(["recognize", star_file])
        cert = json.loads(capsys.readouterr().out)
        assert cert["certificate_version"] == 2
        cert["certificate_version"] = 1
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(cert))
        code, (res,) = run_json(capsys, ["verify", str(p)])
        assert code == 1 and res == {"kind": "recognize", "verified": False, "detail": "certificate_version is not 2"}

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
