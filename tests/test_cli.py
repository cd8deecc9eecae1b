import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gkzmono.cli import run
from sweeps import DENSE_FIVE_BY_EIGHT


@pytest.fixture
def capture(capsys):
    def invoke(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


QUADRIC_ARG = "[[1,1,1],[0,1,2]]"


class TestCommands:
    def test_classify_json(self, capture):
        code, out, _ = capture(["classify", "-A", QUADRIC_ARG, "-b", "1/2,1", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "Reducible"
        assert report["centers"] == [[1], [3]]

    def test_classify_human(self, capture):
        code, out, _ = capture(["classify", "-A", QUADRIC_ARG, "-b", "1/2,1"])
        assert code == 0
        assert "verdict: Reducible" in out
        assert "centers: {1}, {3}" in out

    def test_volume_prints_the_number(self, capture):
        code, out, _ = capture(["volume", "-A", QUADRIC_ARG])
        assert code == 0
        assert out.strip() == "2"

    def test_volume_json_has_certificate(self, capture):
        code, out, _ = capture(["volume", "-A", QUADRIC_ARG, "--json"])
        report = json.loads(out)
        assert report["volume"] == 2
        assert len(report["triangulation"]) == 2

    def test_faces_lists_all(self, capture):
        code, out, _ = capture(["faces", "-A", "[[1,0],[0,1]]"])
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_centers(self, capture):
        code, out, _ = capture(
            ["centers", "-A", QUADRIC_ARG, "-b", "1/2,1", "--json"]
        )
        report = json.loads(out)
        assert [c["indices"] for c in report["centers"]] == [[1], [3]]
        assert report["is_nonresonant"] is False

    def test_kernel(self, capture):
        code, out, _ = capture(["kernel", "-A", QUADRIC_ARG])
        assert out.strip() == "(1,-2,1)"

    def test_reduce(self, capture):
        code, out, _ = capture(["reduce", "-A", "[[2,0],[0,1]]", "-b", "1,1/3", "--json"])
        report = json.loads(out)
        assert report["A"] == [[1, 0], [0, 1]]
        assert report["beta"] == ["1/2", "1/3"]
        assert report["B"] == [[2, 0], [0, 1]]

    def test_toric_ideal(self, capture):
        code, out, _ = capture(["toric-ideal", "-A", "[[1,1,1,1],[0,1,2,3]]"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d1*d3 - d2^2"
        assert len(lines) == 4  # three binomials plus the saturated flag

    def test_arrangement(self, capture):
        code, out, _ = capture(["arrangement", "-A", QUADRIC_ARG])
        assert "2*b1 - b2 in Z" in out

    def test_export_formats(self, capture):
        for fmt, marker in (
            ("macaulay2", "makeWeylAlgebra"),
            ("singular", "LIB \"nctools.lib\";"),
            ("json", '"nvars": 3'),
        ):
            code, out, _ = capture(
                ["export", "-A", QUADRIC_ARG, "-b", "1/2,1", "--format", fmt]
            )
            assert code == 0
            assert marker in out

    def test_input_file(self, capture, tmp_path):
        payload = {"A": [[1, 1, 1], [0, 1, 2]], "beta": ["1/2", "1"]}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(payload))
        code, out, _ = capture(["classify", "--input", str(path), "--json"])
        assert code == 0
        assert json.loads(out)["verdict"] == "Reducible"

    def test_matrix_from_at_file(self, capture, tmp_path):
        path = tmp_path / "A.json"
        path.write_text(QUADRIC_ARG)
        code, out, _ = capture(["volume", "-A", f"@{path}"])
        assert out.strip() == "2"

    @pytest.mark.parametrize("flag", ["-b", "--beta"])
    def test_beta_with_a_negative_first_entry(self, capture, flag):
        code, out, _ = capture(["classify", "-A", QUADRIC_ARG, flag, "-1/2,1", "--json"])
        assert code == 0
        _, attached, _ = capture(["classify", "-A", QUADRIC_ARG, "--beta=-1/2,1", "--json"])
        assert out == attached
        assert json.loads(out)["normalization"]["beta"] == ["-1/2", "1"]

    def test_max_steps_bounds_export(self, capture):
        # The unsaturated lattice ideal defines a different D-module: no script.
        for fmt in ("json", "macaulay2", "singular"):
            code, out, err = capture(
                ["export", "-A", "[[1,1,1,1],[0,1,2,3]]", "-b", "0,1", "--format", fmt,
                 "--max-steps", "1"]
            )
            assert (code, out) == (2, "") and err.startswith("scale limit: ")

    def test_complex_beta_json_literal(self, capture):
        code, out, _ = capture(
            [
                "classify",
                "-A",
                QUADRIC_ARG,
                "-b",
                '["1/2", {"re": "0", "im": "1"}]',
                "--json",
            ]
        )
        assert code == 0
        json.loads(out)


class TestExitCodes:
    def test_invalid_matrix_json(self, capture):
        code, _, err = capture(["classify", "-A", "[[1,1", "-b", "1"])
        assert code == 1 and err

    @pytest.mark.parametrize(
        "argv", [["classify"], ["centers"], ["reduce"], ["export", "--format", "json"]]
    )
    def test_beta_arity(self, capture, tmp_path, argv):
        # Raised once, by the library's parameter check.
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"A": [[1, 1, 1], [0, 1, 2]], "beta": ["1/2"]}))
        for source in (["-A", QUADRIC_ARG, "-b", "1/2"], ["--input", str(path)]):
            code, out, err = capture(argv + source)
            assert (code, out) == (1, "") and "parameter has 1 entries, expected 2" in err

    def test_float_beta_rejected(self, capture):
        assert capture(["classify", "-A", QUADRIC_ARG, "-b", "0.5,1"])[0] == 1

    @pytest.mark.parametrize("beta", ["1/2,,1", "1/2,1,", ",1/2,1"])
    @pytest.mark.parametrize("option", ["-b", "--beta="])
    def test_empty_beta_entry_rejected(self, capture, option, beta):
        argv = [option, beta] if option == "-b" else [option + beta]
        code, out, err = capture(["classify", "-A", QUADRIC_ARG] + argv)
        assert code == 1 and out == "" and "empty entry" in err

    def test_missing_matrix(self, capture):
        assert capture(["volume"])[0] == 1

    def test_missing_beta(self, capture):
        assert capture(["classify", "-A", QUADRIC_ARG])[0] == 1

    def test_beta_outside_span(self, capture):
        assert capture(["classify", "-A", "[[1,1],[2,2]]", "-b", "1,0"])[0] == 1

    def test_unknown_command(self, capture):
        assert capture(["frobnicate"])[0] == 1

    def test_scale_limit(self, capture):
        code, _, err = capture(
            ["toric-ideal", "-A", "[[1,1,1,1],[0,1,2,3]]", "--max-steps", "2"]
        )
        assert code == 2 and "scale limit" in err

    def test_saturation_memo_does_not_outlive_a_smaller_budget(self, capture):
        # Equal matrices share one Configuration, and with it the saturated
        # ideal; a later call with a smaller budget must still run out.
        matrix = "[[1,1,1,1,1,1,1,1,1,1,1,1],[0,1,2,3,0,1,2,3,0,1,2,0],[0,0,0,0,1,1,1,1,2,2,2,3]]"
        assert capture(["toric-ideal", "-A", matrix])[0] == 0
        for argv in (
            ["toric-ideal", "-A", matrix],
            ["export", "-A", matrix, "--beta=1/2,1/3,0", "--format", "json"],
        ):
            code, out, err = capture(argv + ["--max-steps", "100"])
            assert (code, out) == (2, "") and err.startswith("scale limit: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["volume", "-A", QUADRIC_ARG],
            ["faces", "-A", QUADRIC_ARG],
            ["kernel", "-A", QUADRIC_ARG],
            ["arrangement", "-A", QUADRIC_ARG],
            ["classify", "-A", QUADRIC_ARG, "-b", "1/2,1"],
            ["centers", "-A", QUADRIC_ARG, "-b", "1/2,1"],
            ["reduce", "-A", QUADRIC_ARG, "-b", "1/2,1"],
        ],
    )
    def test_max_steps_only_on_toric_ideal_and_export(self, capture, argv):
        assert capture(argv)[0] == 0
        assert capture(argv + ["--max-steps", "3"])[0] == 1

    @pytest.mark.parametrize("steps", ["0", "-5", "many"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["toric-ideal", "-A", "[[1,1,1],[0,1,2]]"],
            ["export", "-A", QUADRIC_ARG, "-b", "1/2,1", "--format", "json"],
        ],
    )
    def test_max_steps_below_one_rejected(self, capture, argv, steps):
        code, out, err = capture(argv + ["--max-steps", steps])
        assert code == 1 and out == "" and "--max-steps" in err

    def test_faces_method_option_removed(self, capture):
        assert capture(["faces", "-A", QUADRIC_ARG, "--faces-method", "dd"])[0] == 1

    @pytest.mark.parametrize("matrix", ["[[true,1,1],[0,1,2]]", "[[1,1,1],[0,1,false]]"])
    def test_boolean_matrix_entries_rejected(self, capture, matrix):
        code, out, err = capture(["classify", "-A", matrix, "-b", "1/2,1"])
        assert code == 1 and out == "" and "boolean" in err
        assert capture(["volume", "-A", matrix])[0] == 1

    @pytest.mark.parametrize(
        "beta", ["[true,0]", '["1/2", false]', '[{"re": "1/2", "im": true}, 0]']
    )
    def test_boolean_beta_entries_rejected(self, capture, beta):
        code, out, err = capture(["classify", "-A", QUADRIC_ARG, "-b", beta])
        assert code == 1 and out == "" and "boolean" in err

    def test_boolean_entries_rejected_in_input_file(self, capture, tmp_path):
        for payload in (
            {"A": [[1, 1, 1], [0, True, 2]], "beta": ["1/2", "1"]},
            {"A": [[1, 1, 1], [0, 1, 2]], "beta": [True, "1"]},
        ):
            path = tmp_path / "job.json"
            path.write_text(json.dumps(payload))
            assert capture(["classify", "--input", str(path)])[0] == 1

    def test_nested_complex_beta_rejected(self, capture, tmp_path):
        nested = {"re": "1", "im": {"im": "1"}}
        code, out, err = capture(["classify", "-A", QUADRIC_ARG, "-b", json.dumps([nested, 0])])
        assert code == 1 and out == "" and "nested complex" in err
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"A": [[1, 1, 1], [0, 1, 2]], "beta": [nested, "1"]}))
        code, out, err = capture(["classify", "--input", str(path)])
        assert code == 1 and out == "" and "nested complex" in err

    @pytest.mark.parametrize(
        "payload",
        [
            5,
            [[1, 1, 1], [0, 1, 2]],
            {"A": [[1, 1, 1], [0, 1, 2]], "beta": 7},
            {"A": 5, "beta": ["1/2", "1"]},
            {"A": [1, 1, 1], "beta": ["1/2", "1"]},
        ],
    )
    def test_malformed_input_file_rejected(self, capture, tmp_path, payload):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(payload))
        code, out, err = capture(["classify", "--input", str(path)])
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_missing_input_file(self, capture):
        assert capture(["volume", "--input", "/nonexistent/job.json"])[0] == 1

    @pytest.mark.parametrize("flag", ["-A", "--input"])
    def test_non_utf8_file_rejected(self, capture, tmp_path, flag):
        path = tmp_path / "job.json"
        path.write_bytes(b"\xff[[1, 1, 1], [0, 1, 2]]")
        argv = ["volume", "-A", f"@{path}"] if flag == "-A" else ["volume", "--input", str(path)]
        code, out, err = capture(argv)
        assert code == 1 and out == "" and err.startswith("error: ")
        assert str(path) in err

    def test_non_integer_matrix(self, capture):
        assert capture(["volume", "-A", "[[1.5, 2]]"])[0] == 1

    def test_exit_code_mapping_for_internal_errors(self):
        # reach the handler directly: a stubbed command raising the error
        from gkzmono import cli
        from gkzmono.errors import InternalInconsistency

        original = cli.reduce_configuration

        def boom(*args, **kwargs):
            raise InternalInconsistency("synthetic")

        cli.reduce_configuration = boom
        try:
            assert cli.run(["volume", "-A", "[[1]]"]) == 3
        finally:
            cli.reduce_configuration = original


class TestJsonStability:
    def test_reports_parse_back(self, capture):
        for argv in (
            ["classify", "-A", QUADRIC_ARG, "-b", "1/2,1", "--json"],
            ["centers", "-A", QUADRIC_ARG, "-b", "0,0", "--json"],
            ["faces", "-A", QUADRIC_ARG, "--json"],
            ["volume", "-A", QUADRIC_ARG, "--json"],
            ["arrangement", "-A", QUADRIC_ARG, "--json"],
        ):
            code, out, _ = capture(argv)
            assert code == 0
            json.loads(out)

    def test_same_report_powers_both_renderings(self, capture):
        _, json_out, _ = capture(["classify", "-A", QUADRIC_ARG, "-b", "1/2,1", "--json"])
        _, human_out, _ = capture(["classify", "-A", QUADRIC_ARG, "-b", "1/2,1"])
        report = json.loads(json_out)
        assert f"generic rank: {report['generic_rank']}" in human_out


def child_env() -> dict:
    """The environment of a child interpreter that imports gkzmono from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, COLUMNS="80")


class TestModuleEntryPoint:
    @staticmethod
    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "gkzmono.cli", *argv],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )

    def test_volume(self):
        result = self.module("volume", "-A", QUADRIC_ARG)
        assert (result.returncode, result.stdout) == (0, "2\n")

    def test_scale_limit_exit_code(self):
        matrix = "[[1,1,1,1,1,1,1,1,1,1,1,1],[0,1,2,3,0,1,2,3,0,1,2,0],[0,0,0,0,1,1,1,1,2,2,2,3]]"
        result = self.module("toric-ideal", "-A", matrix, "--max-steps", "100")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("scale limit: ")

    def test_the_shared_parser_keeps_no_state_between_calls(self, capture, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to it
        bad = ["classify", "-A", QUADRIC_ARG, "--bogus"]
        good = ["classify", "-A", QUADRIC_ARG, "-b", "1/2,1", "--json"]
        in_process = [capture(bad), capture(good)]
        fresh = [self.module(*argv) for argv in (bad, good)]
        assert [code for code, _, _ in in_process] == [1, 0]
        assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]


class TestDenseFiveByEight:
    """A valid 5x8 configuration whose cone is all of R^5, so its only face is {1..8}.

    Brute-force face enumeration ran out of memory on it, so it runs in a
    child process with bounded memory and time; inside, classify and the
    faces command must each finish well within a second.
    """

    A = DENSE_FIVE_BY_EIGHT
    CHILD = """
import contextlib, io, json, sys, time
from gkzmono import IntMatrix, classify
from gkzmono.cli import run
A = json.loads(sys.argv[1])
start = time.perf_counter()
result = classify(IntMatrix(A), ["1/2", "1/3", "0", "1", "-1"]).to_json()
classify_s = time.perf_counter() - start
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = run(["faces", "-A", sys.argv[1], "--json"])
faces_s = time.perf_counter() - start
print(json.dumps([result["verdict"], result["centers"], classify_s,
                  code, json.loads(out.getvalue())["faces"], faces_s]))
"""

    @staticmethod
    def limit_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    def test_classify_and_faces_list_the_single_face(self):
        result = subprocess.run(
            [sys.executable, "-c", self.CHILD, json.dumps(self.A)],
            capture_output=True, text=True, env=child_env(), timeout=60,
            preexec_fn=self.limit_memory,
        )
        assert result.returncode == 0, result.stderr
        verdict, centers, classify_s, code, faces, faces_s = json.loads(result.stdout)
        full = list(range(1, 9))
        assert (verdict, centers) == ("Irreducible", [full])
        assert (code, [face["indices"] for face in faces]) == (0, [full])
        assert classify_s < 1 and faces_s < 1
