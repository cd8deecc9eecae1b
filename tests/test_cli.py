import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gkzmono import InputError, parse_rational
from gkzmono.cli import run
from sweeps import DENSE_FIVE_BY_EIGHT, random_homogeneous_configuration


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

    @pytest.mark.parametrize("beta", ["\u0661/\u0662,\uff11", "\uff11,1", "1/2,\u0967"])
    def test_non_ascii_digit_beta_rejected(self, capture, beta):
        code, out, err = capture(["classify", "-A", QUADRIC_ARG, "-b", beta])
        assert (code, out) == (1, "") and "not a rational literal" in err

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

    # Only ASCII digits, as in rational literals: int() would also take
    # fullwidth digits and underscores.
    @pytest.mark.parametrize("steps", ["0", "-5", "many", "\uff11\uff10\uff10", "1_0"])
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

    def test_deeply_nested_matrix_rejected(self, capture):
        depth = 5 * sys.getrecursionlimit()
        code, out, err = capture(["classify", "-A", "[" * depth + "]" * depth, "-b", "1/2,1"])
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_deeply_nested_beta_rejected(self, capture):
        # Shallow enough to decode, deeper than a recursive walk can go.
        depth = 3 * sys.getrecursionlimit() // 4
        beta = "[" * depth + "true" + "]" * depth
        code, out, err = capture(["classify", "-A", QUADRIC_ARG, "-b", beta])
        assert code == 1 and out == "" and err.startswith("error: ") and "boolean" in err

    def test_deeply_nested_beta_entry_is_echoed_in_short(self, capture):
        # The entry decodes and passes the boolean check, and GaussRat.parse
        # cannot read it: its error line shows a bounded repr of the entry.
        depth = 750
        code, out, err = capture(["classify", "-A", QUADRIC_ARG, "-b", "[" * depth + "]" * depth])
        assert code == 1 and out == "" and err.startswith("error: cannot interpret")
        assert all(len(line) < 200 for line in err.splitlines())

    @pytest.mark.parametrize("entry", ["1" * 3000 + "x", "1/" + "0" * 3000])
    def test_long_rational_literal_is_echoed_in_short(self, capture, entry):
        code, out, err = capture(["classify", "-A", QUADRIC_ARG, "-b", f"1/2,{entry}"])
        assert code == 1 and out == "" and err.startswith("error: ")
        assert "rational literal" in err
        assert all(len(line) < 200 for line in err.splitlines())

    def test_deeply_nested_input_file_rejected(self, capture, tmp_path):
        depth = 3 * sys.getrecursionlimit()
        path = tmp_path / "job.json"
        path.write_text('{"A": ' + "[" * depth + "]" * depth + ', "beta": ["1/2", "1"]}')
        code, out, err = capture(["classify", "--input", str(path)])
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_non_integer_matrix(self, capture):
        assert capture(["volume", "-A", "[[1.5, 2]]"])[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "-A", QUADRIC_ARG, "-b", "1/2,1", "--matrix", "[[1,1,1,1],[0,1,2,3]]"],
            ["classify", "--input", "{path}", "--input", "{path}"],
            ["classify", "-A", QUADRIC_ARG, "-b", "1/2,1", "-b", "-1/2,1"],
            ["toric-ideal", "-A", QUADRIC_ARG, "--max-steps", "5", "--max-steps", "6"],
            ["export", "-A", QUADRIC_ARG, "-b", "1,1", "--format", "json", "--format", "singular"],
        ],
        ids=["matrix", "input", "beta", "max-steps", "format"],
    )
    def test_an_option_given_twice_is_rejected(self, capture, tmp_path, argv):
        # Never the last value silently: without its second copy, each runs.
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"A": [[1, 1, 1], [0, 1, 2]], "beta": ["1/2", "1"]}))
        argv = [token.format(path=path) for token in argv]
        code, out, err = capture(argv)
        assert (code, out) == (1, "") and "given more than once" in err
        assert capture(argv[:-2])[0] == 0

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


SPELLINGS = {
    "comma list": ["-A", QUADRIC_ARG, "-b", "1/2,1"],
    "json list": ["-A", QUADRIC_ARG, "-b", '["1/2","1"]'],
    "job file": ["--input", "job.json"],
    "unreduced": ["-A", QUADRIC_ARG, "-b", "2/4,1"],
    "plus sign": ["-A", QUADRIC_ARG, "-b", "+1/2,1"],
    "re only": ["-A", QUADRIC_ARG, "-b", '[{"re":"1/2"},"1"]'],
    "re and im": ["-A", QUADRIC_ARG, "-b", '[{"re":"1/2","im":"0"},"1"]'],
    "matrix file": ["-A", "@matrix.json", "-b", "1/2,1"],
    "spaced list": ["-A", QUADRIC_ARG, "-b", "1/2, 1"],
    "json int": ["-A", QUADRIC_ARG, "-b", '["1/2", 1]'],
    "whole fraction": ["-A", QUADRIC_ARG, "-b", "1/2,2/2"],
    "attached": ["-A", QUADRIC_ARG, "--beta=1/2,1"],
}
UNKNOWN_KEYS = "unknown keys in input file: ['Beta', 'max_steps']"


class TestSpellings:
    """Equal inputs spelled differently print the same bytes; given options are read."""

    @pytest.fixture(autouse=True)
    def job_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        quadric = [[1, 1, 1], [0, 1, 2]]
        (tmp_path / "matrix.json").write_text(json.dumps(quadric))
        (tmp_path / "job.json").write_text(json.dumps({"A": quadric, "beta": ["1/2", "1"]}))
        (tmp_path / "unknown.json").write_text(
            json.dumps({"A": quadric, "beta": ["1/2", "1"], "Beta": ["0", "0"], "max_steps": 1})
        )

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("command", ["classify", "centers"])
    @pytest.mark.parametrize("spelling", SPELLINGS.values(), ids=SPELLINGS.keys())
    def test_equal_inputs_print_the_same_bytes(self, capture, command, mode, spelling):
        reference = capture([command, *SPELLINGS["comma list"], *mode])
        assert reference[0] == 0 and reference[1] and not reference[2]
        assert capture([command, *spelling, *mode]) == reference

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "--input", "job.json", "-b", ""], "empty entry in beta list"),
            (["classify", "-A", QUADRIC_ARG, "-b", ""], "empty entry in beta list"),
            (["classify", "--input", "job.json", "-A", ""], "matrix is not valid JSON"),
            (["classify", "-A", "", "-b", "1/2,1"], "matrix is not valid JSON"),
            (["classify", "--input", "", "-b", "1/2,1"], "No such file"),
            (["volume", "--input", ""], "No such file"),
            (["classify", "--input", "unknown.json"], UNKNOWN_KEYS),
            (["toric-ideal", "--input", "unknown.json"], UNKNOWN_KEYS),
        ],
        ids=[
            "empty-beta-over-job", "empty-beta", "empty-matrix-over-job", "empty-matrix",
            "empty-input", "empty-input-volume", "unknown-keys-classify", "unknown-keys-toric",
        ],
    )
    def test_empty_option_or_unknown_key_is_an_input_error(self, capture, argv, message):
        code, out, err = capture(argv)
        assert (code, out) == (1, "") and len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err


class TestLongIntegers:
    """Integers past CPython's 4300-digit int/str limit are read and printed exactly."""

    N = 10**2500
    MATRIX = json.dumps([[1, 1, 1, 0, 0], [0, N, 0, 1, 0], [0, 0, N, 0, 1]])
    VOLUME = "1" + "0" * 2499 + "1" + "0" * 2499 + "1"  # N**2 + N + 1

    def test_volume_of_5001_digits(self, capture):
        assert capture(["volume", "-A", self.MATRIX]) == (0, self.VOLUME + "\n", "")

    def test_entries_of_5000_digits(self, capture):
        entry = "1" * 5000
        code, out, _ = capture(["classify", "-A", QUADRIC_ARG, "-b", f"{entry},1"])
        assert code == 0 and out.startswith("verdict: ")
        code, out, _ = capture(["kernel", "-A", f"[[1,{entry}]]"])
        assert (code, out) == (0, f"({entry},-1)\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    def test_the_callers_digit_limit_is_restored(self, capture):
        limit = sys.get_int_max_str_digits()
        assert capture(["volume", "-A", self.MATRIX])[0] == 0
        assert capture(["volume", "-A", "[[1"])[0] == 1
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_a_library_caller_under_the_limit_gets_an_input_error(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # CPython's default
        try:
            with pytest.raises(InputError, match="digit limit"):
                parse_rational("1" * 5000)
        finally:
            sys.set_int_max_str_digits(limit)


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

    def test_volume_of_5001_digits(self):
        result = self.module("volume", "-A", TestLongIntegers.MATRIX)
        assert (result.returncode, result.stdout) == (0, TestLongIntegers.VOLUME + "\n")

    def test_scale_limit_exit_code(self):
        matrix = "[[1,1,1,1,1,1,1,1,1,1,1,1],[0,1,2,3,0,1,2,3,0,1,2,0],[0,0,0,0,1,1,1,1,2,2,2,3]]"
        result = self.module("toric-ideal", "-A", matrix, "--max-steps", "100")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("scale limit: ")

    def test_a_closed_stdout_exits_1_without_a_traceback(self):
        # The faces of the seed-5 d=7, n=18 cone are 2334 lines (114 kB),
        # more than a 64 KiB pipe holds, so the child is still writing when
        # the reader closes the pipe after one line.
        matrix = json.dumps(random_homogeneous_configuration(random.Random(5), 7, 18).A.data)
        child = subprocess.Popen(
            [sys.executable, "-m", "gkzmono.cli", "faces", "-A", matrix],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        first = child.stdout.readline()
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 1
        assert first.startswith(b"{} witness (")
        assert stderr == b""

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

    Brute-force face enumeration by Fourier-Motzkin ran out of memory on it,
    so it runs in a child process with bounded memory and time; inside,
    classify and the faces command must each finish well within a second,
    the Fourier-Motzkin oracle must stop at its row limit within two, and the
    runtime's brute force, which reads the hull's facets, lists the one face.
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

    BRUTE_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
from gkzmono import Configuration, IntMatrix, ScaleLimit, enumerate_faces
from oracles import faces_by_fourier_motzkin
config = Configuration(IntMatrix(json.loads(sys.argv[1])))
start = time.perf_counter()
try:
    outcome = len(faces_by_fourier_motzkin(config))
except ScaleLimit:
    outcome = "ScaleLimit"
faces = [face.indices for face in enumerate_faces(config, "brute")]
print(json.dumps([outcome, time.perf_counter() - start, faces]))
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

    def test_brute_force_stops_at_the_row_limit(self):
        # The empty face's eight inequalities in five variables would make
        # Fourier-Motzkin stages of about 8, 16, 64, 1024 and 262144 rows.
        tests = str(Path(__file__).resolve().parent)
        result = subprocess.run(
            [sys.executable, "-c", self.BRUTE_CHILD, json.dumps(self.A), tests],
            capture_output=True, text=True, env=child_env(), timeout=60,
            preexec_fn=self.limit_memory,
        )
        assert result.returncode == 0, result.stderr
        outcome, seconds, faces = json.loads(result.stdout)
        assert outcome == "ScaleLimit" and seconds < 2
        assert faces == [list(range(1, 9))]
