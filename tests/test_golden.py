"""Golden corpus: the exact stdout of every CLI command on fixed inputs.

Each case is one (A, beta) pair.  Every command runs on it, in text and in
--json form (export once per format), and the transcript of exit codes and
stdout is compared byte for byte with tests/data/golden/<case>.txt.  A
differing line is a behaviour change: either a bug, or an intended change
that must be declared when the corpus is rewritten with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from gkzmono.cli import run

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# name -> (matrix literal, beta literal, extra toric-ideal/export options)
CASES = {
    "quadric": ("[[1,1,1],[0,1,2]]", "1/2,1", []),
    "twisted_cubic": ("[[1,1,1,1],[0,1,2,3]]", "0,1/2", []),
    "index_four": ("[[2,2,2],[0,2,4]]", "1,1", []),
    "dependent_row": ("[[1,1,1],[0,1,2],[1,2,3]]", "1,1,2", []),
    "non_pointed": ("[[1,-1,0],[0,0,1]]", "1/2,1/3", []),
    "complex_beta": ("[[1,1,1],[0,1,2]]", '["1/2", {"re": "1/3", "im": "1"}]', []),
    "pyramid": ("[[1,1,1,0],[0,1,2,0],[0,0,0,1]]", "0,1/2,1/3", []),
    "square_negative_beta": ("[[1,1,1,1],[0,1,0,1],[0,0,1,1]]", "-1,0,0", []),
    "duplicate_columns": ("[[1,1,1,1],[0,1,1,2]]", "1/2,0", []),
    # Twelve columns: face enumeration by double description.  The toric
    # ideal is too slow for a unit test, so its step budget runs out.
    "twelve_columns": (
        "[[1,1,1,1,1,1,1,1,1,1,1,1],[0,1,2,3,0,1,2,3,0,1,2,0],"
        "[0,0,0,0,1,1,1,1,2,2,2,3]]",
        "1/2,1/3,0",
        ["--max-steps", "100"],
    ),
}

WITH_BETA = ("reduce", "centers", "classify")
WITHOUT_BETA = ("faces", "volume", "kernel", "arrangement")
FORMATS = ("json", "macaulay2", "singular")


def case_argvs(matrix: str, beta: str, budget: list) -> list:
    # "--beta=..." keeps a leading minus sign from reading as an option.
    with_beta = ["-A", matrix, f"--beta={beta}"]
    argvs = []
    for command in WITH_BETA + WITHOUT_BETA + ("toric-ideal",):
        args = [command] + (with_beta if command in WITH_BETA else ["-A", matrix])
        if command == "toric-ideal":
            args += budget
        argvs += [args, args + ["--json"]]
    for fmt in FORMATS:
        argvs.append(["export", *with_beta, "--format", fmt, *budget])
    return argvs


def transcript(name: str) -> str:
    chunks = []
    for argv in case_argvs(*CASES[name]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        chunks.append(f"==> exit {code}: {json.dumps(argv)}\n{out.getvalue()}")
    return "".join(chunks)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_the_golden_corpus(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.txt").write_text(transcript(case), encoding="utf-8")
    sys.exit(0)
