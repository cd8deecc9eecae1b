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
    # Twelve columns: face enumeration by the closure of the hull's facets.
    # The toric ideal needs more than 100 Buchberger steps, so this budget
    # pins the exit-2 path of toric-ideal and export.
    "twelve_columns": (
        "[[1,1,1,1,1,1,1,1,1,1,1,1],[0,1,2,3,0,1,2,3,0,1,2,0],"
        "[0,0,0,0,1,1,1,1,2,2,2,3]]",
        "1/2,1/3,0",
        ["--max-steps", "100"],
    ),
    # Resonance centers.  Imaginary part = column 1, which lies in two
    # facet spans: two centers, neither of them the ray.
    "complex_two_centers": (
        "[[1,1,1,1,1,1],[0,1,1,1,2,3],[1,0,1,2,1,1]]",
        '[{"im": "1"}, "1/2", {"re": "1/2", "im": "1"}]',
        [],
    ),
    # b1 + b2 + b3 = 1 is an integer although no single entry is.
    "denominators_6_10_15": (
        "[[1,0,1,0,0],[-1,1,0,1,0],[0,-1,0,0,1]]", "1/6,1/10,11/15", []
    ),
    # The benchmark's 140-face A: five centers of sizes 3 and 4.
    "negative_numerators": (
        "[[1,1,1,1,1,1,1,1,1,1,1,1],[3,0,0,2,3,0,1,1,0,0,1,0],"
        "[1,0,1,3,1,2,0,1,0,2,2,0],[3,1,0,2,0,2,0,3,0,1,0,0],"
        "[2,0,0,1,3,0,0,2,1,2,2,0]]",
        "-1/2,-3/2,-5/2,-1/3,-7/2",
        ["--max-steps", "100"],
    ),
    # Integer beta, lineality space spanned by columns 1 and 2.
    "non_pointed_integer": ("[[1,-1,0,0,1],[0,0,1,0,1],[0,0,0,1,1]]", "-2,3,0", []),
    # Pyramid centers.  Apex column 4 with an integer coefficient: the
    # unique center is the base {1,2,3}, neither empty nor the full face.
    "pyramid_proper_center": ("[[1,1,1,0],[0,1,2,0],[0,0,0,1]]", "1/3,1/5,2", []),
    "two_apexes": (
        "[[1,1,1,0,0],[0,1,2,0,0],[0,0,0,1,0],[0,0,0,0,1]]", "1/2,1/3,1,-2", []
    ),
    # The apex appears twice; pyramid tests see the distinct columns.
    "duplicated_apex": ("[[1,1,1,0,0],[0,1,2,0,0],[0,0,0,1,1]]", "1/3,1/5,2", []),
    # An integer-entry simplex: Irreducible with the empty face as center.
    "simplex_integer": ("[[1,0,0],[0,1,0],[0,0,1]]", "0,1,-2", []),
    # Complex beta on non-pointed A.  The lineality face {1,2} is the
    # center; it is a pyramid base only when the other columns are apexes.
    "complex_non_pointed": (
        "[[1,-1,0,0,1],[0,0,1,0,1],[0,0,0,1,1]]",
        '[{"re": "1/2", "im": "1"}, "3", "-1"]',
        [],
    ),
    "complex_non_pointed_pyramid": ("[[1,-1,0],[0,0,1]]", '[{"re": "1/2", "im": "1"}, "2"]', []),
    # Un-normalized pyramids: index 12, and a dependent fourth row.
    "index_pyramid": ("[[2,2,2,0],[0,2,4,0],[0,0,0,3]]", "2/3,2/5,6", []),
    "dependent_row_pyramid": (
        "[[1,1,1,0],[0,1,2,0],[0,0,0,1],[1,1,1,1]]", "1/3,1/5,2,7/3", []
    ),
    # Wide inputs, d = 5 and n = 12-14: face enumeration by double
    # description and the exit-2 path of the toric commands.  The pointed
    # matrices are tests/sweeps.py::random_homogeneous_configuration(
    # random.Random(seed), d, n) for the seed named in the case.
    # Seed 11, generic beta.
    "wide_generic": (
        "[[1,1,1,1,1,1,1,1,1,1,1,1],[0,0,0,0,1,3,3,3,4,4,4,4],"
        "[0,3,3,4,2,3,4,4,0,0,3,4],[1,2,2,0,3,4,1,3,3,4,4,1],"
        "[1,1,3,4,0,1,4,3,2,0,1,1]]",
        "1/2,1/3,1/5,1/7,2/11",
        ["--max-steps", "100"],
    ),
    # Seed 12, integer beta.
    "wide_integer": (
        "[[1,1,1,1,1,1,1,1,1,1,1,1,1],[1,1,1,1,1,2,3,3,3,3,4,4,4],"
        "[0,0,3,3,4,1,0,0,2,2,0,1,2],[4,4,0,2,0,0,0,3,3,4,3,0,4],"
        "[1,2,2,1,4,4,0,1,4,2,4,3,4]]",
        "3,2,-1,4,0",
        ["--max-steps", "100"],
    ),
    # Seed 13, beta = a1/2 + a2/3 + a3: resonant along the facet {1,2,4,10}.
    "wide_facet_resonant": (
        "[[1,1,1,1,1,1,1,1,1,1,1,1,1,1],[0,0,0,1,1,2,2,2,2,3,4,4,4,4],"
        "[2,3,4,1,4,2,2,3,3,2,1,1,2,4],[1,1,1,1,2,1,1,2,3,0,2,3,3,3],"
        "[0,4,2,1,2,1,3,4,1,2,1,3,4,2]]",
        "11/6,0,6,11/6,10/3",
        ["--max-steps", "100"],
    ),
    # Seed 14, complex beta.
    "wide_complex": (
        "[[1,1,1,1,1,1,1,1,1,1,1,1,1],[0,0,0,0,2,2,2,2,3,3,3,4,4],"
        "[0,2,4,4,1,1,2,2,0,2,4,1,1],[4,1,2,4,0,0,2,2,2,3,3,1,2],"
        "[4,3,0,1,0,3,0,2,1,3,4,4,3]]",
        '[{"re": "1/2", "im": "1"}, "1/3", {"im": "2"}, "0", "1"]',
        ["--max-steps", "100"],
    ),
    # Seed 16, n = 12, plus the negative of column 1: not pointed.
    "wide_non_pointed": (
        "[[1,1,1,1,1,1,1,1,1,1,1,1,-1],[0,0,0,1,1,2,2,3,3,3,4,4,0],"
        "[2,2,4,4,4,2,3,1,2,4,0,1,-2],[2,3,2,0,2,2,3,3,1,2,2,4,-2],"
        "[2,3,1,3,0,3,2,0,1,1,0,2,-2]]",
        "1/2,1/3,0,1,-1",
        ["--max-steps", "100"],
    ),
    # Seed 15 with d = 4 and n = 11, plus a fifth row and a duplicated apex.
    "wide_duplicated_apex": (
        "[[1,1,1,1,1,1,1,1,1,1,1,0,0],[0,0,1,1,2,2,2,2,2,3,3,0,0],"
        "[0,1,0,4,1,1,2,3,4,3,4,0,0],[1,1,4,3,0,1,1,2,3,0,2,0,0],"
        "[0,0,0,0,0,0,0,0,0,0,0,1,1]]",
        "1/3,1/5,2,1/7,2",
        ["--max-steps", "100"],
    ),
    # The curve (1, 1, 1, 1; 0, 1, 3, 4): its toric ring is not Cohen-Macaulay
    # (Sturmfels and Takayama 1998), which the classification does not need.
    # A nonresonant beta, which takes no face lattice through classify and
    # centers, and the integral beta where the holonomic rank jumps.
    "non_cohen_macaulay": ("[[1,1,1,1],[0,1,3,4]]", "1/2,1/3", []),
    "non_cohen_macaulay_rank_jump": ("[[1,1,1,1],[0,1,3,4]]", "1,2", []),
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
