"""classify against the apex-stripping verdict of tests/oracles.py."""

import json
import random
from fractions import Fraction

import pytest

from gkzmono import IRREDUCIBLE, REDUCIBLE, GaussRat, IntMatrix, classify
from gkzmono.cli import _parse_beta_literal
from oracles import verdict_by_apex_stripping
from sweeps import random_beta, random_full_rank_matrix
from test_golden import CASES as GOLDEN_CASES

QUADRIC = IntMatrix([[1, 1, 1], [0, 1, 2]])
PYRAMID = IntMatrix([[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]])


@pytest.mark.parametrize(
    "A, beta, expected",
    [
        (QUADRIC, ["1/2", "1"], REDUCIBLE),
        (QUADRIC, ["1/3", "1/5"], IRREDUCIBLE),
        (QUADRIC, ["0", "0"], REDUCIBLE),
        (PYRAMID, ["1/3", "1/5", "2"], IRREDUCIBLE),
        (PYRAMID, ["1/2", "1", "2"], REDUCIBLE),
        (IntMatrix.identity(3), ["0", "0", "0"], IRREDUCIBLE),
        (IntMatrix([[1, 0, 1]]), ["5/2"], IRREDUCIBLE),
        (IntMatrix([[1, -1]]), ["0"], IRREDUCIBLE),
    ],
)
def test_worked_examples(A, beta, expected):
    assert verdict_by_apex_stripping(A, beta) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_agrees_with_classify_on_the_golden_inputs(name):
    matrix, beta, _ = GOLDEN_CASES[name]
    A = IntMatrix(json.loads(matrix))
    beta = _parse_beta_literal(beta)
    assert verdict_by_apex_stripping(A, beta) == classify(A, beta).verdict


def with_apex(rng, A):
    """Append the row u*A and an apex column e_{d+1}, sometimes twice.

    Returns the matrix and a map that extends a parameter of A by the last
    coordinate that gives the apex coefficient c.
    """
    u = [rng.randint(-1, 1) for _ in range(A.rows)]
    row = [sum(x * a for x, a in zip(u, col)) for col in A.columns()]
    copies = rng.choice((1, 1, 2))
    rows = [list(r) + [0] * copies for r in A.data] + [row + [1] * copies]

    def extend(beta, c):
        return list(beta) + [sum((x * b for x, b in zip(u, beta)), GaussRat(c))]

    return IntMatrix(rows), extend


def with_dependent_row(rng, A):
    """Append the sum of two rows; the map extends a parameter to match."""
    i, k = rng.sample(range(A.rows), 2)
    extra = [a + b for a, b in zip(A.data[i], A.data[k])]
    return IntMatrix(list(A.data) + [extra]), lambda beta: list(beta) + [beta[i] + beta[k]]


def random_parameter(rng, kind, d):
    re = random_beta(rng, d)
    if kind == "complex":
        return [GaussRat(r, rng.choice((0, 1, Fraction(-1, 2)))) for r in re]
    if kind == "integer":
        return [GaussRat(r.numerator // r.denominator) for r in re]
    return [GaussRat(r) for r in re]


KINDS = ("rational", "integer", "complex", "complex")


def test_agrees_with_classify_on_a_seeded_sweep():
    # 300 matrices with four parameters each: half of them pyramids built
    # around a random core, a fifth with a dependent row appended.
    rng = random.Random(1009_3569)
    seen = dict.fromkeys(
        ("complex", "non_pointed", "unnormalized", "proper_pyramid_center", REDUCIBLE), 0
    )
    for i in range(300):
        core = random_full_rank_matrix(rng, dmax=3, nmax=5)
        A, apex = with_apex(rng, core) if i % 2 else (core, None)
        raw, dependent = with_dependent_row(rng, A) if i % 5 == 2 and A.rows > 1 else (A, None)
        for kind in KINDS:
            beta = random_parameter(rng, kind, core.rows)
            if apex is not None:
                beta = apex(beta, rng.choice((-2, 0, 1, Fraction(1, 2))))
            if dependent is not None:
                beta = dependent(beta)
            result = classify(raw, beta)
            assert verdict_by_apex_stripping(raw, beta) == result.verdict, (raw, beta)
            config = result.configuration
            seen["complex"] += kind == "complex"
            seen["non_pointed"] += config.lineality_columns != ()
            seen["unnormalized"] += config.A != raw
            seen["proper_pyramid_center"] += result.verdict == IRREDUCIBLE and all(
                0 < len(f.indices) < config.n for f in result.centers
            )
            seen[REDUCIBLE] += result.verdict == REDUCIBLE
    assert min(seen.values()) >= 150, seen
