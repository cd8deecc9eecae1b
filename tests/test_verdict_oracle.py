"""classify against the apex-stripping verdict and the facet theorem of tests/oracles.py."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from gkzmono import IRREDUCIBLE, REDUCIBLE, GaussRat, IntMatrix, classify
from gkzmono.cli import _parse_beta_literal
from oracles import facets_by_double_description, verdict_by_apex_stripping, verdict_by_facet_theorem
from sweeps import random_beta, random_full_rank_matrix, random_homogeneous_configuration
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


def test_the_facet_theorem_agrees_with_classify_on_a_seeded_sweep():
    # Irreducible iff every member facet contains the related columns, read
    # off double description and the resonant spans alone: the same mix of
    # cores, apexes and dependent rows as the apex-stripping sweep.
    rng = random.Random(2011)
    verdicts = Counter()
    for i in range(150):
        core = random_full_rank_matrix(rng, dmax=3, nmax=5)
        A, apex = with_apex(rng, core) if i % 2 else (core, None)
        raw, dependent = with_dependent_row(rng, A) if i % 5 == 2 and A.rows > 1 else (A, None)
        for kind in KINDS:
            beta = random_parameter(rng, kind, core.rows)
            if apex is not None:
                beta = apex(beta, rng.choice((-2, 0, 1, Fraction(1, 2))))
            if dependent is not None:
                beta = dependent(beta)
            verdict = classify(raw, beta).verdict
            assert verdict_by_facet_theorem(raw, beta) == verdict, (raw, beta)
            verdicts[verdict] += 1
    assert verdicts[IRREDUCIBLE] >= 300 and verdicts[REDUCIBLE] >= 50, verdicts


def test_the_facet_theorem_agrees_with_classify_on_a_wide_cone():
    # The seed-5 d=7, n=18 cone, for every 28th of its 227 facets: a beta in
    # the span of the facet's columns plus an integer vector (facet-resonant),
    # then a generic one.
    config = random_homogeneous_configuration(random.Random(5), 7, 18)
    A, rng = config.A, random.Random(7)
    verdicts = Counter()
    for normal, mask in facets_by_double_description(config)[::28]:
        columns = [a for j, a in enumerate(A.columns()) if mask >> j & 1]
        weights = [Fraction(rng.randint(-3, 3), rng.choice((2, 3))) for _ in columns]
        shift = [rng.randint(-2, 2) for _ in range(A.rows)]
        resonant = [sum(w * a[m] for w, a in zip(weights, columns)) + shift[m]
                    for m in range(A.rows)]
        generic = [Fraction(rng.randint(-5000, 5000), 10007) for _ in range(A.rows)]
        for beta in (resonant, generic):
            verdict = classify(A, beta).verdict
            assert verdict_by_facet_theorem(A, beta) == verdict, beta
            verdicts[verdict] += 1
    assert verdicts[REDUCIBLE] >= 8 and verdicts[IRREDUCIBLE] >= 4, verdicts
