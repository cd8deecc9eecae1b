"""Shared random generators for the property sweeps, the benchmark's fixed A, and face lookup."""

from fractions import Fraction

from gkzmono import (
    Configuration,
    IntMatrix,
    LatticeNotSaturated,
    RankDeficient,
    reduce_configuration,
)
from oracles import fraction_elimination

# The benchmark's beta_sweep configuration: pointed, d = 5, n = 12, 140 faces
# and 26 facets.
BETA_SWEEP_MATRIX = IntMatrix([
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [3, 0, 0, 2, 3, 0, 1, 1, 0, 0, 1, 0],
    [1, 0, 1, 3, 1, 2, 0, 1, 0, 2, 2, 0],
    [3, 1, 0, 2, 0, 2, 0, 3, 0, 1, 0, 0],
    [2, 0, 0, 1, 3, 0, 0, 2, 1, 2, 2, 0],
])

# A valid 5x8 configuration whose cone is all of R^5, so its only face is
# {1..8} and it has no facet.
DENSE_FIVE_BY_EIGHT = [
    [-3, 2, 0, 3, -1, 2, -1, 2],
    [2, -1, -2, 2, 0, -1, -2, 3],
    [-2, -2, 1, -3, 1, -1, 0, 2],
    [0, 2, -1, -1, -2, -1, 2, 2],
    [1, 2, -1, -1, 2, 1, 1, -3],
]


def random_configuration(rng, dmax=4, nmax=7, lo=-3, hi=3):
    """A random normalized configuration (redraws until the rank works out)."""
    while True:
        d = rng.randint(1, dmax)
        n = rng.randint(d, nmax)
        M = IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(d)])
        try:
            config, _, _ = reduce_configuration(M, [0] * d)
        except RankDeficient:
            continue
        return config


def random_full_rank_matrix(rng, dmax=3, nmax=5, lo=-3, hi=3):
    """A random raw matrix with independent rows (so any beta is in the span)."""
    while True:
        d = rng.randint(1, dmax)
        n = rng.randint(d, nmax)
        M = IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(d)])
        if fraction_elimination(M.data)[0] == d:
            return M


def random_beta(rng, d, numerator=6, denominators=(1, 1, 2, 3, 4)):
    """Random rational parameter; denominator 1 appears often on purpose."""
    return [
        Fraction(rng.randint(-numerator, numerator), rng.choice(denominators))
        for _ in range(d)
    ]


def random_unimodular(rng, d, ops=6):
    """Product of random elementary row operations applied to the identity."""
    rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(ops):
        i, k = rng.randrange(d), rng.randrange(d)
        if i == k:
            continue
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
    return IntMatrix(rows)


def random_homogeneous_configuration(rng, d, n, hi=4):
    """A pointed configuration of n distinct columns (1, x), x in [0, hi]^(d-1)."""
    while True:
        columns = set()
        while len(columns) < n:
            columns.add((1,) + tuple(rng.randint(0, hi) for _ in range(d - 1)))
        try:
            return Configuration(IntMatrix.from_columns(sorted(columns), d))
        except LatticeNotSaturated:
            continue


def random_confluent_configuration(rng, d, n, hi=4):
    """A configuration of n distinct columns (h, x), h in {1, 2}, x in [0, hi]^(d-1),
    that has no grading: the origin is placed with its columns."""
    while True:
        columns = set()
        while len(columns) < n:
            columns.add((rng.choice((1, 2)),) + tuple(rng.randint(0, hi) for _ in range(d - 1)))
        try:
            config = Configuration(IntMatrix.from_columns(sorted(columns), d))
        except LatticeNotSaturated:
            continue
        if config._grading is None:
            return config


def rational_normal_curve(k):
    """The degree-k curve: columns (1, j) for j = 0..k."""
    return Configuration(IntMatrix([[1] * (k + 1), list(range(k + 1))]))


def face_of(config, indices):
    """The face of config's lattice with these column labels (StopIteration if none)."""
    key = tuple(sorted(indices))
    return next(f for f in config.face_lattice() if f.indices == key)
