"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact (integer or boolean equality); runtime bounds are
asserted with time.monotonic.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from gkzmono import (
    IRREDUCIBLE,
    REDUCIBLE,
    Configuration,
    IntMatrix,
    classify,
    enumerate_faces,
    export,
    hypergeometric_system,
    is_pyramid,
    normalized_volume,
    parse_toric_system,
    resonance_centers,
    toric_ideal_generators,
)
from oracles import ORACLES, fraction_elimination, matmul
from sweeps import (
    random_beta,
    random_configuration,
    random_full_rank_matrix,
    random_unimodular,
)

QUADRIC = IntMatrix([[1, 1, 1], [0, 1, 2]])
PYRAMID = IntMatrix([[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]])


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(
        f"[acceptance] criterion {number:2d}: PASS - {description} "
        f"({elapsed:.2f}s < {limit_seconds}s)"
    )


def test_criterion_01_quadric_resonance_centers():
    with criterion(1, "quadric cone, beta=(1/2,1): centers {1},{3}, Reducible", 1.0):
        config = Configuration(QUADRIC)
        report = resonance_centers(config, ["1/2", "1"])
        assert [f.indices for f in report.centers] == [(1,), (3,)]
        assert classify(QUADRIC, ["1/2", "1"]).verdict == REDUCIBLE


def test_criterion_02_nonresonant_irreducible():
    with criterion(2, "quadric cone, beta=(1/3,1/5): Irreducible, center A", 1.0):
        result = classify(QUADRIC, ["1/3", "1/5"])
        assert result.verdict == IRREDUCIBLE
        assert [f.indices for f in result.centers] == [(1, 2, 3)]


def test_criterion_03_integral_resonance():
    with criterion(3, "quadric cone, beta=(0,0): Reducible, center empty", 1.0):
        result = classify(QUADRIC, ["0", "0"])
        assert result.verdict == REDUCIBLE
        assert [f.indices for f in result.centers] == [()]


def test_criterion_04_pyramid_case():
    with criterion(4, "pyramid example: Irreducible with unique center {1,2,3}", 1.0):
        result = classify(PYRAMID, ["1/3", "1/5", "2"])
        assert result.verdict == IRREDUCIBLE
        assert [f.indices for f in result.centers] == [(1, 2, 3)]
        assert len(result.centers) == 1
        assert result.pyramid_flags == (True,)


def test_criterion_05_pyramid_equivalence_sweep():
    with criterion(5, "1000-config sweep: all pyramid checks agree on every face", 300.0):
        rng = random.Random(20240501)
        for _ in range(1000):
            config = random_configuration(rng, dmax=4, nmax=7, lo=-3, hi=3)
            for face in enumerate_faces(config, "dd"):
                runtime = is_pyramid(config, face)
                for name, oracle in ORACLES.items():
                    # The volume check does not apply to the empty face.
                    skipped = name == "volume" and not face.indices
                    assert oracle(config, face) == (None if skipped else runtime), name


def test_criterion_06_face_enumeration_oracle():
    with criterion(6, "double description equals subset brute force (n <= 8)", 300.0):
        rng = random.Random(20240502)
        for _ in range(120):
            config = random_configuration(rng, dmax=4, nmax=8, lo=-3, hi=3)
            brute = enumerate_faces(config, "brute")
            dd = enumerate_faces(config, "dd")
            assert [f.indices for f in brute] == [f.indices for f in dd]


def test_criterion_07_invariance_sweep():
    with criterion(
        7, "verdict invariant under shifts, permutations, unimodular maps", 300.0
    ):
        rng = random.Random(20240503)
        for _ in range(200):
            A = random_full_rank_matrix(rng, dmax=3, nmax=5)
            beta = random_beta(rng, A.rows)
            base = classify(A, beta).verdict
            for _ in range(10):
                z = [rng.randint(-4, 4) for _ in range(A.cols)]
                shifted = [
                    b + s for b, s in zip(beta, A.mat_vec(z))
                ]
                assert classify(A, shifted).verdict == base
            for _ in range(10):
                perm = list(range(A.cols))
                rng.shuffle(perm)
                permuted = IntMatrix.from_columns(
                    [A.column(p) for p in perm], A.rows
                )
                assert classify(permuted, beta).verdict == base
            for _ in range(10):
                U = random_unimodular(rng, A.rows)
                beta_u = U.mat_vec([Fraction(b) for b in beta])
                assert classify(matmul(U, A), beta_u).verdict == base


def test_criterion_08_volume_values():
    with criterion(8, "volumes: quadric 2, twisted cubic 3, identity 1, simplex |det|", 10.0):
        assert normalized_volume(Configuration(QUADRIC)).volume == 2
        cubic = Configuration(IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]]))
        assert normalized_volume(cubic).volume == 3
        for d in (1, 2, 3, 4):
            assert normalized_volume(Configuration(IntMatrix.identity(d))).volume == 1
        from gkzmono.volume import _volume_of_matrix

        rng = random.Random(20240504)
        for _ in range(30):
            d = rng.randint(1, 4)
            M = IntMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
            det = fraction_elimination(M.data)[1]
            if det != 0:
                assert _volume_of_matrix(M.columns()).volume == abs(det)


def test_criterion_09_rank_evidence_inequality():
    with criterion(
        9, "Reducible with nonempty center shows face_volume < generic rank", 300.0
    ):
        rng = random.Random(20240505)
        witnessed = 0
        for _ in range(150):
            A = random_full_rank_matrix(rng, dmax=3, nmax=5)
            beta = random_beta(rng, A.rows)
            result = classify(A, beta)
            if result.verdict != REDUCIBLE:
                continue
            for face, vol in zip(result.centers, result.face_volumes):
                if face.indices:
                    assert vol < result.generic_rank
                    witnessed += 1
        assert witnessed >= 10


def test_criterion_10_toric_ideal():
    with criterion(10, "toric ideals: quadric and twisted cubic, exact generators", 10.0):
        quadric = Configuration(QUADRIC)
        assert [(b.plus, b.minus) for b in toric_ideal_generators(quadric)] == [
            ((1, 0, 1), (0, 2, 0))
        ]
        cubic = Configuration(IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]]))
        gens = toric_ideal_generators(cubic)
        assert [(b.plus, b.minus) for b in gens] == [
            ((1, 0, 1, 0), (0, 2, 0, 0)),
            ((1, 0, 0, 1), (0, 1, 1, 0)),
            ((0, 1, 0, 1), (0, 0, 2, 0)),
        ]
        for config in (quadric, cubic):
            for b in toric_ideal_generators(config):
                # substituting dx_j -> t^(a_j) sends both monomials to the
                # same torus character, so the binomial vanishes
                assert config.A.mat_vec(b.plus) == config.A.mat_vec(b.minus)


def test_criterion_11_export_round_trip():
    with criterion(11, "JSON round trip; script exports byte-stable", 10.0):
        config = Configuration(QUADRIC)
        system = hypergeometric_system(config, ["1/2", "1"])
        assert parse_toric_system(export(system, "json")) == system
        for fmt in ("macaulay2", "singular", "json"):
            first = export(system, fmt)
            second = export(hypergeometric_system(config, ["1/2", "1"]), fmt)
            assert first == second
