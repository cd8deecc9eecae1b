import random
from fractions import Fraction

import pytest

from gkzmono import (
    Configuration,
    GaussRat,
    IntMatrix,
    NotAPyramid,
    enumerate_faces,
    is_pyramid,
    is_pyramid_kernel,
    is_pyramid_rank,
    is_pyramid_summand,
    is_pyramid_volume,
    split_beta,
)
from sweeps import random_configuration, random_unimodular

QUADRIC = Configuration(IntMatrix([[1, 1, 1], [0, 1, 2]]))
PYRAMID = Configuration(IntMatrix([[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]]))

ALL_CHECKS = (is_pyramid_rank, is_pyramid_summand, is_pyramid_kernel, is_pyramid_volume)


def face_of(config, indices):
    return config.face_lattice().face(indices)


class TestIndividualChecks:
    def test_full_face_is_always_a_pyramid(self):
        full = face_of(QUADRIC, [1, 2, 3])
        for check in ALL_CHECKS:
            assert check(QUADRIC, full)

    def test_quadric_ray_fails_every_check(self):
        ray = face_of(QUADRIC, [1])
        for check in ALL_CHECKS:
            assert not check(QUADRIC, ray)

    def test_pyramid_face_passes_every_check(self):
        face = face_of(PYRAMID, [1, 2, 3])
        for check in ALL_CHECKS:
            assert check(PYRAMID, face)

    def test_kernel_check_details(self):
        assert not is_pyramid_kernel(QUADRIC, face_of(QUADRIC, [1]))
        assert is_pyramid_kernel(PYRAMID, face_of(PYRAMID, [1, 2, 3]))
        assert is_pyramid_kernel(QUADRIC, face_of(QUADRIC, [1, 2, 3]))

    def test_empty_face_rank_rule(self):
        simplex = Configuration(IntMatrix.identity(2))
        assert is_pyramid_rank(simplex, face_of(simplex, []))
        assert not is_pyramid_rank(QUADRIC, face_of(QUADRIC, []))


class TestAggregate:
    def test_verdicts(self):
        v = is_pyramid(PYRAMID, face_of(PYRAMID, [1, 2, 3]))
        assert v.is_pyramid and v.agreement
        assert v.checks == {
            "rank": True,
            "summand": True,
            "kernel_support": True,
            "volume": True,
        }
        assert not is_pyramid(QUADRIC, face_of(QUADRIC, [1])).is_pyramid

    def test_empty_face_skips_volume(self):
        v = is_pyramid(QUADRIC, face_of(QUADRIC, []))
        assert v.checks["volume"] is None
        assert not v.is_pyramid

    def test_simplex_is_pyramid_over_empty_face(self):
        simplex = Configuration(IntMatrix.identity(3))
        assert is_pyramid(simplex, face_of(simplex, [])).is_pyramid

    def test_duplicate_columns_count_once(self):
        # (1, 0, 1): the duplicated generator still makes a pyramid over the
        # zero column, because the column *set* is {1, 0}.
        config = Configuration(IntMatrix([[1, 0, 1]]))
        face = face_of(config, [2])
        v = is_pyramid(config, face)
        assert v.is_pyramid and v.agreement
        doubled = Configuration(IntMatrix([[1, 1]]))
        assert is_pyramid(doubled, face_of(doubled, [])).is_pyramid

    def test_agreement_sweep(self):
        rng = random.Random(61)
        for _ in range(200):
            config = random_configuration(rng, dmax=4, nmax=7)
            for face in enumerate_faces(config, "dd"):
                verdict = is_pyramid(config, face)
                assert verdict.agreement

    def test_invariance_under_relabeling_and_unimodular_maps(self):
        rng = random.Random(67)
        for _ in range(25):
            config = random_configuration(rng, dmax=3, nmax=5)
            for face in enumerate_faces(config, "dd"):
                expected = is_pyramid(config, face).is_pyramid
                perm = list(range(config.n))
                rng.shuffle(perm)
                permuted = Configuration(
                    IntMatrix.from_columns(
                        [config.column(p + 1) for p in perm], config.d
                    )
                )
                relabeled = tuple(
                    sorted(perm.index(j - 1) + 1 for j in face.indices)
                )
                assert (
                    is_pyramid(
                        permuted, permuted.face_lattice().face(relabeled)
                    ).is_pyramid
                    == expected
                )
                U = random_unimodular(rng, config.d)
                transformed = Configuration(U @ config.A)
                assert (
                    is_pyramid(
                        transformed, transformed.face_lattice().face(face.indices)
                    ).is_pyramid
                    == expected
                )


class TestSplitBeta:
    def test_pyramid_example(self):
        face = face_of(PYRAMID, [1, 2, 3])
        split = split_beta(PYRAMID, face, ["1/3", "1/5", "2"])
        assert split.beta_face == (
            GaussRat(Fraction(1, 3)),
            GaussRat(Fraction(1, 5)),
            GaussRat(0),
        )
        assert split.coefficients == {4: GaussRat(Fraction(2))}

    def test_full_face_keeps_beta(self):
        full = face_of(QUADRIC, [1, 2, 3])
        split = split_beta(QUADRIC, full, ["1/2", "1"])
        assert split.coefficients == {}
        assert split.beta_face == (GaussRat(Fraction(1, 2)), GaussRat(Fraction(1)))

    def test_zero_beta(self):
        face = face_of(PYRAMID, [1, 2, 3])
        split = split_beta(PYRAMID, face, ["0", "0", "0"])
        assert split.coefficients == {4: GaussRat(0)}
        assert all(b == GaussRat(0) for b in split.beta_face)

    def test_rejects_non_pyramid(self):
        with pytest.raises(NotAPyramid):
            split_beta(QUADRIC, face_of(QUADRIC, [1]), ["1/2", "1"])

    def test_reconstruction_is_exact(self):
        rng = random.Random(71)
        done = 0
        while done < 20:
            config = random_configuration(rng, dmax=3, nmax=5)
            beta = [
                GaussRat(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])),
                         Fraction(rng.randint(-2, 2)))
                for _ in range(config.d)
            ]
            for face in enumerate_faces(config, "dd"):
                if not is_pyramid(config, face).is_pyramid:
                    continue
                split = split_beta(config, face, beta)
                rebuilt = list(split.beta_face)
                for j, c in split.coefficients.items():
                    rebuilt = [
                        b + c * a for b, a in zip(rebuilt, config.column(j))
                    ]
                assert tuple(rebuilt) == tuple(beta)
                # the face component lies in the span of the face columns
                from gkzmono import solve_rational

                if face.indices:
                    F = config.submatrix(face.indices)
                    assert solve_rational(F, [b.re for b in split.beta_face]) is not None
                    assert solve_rational(F, [b.im for b in split.beta_face]) is not None
                else:
                    assert all(not b for b in split.beta_face)
                done += 1

    def test_duplicate_column_coefficient_on_first_copy(self):
        config = Configuration(IntMatrix([[1, 0, 1]]))
        face = face_of(config, [2])
        split = split_beta(config, face, ["5/2"])
        assert split.coefficients == {1: GaussRat(Fraction(5, 2)), 3: GaussRat(0)}
