import random
from fractions import Fraction

import pytest

from gkzmono import (
    Configuration,
    GaussRat,
    IntMatrix,
    InternalInconsistency,
    NotAPyramid,
    enumerate_faces,
    is_pyramid,
    pyramids,
    split_beta,
)
from oracles import ORACLES, is_pyramid_rank, solve_rational
from sweeps import random_configuration, random_unimodular

QUADRIC = Configuration(IntMatrix([[1, 1, 1], [0, 1, 2]]))
PYRAMID = Configuration(IntMatrix([[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]]))

# The runtime kernel-support test and the three oracles.
ALL_CHECKS = (is_pyramid, *ORACLES.values())


def face_of(config, indices):
    return config.face_lattice().face(indices)


def checks(config, face):
    """Every characterization by name; volume is None on the empty face."""
    found = {name: check(config, face) for name, check in ORACLES.items()}
    found["kernel_support"] = is_pyramid(config, face)
    return found


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
        assert not is_pyramid(QUADRIC, face_of(QUADRIC, [1]))
        assert is_pyramid(PYRAMID, face_of(PYRAMID, [1, 2, 3]))
        assert is_pyramid(QUADRIC, face_of(QUADRIC, [1, 2, 3]))

    def test_empty_face_rank_rule(self):
        simplex = Configuration(IntMatrix.identity(2))
        assert is_pyramid_rank(simplex, face_of(simplex, []))
        assert not is_pyramid_rank(QUADRIC, face_of(QUADRIC, []))


class TestAggregate:
    def test_verdicts(self):
        assert checks(PYRAMID, face_of(PYRAMID, [1, 2, 3])) == {
            "rank": True,
            "summand": True,
            "kernel_support": True,
            "volume": True,
        }
        assert not is_pyramid(QUADRIC, face_of(QUADRIC, [1]))

    def test_empty_face_skips_volume(self):
        found = checks(QUADRIC, face_of(QUADRIC, []))
        assert found["volume"] is None
        assert not is_pyramid(QUADRIC, face_of(QUADRIC, []))

    def test_simplex_is_pyramid_over_empty_face(self):
        simplex = Configuration(IntMatrix.identity(3))
        assert is_pyramid(simplex, face_of(simplex, []))

    def test_duplicate_columns_count_once(self):
        # (1, 0, 1): the duplicated generator still makes a pyramid over the
        # zero column, because the column *set* is {1, 0}.
        config = Configuration(IntMatrix([[1, 0, 1]]))
        face = face_of(config, [2])
        assert set(checks(config, face).values()) == {True}
        doubled = Configuration(IntMatrix([[1, 1]]))
        assert is_pyramid(doubled, face_of(doubled, []))

    def test_agreement_sweep(self):
        rng = random.Random(61)
        for _ in range(200):
            config = random_configuration(rng, dmax=4, nmax=7)
            for face in enumerate_faces(config, "dd"):
                values = set(checks(config, face).values()) - {None}
                assert len(values) == 1

    def test_invariance_under_relabeling_and_unimodular_maps(self):
        rng = random.Random(67)
        for _ in range(25):
            config = random_configuration(rng, dmax=3, nmax=5)
            for face in enumerate_faces(config, "dd"):
                expected = is_pyramid(config, face)
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
                    is_pyramid(permuted, permuted.face_lattice().face(relabeled))
                    == expected
                )
                U = random_unimodular(rng, config.d)
                transformed = Configuration(U @ config.A)
                assert (
                    is_pyramid(
                        transformed, transformed.face_lattice().face(face.indices)
                    )
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
                if not is_pyramid(config, face):
                    continue
                split = split_beta(config, face, beta)
                rebuilt = list(split.beta_face)
                for j, c in split.coefficients.items():
                    rebuilt = [
                        b + c * a for b, a in zip(rebuilt, config.column(j))
                    ]
                assert tuple(rebuilt) == tuple(beta)
                # the face component lies in the span of the face columns
                if face.indices:
                    F = config.submatrix(face.indices)
                    assert solve_rational(F, [b.re for b in split.beta_face]) is not None
                    assert solve_rational(F, [b.im for b in split.beta_face]) is not None
                else:
                    assert all(not b for b in split.beta_face)
                done += 1

    def test_unsolvable_split_is_an_internal_inconsistency(self, monkeypatch):
        # The columns span Q^d, so beta always has coordinates on them.
        monkeypatch.setattr(pyramids, "_gauss_rat_coordinates", lambda rows, beta: None)
        with pytest.raises(InternalInconsistency, match="not in the span"):
            split_beta(PYRAMID, face_of(PYRAMID, [1, 2, 3]), ["1/2", "1", "1/3"])

    def test_duplicate_column_coefficient_on_first_copy(self):
        config = Configuration(IntMatrix([[1, 0, 1]]))
        face = face_of(config, [2])
        split = split_beta(config, face, ["5/2"])
        assert split.coefficients == {1: GaussRat(Fraction(5, 2)), 3: GaussRat(0)}
