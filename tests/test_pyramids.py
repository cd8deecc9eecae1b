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
    kernel_lattice_basis,
    pyramids,
    split_beta,
)
from oracles import ORACLES, is_pyramid_rank, related_columns_by_distinct_kernel, solve_rational
from sweeps import random_configuration, random_unimodular

QUADRIC = Configuration(IntMatrix([[1, 1, 1], [0, 1, 2]]))
PYRAMID = Configuration(IntMatrix([[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]]))

# The runtime kernel-support test and the three oracles.
ALL_CHECKS = (is_pyramid, *ORACLES.values())


def face_of(config, indices):
    return config.face_lattice().face(indices)


def configurations_with_copies(seed, count):
    """Seeded configurations with repeated columns.

    Every third has a zero column, and every other one an apex (a new row
    and a unit column on it, sometimes twice).
    """
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        config = random_configuration(rng, dmax=4, nmax=6)
        d, cols = config.d, list(config.A.columns())
        for _ in range(rng.randint(1, 3)):
            cols.insert(rng.randrange(len(cols) + 1), rng.choice(cols))
        if len(found) % 3 == 0:
            cols.insert(rng.randrange(len(cols) + 1), (0,) * d)
        if len(found) % 2 == 0:
            cols = [c + (0,) for c in cols] + [(0,) * d + (1,)] * rng.randint(1, 2)
            d += 1
        found.append(Configuration(IntMatrix.from_columns(cols, d)))
    return found


COPIES = configurations_with_copies(83, 300)


def assert_exact_split(config, face, beta):
    """beta = beta_face + sum c_j a_j, beta_face in the face span, 0 on later copies."""
    split = split_beta(config, face, beta)
    rebuilt = list(split.beta_face)
    seen = set()
    for j, c in split.coefficients.items():
        rebuilt = [b + c * a for b, a in zip(rebuilt, config.column(j))]
        assert not (c and config.column(j) in seen)
        seen.add(config.column(j))
    assert tuple(rebuilt) == tuple(beta)
    # the face component lies in the span of the face columns
    if face.indices:
        F = config.submatrix(face.indices)
        assert solve_rational(F, [b.re for b in split.beta_face]) is not None
        assert solve_rational(F, [b.im for b in split.beta_face]) is not None
    else:
        assert all(not b for b in split.beta_face)


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
                if is_pyramid(config, face):
                    assert_exact_split(config, face, beta)
                    done += 1

    def test_reconstruction_is_exact_on_copies(self):
        rng = random.Random(84)
        done = 0
        for config in COPIES[:50]:
            for face in enumerate_faces(config, "dd"):
                if is_pyramid(config, face):
                    beta = [GaussRat(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])))
                            for _ in range(config.d)]
                    assert_exact_split(config, face, beta)
                    done += 1
        assert done > 50

    def test_unsolvable_split_is_an_internal_inconsistency(self, monkeypatch):
        # The columns span Q^d, so beta always has coordinates on them.
        monkeypatch.setattr(pyramids, "_gauss_rat_coordinates", lambda rows, beta: None)
        with pytest.raises(InternalInconsistency, match="not in the span"):
            split_beta(PYRAMID, face_of(PYRAMID, [1, 2, 3]), ["1/2", "1", "1/3"])

    @pytest.mark.parametrize("A, face, beta, coefficients", [
        ([[1, 0, 1]], [2], ["5/2"], {1: "5/2", 3: "0"}),
        # The Hermite solution of A*x = beta puts weight on the second copy.
        ([[0, 0, 1], [1, 1, -1]], [], ["1/2", "1/3"], {1: "5/6", 2: "0", 3: "1/2"}),
    ])
    def test_duplicate_column_coefficient_on_first_copy(self, A, face, beta, coefficients):
        config = Configuration(IntMatrix(A))
        split = split_beta(config, face_of(config, face), beta)
        assert split.coefficients == {j: GaussRat.parse(c) for j, c in coefficients.items()}


class TestRelatedColumns:
    """The pyramid test reads the kernel off the validating Hermite form."""

    def test_configuration_kernel_is_the_kernel_lattice_basis(self):
        for config in COPIES + [QUADRIC, PYRAMID]:
            assert config.kernel == kernel_lattice_basis(config.A)

    def test_related_columns_match_the_distinct_column_definition(self):
        related = 0
        for config in COPIES:
            expected = related_columns_by_distinct_kernel(config)
            assert pyramids._related_columns(config) == expected
            related += bool(expected)
        assert 0 < related < len(COPIES)
