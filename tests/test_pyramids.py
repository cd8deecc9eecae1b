import random
from collections import Counter

from gkzmono import (
    Configuration,
    IntMatrix,
    enumerate_faces,
    is_pyramid,
    kernel_lattice_basis,
    pyramids,
)
from oracles import ORACLES, is_pyramid_rank, matmul, related_columns_by_distinct_kernel
from sweeps import face_of, random_configuration, random_unimodular

QUADRIC = Configuration(IntMatrix([[1, 1, 1], [0, 1, 2]]))
PYRAMID = Configuration(IntMatrix([[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]]))

# The runtime kernel-support test and the three oracles.
ALL_CHECKS = (is_pyramid, *ORACLES.values())


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
                assert is_pyramid(permuted, face_of(permuted, relabeled)) == expected
                U = random_unimodular(rng, config.d)
                transformed = Configuration(matmul(U, config.A))
                assert is_pyramid(transformed, face_of(transformed, face.indices)) == expected


class TestRelatedColumns:
    """The pyramid test reads the related columns off the hull's facets, not a kernel."""

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

    def test_related_columns_match_the_oracle_on_signed_configurations(self):
        # Signed entries give non-pointed cones (a cone with no facet relates
        # every column), zero columns (on every facet, so always related),
        # duplicate columns (an apex's copies are one facet's whole
        # complement) and configurations with no relation at all.
        rng = random.Random(2011)
        kinds = Counter()
        for _ in range(4000):
            config = random_configuration(rng, 5, 9, -2, 2)
            columns = config.A.columns()
            expected = related_columns_by_distinct_kernel(config)
            assert pyramids._related_columns(config) == expected
            kinds["nonpointed"] += config.lineality_columns != ()
            kinds["zero"] += (0,) * config.d in columns
            kinds["duplicate"] += len(set(columns)) < config.n
            kinds["apex"] += len(expected) < config.n
            kinds["unrelated"] += not expected
        assert min(kinds.values()) > 500
