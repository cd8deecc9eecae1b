import random
from fractions import Fraction

import pytest

from gkzmono import (
    BetaOutsideSpan,
    Configuration,
    Face,
    FaceNotInLattice,
    GaussRat,
    IntMatrix,
    LatticeNotSaturated,
    RankDeficient,
    enumerate_faces,
    is_face,
    reduce_configuration,
    subfaces,
)
from sweeps import random_configuration

QUADRIC = IntMatrix([[1, 1, 1], [0, 1, 2]])


def witness_is_valid(config, face):
    for j in range(1, config.n + 1):
        value = sum(w * a for w, a in zip(face.witness, config.column(j)))
        if j in face.indices:
            assert value == 0
        else:
            assert value > 0
    return True


class TestConfiguration:
    def test_valid(self):
        c = Configuration(QUADRIC)
        assert (c.d, c.n, c.rank) == (2, 3, 2)
        assert c.column(1) == (1, 0)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            Configuration(IntMatrix([[1, 2], [2, 4]]))

    def test_unsaturated(self):
        with pytest.raises(LatticeNotSaturated):
            Configuration(IntMatrix([[2, 0], [0, 1]]))

    def test_pointedness(self):
        assert Configuration(QUADRIC).pointed
        assert not Configuration(IntMatrix([[1, -1]])).pointed
        # zero columns block strict positivity, hence "not pointed" here
        assert not Configuration(IntMatrix([[1, 0]])).pointed

    def test_lineality_columns(self):
        assert Configuration(QUADRIC).lineality_columns == ()
        assert Configuration(IntMatrix([[1, -1]])).lineality_columns == (1, 2)
        assert Configuration(IntMatrix([[1, 0]])).lineality_columns == (2,)


class TestReduce:
    def test_already_normalized(self):
        config, beta, B = reduce_configuration(QUADRIC, ["1/2", "1"])
        assert config.A == QUADRIC
        assert B == IntMatrix.identity(2)
        assert beta == (GaussRat(Fraction(1, 2)), GaussRat(Fraction(1)))

    def test_diagonal_sublattice(self):
        config, beta, B = reduce_configuration(IntMatrix([[2, 0], [0, 1]]), ["1", "1/3"])
        assert config.A == IntMatrix.identity(2)
        assert B == IntMatrix([[2, 0], [0, 1]])
        assert beta == (GaussRat(Fraction(1, 2)), GaussRat(Fraction(1, 3)))
        assert B @ config.A == IntMatrix([[2, 0], [0, 1]])

    def test_single_row_gcd(self):
        config, beta, B = reduce_configuration(IntMatrix([[2, 4]]), ["3"])
        assert config.A == IntMatrix([[1, 2]])
        assert B == IntMatrix([[2]])
        assert beta == (GaussRat(Fraction(3, 2)),)

    def test_dependent_rows_with_beta_in_span(self):
        raw = IntMatrix([[1, 2], [2, 4]])
        config, beta, B = reduce_configuration(raw, ["1", "2"])
        assert config.d == 1
        assert B @ config.A == raw

    def test_beta_outside_span(self):
        with pytest.raises(BetaOutsideSpan):
            reduce_configuration(IntMatrix([[1, 2], [2, 4]]), ["0", "1"])

    def test_arity_checked(self):
        with pytest.raises(Exception):
            reduce_configuration(QUADRIC, ["1/2"])

    def test_factorization_holds_generally(self):
        rng = random.Random(31)
        for _ in range(30):
            d = rng.randint(1, 3)
            n = rng.randint(1, 5)
            raw = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)])
            beta = [Fraction(0)] * d
            try:
                config, _, B = reduce_configuration(raw, beta)
            except RankDeficient:
                assert raw.rank() == 0
                continue
            assert B @ config.A == raw


class TestIsFace:
    def test_full_set_has_zero_witness(self):
        c = Configuration(QUADRIC)
        face = is_face(c, [1, 2, 3])
        assert face is not None and face.witness == (0, 0)

    def test_quadric_extremal_ray(self):
        c = Configuration(QUADRIC)
        face = is_face(c, [1])
        assert face is not None
        assert face.indices == (1,)
        witness_is_valid(c, face)

    def test_quadric_interior_ray_is_not_a_face(self):
        assert is_face(Configuration(QUADRIC), [2]) is None

    def test_out_of_range(self):
        with pytest.raises(Exception):
            is_face(Configuration(QUADRIC), [4])


class TestEnumerate:
    @pytest.mark.parametrize("method", ["brute", "dd"])
    def test_quadric(self, method):
        lattice = enumerate_faces(Configuration(QUADRIC), method)
        assert [f.indices for f in lattice] == [(), (1,), (3,), (1, 2, 3)]

    def test_simplicial_all_subsets(self):
        c = Configuration(IntMatrix.identity(3))
        lattice = enumerate_faces(c, "brute")
        assert len(lattice) == 8

    def test_nonpointed_line(self):
        c = Configuration(IntMatrix([[1, -1]]))
        for method in ("brute", "dd"):
            lattice = enumerate_faces(c, method)
            assert [f.indices for f in lattice] == [(1, 2)]

    def test_zero_column_in_every_face(self):
        c = Configuration(IntMatrix([[1, 0]]))
        lattice = enumerate_faces(c, "brute")
        assert [f.indices for f in lattice] == [(2,), (1, 2)]

    def test_methods_agree_on_random_configs(self):
        rng = random.Random(17)
        for _ in range(50):
            config = random_configuration(rng, dmax=3, nmax=6)
            brute = enumerate_faces(config, "brute")
            dd = enumerate_faces(config, "dd")
            assert [f.indices for f in brute] == [f.indices for f in dd]
            for face in brute:
                witness_is_valid(config, face)
            for face in dd:
                witness_is_valid(config, face)

    def test_intersection_closed(self):
        rng = random.Random(23)
        for _ in range(25):
            config = random_configuration(rng, dmax=3, nmax=6)
            lattice = enumerate_faces(config, "dd")
            index_sets = {f.indices for f in lattice}
            for f in lattice:
                for g in lattice:
                    meet = tuple(sorted(set(f.indices) & set(g.indices)))
                    assert meet in index_sets

    def test_commutes_with_column_permutation(self):
        rng = random.Random(29)
        for _ in range(20):
            config = random_configuration(rng, dmax=3, nmax=5)
            n = config.n
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = Configuration(
                IntMatrix.from_columns([config.column(p + 1) for p in perm], config.d)
            )
            base = {f.indices for f in enumerate_faces(config, "dd")}
            relabeled = {
                tuple(sorted(perm.index(j - 1) + 1 for j in indices))
                for indices in base
            }
            assert relabeled == {f.indices for f in enumerate_faces(permuted, "dd")}

    def test_pointed_iff_empty_face(self):
        rng = random.Random(37)
        for _ in range(30):
            config = random_configuration(rng, dmax=3, nmax=6)
            lattice = enumerate_faces(config, "dd")
            assert lattice.has_empty_face == config.pointed

    def test_lineality_columns_in_every_face(self):
        rng = random.Random(41)
        for _ in range(30):
            config = random_configuration(rng, dmax=3, nmax=6)
            for face in enumerate_faces(config, "dd"):
                assert set(config.lineality_columns) <= set(face.indices)


class TestSubfaces:
    def test_of_full_face(self):
        c = Configuration(QUADRIC)
        lattice = c.face_lattice()
        got = subfaces(lattice, lattice.full_face)
        assert [f.indices for f in got] == [(), (1,), (3,)]

    def test_of_ray(self):
        c = Configuration(QUADRIC)
        lattice = c.face_lattice()
        assert [f.indices for f in subfaces(lattice, lattice.face([1]))] == [()]

    def test_of_empty(self):
        c = Configuration(QUADRIC)
        lattice = c.face_lattice()
        assert subfaces(lattice, lattice.face([])) == []

    def test_foreign_face_rejected(self):
        c = Configuration(QUADRIC)
        with pytest.raises(FaceNotInLattice):
            subfaces(c.face_lattice(), Face([2], [0, 0]))


class TestFaceValue:
    def test_equality_is_by_indices(self):
        assert Face([1, 3], [0, 1]) == Face([3, 1], [5, 5])
        assert hash(Face([1], [0])) == hash(Face([1], [9]))

    def test_json(self):
        assert Face([2, 1], [1, -1]).to_json() == {
            "indices": [1, 2],
            "witness": [1, -1],
        }
