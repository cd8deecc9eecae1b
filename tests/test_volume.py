import random
from itertools import permutations

import pytest

from gkzmono import (
    Configuration,
    EmptyFace,
    InternalInconsistency,
    cli,
    cones,
    enumerate_faces,
    IntMatrix,
    face_volume,
    generic_rank,
    is_pyramid,
    normalized_volume,
    volume,
)
from sweeps import random_configuration, random_unimodular

QUADRIC = Configuration(IntMatrix([[1, 1, 1], [0, 1, 2]]))
CUBIC = Configuration(IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]]))
PYRAMID = Configuration(IntMatrix([[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]]))


def shoelace_times_two(points):
    """2 * area of the convex hull of 2-d integer points, by monotone chain."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return 0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    twice_area = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x1 * y2 - x2 * y1
    return abs(twice_area)


class TestNormalizedVolume:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_unit_simplex(self, d):
        assert normalized_volume(Configuration(IntMatrix.identity(d))).volume == 1

    def test_quadric(self):
        assert normalized_volume(QUADRIC).volume == 2

    def test_twisted_cubic(self):
        assert normalized_volume(CUBIC).volume == 3

    def test_simplex_volume_is_det(self):
        # A valid configuration with n = d is unimodular, so exercise the
        # underlying triangulation on arbitrary full-rank square matrices.
        from gkzmono.volume import _volume_of_matrix

        rng = random.Random(3)
        for _ in range(25):
            d = rng.randint(1, 4)
            while True:
                M = IntMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
                if M.det() != 0:
                    break
            assert _volume_of_matrix(M).volume == abs(M.det())
            if abs(M.det()) == 1:
                assert normalized_volume(Configuration(M)).volume == 1

    def test_generic_rank_alias(self):
        assert generic_rank(QUADRIC) == normalized_volume(QUADRIC).volume == 2

    def test_shoelace_agreement_2d(self):
        rng = random.Random(7)
        for _ in range(40):
            config = random_configuration(rng, dmax=2, nmax=6)
            if config.d != 2:
                continue
            pts = [(0, 0)] + [config.column(j) for j in range(1, config.n + 1)]
            assert normalized_volume(config).volume == shoelace_times_two(pts)

    def test_invariance(self):
        rng = random.Random(9)
        for _ in range(25):
            config = random_configuration(rng, dmax=3, nmax=6)
            vol = normalized_volume(config).volume
            perm = list(range(config.n))
            rng.shuffle(perm)
            permuted = Configuration(
                IntMatrix.from_columns(
                    [config.column(p + 1) for p in perm], config.d
                )
            )
            assert normalized_volume(permuted).volume == vol
            U = random_unimodular(rng, config.d)
            assert normalized_volume(Configuration(U @ config.A)).volume == vol

    def test_placing_order_does_not_change_the_volume(self):
        # A pyramid over a 2x2 square, with the square's center and an edge
        # midpoint: the triangulation depends on the insertion order.
        A = IntMatrix([[1, 1, 1, 1, 1, 1], [0, 2, 0, 2, 1, 1], [0, 0, 2, 2, 1, 0]])
        volumes, triangulations = set(), set()
        for perm in permutations(range(A.cols)):
            config = Configuration(IntMatrix.from_columns([A.column(p) for p in perm], A.rows))
            result = normalized_volume(config)
            volumes.add(result.volume)
            label = (0,) + tuple(p + 1 for p in perm)  # permuted label -> original label
            triangulations.add(
                frozenset(frozenset(label[v] for v in s) for s, _ in result.triangulation)
            )
        assert volumes == {8}
        assert len(triangulations) > 1

    def test_certificate(self):
        rng = random.Random(15)
        for _ in range(25):
            config = random_configuration(rng, dmax=3, nmax=6)
            result = normalized_volume(config)
            points = {0: tuple(0 for _ in range(config.d))}
            for j in range(1, config.n + 1):
                points[j] = config.column(j)
            total = 0
            for simplex, contribution in result.triangulation:
                assert len(simplex) == config.d + 1
                base = points[simplex[0]]
                rows = [
                    tuple(p - b for p, b in zip(points[v], base))
                    for v in simplex[1:]
                ]
                det = abs(IntMatrix(rows).det())
                assert det == contribution > 0
                total += contribution
            assert total == result.volume

    def test_flat_simplex_is_an_internal_inconsistency(self, monkeypatch):
        # Every simplex of a placing triangulation is full-dimensional; a
        # zero determinant is a bug, reported as exit 3 on the CLI.
        monkeypatch.setattr(volume, "_edge_det", lambda points: 0)
        with pytest.raises(InternalInconsistency, match="flat simplex"):
            normalized_volume(Configuration(IntMatrix([[1, 1, 1], [0, 3, 7]])))
        cones._normalize_matrix.cache_clear()
        assert cli.run(["volume", "-A", "[[1,1,1],[0,3,7]]"]) == 3

    def test_deterministic(self):
        a = normalized_volume(Configuration(IntMatrix([[1, 1, 1], [0, 2, 5]])))
        b = normalized_volume(Configuration(IntMatrix([[1, 1, 1], [0, 2, 5]])))
        assert a == b


class TestFaceVolume:
    def test_full_face(self):
        full = QUADRIC.face_lattice().full_face
        assert face_volume(QUADRIC, full) == 2

    def test_ray(self):
        assert face_volume(QUADRIC, QUADRIC.face_lattice().face([1])) == 1

    def test_full_face_is_the_hermite_path_volume(self):
        # The Hermite reduction that the full face skips, kept as a reference.
        rng = random.Random(109)
        for _ in range(30):
            config = random_configuration(rng, dmax=4, nmax=7)
            reduced, _ = cones._hermite_reduce(config.A)
            reference = volume._volume_of_matrix(reduced.A).volume
            assert face_volume(config, config.face_lattice().full_face) == reference

    def test_full_face_runs_no_hermite_reduction(self, monkeypatch):
        calls = []
        original = volume._hermite_reduce

        def spy(A):
            calls.append(A)
            return original(A)

        monkeypatch.setattr(volume, "_hermite_reduce", spy)
        for config in (QUADRIC, CUBIC, PYRAMID):
            fresh = Configuration(IntMatrix(config.A.data))
            assert face_volume(fresh, fresh.face_lattice().full_face) == generic_rank(fresh)
        assert calls == []
        fresh = Configuration(IntMatrix(PYRAMID.A.data))
        assert face_volume(fresh, fresh.face_lattice().face([1, 2, 3])) == 2
        assert len(calls) == 1

    def test_volume_is_taken_in_the_generated_lattice(self):
        # Face {1,2} lies in the plane x3 = 0, where its columns (1,0) and
        # (1,2) generate an index-2 sublattice of the saturated lattice Z^2:
        # volume 1 in the generated lattice, 2 in the saturated one.
        config = Configuration(IntMatrix([[1, 1, 0, 0], [0, 2, 0, 1], [0, 0, 1, 1]]))
        face = config.face_lattice().face([1, 2])
        assert face_volume(config, face) == 1
        assert volume._volume_of_matrix(IntMatrix([[1, 1], [0, 2]])).volume == 2

    def test_pyramid_face_reduces_to_quadric(self):
        face = PYRAMID.face_lattice().face([1, 2, 3])
        assert face_volume(PYRAMID, face) == 2

    def test_empty_face_rejected(self):
        with pytest.raises(EmptyFace):
            face_volume(QUADRIC, QUADRIC.face_lattice().face([]))

    def test_zero_column_face(self):
        config = Configuration(IntMatrix([[1, 0]]))
        face = config.face_lattice().face([2])
        assert face_volume(config, face) == 1

    def test_pyramid_faces_have_full_volume(self):
        rng = random.Random(21)
        for _ in range(40):
            config = random_configuration(rng, dmax=3, nmax=6)
            vol = normalized_volume(config).volume
            for face in enumerate_faces(config, "dd"):
                if not face.indices:
                    continue
                if is_pyramid(config, face):
                    assert face_volume(config, face) == vol
                else:
                    assert face_volume(config, face) < vol
