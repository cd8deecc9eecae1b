import hashlib
import random
from itertools import permutations, product
from operator import mul

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
from sweeps import (
    BETA_SWEEP_MATRIX,
    face_of,
    random_configuration,
    random_homogeneous_configuration,
    random_unimodular,
)

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


def lifted_grids():
    """Point sets with many coplanar points: lifted grids, boxes and their subsets."""
    rng = random.Random(1907)
    shapes = [(k,) for k in range(1, 7)] + [(2, 2), (3, 3), (4, 4), (2, 5), (1, 3), (3, 1)]
    shapes += [(1, 1, 1), (2, 2, 2), (1, 2, 3), (2, 1, 1)]
    grids = []
    for shape in shapes:
        points = [(1,) + x for x in product(*(range(k + 1) for k in shape))]
        grids.append(points)
        # Unlifted and centred: the origin lies in the box.
        grids.append([tuple(c - k // 2 for c, k in zip(x[1:], shape)) for x in points])
    for _ in range(8):
        shape = (rng.randint(2, 4), rng.randint(2, 4))
        points = [(1,) + x for x in product(*(range(k + 1) for k in shape))]
        keep = [x for x in points if rng.random() < 0.6]
        grids.append(keep + points[:1] + points[-1:] + [(1, shape[0], 0), (1, 0, shape[1])])
    return [IntMatrix.from_columns(points, len(points[0])) for points in grids]


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
            assert _volume_of_matrix(M.columns()).volume == abs(M.det())
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

    @staticmethod
    def assert_certificate(A, result):
        # The oracle: |det| of each simplex's edge vectors, recomputed with
        # IntMatrix.det.
        points = {0: (0,) * A.rows, **{j + 1: col for j, col in enumerate(A.columns())}}
        total = 0
        for simplex, contribution in result.triangulation:
            assert len(simplex) == A.rows + 1
            base = points[simplex[0]]
            rows = [tuple(p - b for p, b in zip(points[v], base)) for v in simplex[1:]]
            assert abs(IntMatrix(rows).det()) == contribution > 0
            total += contribution
        assert total == result.volume

    @pytest.mark.parametrize("d", range(1, 8))
    def test_certificate(self, d):
        rng = random.Random(15 + d)
        for _ in range(12):
            while True:
                n = rng.randint(d, d + 4)
                A = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
                if A.rank() == d:
                    break
            self.assert_certificate(A, volume._volume_of_matrix(A.columns()))
        if d >= 3:
            config = random_homogeneous_configuration(rng, d, d + 6)
            self.assert_certificate(config.A, normalized_volume(config))

    def test_certificate_on_grids(self):
        for A in lifted_grids():
            self.assert_certificate(A, volume._volume_of_matrix(A.columns()))

    @staticmethod
    def spy_on_the_placing(monkeypatch, A, every_point=False):
        """Record the seed determinant, the adjugate, each derivation and the end of the placing.

        Each simplex's facet forms, from the adjugate or derived from its
        parent's, are checked against the edge determinant of the facet's
        points followed by a point p, the value a visibility test (and a new
        simplex's certificate) reads.  Both sides are affine in p, so the
        simplex's own vertices pin them: the determinant is 0 at the facet's
        vertices and (-1)^(d-k) det at the dropped one.  With every_point,
        each form is also evaluated at every point.
        """
        events, built = [], []
        edge_det, forms_of, derive = volume._edge_det, volume._facet_forms, volume._derived_forms
        adjugate, placing = volume.adjugate_int, volume._placing_triangulation
        points = [(0,) * A.rows] + list(A.columns())

        def counted(vertices):
            events.append("det")
            return edge_det(vertices)

        def counted_adjugate(rows, det):
            events.append("adjugate")
            return adjugate(rows, det)

        def checked(vertices, det, forms):
            assert det == edge_det(vertices)
            built.append(tuple(vertices))
            d = len(vertices) - 1
            for k, (c0, c, positive) in enumerate(forms):
                value = (-1) ** (d - k) * det
                assert [c0 + sum(map(mul, c, v)) for v in vertices] == [
                    value * (j == k) for j in range(d + 1)
                ]
                assert positive == (value > 0)
                facet = vertices[:k] + vertices[k + 1:]
                for p in points if every_point else ():
                    assert c0 + sum(map(mul, c, p)) == edge_det(facet + [p])
            return forms

        def checked_forms(vertices, det):
            return checked(vertices, det, forms_of(vertices, det))

        def checked_derived(vertices, det, *parent):
            events.append("derived")
            return checked(vertices, det, derive(vertices, det, *parent))

        def placed(points, d):
            result = placing(points, d)
            events.append("placed")
            return result

        monkeypatch.setattr(volume, "_edge_det", counted)
        monkeypatch.setattr(volume, "adjugate_int", counted_adjugate)
        monkeypatch.setattr(volume, "_facet_forms", checked_forms)
        monkeypatch.setattr(volume, "_derived_forms", checked_derived)
        monkeypatch.setattr(volume, "_placing_triangulation", placed)
        return events, built, points

    @pytest.mark.parametrize(
        "A, every_point",
        [
            (BETA_SWEEP_MATRIX, True),
            (random_homogeneous_configuration(random.Random(5), 7, 18).A, False),
        ],
        ids=["beta_sweep", "wide_cone"],
    )
    def test_visibility_tests_read_one_adjugate_per_simplex(self, monkeypatch, A, every_point):
        # One determinant and one adjugate for the seed simplex; every later
        # simplex derives its facet forms from its parent's, at most once,
        # and nothing runs after the placing.
        events, built, points = self.spy_on_the_placing(monkeypatch, A, every_point)
        result = volume._volume_of_matrix(A.columns())
        placed = {tuple(points[v] for v in s) for s, _ in result.triangulation}
        assert events[:2] == ["det", "adjugate"] and events[-1] == "placed"
        assert set(events[2:-1]) == {"derived"}
        assert len(built) == 1 + events.count("derived") == len(set(built))
        # Forms are derived when a simplex is first tested, and the ones the
        # last point places never are.
        assert set(built) < placed

    @pytest.mark.parametrize("shift", ["one", "det"])
    @pytest.mark.parametrize("corrupt", ["seed", "derived"])
    def test_a_corrupted_parent_form_is_an_internal_inconsistency(
        self, monkeypatch, corrupt, shift
    ):
        # Shift c0 of one form of one parent, in turn for each of its d+1
        # facets: the derivations that read it must fail, never a volume.
        # A shift by the parent's det leaves every division exact, so only
        # the value at the opposite vertex can catch it.
        columns = BETA_SWEEP_MATRIX.columns()
        name = "_facet_forms" if corrupt == "seed" else "_derived_forms"
        original = getattr(volume, name)
        for k in range(BETA_SWEEP_MATRIX.rows + 1):
            calls = []

            def corrupted(vertices, det, *parent, k=k):
                forms = original(vertices, det, *parent)
                calls.append(1)
                if len(calls) == 1:
                    c0, c, positive = forms[k]
                    forms[k] = (c0 + (det if shift == "det" else 1), c, positive)
                return forms

            monkeypatch.setattr(volume, name, corrupted)
            with pytest.raises(InternalInconsistency, match="derived facet form"):
                volume._volume_of_matrix(columns)

    def test_an_inexact_derivation_is_an_internal_inconsistency(self, monkeypatch):
        # Adding x_m - q_m to the parent form opposite q keeps the derived
        # form's value at q.  Whenever that leaves the division inexact, the
        # derivation must raise.
        calls, derive = [], volume._derived_forms
        monkeypatch.setattr(
            volume, "_derived_forms", lambda *args: calls.append(args) or derive(*args)
        )
        volume._volume_of_matrix(BETA_SWEEP_MATRIX.columns())
        inexact = 0
        for vertices, det, parent, parent_det, parent_forms, k in calls:
            p = (1,) + next(x for x in vertices if x not in parent)
            for j, q in enumerate(parent):
                for m in range(1, len(q)) if j != k else ():
                    forms = list(parent_forms)
                    c0, c, positive = forms[j]
                    forms[j] = (c0 - q[m], tuple(x + (i == m) for i, x in enumerate(c)), positive)
                    f_j, f_k = [(f[0],) + f[1] for f in (forms[j], forms[k])]
                    v, w = (sum(map(mul, f, p)) for f in (f_k, f_j))
                    if any((v * x - w * y) % parent_det for x, y in zip(f_j, f_k)):
                        inexact += 1
                        with pytest.raises(InternalInconsistency, match="derived facet form"):
                            derive(vertices, det, parent, parent_det, forms, k)
        assert inexact > 100

    @pytest.mark.parametrize("d", range(1, 7))
    def test_a_lone_simplex_makes_no_adjugate(self, monkeypatch, d):
        # d columns and the origin: the seed is the whole triangulation.
        rng = random.Random(40 + d)
        while True:
            A = IntMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
            if A.det():
                break
        events, built, _ = self.spy_on_the_placing(monkeypatch, A)
        assert volume._volume_of_matrix(A.columns()).volume == abs(A.det())
        assert events == ["det", "placed"] and built == []

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
        full = QUADRIC.face_lattice()[-1]
        assert face_volume(QUADRIC, full) == 2

    def test_ray(self):
        assert face_volume(QUADRIC, face_of(QUADRIC, [1])) == 1

    def test_full_face_is_the_hermite_path_volume(self):
        # The Hermite reduction that the full face skips, kept as a reference.
        rng = random.Random(109)
        for _ in range(30):
            config = random_configuration(rng, dmax=4, nmax=7)
            reduced, _ = cones._hermite_reduce(config.A.columns())
            reference = volume._volume_of_matrix(reduced).volume
            assert face_volume(config, config.face_lattice()[-1]) == reference

    def test_full_face_runs_no_hermite_reduction(self, monkeypatch):
        calls = []
        original = volume._hermite_reduce

        def spy(A):
            calls.append(A)
            return original(A)

        monkeypatch.setattr(volume, "_hermite_reduce", spy)
        for config in (QUADRIC, CUBIC, PYRAMID):
            fresh = Configuration(IntMatrix(config.A.data))
            assert face_volume(fresh, fresh.face_lattice()[-1]) == generic_rank(fresh)
        assert calls == []
        fresh = Configuration(IntMatrix(PYRAMID.A.data))
        assert face_volume(fresh, face_of(fresh, [1, 2, 3])) == 2
        assert len(calls) == 1

    def test_volume_is_taken_in_the_generated_lattice(self):
        # Face {1,2} lies in the plane x3 = 0, where its columns (1,0) and
        # (1,2) generate an index-2 sublattice of the saturated lattice Z^2:
        # volume 1 in the generated lattice, 2 in the saturated one.
        config = Configuration(IntMatrix([[1, 1, 0, 0], [0, 2, 0, 1], [0, 0, 1, 1]]))
        face = face_of(config, [1, 2])
        assert face_volume(config, face) == 1
        assert volume._volume_of_matrix([(1, 0), (1, 2)]).volume == 2

    def test_pyramid_face_reduces_to_quadric(self):
        face = face_of(PYRAMID, [1, 2, 3])
        assert face_volume(PYRAMID, face) == 2

    def test_empty_face_rejected(self):
        with pytest.raises(EmptyFace):
            face_volume(QUADRIC, face_of(QUADRIC, []))

    def test_zero_column_face(self):
        config = Configuration(IntMatrix([[1, 0]]))
        face = face_of(config, [2])
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


class TestTriangulationDigest:
    """sha256 over (volume, triangulation) of every placing triangulation.

    Recorded from the placing triangulation that kept each boundary facet's
    inner vertex and took a second determinant per visibility test.
    The triangulation depends only on the insertion order and exact
    orientation signs, so any rewrite of the placing triangulation must
    replay these digests exactly.
    """

    RANDOM = "e05cbf5a77588f145f3ae21a9e124f493419bd8a86f10ee5ecf9794eb7ddcd82"
    GRIDS = "6ab4240b9e96139375e80614cb5cc3b52e3e53b38ce2ae823e25799c584a44e9"
    CONES = "9eb3c2873e8abc26d72b2ac1725bfb9e4341712b553ffe0bd25969086febbe63"
    FACES = "0cc227cd7a3beb4fa48f248a40b845e44d92e747d6a3e4d799ca2b99fa3a8200"

    @staticmethod
    def update(h, result):
        h.update(repr((result.volume, result.triangulation)).encode())

    def test_random_configurations(self):
        # Signed entries give non-pointed cones; columns are duplicated or
        # zero columns inserted in two of every three inputs.
        h = hashlib.sha256()
        rng = random.Random(1901)
        pointed = 0
        for k in range(200):
            config = random_configuration(rng, dmax=5, nmax=8, lo=-3 if k % 2 else 0)
            pointed += config.lineality_columns == ()
            columns = list(config.A.columns())
            if k % 3 == 1:
                columns.insert(rng.randrange(len(columns) + 1), rng.choice(columns))
            elif k % 3 == 2:
                columns.insert(rng.randrange(len(columns) + 1), (0,) * config.d)
            self.update(h, volume._volume_of_matrix(columns))
        assert 50 < pointed < 150
        assert h.hexdigest() == self.RANDOM

    def test_lifted_grids(self):
        h = hashlib.sha256()
        for A in lifted_grids():
            self.update(h, volume._volume_of_matrix(A.columns()))
        assert h.hexdigest() == self.GRIDS

    def test_homogeneous_cones(self):
        h = hashlib.sha256()
        rng = random.Random(1903)
        for d, n in ((6, 10), (6, 12), (6, 14), (7, 12), (7, 14), (7, 16)):
            config = random_homogeneous_configuration(rng, d, n)
            self.update(h, volume._volume_of_matrix(config.A.columns()))
        assert h.hexdigest() == self.CONES

    def test_face_volumes(self, monkeypatch):
        # Records every triangulation that face_volume runs, in call order.
        h = hashlib.sha256()
        original = volume._volume_of_matrix

        def record(A):
            result = original(A)
            self.update(h, result)
            return result

        monkeypatch.setattr(volume, "_volume_of_matrix", record)
        rng = random.Random(1905)
        for _ in range(50):
            config = random_configuration(rng, dmax=4, nmax=7)
            for face in config.face_lattice():
                if face.indices:
                    h.update(repr((face.indices, face_volume(config, face))).encode())
        assert h.hexdigest() == self.FACES
