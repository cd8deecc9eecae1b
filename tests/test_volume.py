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
from oracles import cofactor_adjugate, fraction_elimination, matmul
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
                det = fraction_elimination(M.data)[1]
                if det != 0:
                    break
            assert _volume_of_matrix(M.columns()).volume == abs(det)
            if abs(det) == 1:
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
            assert normalized_volume(Configuration(matmul(U, config.A))).volume == vol

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
        # The oracle: |det| of each simplex's edge vectors, recomputed by
        # fraction_elimination.
        points = {0: (0,) * A.rows, **{j + 1: col for j, col in enumerate(A.columns())}}
        total = 0
        for simplex, contribution in result.triangulation:
            assert len(simplex) == A.rows + 1
            base = points[simplex[0]]
            rows = [tuple(p - b for p, b in zip(points[v], base)) for v in simplex[1:]]
            assert abs(fraction_elimination(rows)[1]) == contribution > 0
            total += contribution
        assert total == result.volume

    @pytest.mark.parametrize("d", range(1, 8))
    def test_certificate(self, d):
        rng = random.Random(15 + d)
        for _ in range(12):
            while True:
                n = rng.randint(d, d + 4)
                A = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
                if fraction_elimination(A.data)[0] == d:
                    break
            self.assert_certificate(A, volume._volume_of_matrix(A.columns()))
        if d >= 3:
            config = random_homogeneous_configuration(rng, d, d + 6)
            self.assert_certificate(config.A, normalized_volume(config))

    def test_certificate_on_grids(self):
        for A in lifted_grids():
            self.assert_certificate(A, volume._volume_of_matrix(A.columns()))

    @staticmethod
    def spy_on_the_placing(monkeypatch, every_point=()):
        """Record each exchange, the end of the seed and the end of the placing.

        Each exchange's facet forms are checked against the determinant of
        the facet's lifted points (1, x) followed by a point p, the value a
        visibility test (and a new simplex's certificate) reads.  Both sides
        are affine in p, so the simplex's own vertices pin them: the
        determinant is 0 at the facet's vertices and (-1)^(d-m) det at the
        vertex in position m.  Each form is also evaluated at every point of
        every_point.  Returns the events and each exchange's (vertices, forms).
        """
        events, built = [], []
        derive, seed_simplex = cones._derived_forms, cones._seed_simplex
        placing = cones._placing_triangulation

        def checked_derived(parent, parent_det, parent_forms, k, p, i, det):
            events.append("exchange")
            forms = derive(parent, parent_det, parent_forms, k, p, i, det)
            facet = parent[:k] + parent[k + 1:]
            vertices = facet[:i] + [p] + facet[i:]
            assert det == fraction_elimination(vertices)[1]
            d = len(vertices) - 1
            for m, g in enumerate(forms):
                value = (-1) ** (d - m) * det
                assert [sum(map(mul, g, v)) for v in vertices] == [
                    value * (j == m) for j in range(d + 1)
                ]
                for x in every_point:
                    lifted = (1,) + x
                    row = vertices[:m] + vertices[m + 1:] + [lifted]
                    assert sum(map(mul, g, lifted)) == fraction_elimination(row)[1]
            built.append((tuple(vertices), forms))
            return forms

        def seeded(*args):
            result = seed_simplex(*args)
            events.append("seed")
            return result

        def placed(*args):
            result = placing(*args)
            events.append("placed")
            return result

        monkeypatch.setattr(cones, "_derived_forms", checked_derived)
        monkeypatch.setattr(cones, "_seed_simplex", seeded)
        monkeypatch.setattr(volume, "_placing_triangulation", placed)
        return events, built

    @pytest.mark.parametrize(
        "A, every_point",
        [
            (BETA_SWEEP_MATRIX, True),
            (random_homogeneous_configuration(random.Random(5), 7, 18).A, False),
        ],
        ids=["beta_sweep", "wide_cone"],
    )
    def test_every_simplex_takes_its_forms_from_one_exchange(self, monkeypatch, A, every_point):
        # The seed takes d exchanges from the unit simplex; every later
        # simplex derives its facet forms from its parent's, at most once,
        # and nothing runs after the placing.
        points = [(0,) * A.rows] + list(A.columns())
        events, built = self.spy_on_the_placing(monkeypatch, points if every_point else ())
        result = volume._volume_of_matrix(A.columns())
        d = A.rows
        assert events[:d + 1] == ["exchange"] * d + ["seed"] and events[-1] == "placed"
        assert set(events[d + 1:-1]) == {"exchange"}
        lifted = {tuple((1,) + points[v] for v in s) for s, _ in result.triangulation}
        # The seed is the lexicographically first simplex: a smaller label it
        # skips is dependent on the seed labels before it.
        seed, *later = [vertices for vertices, _ in built[d - 1:]]
        assert seed == tuple((1,) + points[v] for v in result.triangulation[0][0])
        assert len(later) == len(set(later)) and seed not in later
        # Forms are derived when a simplex is first tested, and the ones the
        # last point places never are.
        assert set(later) < lifted - {seed}

    @pytest.mark.parametrize("d", range(1, 8))
    def test_a_lone_seed_matches_the_cofactor_adjugate(self, monkeypatch, d):
        # d + 1 points in general position: the seed is the whole
        # triangulation, after d exchanges.  Its forms are the rows of the
        # adjugate of its edge matrix, signed by (-1)^(d-k), with
        # lambda_0 = 1 - sum lambda_k.
        rng = random.Random(40 + d)
        signs = set()
        for _ in range(4):
            while True:
                vertices = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 1)]
                edges = [[v[m] - vertices[0][m] for v in vertices[1:]] for m in range(d)]
                det = fraction_elimination(edges)[1]
                if det:
                    break
            events, built = self.spy_on_the_placing(monkeypatch)
            triangulation = volume._placing_triangulation(dict(enumerate(vertices)), d)[0]
            assert triangulation == ((tuple(range(d + 1)), abs(det)),)
            assert events == ["exchange"] * d + ["seed", "placed"]
            adj = cofactor_adjugate(edges)
            rows = [[-sum(col) for col in zip(*adj)]] + adj
            expected = []
            for k, row in enumerate(rows):
                c = [(-1) ** (d - k) * x for x in row]
                c0 = (-1) ** (d - k) * det * (k == 0) - sum(map(mul, c, vertices[0]))
                expected.append((c0, *c))
            assert built[-1][1] == expected
            signs.add(det > 0)
            monkeypatch.undo()
        assert signs == {True, False}

    @pytest.mark.parametrize("shift", ["one", "det"])
    @pytest.mark.parametrize("corrupt", ["unit", "seed", "derived"])
    def test_a_corrupted_form_is_an_internal_inconsistency(self, monkeypatch, corrupt, shift):
        # Shift the constant term of one form, in turn for each of the d+1
        # facets: of the unit simplex (the first exchange's parent), of the
        # seed or of the first later simplex.  The exchanges that read it must
        # fail, never a volume.  A shift by the simplex's det leaves every
        # division exact, so only the value at the opposite vertex can catch it.
        columns, d = BETA_SWEEP_MATRIX.columns(), BETA_SWEEP_MATRIX.rows
        derive = cones._derived_forms
        at_call = {"unit": 1, "seed": d, "derived": d + 1}[corrupt]
        for k in range(d + 1):
            calls = []

            def corrupted(parent, parent_det, parent_forms, *rest, k=k):
                calls.append(1)
                if corrupt == "unit" and len(calls) == at_call:
                    parent_forms = list(parent_forms)
                    g = parent_forms[k]
                    parent_forms[k] = (g[0] + (parent_det if shift == "det" else 1),) + g[1:]
                forms = derive(parent, parent_det, parent_forms, *rest)
                if corrupt != "unit" and len(calls) == at_call:
                    g = forms[k]
                    forms[k] = (g[0] + (rest[-1] if shift == "det" else 1),) + g[1:]
                return forms

            monkeypatch.setattr(cones, "_derived_forms", corrupted)
            with pytest.raises(InternalInconsistency, match="derived facet form"):
                volume._volume_of_matrix(columns)
            assert len(calls) > at_call or corrupt == "unit"

    def test_an_inexact_derivation_is_an_internal_inconsistency(self, monkeypatch):
        # Adding x_m - q_m to the parent form opposite q keeps the derived
        # form's value at q.  Whenever that leaves the division inexact, the
        # exchange must raise: the seed's exchanges and the later ones.
        calls, derive = [], cones._derived_forms
        monkeypatch.setattr(
            cones, "_derived_forms", lambda *args: calls.append(args) or derive(*args)
        )
        volume._volume_of_matrix(BETA_SWEEP_MATRIX.columns())
        inexact = [0, 0]
        for call, (parent, parent_det, parent_forms, k, p, i, det) in enumerate(calls):
            for j, q in enumerate(parent):
                for m in range(1, len(q)) if j != k else ():
                    forms = list(parent_forms)
                    forms[j] = tuple(x + (n == m) - (n == 0) * q[m] for n, x in enumerate(forms[j]))
                    v, w = (sum(map(mul, f, p)) for f in (forms[k], forms[j]))
                    if any((v * x - w * y) % parent_det for x, y in zip(forms[j], forms[k])):
                        inexact[call >= BETA_SWEEP_MATRIX.rows] += 1
                        with pytest.raises(InternalInconsistency, match="derived facet form"):
                            derive(parent, parent_det, forms, k, p, i, det)
        assert inexact[0] > 0 and inexact[1] > 100

    def test_flat_simplex_is_an_internal_inconsistency(self, monkeypatch):
        # Every simplex of a placing triangulation is full-dimensional; a
        # zero determinant is a bug, reported as exit 3 on the CLI.
        derive = cones._derived_forms
        monkeypatch.setattr(cones, "_derived_forms", lambda *args: derive(*args[:-1], 0))
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

    @pytest.mark.parametrize("source", ["random", "beta_sweep"])
    def test_independent_distinct_columns_make_a_unimodular_face(self, monkeypatch, source):
        # Independent distinct nonzero columns are a basis of the lattice they
        # generate: face_volume reads 1 without a triangulation, and the
        # triangulation agrees.  Every other proper face is triangulated.
        if source == "random":
            rng = random.Random(1913)
            configs = [random_configuration(rng, dmax=5, nmax=8) for _ in range(60)]
        else:
            configs = [Configuration(BETA_SWEEP_MATRIX)]
        calls, original = [], volume._volume_of_matrix
        monkeypatch.setattr(
            volume, "_volume_of_matrix", lambda columns: calls.append(columns) or original(columns)
        )
        unimodular = triangulated = 0
        for config in configs:
            for face in config.face_lattice()[:-1]:
                if not face.indices:
                    continue
                columns = {config.column(j) for j in face.indices} - {(0,) * config.d}
                independent = fraction_elimination(list(columns))[0] == len(columns)
                before = len(calls)
                result = face_volume(config, face)
                if independent:
                    coordinates, _ = cones._hermite_reduce([config.column(j) for j in face.indices])
                    assert result == 1 == original(coordinates).volume
                    assert len(calls) == before
                    unimodular += 1
                else:
                    assert len(calls) == before + 1
                    triangulated += 1
        assert unimodular > 100 and triangulated > 5

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
    replay these digests exactly.  FACES has no triangulation of a face whose
    distinct nonzero columns are independent: face_volume answers 1 for it
    without one.
    """

    RANDOM = "e05cbf5a77588f145f3ae21a9e124f493419bd8a86f10ee5ecf9794eb7ddcd82"
    GRIDS = "6ab4240b9e96139375e80614cb5cc3b52e3e53b38ce2ae823e25799c584a44e9"
    CONES = "9eb3c2873e8abc26d72b2ac1725bfb9e4341712b553ffe0bd25969086febbe63"
    FACES = "7eac647a6e7a29afdca05d2f89e46c537e2f39b570fe8c58a15ffd8c06465a90"

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
        # Records every triangulation that face_volume reads, in call order:
        # a reduced face's own, and the full face's from the configuration's
        # hull (normalized_volume, read once per configuration here).
        h = hashlib.sha256()

        def recorded(original):
            def record(*args):
                result = original(*args)
                self.update(h, result)
                return result

            return record

        monkeypatch.setattr(volume, "_volume_of_matrix", recorded(volume._volume_of_matrix))
        monkeypatch.setattr(volume, "normalized_volume", recorded(volume.normalized_volume))
        rng = random.Random(1905)
        for _ in range(50):
            config = random_configuration(rng, dmax=4, nmax=7)
            for face in config.face_lattice():
                if face.indices:
                    h.update(repr((face.indices, face_volume(config, face))).encode())
        assert h.hexdigest() == self.FACES
