import hashlib
import random
from collections import Counter
from itertools import combinations, permutations, product
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
from oracles import cofactor_adjugate, fraction_elimination, matmul, triangulation_failures
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
    def spy_on_the_placing(monkeypatch):
        """Record each derivation, the end of the seed and the end of the placing.

        A derivation is one call of the exact horizon rule (cones._horizon_form):
        the seed's exchanges and the placing's new boundary facets both take
        their forms from it.  Returns the events, each derivation's arguments
        and the final boundary (facet -> inner form) of each placing.
        """
        events, derivations, boundaries = [], [], []
        horizon, seed_simplex = cones._horizon_form, cones._seed_simplex
        placing = cones._placing_triangulation

        def derived(*args):
            events.append("derive")
            derivations.append(args)
            return horizon(*args)

        def seeded(*args):
            result = seed_simplex(*args)
            events.append("seed")
            return result

        def placed(*args):
            result = placing(*args)
            events.append("placed")
            boundaries.append(result[1])
            return result

        monkeypatch.setattr(cones, "_horizon_form", derived)
        monkeypatch.setattr(cones, "_seed_simplex", seeded)
        monkeypatch.setattr(cones, "_placing_triangulation", placed)
        return events, derivations, boundaries

    @staticmethod
    def derivation_points(triangulation, d):
        """The label of the point p of each derivation, in call order, from the triangulation.

        The seed is the lexicographically first simplex (a smaller label it
        skips depends on the seed labels before it), and derives d forms for
        each of its labels after the first.  A later point derives one form
        per facet through it that exactly one of its simplices has (its
        simplices: those whose largest label it is).
        """
        (seed, _), *later = triangulation
        labels = [p for p in seed[1:] for _ in range(d)]
        through_p = Counter(s[:m] + s[m + 1:] for s, _ in later for m in range(d))
        return labels + sorted(facet[-1] for facet, count in through_p.items() if count == 1)

    @staticmethod
    def assert_inner_forms(points, boundary, every_point):
        """Each kept form is +-det(its facet's lifted points, then (1, x)), >= 0 at every point.

        Every form must vanish on its facet and be nonnegative at every point;
        with every_point the determinant itself is recomputed at every point
        (fraction_elimination), and the form must be its absolute value.
        """
        lifted = [(1,) + x for x in points]
        for facet, form in boundary.items():
            values = [sum(map(mul, form, x)) for x in lifted]
            assert min(values) >= 0 and [values[v] for v in facet] == [0] * len(facet)
            if every_point:
                dets = [fraction_elimination([lifted[v] for v in facet] + [x])[1] for x in lifted]
                assert values == [abs(det) for det in dets]
                assert min(dets) >= 0 or max(dets) <= 0

    @pytest.mark.parametrize(
        "A, every_point",
        [
            (BETA_SWEEP_MATRIX, True),
            (random_homogeneous_configuration(random.Random(5), 7, 18).A, False),
        ],
        ids=["beta_sweep", "wide_cone"],
    )
    def test_every_simplex_takes_its_forms_from_one_exchange(self, monkeypatch, A, every_point):
        # The seed takes d exchanges from the unit simplex, each deriving the d
        # forms of the facets through the entering point.  After it, each new
        # boundary facet derives its one form at its horizon ridge, counted
        # off the triangulation (derivation_points), and nothing runs after
        # the placing.
        points = [(0,) * A.rows] + list(A.columns())
        events, _, boundaries = self.spy_on_the_placing(monkeypatch)
        result = volume._volume_of_matrix(A.columns())
        d = A.rows
        horizon = len(self.derivation_points(result.triangulation, d)) - d * d
        assert events == ["derive"] * (d * d) + ["seed"] + ["derive"] * horizon + ["placed"]
        assert horizon > d
        # The kept forms: one per facet of exactly one simplex, the boundary.
        facets = Counter(f for s, _ in result.triangulation for f in combinations(s, d))
        (boundary,) = boundaries
        assert set(boundary) == {f for f, count in facets.items() if count == 1}
        self.assert_inner_forms(points, boundary, every_point)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_a_lone_seed_matches_the_cofactor_adjugate(self, monkeypatch, d):
        # d + 1 points in general position: the seed is the whole
        # triangulation, after d exchanges of d derivations each.  Its
        # determinant forms are the rows of the adjugate of its edge matrix,
        # signed by (-1)^(d-k), with lambda_0 = 1 - sum lambda_k; the boundary
        # keeps each with the sign that is positive at its opposite vertex.
        rng = random.Random(40 + d)
        signs = set()
        for _ in range(4):
            while True:
                vertices = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 1)]
                edges = [[v[m] - vertices[0][m] for v in vertices[1:]] for m in range(d)]
                det = fraction_elimination(edges)[1]
                if det:
                    break
            events, _, boundaries = self.spy_on_the_placing(monkeypatch)
            triangulation = cones._placing_triangulation(dict(enumerate(vertices)), d)[0]
            assert triangulation == ((tuple(range(d + 1)), abs(det)),)
            assert events == ["derive"] * (d * d) + ["seed", "placed"]
            adj = cofactor_adjugate(edges)
            rows = [[-sum(col) for col in zip(*adj)]] + adj
            expected = {}
            for k, row in enumerate(rows):
                c = [(-1) ** (d - k) * x for x in row]
                c0 = (-1) ** (d - k) * det * (k == 0) - sum(map(mul, c, vertices[0]))
                sign = 1 if (-1) ** (d - k) * det > 0 else -1
                expected[tuple(j for j in range(d + 1) if j != k)] = tuple(
                    sign * x for x in (c0, *c)
                )
            assert boundaries[-1] == expected
            signs.add(det > 0)
            monkeypatch.undo()
        assert signs == {True, False}

    @pytest.mark.parametrize("shift", ["one", "det"])
    @pytest.mark.parametrize("corrupt", ["unit", "seed", "derived"])
    def test_a_corrupted_form_is_an_internal_inconsistency(self, monkeypatch, corrupt, shift):
        # Shift the constant term of one form, in turn for d+1 of them: of the
        # unit simplex as the first exchange reads it (the form p sees, then
        # each other one), of the seed, or of the first d+1 forms derived
        # after the seed.  The derivations that read it must fail, never a
        # volume.  A shift by the divisor that reads a seen form (the parent's
        # |det| in an exchange) leaves the division exact, so only the value at
        # u can catch it; a derived form is shifted by its value at u.
        columns, d = BETA_SWEEP_MATRIX.columns(), BETA_SWEEP_MATRIX.rows
        horizon, seed_simplex = cones._horizon_form, cones._seed_simplex
        at_call = {"unit": 0, "seed": d * d, "derived": d * d + 1}[corrupt]

        def shifted(form, value, by):
            by = by if shift == "det" else 1
            return (form[0] + by,) + tuple(form[1:]), value + by

        for t in range(d + 1):
            calls = []

            def derived(seen, seen_p, hidden, hidden_p, u, t=t):
                calls.append(1)
                if corrupt == "unit" and len(calls) <= d:
                    divisor = sum(map(mul, hidden, u))
                    if t == 0:
                        seen, seen_p = shifted(seen, seen_p, divisor)
                    elif len(calls) == t:
                        hidden, hidden_p = shifted(hidden, hidden_p, divisor)
                form = horizon(seen, seen_p, hidden, hidden_p, u)
                if corrupt == "derived" and len(calls) == at_call + t:
                    form = shifted(form, 0, -seen_p)[0]
                return form

            def seeded(*args, t=t):
                seed, det, forms = seed_simplex(*args)
                if corrupt == "seed":
                    forms = list(forms)
                    forms[t] = shifted(forms[t], 0, det)[0]
                return seed, det, forms

            monkeypatch.setattr(cones, "_horizon_form", derived)
            monkeypatch.setattr(cones, "_seed_simplex", seeded)
            with pytest.raises(InternalInconsistency, match="derived facet form"):
                volume._volume_of_matrix(columns)
            assert len(calls) > at_call + (t if corrupt == "derived" else 0)

    def test_an_inexact_derivation_is_an_internal_inconsistency(self, monkeypatch):
        # Adding x_m - u_m to the seen or the hidden form keeps its value at u.
        # Whenever that leaves the division inexact, the derivation must
        # raise: in the seed's exchanges and at the later horizons.
        A, d = BETA_SWEEP_MATRIX, BETA_SWEEP_MATRIX.rows
        _, derivations, _ = self.spy_on_the_placing(monkeypatch)
        triangulation = volume._volume_of_matrix(A.columns()).triangulation
        monkeypatch.undo()
        points = [(1,) + p for p in [(0,) * d] + list(A.columns())]
        labels = self.derivation_points(triangulation, d)
        assert len(labels) == len(derivations)
        inexact = [0, 0]
        for call, (label, (seen, seen_p, hidden, hidden_p, u)) in enumerate(
            zip(labels, derivations)
        ):
            p = points[label]
            assert (sum(map(mul, seen, p)), sum(map(mul, hidden, p))) == (seen_p, hidden_p)
            divisor = sum(map(mul, hidden, u))
            for which, m in product((0, 1), range(1, d + 1)):
                forms = [list(seen), list(hidden)]
                forms[which][m] += 1
                forms[which][0] -= u[m]
                (s, h), (s_p, h_p) = forms, [sum(map(mul, f, p)) for f in forms]
                if any((h_p * x - s_p * y) % divisor for x, y in zip(s, h)):
                    inexact[call >= d * d] += 1
                    with pytest.raises(InternalInconsistency, match="derived facet form"):
                        cones._horizon_form(tuple(s), s_p, tuple(h), h_p, u)
        assert inexact[0] > 0 and inexact[1] > 100

    def test_a_divisor_that_is_not_positive_is_an_internal_inconsistency(self):
        # hidden(u) is |det| of the ridge with the two vertices off it: 0 when
        # the ridge's facets are coplanar, never a ZeroDivisionError.
        seen, u = (0, 1, 0), (1, 0, 1)  # x -> x_1 vanishes at u
        for hidden in [(0, 0, 0), (0, 1, 0), (1, 0, -2)]:
            assert sum(map(mul, hidden, u)) <= 0
            with pytest.raises(InternalInconsistency, match="flat simplex"):
                cones._horizon_form(seen, -1, hidden, 1, u)

    def test_a_ridge_off_two_facets_is_an_internal_inconsistency(self, monkeypatch):
        # A seed that keeps only d of its d+1 facets leaves every ridge of the
        # dropped one in a single facet; the first point that sees a kept
        # facet reads one, and never raises a KeyError.
        seed_simplex = cones._seed_simplex

        def dropped(*args):
            seed, det, forms = seed_simplex(*args)
            return seed, det, forms[:-1]

        monkeypatch.setattr(cones, "_seed_simplex", dropped)
        with pytest.raises(InternalInconsistency, match="not in exactly two facets"):
            volume._volume_of_matrix(BETA_SWEEP_MATRIX.columns())

    def test_flat_simplex_is_an_internal_inconsistency(self, monkeypatch):
        # Every simplex of a placing triangulation is full-dimensional: a
        # derivation whose hidden facet meets u (a zero divisor) is a bug,
        # reported as exit 3 on the CLI.
        horizon = cones._horizon_form
        monkeypatch.setattr(
            cones, "_horizon_form", lambda seen, seen_p, *rest: horizon(seen, seen_p, seen, *rest[1:])
        )
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
            volume, "_volume_of_matrix",
            lambda columns, y: calls.append(columns) or original(columns, y),
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


class TestTriangulationChecker:
    """The placing triangulation against the triangulation axioms
    (oracles.triangulation_failures), which prove the volume without the
    placing order."""

    @staticmethod
    def checked(columns, d):
        points = dict(enumerate([(0,) * d, *columns]))
        return triangulation_failures(points, volume._volume_of_matrix(columns).triangulation)

    def test_random_configurations(self):
        # Signed entries give non-pointed cones; a column is duplicated or a
        # zero column inserted in two of every three inputs.
        rng = random.Random(2010)
        for k in range(150):
            config = random_configuration(rng, dmax=5, nmax=9, lo=-3 if k % 2 else 0)
            columns = list(config.A.columns())
            if k % 3 == 1:
                columns.insert(rng.randrange(len(columns) + 1), rng.choice(columns))
            elif k % 3 == 2:
                columns.insert(rng.randrange(len(columns) + 1), (0,) * config.d)
            assert self.checked(columns, config.d) == [], columns

    def test_seed_five_cone(self):
        config = random_homogeneous_configuration(random.Random(5), 7, 18)
        assert self.checked(config.A.columns(), 7) == []

    @pytest.mark.parametrize("d, n", [(3, 12), (4, 12), (5, 10), (5, 12), (6, 12)])
    def test_moment_cones(self, d, n):
        A = IntMatrix([[t ** i for t in range(n)] for i in range(d)])
        config = cones.reduce_configuration(A, [0] * d)[0]
        assert self.checked(config.A.columns(), d) == []

    def test_a_dropped_or_swapped_simplex_fails(self):
        # The checker itself: dropping a simplex, giving one another |det|,
        # or moving one vertex to another point (with that simplex's true
        # |det|) must each break an axiom.
        A = BETA_SWEEP_MATRIX
        points = dict(enumerate([(0,) * A.rows, *A.columns()]))
        triangulation = list(volume._volume_of_matrix(A.columns()).triangulation)
        assert len(triangulation) > 2 and triangulation_failures(points, triangulation) == []
        for k, (simplex, det) in enumerate(triangulation):
            assert triangulation_failures(points, triangulation[:k] + triangulation[k + 1:])
            assert triangulation_failures(points, [*triangulation[:k], (simplex, det + 1),
                                                   *triangulation[k + 1:]])
            for label in set(points) - set(simplex):
                moved = tuple(sorted(simplex[1:] + (label,)))
                edges = [[a - b for a, b in zip(points[v], points[moved[0]])] for v in moved[1:]]
                moved_det = abs(fraction_elimination(edges)[1])
                if moved_det:
                    swapped = [*triangulation[:k], (moved, moved_det), *triangulation[k + 1:]]
                    assert triangulation_failures(points, swapped), (simplex, moved)


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
