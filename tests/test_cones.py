import hashlib
import random
from fractions import Fraction
from itertools import combinations
from operator import add, mul

import pytest

from gkzmono import (
    BetaOutsideSpan,
    Configuration,
    DimensionMismatch,
    Face,
    GaussRat,
    InputError,
    IntMatrix,
    InternalInconsistency,
    LatticeNotSaturated,
    RankDeficient,
    ScaleLimit,
    cones,
    enumerate_faces,
    face_functionals,
    face_volume,
    fourier_motzkin_point,
    hermite_normal_form,
    is_face,
    is_pyramid,
    kernel_lattice_basis,
    normalized_volume,
    reduce_configuration,
    volume,
)
from gkzmono.cones import per_configuration
from oracles import (
    face_lattice_axiom_failures,
    facets_by_double_description,
    facets_by_subset_normals,
    feasible_point_by_minimal_faces,
    fraction_elimination,
    matmul,
    perp_lattice_by_hermite_forms,
    solve_rational,
    triangulated_face_volume,
    triangulation_failures,
)
from sweeps import (
    BETA_SWEEP_MATRIX,
    DENSE_FIVE_BY_EIGHT,
    random_configuration,
    random_confluent_configuration,
    random_homogeneous_configuration,
    random_unimodular,
)

QUADRIC = IntMatrix([[1, 1, 1], [0, 1, 2]])


def is_cone_facet(points, facet):
    """Whether a boundary facet of the hull's placing gives a cone facet.

    When the origin is placed (label 0, column j is j), those are the facets
    through it; a homogeneous configuration places its columns alone, in
    their hyperplane, and every boundary facet is one.
    """
    return 0 not in points or facet[:1] == (0,)


def corrupt_a_boundary_form(monkeypatch, change, facet=None):
    """Make the hull read change(form) for one boundary facet that gives a cone facet.

    The facet is a tuple of labels; by default it is the first such one the
    placing reports.
    """
    placing = cones._placing_triangulation

    def corrupted(points, d):
        triangulation, boundary = placing(points, d)
        f = facet or next(f for f in boundary if is_cone_facet(points, f))
        return triangulation, {**boundary, f: change(boundary[f])}

    monkeypatch.setattr(cones, "_placing_triangulation", corrupted)


def hull_placing(config):
    """(points, final boundary) of the one placing that cones._hull runs for config."""
    runs, placing = [], cones._placing_triangulation

    def recorded(points, d):
        runs.append((points, placing(points, d)))
        return runs[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cones, "_placing_triangulation", recorded)
        cones._hull(config)
    ((points, (_, boundary)),) = runs
    return points, boundary


def flip(form):
    return tuple(-x for x in form)


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
        assert (c.d, c.n) == (2, 3)
        assert c.column(1) == (1, 0)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            Configuration(IntMatrix([[1, 2], [2, 4]]))

    def test_unsaturated(self):
        with pytest.raises(LatticeNotSaturated):
            Configuration(IntMatrix([[2, 0], [0, 1]]))

    def test_pointedness(self):
        # Pointed iff the empty set is a face iff no column is in the lineality space.
        for A, pointed in (
            (QUADRIC, True),
            (IntMatrix([[1, -1]]), False),
            # zero columns block strict positivity, hence "not pointed" here
            (IntMatrix([[1, 0]]), False),
        ):
            config = Configuration(A)
            assert (config.face_lattice()[0].indices == ()) == pointed
            assert (config.lineality_columns == ()) == pointed

    def test_lineality_columns(self):
        assert Configuration(QUADRIC).lineality_columns == ()
        assert Configuration(IntMatrix([[1, -1]])).lineality_columns == (1, 2)
        assert Configuration(IntMatrix([[1, 0]])).lineality_columns == (2,)

    def test_lineality_columns_read_only_the_facets(self, monkeypatch):
        hull_runs, enumerations = [], []
        hull, enumerate_ = cones._hull.__wrapped__, cones.enumerate_faces
        monkeypatch.setattr(
            cones, "_hull", per_configuration(lambda c: hull_runs.append(c) or hull(c))
        )
        monkeypatch.setattr(
            cones, "enumerate_faces", lambda *args: enumerations.append(args) or enumerate_(*args)
        )
        for A, columns in (
            (BETA_SWEEP_MATRIX, ()),
            (QUADRIC, ()),
            (IntMatrix([[1, -1]]), (1, 2)),
            (IntMatrix([[1, 0]]), (2,)),
            (IntMatrix([[1, -1, 0], [0, 0, 1]]), (1, 2)),  # one facet
            (IntMatrix(DENSE_FIVE_BY_EIGHT), tuple(range(1, 9))),  # no facet
        ):
            config = Configuration(A)
            assert config.lineality_columns == columns
            assert config.lineality_columns == columns
            assert hull_runs == [config]
            hull_runs.clear()
        assert enumerations == []

    def test_the_grading_is_read_off_validation(self):
        # y . a_j = 1 on every column has a solution iff appending a row of
        # ones keeps the rank (the columns span Q^d, so it is unique); then
        # validation's carried column reads it, else _grading is None.
        rng = random.Random(3301)
        configs = [random_configuration(rng, dmax=4, nmax=7, lo=-2 * (k % 2), hi=2)
                   for k in range(150)]
        for _ in range(50):  # homogeneous, the grading moved off e_1 by a row change
            d = rng.randint(2, 4)
            A = random_homogeneous_configuration(rng, d, d + 3).A
            configs.append(Configuration(matmul(random_unimodular(rng, d), A)))
        homogeneous = 0
        for config in configs:
            ones = fraction_elimination([*config.A.data, [1] * config.n])[0]
            y = config._grading
            assert (y is not None) == (ones == config.d)
            if y is not None:
                homogeneous += 1
                assert all(sum(map(mul, y, a)) == 1 for a in config.A.columns())
        assert 50 < homogeneous < 150


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
        assert matmul(B, config.A) == IntMatrix([[2, 0], [0, 1]])

    def test_single_row_gcd(self):
        config, beta, B = reduce_configuration(IntMatrix([[2, 4]]), ["3"])
        assert config.A == IntMatrix([[1, 2]])
        assert B == IntMatrix([[2]])
        assert beta == (GaussRat(Fraction(3, 2)),)

    def test_dependent_rows_with_beta_in_span(self):
        raw = IntMatrix([[1, 2], [2, 4]])
        config, beta, B = reduce_configuration(raw, ["1", "2"])
        assert config.d == 1
        assert matmul(B, config.A) == raw

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
                assert fraction_elimination(raw.data)[0] == 0
                continue
            assert matmul(B, config.A) == raw


def hermite_reduce_by_solving(A_raw):
    """(reduced A, B) by solving B x = a_j over Q: the reference for _hermite_reduce."""
    H, _ = hermite_normal_form(A_raw.transpose())
    basis_rows = [row for row in H.data if any(row)]
    B = IntMatrix.from_columns(basis_rows, A_raw.rows)
    columns = []
    for a in A_raw.columns():
        x = solve_rational(B, a)
        assert x is not None and all(q.denominator == 1 for q in x)
        columns.append(tuple(int(q) for q in x))
    return IntMatrix.from_columns(columns, len(basis_rows)), B


class TestHermiteReduce:
    """Integer Hermite coordinates against the rational solve."""

    def assert_matches_reference(self, A_raw):
        coordinates, basis = cones._hermite_reduce(A_raw.columns())
        A = IntMatrix.from_columns(coordinates, len(basis))
        B = IntMatrix.from_columns(basis, A_raw.rows)
        assert (A, B) == hermite_reduce_by_solving(A_raw)
        assert matmul(B, A) == A_raw

    def test_face_submatrices(self):
        rng = random.Random(101)
        checked = 0
        for _ in range(30):
            config = random_configuration(rng, dmax=4, nmax=7)
            for face in config.face_lattice():
                sub = IntMatrix.from_columns([config.column(j) for j in face.indices], config.d)
                if any(map(any, sub.data)):
                    self.assert_matches_reference(sub)
                    checked += 1
        assert checked > 100

    @pytest.mark.parametrize("index", [2, 3])
    def test_sublattice_row_maps(self, index):
        rng = random.Random(103 + index)
        for _ in range(20):
            config = random_configuration(rng, dmax=4, nmax=7)
            d = config.d
            diagonal = IntMatrix([[index if i == j == d - 1 else int(i == j)
                                   for j in range(d)] for i in range(d)])
            M = matmul(random_unimodular(rng, d), diagonal, random_unimodular(rng, d))
            A_raw = matmul(M, config.A)
            self.assert_matches_reference(A_raw)
            _, basis = cones._hermite_reduce(A_raw.columns())
            assert len(basis) == d

    def test_dependent_rows(self):
        rng = random.Random(107)
        for _ in range(20):
            config = random_configuration(rng, dmax=3, nmax=6)
            rows = [list(r) for r in config.A.data]
            c = rng.randint(-2, 2)
            rows.append([c * x + y for x, y in zip(rows[0], rows[-1])])
            A_raw = IntMatrix(rows)
            self.assert_matches_reference(A_raw)
            assert len(cones._hermite_reduce(A_raw.columns())[1]) == config.d

    def test_zero_columns_give_an_empty_basis(self):
        assert cones._hermite_reduce([(0, 0, 0), (0, 0, 0)]) == (((), ()), ())

    def test_a_column_outside_the_basis_lattice_is_an_inconsistency(self, monkeypatch):
        hermite_rows = cones._hermite_rows

        def doubled(h, width):
            rank = hermite_rows(h, width)
            h[:] = [[2 * x for x in row] for row in h]
            return rank

        monkeypatch.setattr(cones, "_hermite_rows", doubled)
        with pytest.raises(InternalInconsistency):
            cones._hermite_reduce([(1, 0), (1, 1), (1, 2)])


class TestPerpLatticeBasis:
    def test_factors_the_face_matrix_as_given(self):
        # The Hermite form of the d x k face matrix gives the kernel basis of
        # its transpose, the empty face (U = I) included.
        rng = random.Random(61)
        configs = [Configuration(IntMatrix([[1, 0, 1], [0, 0, 1]]))]
        configs += [random_configuration(rng, dmax=4, nmax=6, lo=-2, hi=2) for _ in range(30)]
        assert any(not any(col) for c in configs for col in c.A.columns())
        for config in configs:
            for k in range(config.n + 1):
                for labels in combinations(range(1, config.n + 1), k):
                    face = IntMatrix([config.column(j) for j in labels], cols=config.d)
                    expected = kernel_lattice_basis(face)
                    assert cones._perp_lattice_basis(config, labels) == expected

    def test_matches_the_hermite_form_oracle_on_every_face(self):
        rng = random.Random(137)
        configs = [random_configuration(rng, dmax=5, nmax=8, lo=-3 * (k % 2)) for k in range(200)]
        configs.append(random_homogeneous_configuration(random.Random(5), 7, 18))
        faces = 0
        for config in configs:
            for face in config.face_lattice():
                expected = perp_lattice_by_hermite_forms(config, face.indices)
                assert cones._perp_lattice_basis(config, face.indices) == expected
                faces += 1
        assert faces > 2334 + 1000


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

    def test_bool_label_is_rejected(self):
        with pytest.raises(TypeError):
            is_face(Configuration(QUADRIC), [True])


class TestColumnLabels:
    """Every public face reader rejects a label that is not a column label 1..n."""

    @pytest.mark.parametrize("label", [0, -1, 4])
    @pytest.mark.parametrize(
        "reader",
        [
            lambda c, labels: is_face(c, labels),
            lambda c, labels: face_volume(c, Face(labels, (0, 0))),
            lambda c, labels: face_functionals(c, Face(labels, (0, 0))),
            lambda c, labels: is_pyramid(c, Face(labels, (0, 0))),
        ],
        ids=["is_face", "face_volume", "face_functionals", "is_pyramid"],
    )
    def test_out_of_range_label(self, reader, label):
        config = Configuration(QUADRIC)
        for labels in ([label], [1, label]):
            with pytest.raises(DimensionMismatch, match="out of range 1..3"):
                reader(config, labels)


class TestFourierMotzkin:
    @staticmethod
    def random_system(rng, rational):
        nvars = rng.randint(2, 4)
        entry = (
            (lambda: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))))
            if rational
            else (lambda: rng.randint(-3, 3))
        )
        rows = [
            ([entry() for _ in range(nvars)], entry())
            for _ in range(rng.randint(3, 8))
        ]
        kind = rng.randrange(4)
        if kind == 1:  # a tautology 0 >= rhs, rhs <= 0
            rows.append(([0] * nvars, -rng.randint(0, 2)))
        elif kind == 2:  # a duplicate, scaled by a positive factor
            coeffs, rhs = rng.choice(rows)
            k = rng.randint(1, 3)
            rows.append(([k * c for c in coeffs], k * rhs))
        elif kind == 3:  # a contradiction 0 >= rhs > 0
            rows.append(([0] * nvars, rng.randint(1, 2)))
        rng.shuffle(rows)
        return rows, nvars

    @pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
    def test_agrees_with_the_minimal_face_oracle(self, rational):
        rng = random.Random(1307 + rational)
        outcomes = set()
        for _ in range(150):
            rows, nvars = self.random_system(rng, rational)
            y = fourier_motzkin_point(rows, nvars)
            assert (y is not None) == (feasible_point_by_minimal_faces(rows, nvars) is not None)
            if y is not None:
                assert all(sum(c * v for c, v in zip(coeffs, y)) >= rhs for coeffs, rhs in rows)
            outcomes.add(y is not None)
        assert outcomes == {False, True}

    def test_no_rows_and_no_variables(self):
        assert fourier_motzkin_point([], 2) == (0, 0)
        assert fourier_motzkin_point([((), 0)], 0) == ()
        assert fourier_motzkin_point([((), 1)], 0) is None

    def test_a_stage_above_the_row_limit_raises(self, monkeypatch):
        # Three rows positive and four negative in y1, and one free of it,
        # make a second stage of 3 * 4 + 1 rows.
        rows = [((1, k), 0) for k in range(3)] + [((-1, k), -5) for k in range(4)]
        rows.append(((0, 1), 0))
        monkeypatch.setattr(cones, "FOURIER_MOTZKIN_ROW_LIMIT", 13)
        assert fourier_motzkin_point(rows, 2) is not None
        monkeypatch.setattr(cones, "FOURIER_MOTZKIN_ROW_LIMIT", 12)
        with pytest.raises(ScaleLimit):
            fourier_motzkin_point(rows, 2)


class TestFaceLatticeAxioms:
    """The face lattice and the resonance table's covers obey the face-lattice axioms."""

    def test_random_configurations(self):
        rng = random.Random(139)
        configs = [random_configuration(rng, dmax=5, nmax=8, lo=-3 * (k % 2))
                   for k in range(300)]
        pointed = [c.lineality_columns == () for c in configs]
        assert any(pointed) and not all(pointed)
        for config in configs:
            assert face_lattice_axiom_failures(config) == []

    @pytest.mark.parametrize("d, n", [(6, 16), (7, 18)], ids=["cone_6_16", "cone_7_18"])
    def test_wide_cones(self, d, n):
        config = random_homogeneous_configuration(random.Random(5), d, n)
        assert face_lattice_axiom_failures(config) == []


def moment_configuration(d, n):
    """The cyclic polytope's moment matrix, rows t^0 .. t^(d-1) at t = 0 .. n-1, reduced."""
    A = IntMatrix([[t ** i for t in range(n)] for i in range(d)])
    return reduce_configuration(A, [0] * d)[0]


class TestFacets:
    """The facets read off the hull, against double description and the
    hyperplanes through d - 1 columns."""

    @staticmethod
    def facets(config):
        return [
            (normal, tuple(j + 1 for j in range(config.n) if mask >> j & 1))
            for normal, mask in cones._facets(config)
        ]

    def test_random_configurations_match_double_description(self):
        # Signed entries give non-pointed cones; a column is duplicated or a
        # zero column inserted in two of every three inputs.
        rng = random.Random(1317)
        pointed = 0
        for k in range(300):
            config = random_configuration(rng, dmax=5, nmax=9, lo=-3 if k % 2 else 0)
            columns = list(config.A.columns())
            if k % 3 == 1:
                columns.insert(rng.randrange(len(columns) + 1), rng.choice(columns))
            elif k % 3 == 2:
                columns.insert(rng.randrange(len(columns) + 1), (0,) * config.d)
            config = Configuration(IntMatrix.from_columns(columns, config.d))
            pointed += config.lineality_columns == ()
            assert cones._facets(config) == facets_by_double_description(config)
            if config.n <= 8:
                assert self.facets(config) == facets_by_subset_normals(config)
        assert 60 < pointed < 240

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_seed_five_cones_match_double_description(self, d):
        config = random_homogeneous_configuration(random.Random(5), d, 2 * d + 4)
        assert cones._facets(config) == facets_by_double_description(config)
        if d <= 6:
            assert self.facets(config) == facets_by_subset_normals(config)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_cyclic_cones_match_double_description(self, d):
        config = moment_configuration(d, 12)
        assert cones._facets(config) == facets_by_double_description(config)
        assert self.facets(config) == facets_by_subset_normals(config)

    # QUADRIC and BETA_SWEEP_MATRIX are homogeneous (their columns are
    # placed alone); the last matrix is not (the origin is placed with them).
    @pytest.mark.parametrize("A", [QUADRIC, BETA_SWEEP_MATRIX, IntMatrix([[1, -1, 0], [0, 0, 1]])])
    def test_a_normal_negative_on_a_column_is_an_inconsistency(self, monkeypatch, A):
        # The flipped form still vanishes on its facet; its normal is then
        # negative at the opposite vertex, a column.
        corrupt_a_boundary_form(monkeypatch, flip)
        with pytest.raises(InternalInconsistency, match="negative on a column"):
            cones._facets(Configuration(A))

    @pytest.mark.parametrize("A", [QUADRIC, BETA_SWEEP_MATRIX, IntMatrix([[1, -1, 0], [0, 0, 1]])])
    def test_a_form_off_its_facet_is_an_inconsistency(self, monkeypatch, A):
        # Through the origin, a shifted constant term keeps the normal
        # (nonnegative on every column), but the form no longer vanishes at
        # the origin.  In a homogeneous configuration's hyperplane it adds
        # the grading to the normal: 1 more on every column, the facet's too.
        corrupt_a_boundary_form(monkeypatch, lambda form: (form[0] + 1,) + form[1:])
        with pytest.raises(InternalInconsistency, match="does not vanish on its facet"):
            cones._facets(Configuration(A))

    def test_the_volume_reads_the_same_hull(self):
        # One triangulation per configuration: the facets and the normalized
        # volume come from one run, equal to the triangulation of the columns.
        for A in (QUADRIC, BETA_SWEEP_MATRIX, IntMatrix(DENSE_FIVE_BY_EIGHT)):
            config = Configuration(A)
            triangulation, facets = cones._hull(config)
            assert cones._facets(config) is facets
            assert normalized_volume(config).triangulation is triangulation
            assert triangulation == volume._volume_of_matrix(A.columns()).triangulation

    def test_beta_sweep(self):
        config = Configuration(BETA_SWEEP_MATRIX)
        assert len(self.facets(config)) == 26
        assert self.facets(config) == facets_by_subset_normals(config)

    @pytest.mark.parametrize("d, n", [(3, 8), (4, 12), (5, 14), (6, 16)])
    def test_wide_homogeneous_cones(self, d, n):
        config = random_homogeneous_configuration(random.Random(1311 + n), d, n)
        assert self.facets(config) == facets_by_subset_normals(config)

    def test_random_configurations(self):
        rng = random.Random(1313)
        for _ in range(200):
            config = random_configuration(rng, dmax=5, nmax=9)
            assert self.facets(config) == facets_by_subset_normals(config)


class TestHomogeneousHull:
    """A homogeneous configuration places its columns alone, in their own
    hyperplane: the same triangulation as the placing of 0 + columns, the
    triangulation axioms, the facets of double description, and face volumes
    that agree with triangulating each face's coordinates with the origin."""

    @staticmethod
    def configurations():
        yield IntMatrix([[2, -1, 5, -4, 8], [-1, 1, -3, 3, -5]])  # grading (2, 3): no unit entry
        yield IntMatrix([[1, 1, 1]])  # d = 1, one point three times
        yield IntMatrix([[1, 1, 1, 1], [0, 1, 1, 2]])  # d = 2, a duplicate column
        yield IntMatrix([[1, 1, 1, 1], [0, 1, 3, 7]])
        rng = random.Random(3907)
        for k in range(40):
            d = rng.randint(2, 5)
            n = rng.randint(d + 1, min(d + 5, 5 ** (d - 1)))  # (1, x), x in [0, 4]^(d-1)
            config = random_homogeneous_configuration(rng, d, n)
            columns = list(config.A.columns())
            if k % 2:
                columns.insert(rng.randrange(len(columns) + 1), rng.choice(columns))
            yield matmul(random_unimodular(rng, d), IntMatrix.from_columns(columns, d))

    def test_against_the_origin_placing_and_double_description(self):
        least = set()  # the least nonzero |y_k| of each grading
        for A in self.configurations():
            config = Configuration(A)
            y, columns, d = config._grading, config._columns, config.d
            assert y is not None and all(sum(map(mul, y, a)) == 1 for a in columns)
            least.add(min(abs(x) for x in y if x))
            points = dict(enumerate([(0,) * d, *columns]))
            triangulation, facets = cones._hull(config)
            assert triangulation == cones._placing_triangulation(points, d)[0]
            assert triangulation_failures(points, triangulation) == []
            assert facets == facets_by_double_description(config)
            for face in config.face_lattice()[1:-1]:
                assert face_volume(config, face) == triangulated_face_volume(config, face)
        assert len(least) > 1

    def test_every_shifted_derived_form_is_an_inconsistency(self, monkeypatch):
        # Every boundary facet of the columns' own placing gives a cone facet,
        # so _hull certifies every final form: shifting the constant term of
        # any form derived after the seed must raise, whether a later
        # derivation reads it or it stays on the final boundary.
        A = random_homogeneous_configuration(random.Random(5), 7, 18).A
        assert_every_shifted_derived_form_raises(monkeypatch, A, range(40))

    def test_a_seed_that_does_not_span_is_an_inconsistency(self):
        # Every caller places points that span, so coplanar points are a bug.
        points = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (1, 1, 0)}
        with pytest.raises(InternalInconsistency, match="do not span"):
            cones._placing_triangulation(points, 3)


class TestConfluentHull:
    """A configuration with no grading: the origin is placed with the columns."""

    CONFLUENT = random_confluent_configuration(random.Random(5), 7, 18).A

    @pytest.mark.parametrize(
        "A", [IntMatrix([[1, -1, 0], [0, 0, 1]]), CONFLUENT], ids=["plane", "confluent"]
    )
    def test_a_shifted_final_form_off_the_origin_is_an_inconsistency(self, monkeypatch, A):
        # No cone facet is read off such a form, so only the placing's own
        # check of the final boundary sees it.
        _, boundary = hull_placing(Configuration(A))
        facet = next(f for f in boundary if 0 not in f)
        corrupt_a_boundary_form(monkeypatch, lambda form: (form[0] + 1,) + form[1:], facet)
        with pytest.raises(InternalInconsistency, match="does not vanish on its facet"):
            cones._hull(Configuration(A))

    def test_every_shifted_derived_form_is_an_inconsistency(self, monkeypatch):
        # A shifted form is checked at one vertex by a derivation whose new
        # point is off the other facet's plane, on all its vertices when a
        # point sees it and no such derivation checks it, or on the final
        # boundary.  The first 40 of the 1044 derived forms, every 25th, and
        # forms 827 and 828: a point sees each with every horizon neighbour's
        # plane through it, so no derivation checks them.
        indices = [*range(40), *range(50, 1044, 25), 827, 828]
        assert_every_shifted_derived_form_raises(monkeypatch, self.CONFLUENT, indices)


def assert_every_shifted_derived_form_raises(monkeypatch, A, indices):
    """Shifting the constant term of the t-th form derived after the seed of
    A's hull placing raises InternalInconsistency, for every t in indices."""
    horizon, seed_simplex = cones._horizon_form, cones._seed_simplex
    for t in indices:
        seen = []

        def seeded(*args):
            result = seed_simplex(*args)
            seen.append("seed")
            return result

        def derived(*args, t=t):
            form = horizon(*args)
            if seen and len(seen) == t + 1:
                form = (form[0] + 1, *form[1:])
            if seen:
                seen.append("derive")
            return form

        monkeypatch.setattr(cones, "_seed_simplex", seeded)
        monkeypatch.setattr(cones, "_horizon_form", derived)
        with pytest.raises(InternalInconsistency):
            cones._hull(Configuration(A))
        assert len(seen) > t + 1


class TestEnumerate:
    @pytest.mark.parametrize("method", ["brute", "dd"])
    def test_quadric(self, method):
        lattice = enumerate_faces(Configuration(QUADRIC), method)
        assert [f.indices for f in lattice] == [(), (1,), (3,), (1, 2, 3)]

    def test_unknown_method_is_an_input_error(self):
        with pytest.raises(InputError, match="unknown face enumeration method"):
            enumerate_faces(Configuration(QUADRIC), "simplex")

    @pytest.mark.parametrize("method", ["brute", "dd"])
    def test_simplicial_all_subsets(self, method):
        c = Configuration(IntMatrix.identity(3))
        lattice = enumerate_faces(c, method)
        assert len(lattice) == 8

    def test_nonpointed_line(self):
        c = Configuration(IntMatrix([[1, -1]]))
        for method in ("brute", "dd"):
            lattice = enumerate_faces(c, method)
            assert [f.indices for f in lattice] == [(1, 2)]

    @pytest.mark.parametrize("method", ["brute", "dd"])
    def test_zero_column_in_every_face(self, method):
        c = Configuration(IntMatrix([[1, 0]]))
        lattice = enumerate_faces(c, method)
        assert [f.indices for f in lattice] == [(2,), (1, 2)]

    @staticmethod
    def with_witnesses(lattice):
        return [(f.indices, f.witness) for f in lattice]

    def test_auto_runs_dd_above_the_brute_force_limit(self):
        rng = random.Random(4301)
        seen = set()
        while len(seen) < 40:
            config = random_configuration(rng, dmax=5, nmax=10)
            if not 4 <= config.n <= 10:
                continue
            seen.add(config)
            assert self.with_witnesses(enumerate_faces(config)) == self.with_witnesses(
                enumerate_faces(config, "dd")
            )
        assert {config.n for config in seen} == set(range(4, 11))

    def test_auto_runs_brute_force_up_to_the_limit(self):
        rng = random.Random(4303)
        for _ in range(40):
            config = random_configuration(rng, dmax=3, nmax=3)
            assert self.with_witnesses(enumerate_faces(config)) == self.with_witnesses(
                enumerate_faces(config, "brute")
            )

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

    # The identity is homogeneous (grading (1, 1, 1)); the other is not.
    @pytest.mark.parametrize(
        "A", [IntMatrix.identity(3), IntMatrix([[1, 0, 0, 2], [0, 1, 0, 1], [0, 0, 1, 0]])],
        ids=["homogeneous", "not_homogeneous"],
    )
    def test_the_closure_path_reaches_the_hull_certificate(self, monkeypatch, A):
        # -e3 vanishes on the same columns as e3, so only the sign check sees
        # it; _hull makes it once, and the face closure does not repeat it.
        # So does every flipped normal.
        assert cones._facets(Configuration(IntMatrix.identity(3)))[0][0] == (0, 0, 1)
        corrupt_a_boundary_form(monkeypatch, flip)
        with pytest.raises(InternalInconsistency, match="normal is negative on a column"):
            enumerate_faces(Configuration(A), "dd")

    @pytest.mark.parametrize(
        "A, expected_cases",
        [
            (IntMatrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]), 8),
            (IntMatrix([[1, 1, 1, 2], [0, 1, 0, 1], [0, 0, 1, 1]]), 6),
        ],
        ids=["homogeneous", "not_homogeneous"],
    )
    def test_a_stray_bit_in_a_facet_mask_is_an_inconsistency(self, monkeypatch, A, expected_cases):
        # A facet's normal must vanish on the vertices of its boundary facets.
        # Adding another facet's form that is positive at one of them keeps
        # the normal nonnegative on the columns, but the mask read off the
        # dot products loses that vertex, and _hull sees the stray bit.
        points, boundary = hull_placing(Configuration(A))
        facets = [f for f in sorted(boundary) if is_cone_facet(points, f)]
        cases = 0
        for facet in facets:
            for v in [v for v in facet if v]:  # the columns, not the origin
                other = next(boundary[f] for f in facets
                             if sum(map(mul, boundary[f], (1, *points[v]))) > 0)
                with monkeypatch.context() as m:  # one corrupted form per case
                    corrupt_a_boundary_form(m, lambda form: tuple(map(add, form, other)), facet)
                    with pytest.raises(InternalInconsistency, match="does not vanish on its facet"):
                        enumerate_faces(Configuration(A), "dd")
                cases += 1
        assert cases == expected_cases

    def test_pointed_iff_empty_face(self):
        rng = random.Random(37)
        for _ in range(30):
            config = random_configuration(rng, dmax=3, nmax=6)
            lattice = enumerate_faces(config, "dd")
            assert (lattice[0].indices == ()) == (config.lineality_columns == ())

    def test_lineality_columns_in_every_face(self):
        rng = random.Random(41)
        for _ in range(30):
            config = random_configuration(rng, dmax=3, nmax=6)
            for face in enumerate_faces(config, "dd"):
                assert set(config.lineality_columns) <= set(face.indices)


class TestFaceDigest:
    """sha256 over (indices, witness) of every face, recorded from the Fraction-based enumerators.

    Faces and witnesses are canonical (witnesses are primitive sums of facet
    normals, or what Fourier-Motzkin finds first), so any rewrite of the face
    layer must replay both digests exactly.
    """

    SWEEP = "52c5c45d2671083f85225533df571d2539f869d9210468f376e4d663823edcde"
    WIDE = "244e74eed875e5337c3775b23f6eee53e88f79c8293d12877ec21875ae016165"

    def test_random_configurations_both_methods(self):
        # Non-pointed cones come from the signed entries; every fourth
        # configuration gets an extra zero column at a random position.
        h = hashlib.sha256()
        rng = random.Random(1301)
        for k in range(200):
            config = random_configuration(rng, dmax=4, nmax=7)
            if k % 4 == 0:
                columns = list(config.A.columns())
                columns.insert(rng.randrange(len(columns) + 1), (0,) * config.d)
                config = Configuration(IntMatrix.from_columns(columns, config.d))
            for method in ("brute", "dd"):
                for face in enumerate_faces(config, method):
                    h.update(repr((method, face.indices, face.witness)).encode())
        assert h.hexdigest() == self.SWEEP

    def test_wide_homogeneous_cones_dd(self):
        h = hashlib.sha256()
        rng = random.Random(1303)
        for d, n in ((5, 12), (5, 14), (6, 14), (6, 16)):
            for face in enumerate_faces(random_homogeneous_configuration(rng, d, n), "dd"):
                h.update(repr((face.indices, face.witness)).encode())
        assert h.hexdigest() == self.WIDE


class TestFaceValue:
    def test_equality_is_by_indices(self):
        assert Face([1, 3], [0, 1]) == Face([3, 1], [5, 5])
        assert hash(Face([1], [0])) == hash(Face([1], [9]))

    @pytest.mark.parametrize("witness", [[2.9], [True]])
    def test_witness_is_not_truncated_or_coerced(self, witness):
        with pytest.raises(TypeError):
            Face([1], witness)

    @pytest.mark.parametrize("indices", [[1.5], [True]])
    def test_indices_are_not_truncated_or_coerced(self, indices):
        with pytest.raises(TypeError):
            Face(indices, (0, 0))

    def test_json(self):
        assert Face([2, 1], [1, -1]).to_json() == {
            "indices": [1, 2],
            "witness": [1, -1],
        }
