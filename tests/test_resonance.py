import contextlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from gkzmono import (
    IRREDUCIBLE,
    Configuration,
    Face,
    GaussRat,
    IntMatrix,
    InternalInconsistency,
    classify,
    cones,
    describe_resonant_arrangement,
    enumerate_faces,
    face_functionals,
    hermite_normal_form,
    intlinalg,
    resonance,
    resonance_centers,
)
from gkzmono.cli import run
from gkzmono.cones import per_configuration
from oracles import (
    face_by_fourier_motzkin,
    fraction_in_resonant_span,
    hermite_rows,
    perp_lattice_by_hermite_forms,
    resonance_table_mismatches,
    solve_rational,
)
from sweeps import (
    BETA_SWEEP_MATRIX,
    DENSE_FIVE_BY_EIGHT,
    random_beta,
    random_configuration,
    random_homogeneous_configuration,
)
from test_cones import corrupt_a_boundary_form, flip
from test_golden import CASES, GOLDEN

QUADRIC = Configuration(IntMatrix([[1, 1, 1], [0, 1, 2]]))
HALF_SPACE = IntMatrix([[1, -1, 0], [0, 0, 1]])
BETA_HALF = ["1/2", "1"]
SWEEP = Configuration(BETA_SWEEP_MATRIX)
# Pairwise coprime denominators up to 10^6, mixed with small ones.
DENOMINATORS = (1, 2, 3, 6, 7**7, 2**19, 3**12, 5**8, 999_983)


def oracle_report(config, lattice, beta):
    """(member index sets, center index sets) straight from the definition."""
    members = [f.indices for f in lattice if fraction_in_resonant_span(config, f, beta)]
    centers = [f for f in members if not any(set(g) < set(f) for g in members)]
    return members, centers


def random_rational(rng, bound=10**6):
    return Fraction(rng.randint(-bound, bound), rng.choice(DENOMINATORS))


def planted_beta(rng, config, face):
    """An integer vector plus a combination of the face's columns."""
    beta = [GaussRat(rng.randint(-9, 9)) for _ in range(config.d)]
    for j in face.indices:
        c = GaussRat(random_rational(rng), random_rational(rng) * rng.randint(0, 1))
        beta = [b + c * a for b, a in zip(beta, config.column(j))]
    return beta


def betas_of_every_kind(rng, config, face):
    """Integer, small and large mixed denominators, complex; last planted on face."""
    d = config.d
    return [
        [GaussRat(rng.randint(-9, 9)) for _ in range(d)],
        [GaussRat(r) for r in random_beta(rng, d)],
        [GaussRat(random_rational(rng)) for _ in range(d)],
        [GaussRat(random_rational(rng, 5), rng.choice((0, 1, Fraction(-7, 3))))
         for _ in range(d)],
        planted_beta(rng, config, face),
    ]


def shift_certificate_exists(config, face, beta, bound):
    """Independent oracle: search integer shifts z and solve for face coefficients.

    One-sided: finding (z, c) with beta = z + sum c_j a_j proves membership;
    not finding one inside the bound proves nothing.
    """
    cols = [config.column(j) for j in face.indices]
    re = [b.re for b in beta]
    im = [b.im for b in beta]
    if face.indices:
        F = IntMatrix.from_columns(cols, config.d)
        if solve_rational(F, im) is None:
            return False
    elif any(im):
        return False
    for z in itertools.product(range(-bound, bound + 1), repeat=config.d):
        target = [r - s for r, s in zip(re, z)]
        if face.indices:
            if solve_rational(F, target) is not None:
                return True
        elif all(t == 0 for t in target):
            return True
    return False


def member_faces(config, beta):
    return resonance_centers(config, beta).member_faces


class TestMembership:
    @pytest.mark.parametrize(
        "beta, members",
        [
            (BETA_HALF, [(1,), (3,), (1, 2, 3)]),
            (["7/13", "-5/11"], [(1, 2, 3)]),
            # i*(1,0) is in C*span{(1,0)}, i*(0,1) is in no proper span
            ([{"im": "1"}, "0"], [(1,), (1, 2, 3)]),
            (["0", {"im": "1"}], [(1, 2, 3)]),
            ([{"im": "1"}, {"im": "5/7"}], [(1, 2, 3)]),
        ],
    )
    def test_quadric_examples(self, beta, members):
        report = resonance_centers(QUADRIC, beta)
        assert [f.indices for f in report.member_faces] == members
        assert report.is_nonresonant == (members == [(1, 2, 3)])

    def test_shift_invariance(self):
        rng = random.Random(13)
        for _ in range(25):
            config = random_configuration(rng, dmax=3, nmax=5)
            beta = [GaussRat(b) for b in random_beta(rng, config.d)]
            z = [rng.randint(-5, 5) for _ in range(config.n)]
            shift = config.A.mat_vec(z)
            shifted = [b + GaussRat(s) for b, s in zip(beta, shift)]
            assert member_faces(config, beta) == member_faces(config, shifted)

    def test_against_shift_search_oracle(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(30):
            config = random_configuration(rng, dmax=3, nmax=5)
            lattice = enumerate_faces(config, "dd")
            faces = list(lattice)
            face = faces[rng.randrange(len(faces))]
            beta = [GaussRat(b) for b in random_beta(rng, config.d, numerator=3)]
            if shift_certificate_exists(config, face, beta, bound=2):
                assert face in member_faces(config, beta)
                checked += 1
            # planted membership: z + combination of face columns, |z| up to 10
            z = [rng.choice([-10, -3, 0, 1, 10]) for _ in range(config.d)]
            planted = [GaussRat(Fraction(x)) for x in z]
            for j in face.indices:
                c = Fraction(rng.randint(-2, 2), rng.choice([1, 3]))
                planted = [
                    b + GaussRat(c * a)
                    for b, a in zip(planted, config.column(j))
                ]
            assert face in member_faces(config, planted)
        assert checked >= 5


class TestCenters:
    def test_quadric_two_centers(self):
        report = resonance_centers(QUADRIC, BETA_HALF)
        assert [f.indices for f in report.centers] == [(1,), (3,)]
        assert not report.is_nonresonant

    def test_quadric_nonresonant(self):
        report = resonance_centers(QUADRIC, ["1/3", "1/5"])
        assert [f.indices for f in report.centers] == [(1, 2, 3)]
        assert report.is_nonresonant

    def test_quadric_integral(self):
        report = resonance_centers(QUADRIC, ["0", "0"])
        assert [f.indices for f in report.centers] == [()]

    def test_members_up_closed_and_centers_minimal(self):
        rng = random.Random(43)
        for _ in range(30):
            config = random_configuration(rng, dmax=3, nmax=6)
            face = rng.choice(config.face_lattice())
            for beta in betas_of_every_kind(rng, config, face):
                report = resonance_centers(config, beta)
                members = {f.indices for f in report.member_faces}
                assert config.face_lattice()[-1].indices in members
                for f in report.member_faces:
                    assert any(set(c.indices) <= set(f.indices) for c in report.centers)
                    for g in config.face_lattice():
                        if set(f.indices) <= set(g.indices):
                            assert g.indices in members
                for f in report.centers:
                    for g in report.centers:
                        if f != g:
                            assert not set(f.indices) < set(g.indices)
                assert report.centers
                assert report.is_nonresonant == (
                    [f.indices for f in report.centers]
                    == [config.face_lattice()[-1].indices]
                )


class TestAgainstTheDefinition:
    """The integer, up-closed test against the Fraction definition."""

    def test_members_centers_and_spans_match(self):
        rng = random.Random(59)
        # Nonnegative entries make pointed cones, with more faces.
        configs = [random_configuration(rng, dmax=4, nmax=7, lo=-3 * (k % 2))
                   for k in range(40)]
        for config in configs + [SWEEP] * 5:
            lattice = enumerate_faces(config, "dd")
            face = rng.choice(lattice)
            for beta in betas_of_every_kind(rng, config, face):
                members, centers = oracle_report(config, lattice, beta)
                report = resonance_centers(config, beta)
                assert [f.indices for f in report.member_faces] == members
                assert [f.indices for f in report.centers] == centers
                proper = [m for m in members if m != lattice[-1].indices]
                assert (not report.is_nonresonant) == bool(proper)
            assert face.indices in members  # the planted beta came last

    @pytest.mark.parametrize("config", [QUADRIC, SWEEP], ids=["quadric", "beta_sweep"])
    def test_generic_imaginary_part_is_nonresonant(self, config):
        # w . (1, t, ..., t^(d-1)) != 0 for every nonzero functional w with
        # entries below t/2, so beta lies in no proper face's resonant span.
        t = 10**6
        lattice = config.face_lattice()
        assert all(2 * abs(x) < t for f in lattice for w in face_functionals(config, f) for x in w)
        rng = random.Random(71)
        for real in ([0] * config.d, [rng.randint(-9, 9) for _ in range(config.d)],
                     [random_rational(rng) for _ in range(config.d)]):
            beta = [GaussRat(r, t**k) for k, r in enumerate(real)]
            report = resonance_centers(config, beta)
            assert report.centers == report.member_faces == lattice[-1:]
            assert report.is_nonresonant
            assert classify(config.A, beta).verdict == IRREDUCIBLE


def covers_by_definition(lattice):
    """Per face, the minimal strict supersets among the faces, as index sets."""
    faces = [set(f.indices) for f in lattice]
    covers = []
    for f in faces:
        above = [g for g in faces if f < g]
        covers.append({tuple(sorted(g)) for g in above if not any(h < g for h in above)})
    return covers


class TestCoverRelation:
    """The compiled cover relation against its definition."""

    def assert_matches_definition(self, config):
        table = resonance._resonance_table(config)
        lattice = config.face_lattice()
        labels = [labels for _, labels in table.closure]
        assert labels == [f.indices for f in lattice]
        covers = covers_by_definition(lattice)
        compiled = [set() for _ in labels]
        for g, positions in enumerate(table.below):
            for i in positions:
                compiled[i].add(labels[g])
        assert compiled == covers
        assert list(table.cover_counts) == [len(c) for c in covers]

    def test_random_configurations(self):
        rng = random.Random(83)
        configs = [random_configuration(rng, dmax=4, nmax=7) for _ in range(40)]
        assert any(c.lineality_columns != () for c in configs)
        for config in configs:
            self.assert_matches_definition(config)

    def test_beta_sweep_full_face_covers_its_facets(self):
        self.assert_matches_definition(SWEEP)
        table = resonance._resonance_table(SWEEP)
        proper = [set(labels) for _, labels in table.closure[:-1]]
        facets = {tuple(sorted(f)) for f in proper if not any(f < g for g in proper)}
        assert len(facets) == 26
        assert {table.closure[i][1] for i in table.below[-1]} == facets


class TestFaceTestCount:
    """The walk prunes from both ends: it runs few face tests.

    One test is a face's congruences (_passes) or one facet normal of the
    facet sweep (_member_facets), which tests them all in one call.
    """

    @pytest.fixture
    def tests_run(self, monkeypatch):
        calls = []
        passes, sweep = resonance._passes, resonance._member_facets

        def counting(*args):
            calls.append(1)
            return passes(*args)

        def sweeping(facets, *scaled):
            calls.extend([1] * len(facets))
            return sweep(facets, *scaled)

        monkeypatch.setattr(resonance, "_passes", counting)
        monkeypatch.setattr(resonance, "_member_facets", sweeping)
        return calls

    def test_generic_beta_tests_the_facets_and_the_minimal_face(self, tests_run):
        # Pairwise coprime denominators, numerators prime to them: w . beta is
        # an integer only if each den_k divides w_k, so only for w = 0.
        rng = random.Random(89)
        for _ in range(10):
            dens = rng.sample((7**7, 2**19, 3**12, 5**8, 999_983), SWEEP.d)
            beta = [Fraction(1 + q * rng.randint(-9, 9), q) for q in dens]
            tests_run.clear()
            report = resonance_centers(SWEEP, beta)
            assert report.is_nonresonant
            assert len(tests_run) <= 27

    def test_tests_exactly_the_faces_whose_covers_are_members(self, tests_run):
        rng = random.Random(113)
        configs = [random_configuration(rng, dmax=4, nmax=7, lo=-3 * (k % 2))
                   for k in range(30)]
        for config in configs + [SWEEP] * 3:
            lattice = config.face_lattice()
            covers = covers_by_definition(lattice)
            for beta in betas_of_every_kind(rng, config, rng.choice(lattice)):
                members, _ = oracle_report(config, lattice, beta)
                tests_run.clear()
                resonance_centers(config, beta)
                # The minimal face first; then, below the always-member full
                # face, each other face whose covers are all members.
                expected = 1 if lattice[0].indices in members else 1 + sum(
                    1 for c in covers[1:] if c and c <= set(members)
                )
                assert len(tests_run) == expected

    def test_integer_beta_makes_one_test(self, tests_run):
        rng = random.Random(97)
        for _ in range(10):
            beta = [rng.randint(-9, 9) for _ in range(SWEEP.d)]
            tests_run.clear()
            report = resonance_centers(SWEEP, beta)
            assert report.centers == SWEEP.face_lattice()[:1]
            assert len(tests_run) == 1


class TestFacetFunctionals:
    """face_functionals and the resonance table's entries against the Hermite form.

    face_functionals reads the canonical basis of every face, a facet's
    included: its inner normal with the first nonzero entry positive.  The table
    keeps a facet's inner normal as the hull gives it (positive inside) and,
    for every other face, the rows of one unimodular step from a face it
    covers as they come: any Z-basis of the perp lattice, so its rows are
    checked by their count and Hermite form.  The reference is the IntMatrix
    Hermite path of the oracles, not cones._perp_lattice_basis, which
    face_functionals reads.
    """

    @staticmethod
    def assert_match_the_hermite_form(config):
        for face in config.face_lattice():
            hermite = perp_lattice_by_hermite_forms(config, face.indices)
            assert face_functionals(config, face) == hermite
        table = resonance._resonance_table(config)
        facets = cones._facets(config)
        assert len(table.facets) == len(facets)
        assert sorted(table.facets) == sorted(table.below[-1])
        for i, (normal, mask) in zip(table.facets, facets):
            assert table.closure[i][0] == mask
            assert table.functionals[i] in {(normal,), (tuple(-x for x in normal),)}
        for (_, labels), entry in zip(table.closure, table.functionals):
            corank = config.d - intlinalg.rank_int([config.column(j) for j in labels])
            assert len(entry) == corank
            rows = entry and hermite_normal_form(IntMatrix(entry, cols=config.d))[0].data
            assert rows == perp_lattice_by_hermite_forms(config, labels)

    def test_random_configurations(self):
        rng = random.Random(137)
        configs = [random_configuration(rng, dmax=5, nmax=8, lo=-3 * (k % 2))
                   for k in range(200)]
        pointed = [c.lineality_columns == () for c in configs]
        assert any(pointed) and not all(pointed)
        for config in configs:
            self.assert_match_the_hermite_form(config)

    @pytest.mark.parametrize(
        "config",
        [SWEEP, random_homogeneous_configuration(random.Random(5), 6, 16)],
        ids=["beta_sweep", "cone_6_16"],
    )
    def test_wide_configurations(self, config):
        self.assert_match_the_hermite_form(config)

    def test_facet_whose_normal_starts_negative(self):
        # Columns (1, 1) and (0, 1): the facet {1} has the inner normal (-1, 1),
        # which the table keeps and face_functionals reads as (1, -1).
        config = Configuration(IntMatrix([[1, 0], [1, 1]]))
        assert cones._facets(config) == (((-1, 1), 0b01), ((1, 0), 0b10))
        assert face_functionals(config, config.face_lattice()[1]) == ((1, -1),)
        table = resonance._resonance_table(config)
        assert table.functionals[table.facets[0]] == ((-1, 1),)
        self.assert_match_the_hermite_form(config)

    def test_half_space_and_full_space(self):
        half = Configuration(HALF_SPACE)
        # The minimal face {1, 2} is the only facet.
        assert [mask for _, mask in cones._facets(half)] == [0b011]
        self.assert_match_the_hermite_form(half)
        full = Configuration(IntMatrix(DENSE_FIVE_BY_EIGHT))
        assert cones._facets(full) == ()
        self.assert_match_the_hermite_form(full)


class TestUpwardPass:
    """The resonance table against the table it replaced.

    oracles.resonance_table_by_hermite_kernels takes one Hermite kernel pass
    per face and scans every face for covers.  The upward pass must give
    equal closure, below, cover_counts and facets tuples, and entries with
    equal Hermite forms (any basis of the lattice serves the walk).
    """

    def test_random_configurations(self):
        rng = random.Random(137)
        configs = [random_configuration(rng, dmax=5, nmax=8, lo=-3 * (k % 2))
                   for k in range(200)]
        pointed = [c.lineality_columns == () for c in configs]
        assert any(pointed) and not all(pointed)
        for config in configs:
            assert resonance_table_mismatches(config) == []

    @pytest.mark.parametrize(
        "matrix",
        [BETA_SWEEP_MATRIX, random_homogeneous_configuration(random.Random(5), 6, 16).A,
         HALF_SPACE, IntMatrix(DENSE_FIVE_BY_EIGHT)],
        ids=["beta_sweep", "cone_6_16", "half_space", "full_space"],
    )
    def test_wide_and_degenerate_configurations(self, matrix):
        assert resonance_table_mismatches(Configuration(matrix)) == []

    def test_cold_facet_resonant_classify_takes_one_step_per_face(self, monkeypatch):
        # Every face that is neither a facet nor the minimal face takes one
        # step from a face it covers; no face takes a Hermite kernel pass.
        cones._normalize_matrix.cache_clear()
        kernels, steps = [], []
        kernel_rows, step = intlinalg._kernel_rows, cones._perp_step

        def kernel_spy(*args):
            kernels.append(sys._getframe(1).f_code.co_name)
            return kernel_rows(*args)

        def step_spy(*args):
            steps.append(sys._getframe(1).f_code.co_name)
            return step(*args)

        monkeypatch.setattr(intlinalg, "_kernel_rows", kernel_spy)
        for module in (cones, resonance):
            monkeypatch.setattr(module, "_perp_step", step_spy)
        matrix = random_homogeneous_configuration(random.Random(5), 6, 16).A
        config = classify(matrix, ["1/3", 0, 0, 0, 0, 0]).configuration
        assert memo_entries(config, resonance._resonance_table) == 1
        assert config.lineality_columns == ()  # the minimal face is no facet
        faces, facets = len(cones._face_closure(config)), len(cones._facets(config))
        assert kernels == []
        assert steps.count("_resonance_table") == faces - facets - 1 == 570


class TestPerpStep:
    """cones._perp_step: L ∩ a^perp in one unimodular step, against the Hermite-form oracle."""

    @pytest.mark.parametrize(
        "column", [(2, 3), (-2, 3), (4, 6, 9), (-4, 6, -9), (0, -6, 4), (6, 10, 15), (3, 0, -2, 5)]
    )
    def test_non_unit_gcd_paths_from_the_unit_basis(self, column):
        # The unit basis gives x = column, so the pivot entry runs through
        # gcd steps before its row is dropped.
        d = len(column)
        units = [tuple(int(i == k) for k in range(d)) for i in range(d)]
        config = Configuration(IntMatrix.from_columns([column, *units], d))
        rows = cones._perp_step(units, column)
        assert len(rows) == d - 1
        assert hermite_rows(rows, d) == perp_lattice_by_hermite_forms(config, (1,))

    def test_steps_from_every_subset_lattice(self):
        # From a signed, reordered basis of the lattice of a label set S, one
        # step by column j gives the lattice of S + {j}: it drops a row iff
        # column j is off span S, and otherwise returns the rows unchanged.
        rng = random.Random(151)
        dropped = kept = 0
        for _ in range(40):
            config = random_configuration(rng, dmax=4, nmax=6, lo=-4, hi=4)
            for k in range(config.n):
                for labels in itertools.combinations(range(1, config.n + 1), k):
                    signs = rng.choices((1, -1), k=config.d)
                    basis = [tuple(sign * x for x in w) for sign, w in
                             zip(signs, perp_lattice_by_hermite_forms(config, labels))]
                    rng.shuffle(basis)
                    j = rng.choice([j for j in range(1, config.n + 1) if j not in labels])
                    rows = cones._perp_step(basis, config.column(j))
                    expected = perp_lattice_by_hermite_forms(config, tuple(sorted((*labels, j))))
                    assert hermite_rows(rows, config.d) == expected
                    if len(rows) == len(basis):
                        assert rows == tuple(basis)
                        kept += 1
                    else:
                        assert len(rows) == len(basis) - 1
                        dropped += 1
        assert dropped > 400 and kept > 100

    def test_a_column_in_the_span_of_a_covered_face_is_an_inconsistency(self, monkeypatch):
        # C ∩ span F = F: a column of G outside F is off span F.  A step that
        # finds it orthogonal to F's lattice (here, through a zeroed column)
        # keeps every row, and the table raises instead of storing them.
        step = cones._perp_step
        monkeypatch.setattr(
            resonance, "_perp_step", lambda basis, column: step(basis, (0,) * len(column))
        )
        with pytest.raises(InternalInconsistency,
                           match="a face's column lies in the span of a face it covers"):
            resonance._resonance_table(Configuration(IntMatrix([[1, 1, 1], [0, 1, 2]])))


def golden_stdout(name, argv):
    """The stdout that the golden corpus records for argv on case name."""
    text = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    header = f"==> exit 0: {json.dumps(argv)}\n"
    start = text.index(header) + len(header)
    end = text.find("==> exit ", start)
    return text[start:end if end >= 0 else None]


def hermite_form_callers(monkeypatch):
    """Record the calling module of each IntMatrix Hermite form or kernel the package takes."""
    callers = []
    for name in ("hermite_normal_form", "kernel_lattice_basis"):
        original = getattr(intlinalg, name)

        def spy(M, _original=original):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return _original(M)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("gkzmono") and module is not None:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy)
    return callers


class TestOneReader:
    """Facets read their inner normal everywhere, and the arrangement reads no table."""

    MATRIX, BETA, _ = CASES["wide_facet_resonant"]

    def cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        return out.getvalue()

    def test_warm_centers_takes_no_hermite_form(self, monkeypatch):
        self.cli(["classify", "-A", self.MATRIX, f"--beta={self.BETA}"])
        callers = hermite_form_callers(monkeypatch)
        argv = ["centers", "-A", self.MATRIX, f"--beta={self.BETA}", "--json"]
        out = self.cli(argv)
        assert out == golden_stdout("wide_facet_resonant", argv)
        assert len(json.loads(out)["member_faces"]) == 35
        assert callers == []

    @pytest.fixture
    def table_builds(self, monkeypatch):
        builds = []
        build = resonance._resonance_table
        monkeypatch.setattr(resonance, "_resonance_table", lambda c: builds.append(c) or build(c))
        cones._normalize_matrix.cache_clear()
        return builds

    def test_cold_arrangement_builds_no_table(self, table_builds):
        config = cones.reduce_configuration(IntMatrix(json.loads(self.MATRIX)), [0] * 5)[0]
        components = describe_resonant_arrangement(config)
        assert [c.face for c in components] == list(config.face_lattice()[:-1])
        assert table_builds == []

    def test_cold_arrangement_command_builds_no_table(self, table_builds):
        text = ["arrangement", "-A", self.MATRIX]
        for argv in (text, text + ["--json"]):
            assert self.cli(argv) == golden_stdout("wide_facet_resonant", argv)
            cones._normalize_matrix.cache_clear()
        assert table_builds == []

    # The span bases come from cones._hermite_reduce and validation is a
    # transform-free pass on plain rows, so no IntMatrix Hermite form runs.
    @pytest.mark.parametrize("name", ["quadric", "twelve_columns"])
    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_cold_arrangement_takes_no_hermite_form_of_its_own(self, monkeypatch, name, extra):
        callers = hermite_form_callers(monkeypatch)
        cones._normalize_matrix.cache_clear()
        argv = ["arrangement", "-A", CASES[name][0], *extra]
        assert self.cli(argv) == golden_stdout(name, argv)
        assert callers == []


def memo_entries(config, fn):
    """How many results of the per_configuration function fn the memo of config holds."""
    return sum(key[0] is fn.__wrapped__ for key in config._memo)


class TestColdClassify:
    """A cold classify builds the resonance table only below a member facet."""

    @pytest.mark.parametrize(
        "beta",
        [[3, -1, 0, 2, 5], ["1/128", "-1/243", "2/625", "1/2401", "-5/999983"]],
        ids=["integer", "generic"],
    )
    def test_no_member_facet_builds_no_table(self, beta):
        config = classify(BETA_SWEEP_MATRIX, beta).configuration
        assert memo_entries(config, resonance._resonance_table) == 0
        # The minimal face's Hermite form only: the facets are tested on their normals.
        assert memo_entries(config, cones._perp_lattice_basis) <= 1

    def test_a_member_facet_builds_the_table_once(self, monkeypatch):
        rng = random.Random(139)
        facets = [f for f in SWEEP.face_lattice() if len(face_functionals(SWEEP, f)) == 1]
        builds, hull_runs = [], []
        build, hull = resonance._resonance_table.__wrapped__, cones._hull.__wrapped__
        monkeypatch.setattr(
            resonance, "_resonance_table", per_configuration(lambda c: builds.append(c) or build(c))
        )
        monkeypatch.setattr(
            cones, "_hull", per_configuration(lambda c: hull_runs.append(c) or hull(c))
        )
        for face in rng.sample(facets, 3):
            beta = planted_beta(rng, SWEEP, face)
            result = classify(BETA_SWEEP_MATRIX, beta)
            assert face in resonance_centers(result.configuration, beta).member_faces
        assert builds == hull_runs == [result.configuration]

    def test_no_table_entry_is_computed_after_the_first_build(self, monkeypatch):
        # The table is an A-side compile: after one facet-resonant classify
        # builds it, no parameter computes a perp lattice of its own.
        cones._normalize_matrix.cache_clear()
        rng = random.Random(149)
        facets = {f.indices for f in SWEEP.face_lattice() if len(face_functionals(SWEEP, f)) == 1}
        facet = next(f for f in SWEEP.face_lattice() if f.indices in facets)
        config = classify(BETA_SWEEP_MATRIX, planted_beta(rng, SWEEP, facet)).configuration
        assert memo_entries(config, resonance._resonance_table) == 1
        computed = []
        step, basis = cones._perp_step, cones._perp_lattice_basis

        def step_spy(rows, column):
            computed.append(("step", column))
            return step(rows, column)

        def basis_spy(c, labels):
            if (basis.__wrapped__, labels) not in c._memo:
                computed.append(("basis", labels))
            return basis(c, labels)

        for module in (cones, resonance):
            monkeypatch.setattr(module, "_perp_step", step_spy)
            monkeypatch.setattr(module, "_perp_lattice_basis", basis_spy)
        lattice = config.face_lattice()
        below_facets = 0
        for _ in range(20):
            for beta in betas_of_every_kind(rng, config, rng.choice(lattice)):
                result = classify(BETA_SWEEP_MATRIX, beta)
                assert result.configuration is config
                below_facets += any(
                    c.indices not in facets and c not in (lattice[0], lattice[-1])
                    for c in result.centers
                )
        assert below_facets > 0  # the walk read entries below the facets
        assert computed == []
        assert memo_entries(config, resonance._resonance_table) == 1

    def test_a_member_facet_formats_no_congruence_text(self, monkeypatch):
        texts = []
        original = resonance._congruence_text
        monkeypatch.setattr(
            resonance, "_congruence_text", lambda w: texts.append(w) or original(w)
        )
        cones._normalize_matrix.cache_clear()
        facet = next(f for f in SWEEP.face_lattice() if len(face_functionals(SWEEP, f)) == 1)
        beta = planted_beta(random.Random(141), SWEEP, facet)
        result = classify(BETA_SWEEP_MATRIX, beta)
        assert memo_entries(result.configuration, resonance._resonance_table) == 1
        assert texts == []
        report = resonance_centers(result.configuration, beta)
        assert len(report.member_congruences) == len(report.member_faces) > 1
        assert len(texts) == sum(map(len, report.member_congruences))

    @pytest.mark.parametrize(
        "beta, members",
        [(["0", "1/2"], [(1, 2, 3)]), (["1/2", "0"], [(1, 2), (1, 2, 3)])],
        ids=["nonresonant", "resonant"],
    )
    def test_half_space_tests_its_minimal_face_once(self, monkeypatch, beta, members):
        config = Configuration(HALF_SPACE)
        tests_run = []
        original = resonance._passes
        monkeypatch.setattr(
            resonance, "_passes", lambda *args: tests_run.append(args) or original(*args)
        )
        report = resonance_centers(config, beta)
        assert [f.indices for f in report.member_faces] == members
        assert len(tests_run) == 1
        assert memo_entries(config, resonance._resonance_table) == 0


class TestFacesBuiltWhenReported:
    """The table keeps column bitmasks; a Face is built only when a report reads it."""

    def test_cold_facet_resonant_classify_builds_only_its_members(self, monkeypatch):
        lattice_calls, builds = [], []
        enumerate_, lattice = cones.enumerate_faces, cones.Configuration.face_lattice
        monkeypatch.setattr(
            cones, "enumerate_faces", lambda *args: lattice_calls.append(args) or enumerate_(*args)
        )
        monkeypatch.setattr(
            cones.Configuration, "face_lattice", lambda c: lattice_calls.append(c) or lattice(c)
        )
        build = cones._face
        for module in (cones, resonance):
            monkeypatch.setattr(module, "_face", lambda *args: builds.append(args) or build(*args))
        rng = random.Random(151)
        for _, mask in rng.sample(cones._facets(SWEEP), 3):
            cones._normalize_matrix.cache_clear()
            facet = Face((j + 1 for j in range(SWEEP.n) if mask >> j & 1), (0,) * SWEEP.d)
            beta = planted_beta(rng, SWEEP, facet)
            builds.clear()
            config = classify(BETA_SWEEP_MATRIX, beta).configuration
            report = resonance_centers(config, beta)
            assert facet in report.member_faces
            assert len(builds) == len(report.member_faces) < len(cones._face_closure(config))
        assert lattice_calls == []

    def test_reported_witnesses_are_the_face_lattice_witnesses(self):
        rng = random.Random(157)
        small = [random_configuration(rng, dmax=3, nmax=3) for _ in range(60)]
        wide = [random_configuration(rng, dmax=4, nmax=7, lo=-3 * (k % 2)) for k in range(60)]
        assert all(c.n <= 3 for c in small) and sum(c.n > 3 for c in wide) > 40
        for config in small + wide:
            lattice = config.face_lattice()
            by_labels = {f.indices: f.witness for f in lattice}
            for beta in betas_of_every_kind(rng, config, rng.choice(lattice)):
                report = resonance_centers(config, beta)
                result = classify(config.A, beta)
                for face in report.member_faces + result.centers:
                    assert face.witness == by_labels[face.indices]

    def test_small_input_keeps_the_witness_that_faces_prints(self):
        A = IntMatrix([[-2, 1, -2], [2, 1, 3], [-1, -1, -2]])
        beta = ["-1", "1", "-1/2"]
        config = Configuration(A)
        # Brute force and the closure read the same facets and witness the
        # face {1} alike; Fourier-Motzkin, now only an oracle, finds another.
        assert face_by_fourier_motzkin(config, [1]).witness == (1, 0, -2)
        assert enumerate_faces(config, "dd")[1].witness == (0, -1, -2)
        assert config.face_lattice()[1].witness == (0, -1, -2)
        result = classify(A, beta)
        assert [(f.indices, f.witness) for f in result.centers] == [((1,), (0, -1, -2))]
        report = resonance_centers(result.configuration, beta)
        assert [(f.indices, f.witness) for f in report.centers] == [((1,), (0, -1, -2))]


# Nonresonant inputs: a d=8, n=20 cone with 688 facets and 9996 faces, the
# golden wide_generic case, and the half-space, whose one facet is its
# minimal face.
NONRESONANT = {
    "cone_8_20": (
        random_homogeneous_configuration(random.Random(5), 8, 20).A.data,
        ",".join(f"1/{p}" for p in (101, 103, 107, 109, 113, 127, 131, 137)),
    ),
    "wide_generic": (json.loads(CASES["wide_generic"][0]), CASES["wide_generic"][1]),
    "half_space": (HALF_SPACE.data, "0,1/2"),
}


# Integer parameters, whose minimal face is their only center: the same
# d=8, n=20 cone and three golden cases, pointed and not.
INTEGER = {
    "cone_8_20": (NONRESONANT["cone_8_20"][0], "1,0,0,0,0,0,0,0"),
    **{name: (json.loads(CASES[name][0]), CASES[name][1])
       for name in ("wide_integer", "non_pointed_integer", "non_cohen_macaulay_rank_jump")},
}


class TestLatticeFreePath:
    """A cold nonresonant or integer parameter closes no face lattice and builds no table."""

    @pytest.fixture
    def lattice_builds(self, monkeypatch):
        calls = []
        enumerate_, build = cones.enumerate_faces, resonance._resonance_table
        closure = cones._face_closure
        monkeypatch.setattr(
            cones, "enumerate_faces", lambda *args: calls.append(args) or enumerate_(*args)
        )
        monkeypatch.setattr(
            resonance, "_resonance_table", lambda c: calls.append(c) or build(c)
        )
        for module in (cones, resonance):
            monkeypatch.setattr(module, "_face_closure", lambda c: calls.append(c) or closure(c))
        return calls

    @pytest.mark.parametrize("name", sorted(NONRESONANT))
    def test_classify(self, lattice_builds, name):
        matrix, beta = NONRESONANT[name]
        result = classify(IntMatrix(matrix), beta.split(","))
        assert result.verdict == IRREDUCIBLE
        assert [f.indices for f in result.centers] == [tuple(range(1, len(matrix[0]) + 1))]
        assert lattice_builds == []

    @pytest.mark.parametrize("name", sorted(NONRESONANT))
    def test_centers_json(self, lattice_builds, name):
        matrix, beta = NONRESONANT[name]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["centers", "-A", json.dumps(matrix), f"--beta={beta}", "--json"]) == 0
        report = json.loads(out.getvalue())
        full = list(range(1, len(matrix[0]) + 1))
        assert report["is_nonresonant"]
        assert report["member_faces"] == [
            {"indices": full, "witness": [0] * len(matrix), "congruences": []}
        ]
        assert lattice_builds == []

    @pytest.mark.parametrize("name", sorted(INTEGER))
    def test_integer_classify(self, lattice_builds, name):
        matrix, beta = INTEGER[name]
        cones._normalize_matrix.cache_clear()
        result = classify(IntMatrix(matrix), beta.split(","))
        config = result.configuration
        assert [f.indices for f in result.centers] == [config.lineality_columns]
        report = resonance_centers(config, result.parameter)
        assert report.centers == result.centers
        assert lattice_builds == []
        # The members are derived when read: the whole face lattice.
        assert report.member_faces == config.face_lattice()
        assert lattice_builds
        assert result.centers[0].witness == config.face_lattice()[0].witness

    def test_minimal_face_center_against_the_lattice(self):
        rng = random.Random(163)
        configs = [random_configuration(rng, dmax=4, nmax=7, lo=-3 * (k % 2)) for k in range(199)]
        configs.append(Configuration(IntMatrix(DENSE_FIVE_BY_EIGHT)))
        assert sum(c.lineality_columns == () for c in configs) > 40
        assert sum(c.lineality_columns != () for c in configs) > 40
        for config in configs:
            integer = [rng.randint(-9, 9) for _ in range(config.d)]
            centers = resonance_centers(config, integer).centers
            lattice = config.face_lattice()
            assert [(f.indices, f.witness) for f in centers] == [
                (lattice[0].indices, lattice[0].witness)
            ]
            for beta in [integer] + betas_of_every_kind(rng, config, rng.choice(lattice)):
                report = resonance_centers(config, beta)
                assert report.is_nonresonant == (len(report.member_faces) == 1)

    # The first matrix is homogeneous (its columns are placed alone in their
    # hyperplane); the second is not (the origin is placed with them).
    @pytest.mark.parametrize(
        "A", [[[1, 1, 1, 1], [0, 1, 2, 3]], [[1, 1, 1, 2], [0, 1, 2, 3]]],
        ids=["homogeneous", "not_homogeneous"],
    )
    def test_the_lattice_free_path_reaches_the_hull_certificate(self, monkeypatch, A):
        # No closure reads the facets on this path, and the minimal face's
        # witness is the sum of their normals: the hull's certificate must
        # catch a flipped facet form before the witness is built.
        corrupt_a_boundary_form(monkeypatch, flip)
        config = Configuration(IntMatrix(A))
        with pytest.raises(InternalInconsistency, match="normal is negative on a column"):
            resonance_centers(config, [1, 0])

    def test_full_space_has_its_single_face(self):
        # No facet: the minimal face is every column, and any parameter is a member.
        config = Configuration(IntMatrix(DENSE_FIVE_BY_EIGHT))
        report = resonance_centers(config, ["1/2", "1/3", "0", "1", "-1"])
        assert report.member_faces == report.centers == config.face_lattice()
        assert [f.indices for f in report.centers] == [tuple(range(1, 9))]
        assert report.is_nonresonant


class TestArrangement:
    def test_quadric_components(self):
        components = describe_resonant_arrangement(QUADRIC)
        assert type(components) is tuple
        by_face = {c.face.indices: c for c in components}
        assert set(by_face) == {(), (1,), (3,)}
        assert by_face[(1,)].functionals == ((0, 1),)
        assert by_face[(3,)].functionals == ((2, -1),)
        assert by_face[()].functionals == ((1, 0), (0, 1))
        assert by_face[(3,)].congruences == ("2*b1 - b2 in Z",)

    def test_simplicial(self):
        components = describe_resonant_arrangement(Configuration(IntMatrix.identity(2)))
        assert {c.face.indices for c in components} == {(), (1,), (2,)}

    def test_line_has_no_components(self):
        config = Configuration(IntMatrix([[1, -1]]))
        assert describe_resonant_arrangement(config) == ()
        assert resonance_centers(config, ["22/7"]).is_nonresonant

    def test_functionals_power_the_membership_test(self):
        rng = random.Random(53)
        for _ in range(20):
            config = random_configuration(rng, dmax=3, nmax=5)
            beta = [GaussRat(b) for b in random_beta(rng, config.d)]
            for comp in describe_resonant_arrangement(config):
                expected = all(
                    sum(w * b.re for w, b in zip(func, beta)).denominator == 1
                    for func in comp.functionals
                )
                assert expected == fraction_in_resonant_span(config, comp.face, beta)

    def test_span_basis_spans_the_face(self):
        by_face = {c.face.indices: c for c in describe_resonant_arrangement(QUADRIC)}
        assert by_face[(3,)].span_basis == ((1, 2),)
        assert by_face[()].span_basis == ()
