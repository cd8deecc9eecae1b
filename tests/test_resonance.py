import itertools
import random
from fractions import Fraction

from gkzmono import (
    Configuration,
    GaussRat,
    IntMatrix,
    describe_resonant_arrangement,
    enumerate_faces,
    in_resonant_span,
    is_resonant,
    resonance_centers,
    solve_rational,
)
from sweeps import random_beta, random_configuration

QUADRIC = Configuration(IntMatrix([[1, 1, 1], [0, 1, 2]]))
BETA_HALF = ["1/2", "1"]


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


class TestInResonantSpan:
    def test_quadric_first_ray(self):
        face = QUADRIC.face_lattice().face([1])
        assert in_resonant_span(QUADRIC, face, BETA_HALF)

    def test_quadric_second_ray(self):
        face = QUADRIC.face_lattice().face([3])
        assert in_resonant_span(QUADRIC, face, BETA_HALF)

    def test_quadric_empty_face(self):
        face = QUADRIC.face_lattice().face([])
        assert not in_resonant_span(QUADRIC, face, BETA_HALF)

    def test_full_face_always(self):
        face = QUADRIC.face_lattice().full_face
        assert in_resonant_span(QUADRIC, face, ["7/13", "-5/11"])

    def test_imaginary_parts_must_lie_in_span(self):
        face = QUADRIC.face_lattice().face([1])
        # i*(1,0) is in C*span{(1,0)}, i*(0,1) is not
        assert in_resonant_span(QUADRIC, face, [{"im": "1"}, "0"])
        assert not in_resonant_span(QUADRIC, face, ["0", {"im": "1"}])

    def test_monotone_in_the_face(self):
        rng = random.Random(11)
        for _ in range(25):
            config = random_configuration(rng, dmax=3, nmax=5)
            beta = random_beta(rng, config.d)
            lattice = enumerate_faces(config, "dd")
            for f in lattice:
                if not in_resonant_span(config, f, beta):
                    continue
                for g in lattice:
                    if set(f.indices) <= set(g.indices):
                        assert in_resonant_span(config, g, beta)

    def test_shift_invariance(self):
        rng = random.Random(13)
        for _ in range(25):
            config = random_configuration(rng, dmax=3, nmax=5)
            beta = [GaussRat(b) for b in random_beta(rng, config.d)]
            z = [rng.randint(-5, 5) for _ in range(config.n)]
            shift = config.A.mat_vec(z)
            shifted = [b + GaussRat(s) for b, s in zip(beta, shift)]
            for f in enumerate_faces(config, "dd"):
                assert in_resonant_span(config, f, beta) == in_resonant_span(
                    config, f, shifted
                )

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
                assert in_resonant_span(config, face, beta)
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
            assert in_resonant_span(config, face, planted)
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
            beta = random_beta(rng, config.d)
            report = resonance_centers(config, beta)
            members = {f.indices for f in report.member_faces}
            assert config.face_lattice().full_face.indices in members
            for f in report.member_faces:
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
                == [config.face_lattice().full_face.indices]
            )


class TestIsResonant:
    def test_examples(self):
        assert is_resonant(QUADRIC, BETA_HALF)
        assert not is_resonant(QUADRIC, ["1/3", "1/5"])

    def test_matches_report(self):
        rng = random.Random(47)
        for _ in range(25):
            config = random_configuration(rng, dmax=3, nmax=5)
            beta = random_beta(rng, config.d)
            assert is_resonant(config, beta) == (
                not resonance_centers(config, beta).is_nonresonant
            )

    def test_fully_imaginary_generic_beta(self):
        beta = [{"im": "1"}, {"im": "5/7"}]
        assert not is_resonant(QUADRIC, beta)


class TestArrangement:
    def test_quadric_components(self):
        desc = describe_resonant_arrangement(QUADRIC)
        by_face = {c.face.indices: c for c in desc.components}
        assert set(by_face) == {(), (1,), (3,)}
        assert by_face[(1,)].functionals == ((0, 1),)
        assert by_face[(3,)].functionals == ((2, -1),)
        assert by_face[()].functionals == ((1, 0), (0, 1))
        assert by_face[(3,)].congruences == ("2*b1 - b2 in Z",)

    def test_simplicial(self):
        desc = describe_resonant_arrangement(Configuration(IntMatrix.identity(2)))
        assert {c.face.indices for c in desc.components} == {(), (1,), (2,)}

    def test_line_has_no_components(self):
        config = Configuration(IntMatrix([[1, -1]]))
        assert describe_resonant_arrangement(config).components == ()
        assert not is_resonant(config, ["22/7"])

    def test_functionals_power_the_membership_test(self):
        rng = random.Random(53)
        for _ in range(20):
            config = random_configuration(rng, dmax=3, nmax=5)
            beta = [GaussRat(b) for b in random_beta(rng, config.d)]
            for comp in describe_resonant_arrangement(config).components:
                expected = all(
                    sum(w * b.re for w, b in zip(func, beta)).denominator == 1
                    for func in comp.functionals
                )
                assert expected == in_resonant_span(config, comp.face, beta)

    def test_span_basis_spans_the_face(self):
        desc = describe_resonant_arrangement(QUADRIC)
        by_face = {c.face.indices: c for c in desc.components}
        assert by_face[(3,)].span_basis == ((1, 2),)
        assert by_face[()].span_basis == ()
