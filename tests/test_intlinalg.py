import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzmono import (
    DimensionMismatch,
    GaussRat,
    IntMatrix,
    InputError,
    hermite_normal_form,
    cones,
    kernel_lattice_basis,
    parse_rational,
    smith_normal_form,
)
from gkzmono.exporters import _euler_text
from gkzmono.intlinalg import (
    _hermite_solutions,
    _kernel_rows,
    format_combination,
    primitive_vector,
    rank_int,
)
from gkzmono.resonance import _congruence_text
from gkzmono.toric import EulerOperator
from oracles import fraction_elimination, kernel_by_hermite_transform, matmul, solve_rational
from sweeps import random_configuration

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def smith_kernel(A):
    """Kernel oracle: the last columns of the right Smith transform, then HNF."""
    if A.rows == 0:
        return tuple(IntMatrix.identity(A.cols).data)
    snf = smith_normal_form(A)
    basis = [snf.V.column(j) for j in range(snf.rank(), A.cols)]
    if not basis:
        return ()
    H, _ = hermite_normal_form(IntMatrix(basis, cols=A.cols))
    return tuple(row for row in H.data if any(row))


def is_hermite_canonical(H):
    pivots = []
    last = -1
    for row in H.data:
        cols = [j for j, x in enumerate(row) if x != 0]
        if not cols:
            last = H.cols  # zero rows only at the bottom from here on
            continue
        assert last < H.cols, "nonzero row below a zero row"
        p = cols[0]
        assert p > last, "pivots must move right"
        assert row[p] > 0, "pivot must be positive"
        pivots.append((len(pivots), p))
        last = p
    for r, p in pivots:
        for i in range(r):
            assert 0 <= H.data[i][p] < H.data[r][p], "entry above pivot not reduced"
    return True


class TestHermite:
    def test_identity(self):
        I = IntMatrix.identity(2)
        H, U = hermite_normal_form(I)
        assert H == I and U == I

    def test_already_in_form(self):
        M = IntMatrix([[2, 0], [0, 3]])
        H, U = hermite_normal_form(M)
        assert H == M and U == IntMatrix.identity(2)

    def test_2x2_with_remultiplication_oracle(self):
        M = IntMatrix([[2, 4], [1, 3]])
        H, U = hermite_normal_form(M)
        assert matmul(U, M) == H
        assert abs(fraction_elimination(U.data)[1]) == 1
        assert abs(fraction_elimination(H.data)[1]) == 2
        assert is_hermite_canonical(H)

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_properties(self, rows):
        M = IntMatrix(rows)
        H, U = hermite_normal_form(M)
        assert matmul(U, M) == H
        assert abs(fraction_elimination(U.data)[1]) == 1
        assert is_hermite_canonical(H)
        # canonical form is a fixed point
        H2, _ = hermite_normal_form(H)
        assert H2 == H

    def test_determinism(self):
        M = IntMatrix([[3, -1, 2], [0, 4, 4], [7, 7, 7]])
        assert hermite_normal_form(M) == hermite_normal_form(M)

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            hermite_normal_form(IntMatrix([], cols=3))


class TestSmith:
    def test_identity(self):
        snf = smith_normal_form(IntMatrix.identity(3))
        assert snf.invariant_factors() == (1, 1, 1)

    @pytest.mark.parametrize(
        "rows,factors",
        [([[2, 0], [0, 3]], (1, 6)), ([[2, 0], [0, 2]], (2, 2))],
    )
    def test_invariant_factors(self, rows, factors):
        M = IntMatrix(rows)
        snf = smith_normal_form(M)
        assert snf.invariant_factors() == factors
        assert matmul(snf.U, M, snf.V) == snf.S

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_properties(self, rows):
        M = IntMatrix(rows)
        snf = smith_normal_form(M)
        assert matmul(snf.U, M, snf.V) == snf.S
        assert abs(fraction_elimination(snf.U.data)[1]) == 1
        assert abs(fraction_elimination(snf.V.data)[1]) == 1
        diag = [snf.S.data[i][i] for i in range(min(M.rows, M.cols))]
        for i in range(M.rows):
            for j in range(M.cols):
                if i != j:
                    assert snf.S.data[i][j] == 0
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x != 0]
        assert diag[: len(nonzero)] == nonzero, "zeros must trail"
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


class TestKernel:
    def test_injective(self):
        assert kernel_lattice_basis(IntMatrix.identity(2)) == ()

    def test_sum_map(self):
        assert kernel_lattice_basis(IntMatrix([[1, 1]])) == ((1, -1),)

    def test_quadric(self):
        assert kernel_lattice_basis(IntMatrix([[1, 1, 1], [0, 1, 2]])) == ((1, -2, 1),)

    def test_zero_rows(self):
        assert kernel_lattice_basis(IntMatrix([], cols=2)) == ((1, 0), (0, 1))

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_kernel_properties(self, rows):
        M = IntMatrix(rows)
        basis = kernel_lattice_basis(M)
        assert len(basis) == M.cols - fraction_elimination(M.data)[0]
        for u in basis:
            assert M.mat_vec(u) == tuple(0 for _ in range(M.rows))
        # saturation: small integer kernel vectors must already be members.
        # The basis is the nonzero rows of a Hermite form, so membership is
        # integrality of the Hermite coordinates.
        if M.cols <= 3:
            for cand in itertools.product(range(-3, 4), repeat=M.cols):
                if any(cand) and M.mat_vec(cand) == tuple(0 for _ in range(M.rows)):
                    coords = next(_hermite_solutions(basis, [cand]))
                    assert coords is not None and all(q.denominator == 1 for q in coords)


def kernel_rows_cases():
    """Seeded vector lists for _kernel_rows: sparse entries give zero vectors,
    dependent vectors and trivial kernels."""
    rng = random.Random(409)
    cases = []
    for _ in range(24):
        width, n = rng.randint(1, 5), rng.randint(1, 8)
        cases.append([tuple(rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(width))
                      for _ in range(n)])
    return cases


KERNEL_ROWS_CASES = kernel_rows_cases()


class TestKernelRows:
    """The one Hermite kernel pass behind kernel_lattice_basis (and the table oracle)."""

    @pytest.mark.parametrize("index", range(len(KERNEL_ROWS_CASES)))
    def test_spans_the_saturated_kernel(self, index):
        vectors = KERNEL_ROWS_CASES[index]
        width, n = len(vectors[0]), len(vectors)
        rows = _kernel_rows(vectors, width)
        M = IntMatrix.from_columns(vectors, width)
        assert len(rows) == n - fraction_elimination(M.data)[0]
        for x in rows:
            assert len(x) == n and M.mat_vec(x) == (0,) * width
        # The same saturated lattice as the oracle's canonical basis.
        H = hermite_normal_form(IntMatrix(rows, cols=n))[0] if rows else IntMatrix([], cols=n)
        assert tuple(row for row in H.data if any(row)) == kernel_by_hermite_transform(M)

    def test_cases_cover_trivial_zero_and_dependent_vectors(self):
        ranks = [fraction_elimination(IntMatrix.from_columns(v, len(v[0])).data)[0]
                 for v in KERNEL_ROWS_CASES]
        assert any(r == len(v) for r, v in zip(ranks, KERNEL_ROWS_CASES))
        assert any(not any(x) for v in KERNEL_ROWS_CASES for x in v)
        assert any(r < min(len(v), len(v[0])) for r, v in zip(ranks, KERNEL_ROWS_CASES))

    def test_no_vectors_and_no_coordinates(self):
        assert _kernel_rows([], 3) == []
        assert _kernel_rows([(), ()], 0) == [[1, 0], [0, 1]]


class TestAgainstTheReplacedAlgorithms:
    """The Hermite kernel and Bareiss rank against the algorithms they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_kernel_matches_the_smith_kernel(self, rows):
        M = IntMatrix(rows)
        assert kernel_lattice_basis(M) == smith_kernel(M)
        assert kernel_lattice_basis(M.transpose()) == smith_kernel(M.transpose())

    def test_kernel_matches_the_hermite_transform_route(self):
        # One pass on plain rows [a_j | e_j] against the IntMatrix Hermite
        # form of A^T and its transform: the same basis, wide and tall
        # matrices, dependent rows and zero columns included.
        rng = random.Random(907)
        kinds = {"trivial": 0, "zero_column": 0, "rank_deficient": 0}
        for _ in range(600):
            rows, cols = rng.randint(1, 5), rng.randint(1, 9)
            M = IntMatrix([[rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(cols)]
                           for _ in range(rows)])
            basis = kernel_lattice_basis(M)
            assert basis == kernel_by_hermite_transform(M)
            kinds["trivial"] += basis == ()
            kinds["zero_column"] += not all(map(any, M.columns()))
            kinds["rank_deficient"] += fraction_elimination(M.data)[0] < min(rows, cols)
        assert min(kinds.values()) > 50

    def test_kernel_matches_the_smith_kernel_on_face_perp_lattices(self):
        rng = random.Random(113)
        checked = 0
        for _ in range(100):
            config = random_configuration(rng)
            for face in config.face_lattice():
                M = IntMatrix([config.column(j) for j in face.indices], cols=config.d)
                assert kernel_lattice_basis(M) == smith_kernel(M)
                checked += 1
        assert checked > 500

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0], [0, 0]],
            [[0, 2, 1], [0, 4, 3], [0, 6, 5]],
            [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
            [[1, 2, 3], [2, 4, 6], [3, 6, 9]],
            [[0, 1], [1, 0]],
            [[2, -3, 5, 7]],
            [[1, 2, 3, 4], [2, 4, 7, 8]],
            [[1], [2], [3]],
            [[0, 3], [0, 6], [1, 2], [4, 4]],
            [[]],
            [],
        ],
        ids=[
            "zero", "zero_column", "dependent_rows", "rank_one", "swap",
            "wide_row", "wide", "tall_column", "tall", "no_columns", "no_rows",
        ],
    )
    def test_rank_and_det_match_fraction_elimination(self, rows):
        # A square matrix has full Bareiss rank exactly when its determinant is nonzero.
        rank, det = fraction_elimination(rows)
        assert rank_int(rows) == rank
        if det is not None:
            assert (rank_int(rows) == len(rows)) == (det != 0)

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_rank_and_det_match_fraction_elimination_at_random(self, rows):
        for m in (rows, [list(col) for col in zip(*rows)]):
            rank, det = fraction_elimination(m)
            assert rank_int(m) == rank
            if det is not None:
                assert (rank_int(m) == len(m)) == (det != 0)


def seeded_vectors(rng):
    """Integer vectors: the empty tuple, zero vectors, negative entries, entries near 10**30."""
    vectors = [(), (0,), (0, 0, 0), (-4,), (1,), (-6, 0, 9), (10**30, -(10**30) - 10)]
    for _ in range(400):
        scale = rng.choice((1, 2, 6, -15, 10**30, 10**30 + 1, 3 * 10**29))
        noise = rng.choice((0, 0, 1))
        vectors.append(tuple(scale * rng.randint(-5, 5) + noise * rng.randint(-3, 3)
                             for _ in range(rng.randint(0, 6))))
    return vectors


class TestKernels:
    """primitive_vector and cones._dot against plain loops."""

    def test_primitive_vector(self):
        vectors = seeded_vectors(random.Random(151))
        # Some vectors near 10**30 share a factor that divides out.
        assert any(max(map(abs, v), default=0) > 10**29 and primitive_vector(v) != v
                   for v in vectors)
        for v in vectors:
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            expected = tuple(x // g for x in v) if g > 1 else tuple(v)
            assert primitive_vector(v) == expected
            assert primitive_vector(list(v)) == expected

    def test_dot(self):
        rng = random.Random(157)
        vectors = seeded_vectors(rng)
        for u in vectors:
            v = rng.choice([w for w in vectors if len(w) == len(u)])
            total = 0
            for a, b in zip(u, v):
                total += a * b
            assert cones._dot(u, v) == total


class TestSolve:
    def test_identity(self):
        x = solve_rational(IntMatrix.identity(2), [Fraction(5), Fraction(1, 3)])
        assert x == (Fraction(5), Fraction(1, 3))

    def test_underdetermined_by_substitution(self):
        A = IntMatrix([[1, 1]])
        x = solve_rational(A, [Fraction(3, 2)])
        assert x is not None
        assert sum(x) == Fraction(3, 2)

    def test_inconsistent(self):
        assert solve_rational(IntMatrix([[1, 0], [1, 0]]), [0, 1]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_rational(IntMatrix([[1, 0]]), [1, 2])


class TestHermiteCoordinates:
    def test_hermite_coordinates_match_the_rational_solve(self):
        # The rows are independent, so the Gauss-Jordan solution is the
        # unique one: equal coordinates inside the span, None outside it.
        rng = random.Random(7)
        kinds = {"member": 0, "fractional": 0, "outside": 0}
        for _ in range(80):
            r, n = rng.randint(1, 3), rng.randint(1, 4)
            H, _ = hermite_normal_form(
                IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)])
            )
            rows = [row for row in H.data if any(row)]
            if not rows:
                continue
            coeffs = [rng.randint(-5, 5) for _ in rows]
            planted = tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(n))
            assert next(_hermite_solutions(rows, [planted])) == tuple(coeffs)
            third = tuple(Fraction(x, 3) for x in planted)
            assert next(_hermite_solutions(rows, [third])) == tuple(Fraction(c, 3) for c in coeffs)
            for v in (tuple(rng.randint(-6, 6) for _ in range(n)), planted, third):
                x = solve_rational(IntMatrix(rows).transpose(), v)
                coords = next(_hermite_solutions(rows, [v]))
                if x is None:
                    kinds["outside"] += 1
                    assert coords is None
                    continue
                assert coords == x
                member = all(q.denominator == 1 for q in coords)
                kinds["member" if member else "fractional"] += 1
                if v == planted:
                    assert member
        assert min(kinds.values()) >= 5, kinds


class TestFormatCombination:
    """The one renderer of signed integer sums, against the texts that the congruence
    ("w . beta in Z", gap " ") and Euler-operator (gap "") renderers printed before."""

    @pytest.mark.parametrize(
        "coefficients, congruence, euler",
        [
            ((), "0", "0"),
            ((0, 0, 0), "0", "0"),
            ((1,), "b1", "x_1*dx_1"),
            ((-1,), "-b1", "-x_1*dx_1"),
            ((-1, 2, 0), "-b1 + 2*b2", "-x_1*dx_1+2*x_2*dx_2"),
            ((1, -1, 2, -2), "b1 - b2 + 2*b3 - 2*b4", "x_1*dx_1-x_2*dx_2+2*x_3*dx_3-2*x_4*dx_4"),
            ((3, 0, -1), "3*b1 - b3", "3*x_1*dx_1-x_3*dx_3"),
            ((-3, 0, 1), "-3*b1 + b3", "-3*x_1*dx_1+x_3*dx_3"),
            ((0, -2, 0, 1), "-2*b2 + b4", "-2*x_2*dx_2+x_4*dx_4"),
            ((10**30, -1), f"{10**30}*b1 - b2", f"{10**30}*x_1*dx_1-x_2*dx_2"),
        ],
    )
    def test_both_gaps_match_the_old_renderers(self, coefficients, congruence, euler):
        assert format_combination(coefficients, lambda k: f"b{k}", " ") == congruence
        assert format_combination(coefficients, lambda j: f"x_{j}*dx_{j}") == euler
        assert _congruence_text(coefficients) == f"{congruence} in Z"
        op = EulerOperator(1, coefficients, GaussRat(Fraction(-1, 2)))
        assert _euler_text(op, lambda j: f"x_{j}", lambda j: f"dx_{j}", "ii") == euler + "-1/2"


class TestGaussRat:
    def test_parse_forms(self):
        assert GaussRat.parse("3/6") == GaussRat(Fraction(1, 2))
        assert GaussRat.parse(-2) == GaussRat(Fraction(-2))
        assert GaussRat.parse({"re": "1/2", "im": "-1/3"}) == GaussRat(
            Fraction(1, 2), Fraction(-1, 3)
        )

    def test_rejects_floats_and_garbage(self):
        for bad in ("0.5", "1e3", "1/0", "pi", ""):
            with pytest.raises(InputError):
                parse_rational(bad)
        with pytest.raises(InputError):
            GaussRat.parse(0.5)
        with pytest.raises(InputError):
            GaussRat.parse({"re": "1", "imag": "2"})

    @pytest.mark.parametrize(
        "bad", ["\u0661/\u0662", "\uff11", "1/\u0662", "-\u0967", "\U0001d7d9"]
    )
    def test_rejects_non_ascii_digits(self, bad):
        # int() reads these as 1/2, 1, 1/2, -1 and 1; a literal takes ASCII digits only.
        with pytest.raises(InputError, match="not a rational literal"):
            parse_rational(bad)

    @pytest.mark.parametrize("bad", [True, False, {"re": True}, {"re": "1", "im": False}])
    def test_rejects_bools(self, bad):
        with pytest.raises(InputError):
            GaussRat.parse(bad)

    @pytest.mark.parametrize(
        "nested",
        [
            {"re": {"re": "1", "im": "2"}, "im": {"re": "3", "im": "5"}},
            {"re": "1", "im": {"im": "1"}},
            {"re": {"re": "1"}},
        ],
    )
    def test_rejects_nested_complex_literals(self, nested):
        with pytest.raises(InputError):
            GaussRat.parse(nested)

    def test_arithmetic(self):
        a = GaussRat(Fraction(1, 2), Fraction(1))
        b = GaussRat(Fraction(1, 2), Fraction(-1))
        assert a + b == GaussRat(Fraction(1))
        assert a - a == GaussRat()
        assert a * b == GaussRat(Fraction(5, 4))
        assert -a == GaussRat(Fraction(-1, 2), Fraction(-1))
        assert 2 * a == GaussRat(Fraction(1), Fraction(2))

    def test_predicates_and_json(self):
        assert GaussRat(Fraction(3)).is_integer
        assert not GaussRat(Fraction(1, 2)).is_integer
        assert GaussRat(Fraction(1, 2)).to_json() == "1/2"
        assert GaussRat(Fraction(0), Fraction(1)).to_json() == {"re": "0", "im": "1"}
        assert str(GaussRat(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*i"


    @pytest.mark.parametrize(
        "re, im",
        [(0.1, 0), (0, 0.5), (True, 0), (0, False), ("1/2", 0), (1, "1")],
        ids=["float-re", "float-im", "bool-re", "bool-im", "str-re", "str-im"],
    )
    def test_constructor_takes_only_int_and_fraction(self, re, im):
        with pytest.raises(TypeError):
            GaussRat(re, im)

    def test_constructor_normalizes_int_and_fraction(self):
        z = GaussRat(3, Fraction(2, 4))
        assert (z.re, z.im) == (Fraction(3), Fraction(1, 2))
        assert type(z.re) is type(z.im) is Fraction

    def test_float_factor_rejected(self):
        with pytest.raises(TypeError):
            GaussRat(Fraction(1, 2)) * 0.5
        with pytest.raises(TypeError):
            0.5 * GaussRat(Fraction(1, 2))


class TestIntMatrix:
    def test_requires_true_integers(self):
        with pytest.raises(TypeError):
            IntMatrix([[Fraction(1, 2)]])

    @pytest.mark.parametrize("rows", [[[True, False]], [[1, 2], [0, False]]])
    def test_rejects_bool_entries(self, rows):
        with pytest.raises(TypeError):
            IntMatrix(rows)

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatch):
            IntMatrix([[1, 2], [3]])

    def test_hashable_and_immutable(self):
        M = IntMatrix([[1]])
        assert hash(M) == hash(IntMatrix([[1]]))
        with pytest.raises(AttributeError):
            M.rows = 2
