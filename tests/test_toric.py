import itertools
import random
from fractions import Fraction

import pytest

from gkzmono import (
    Binomial,
    Configuration,
    DimensionMismatch,
    GaussRat,
    IntMatrix,
    ScaleLimit,
    enumerate_faces,
    euler_operators,
    hypergeometric_system,
    in_ideal,
    is_pyramid,
    lattice_binomials,
    toric_ideal_generators,
)
from gkzmono.groebner import DEFAULT_STEP_BUDGET, StepBudget, buchberger, elimination_key
from gkzmono.toric import EulerOperator, binomial_from_kernel_vector
from groebner_reference import reference_toric_ideal, saturation_generators
from sweeps import random_configuration

QUADRIC = Configuration(IntMatrix([[1, 1, 1], [0, 1, 2]]))
CUBIC = Configuration(IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]]))
TWELVE_COLUMNS = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 0],
    [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3],
]


def torus_substitution_vanishes(config, binomial):
    """Substituting dx_j -> t^(a_j) must kill the binomial exactly.

    The two monomials become t^(A*plus) and t^(A*minus), so the difference
    vanishes iff the Laurent exponents coincide.
    """
    return config.A.mat_vec(binomial.plus) == config.A.mat_vec(binomial.minus)


def budget_outcome(config, max_steps):
    """The generators under max_steps, or None when the budget runs out."""
    try:
        return toric_ideal_generators(config, max_steps)
    except ScaleLimit:
        return None


def steps_needed(A):
    """The least budget under which a cold saturation of A succeeds.

    Doubling, then bisection, each probe on a fresh Configuration so that no
    memo is read: a fresh run fails at 0 steps, since the kernel is nonzero.
    """
    fails, succeeds = 0, 1
    while budget_outcome(Configuration(A), succeeds) is None:
        fails, succeeds = succeeds, 2 * succeeds
    while succeeds - fails > 1:
        mid = (fails + succeeds) // 2
        if budget_outcome(Configuration(A), mid) is None:
            fails = mid
        else:
            succeeds = mid
    return succeeds


def engine_steps(config):
    """The steps the Buchberger engine spends on the saturation input of config."""
    budget = StepBudget(DEFAULT_STEP_BUDGET)
    buchberger(saturation_generators(config), elimination_key, budget)
    return DEFAULT_STEP_BUDGET - budget.remaining


def bounded_kernel_binomials(config, degree_bound):
    """All binomials of kernel vectors with |u|_1 <= degree_bound (oracle)."""
    zero = tuple(0 for _ in range(config.d))
    out = []
    for u in itertools.product(range(-degree_bound, degree_bound + 1), repeat=config.n):
        if any(u) and sum(abs(x) for x in u) <= degree_bound:
            if config.A.mat_vec(u) == zero:
                out.append(binomial_from_kernel_vector(u))
    return out


class TestEulerOperators:
    def test_quadric(self):
        ops = euler_operators(QUADRIC, ["1/2", "1"])
        assert [(op.index, op.coefficients) for op in ops] == [
            (1, (1, 1, 1)),
            (2, (0, 1, 2)),
        ]
        assert [op.shift for op in ops] == [
            GaussRat(Fraction(-1, 2)),
            GaussRat(Fraction(-1)),
        ]

    def test_identity_matrix(self):
        ops = euler_operators(Configuration(IntMatrix.identity(2)), ["1/3", "2"])
        assert ops[0].coefficients == (1, 0)
        assert ops[1].coefficients == (0, 1)

    def test_zero_beta_zero_shifts(self):
        ops = euler_operators(QUADRIC, ["0", "0"])
        assert all(op.shift == GaussRat(0) for op in ops)

    @pytest.mark.parametrize("coefficients", [(1.9, 2), (1, True)])
    def test_coefficients_are_not_truncated_or_coerced(self, coefficients):
        with pytest.raises(TypeError):
            EulerOperator(1, coefficients, GaussRat(0))


class TestLatticeBinomials:
    def test_quadric(self):
        assert [(b.plus, b.minus) for b in lattice_binomials(QUADRIC)] == [
            ((1, 0, 1), (0, 2, 0))
        ]

    def test_identity(self):
        assert lattice_binomials(Configuration(IntMatrix.identity(3))) == []

    def test_two_equal_weights(self):
        assert [(b.plus, b.minus) for b in lattice_binomials(Configuration(IntMatrix([[1, 1]])))] == [
            ((1, 0), (0, 1))
        ]

    def test_homogeneous(self):
        rng = random.Random(101)
        for _ in range(25):
            config = random_configuration(rng, dmax=3, nmax=6)
            for b in lattice_binomials(config):
                assert torus_substitution_vanishes(config, b)


class TestToricIdeal:
    def test_quadric_saturation_adds_nothing(self):
        assert [(b.plus, b.minus) for b in toric_ideal_generators(QUADRIC)] == [
            ((1, 0, 1), (0, 2, 0))
        ]

    def test_twisted_cubic_minors(self):
        gens = toric_ideal_generators(CUBIC)
        assert [(b.plus, b.minus) for b in gens] == [
            ((1, 0, 1, 0), (0, 2, 0, 0)),
            ((1, 0, 0, 1), (0, 1, 1, 0)),
            ((0, 1, 0, 1), (0, 0, 2, 0)),
        ]

    def test_identity_trivial(self):
        assert toric_ideal_generators(Configuration(IntMatrix.identity(2))) == []

    def test_case_where_saturation_matters(self):
        config = Configuration(IntMatrix([[1, 1, 1, 1], [0, 1, 3, 4]]))
        gens = toric_ideal_generators(config)
        plain = lattice_binomials(config)
        # oracle: every degree-bounded kernel binomial lies in the saturated
        # ideal; the plain lattice-basis ideal misses some of them
        oracle = bounded_kernel_binomials(config, 8)
        assert oracle
        assert all(in_ideal(gens, b, config.n) for b in oracle)
        assert not all(in_ideal(plain, b, config.n) for b in oracle)

    def test_generators_are_homogeneous_and_vanish_on_the_torus(self):
        rng = random.Random(103)
        for _ in range(20):
            config = random_configuration(rng, dmax=3, nmax=5)
            for b in toric_ideal_generators(config):
                assert torus_substitution_vanishes(config, b)

    def test_contains_lattice_binomials(self):
        rng = random.Random(107)
        for _ in range(15):
            config = random_configuration(rng, dmax=3, nmax=5)
            gens = toric_ideal_generators(config)
            for b in lattice_binomials(config):
                assert in_ideal(gens, b, config.n)

    def test_cubic_oracle_cross_check(self):
        gens = toric_ideal_generators(CUBIC)
        for b in bounded_kernel_binomials(CUBIC, 6):
            assert in_ideal(gens, b, CUBIC.n)

    def test_pyramid_faces_do_not_appear_in_generators(self):
        rng = random.Random(109)
        checked = 0
        for _ in range(60):
            config = random_configuration(rng, dmax=3, nmax=5)
            gens = None
            for face in enumerate_faces(config, "dd"):
                if not is_pyramid(config, face):
                    continue
                outside = [j for j in range(1, config.n + 1) if j not in face.indices]
                vectors = [config.column(j) for j in outside]
                if len(set(vectors)) != len(vectors):
                    continue  # duplicated outside columns carry their own relation
                if gens is None:
                    gens = toric_ideal_generators(config)
                for b in gens:
                    for j in outside:
                        assert b.plus[j - 1] == 0 and b.minus[j - 1] == 0
                checked += 1
        assert checked >= 10

    def test_twelve_columns_complete_under_the_default_budget(self):
        # The golden twelve_columns case runs out of a 100-step budget.
        config = Configuration(IntMatrix(TWELVE_COLUMNS))
        gens = toric_ideal_generators(config)
        assert len(gens) == 53
        assert all(torus_substitution_vanishes(config, b) for b in gens)
        assert sorted((b.plus, b.minus) for b in gens) == reference_toric_ideal(config)

    def test_huge_exponents(self):
        # The engine's lead index must be sized by the leads it holds, not by
        # their exponents: one exponent here is 10**12.
        config = Configuration(IntMatrix([[1, 1, 1], [0, 1, 10**12]]))
        assert [(b.plus, b.minus) for b in toric_ideal_generators(config)] == [
            ((10**12 - 1, 0, 1), (0, 10**12, 0))
        ]

    def test_scale_limit(self):
        # Saturate first, so the raise comes from the replayed step count
        # whatever ran before.
        toric_ideal_generators(CUBIC)
        with pytest.raises(ScaleLimit):
            toric_ideal_generators(CUBIC, max_steps=2)

    def test_failed_run_stores_nothing(self):
        config = Configuration(CUBIC.A)
        with pytest.raises(ScaleLimit):
            toric_ideal_generators(config, max_steps=2)
        assert toric_ideal_generators(config) == toric_ideal_generators(Configuration(CUBIC.A))

    def test_budget_replay_matches_a_cold_run(self):
        rng = random.Random(113)
        matrices = [IntMatrix(TWELVE_COLUMNS)]
        while len(matrices) < 31:
            config = random_configuration(rng, dmax=3, nmax=5)
            if lattice_binomials(config):
                matrices.append(config.A)
        for A in matrices:
            shared = Configuration(A)
            full = toric_ideal_generators(shared)
            s = steps_needed(A)
            # A cold call succeeds exactly when the engine's run fits.
            assert s == engine_steps(shared)
            for k in (1, 2, 100, s - 1, s):
                cold = budget_outcome(Configuration(A), k)
                assert budget_outcome(shared, k) == cold
                assert (cold is None) == (k < s)
            assert cold == full

    def test_deterministic(self):
        assert toric_ideal_generators(CUBIC) == toric_ideal_generators(CUBIC)


class TestInIdeal:
    QUADRIC_BINOMIAL = Binomial((2, 0, 0), (0, 1, 1))

    @pytest.mark.parametrize(
        "generators, candidate",
        [
            ([QUADRIC_BINOMIAL], Binomial((2, 0), (0, 1))),
            ([Binomial((2, 0), (0, 1))], QUADRIC_BINOMIAL),
            ([QUADRIC_BINOMIAL, Binomial((1, 0, 0, 0), (0, 0, 0, 1))], QUADRIC_BINOMIAL),
        ],
    )
    def test_every_binomial_has_nvars_exponents(self, generators, candidate):
        with pytest.raises(DimensionMismatch):
            in_ideal(generators, candidate, 3)

    def test_orientation_of_generators_and_candidate_is_free(self):
        member = Binomial((4, 0, 0), (0, 2, 2))
        outsider = Binomial((1, 0, 0), (0, 1, 0))
        for generators in ([self.QUADRIC_BINOMIAL], [Binomial((0, 1, 1), (2, 0, 0))]):
            for candidate in (member, Binomial(member.minus, member.plus)):
                assert in_ideal(generators, candidate, 3)
            assert not in_ideal(generators, outsider, 3)


class TestHypergeometricSystem:
    def test_bundles_everything(self):
        system = hypergeometric_system(QUADRIC, ["1/2", "1"])
        assert system.saturated
        assert system.nvars == 3
        assert len(system.euler) == 2
        assert [(b.plus, b.minus) for b in system.binomials] == [((1, 0, 1), (0, 2, 0))]

    def test_scale_limit_below_budget(self):
        # No fallback to the kernel-lattice binomials: they generate a
        # different D-module.
        with pytest.raises(ScaleLimit):
            hypergeometric_system(Configuration(CUBIC.A), ["0", "0"], max_steps=2)

    def test_scale_limit_below_budget_after_a_saturation(self):
        config = Configuration(CUBIC.A)
        assert hypergeometric_system(config, ["0", "0"]).saturated
        with pytest.raises(ScaleLimit):
            hypergeometric_system(config, ["0", "0"], max_steps=2)

    def test_binomials_are_the_toric_ideal_generators(self):
        rng = random.Random(29)
        for _ in range(40):
            config = random_configuration(rng, dmax=3, nmax=6, lo=-2, hi=2)
            system = hypergeometric_system(config, ["1/2"] * config.d)
            assert system.saturated
            assert system.binomials == tuple(toric_ideal_generators(Configuration(config.A)))


class TestBinomialType:
    def test_rejects_equal_monomials(self):
        with pytest.raises(ValueError):
            Binomial((1, 0), (1, 0))

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            Binomial((2, 1), (1, 2))

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Binomial((1, -1), (0, 0))

    def test_exponent_vector(self):
        assert Binomial((1, 0, 1), (0, 2, 0)).exponent == (1, -2, 1)

    @pytest.mark.parametrize("plus, minus", [((1.7, 0), (0, 2.2)), ((True, 0), (0, 1))])
    def test_exponents_are_not_truncated_or_coerced(self, plus, minus):
        with pytest.raises(TypeError):
            Binomial(plus, minus)
