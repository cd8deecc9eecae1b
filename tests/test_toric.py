import functools
import hashlib
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
from gkzmono.groebner import (
    DEFAULT_STEP_BUDGET,
    StepBudget,
    buchberger,
    elimination_key,
    reduced_basis,
)
from gkzmono.toric import EulerOperator, _saturation_input, binomial_from_kernel_vector
from groebner_reference import reference_toric_ideal
from oracles import fiber_grading, markov_fiber_failures
from sweeps import random_configuration, rational_normal_curve

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
    memo is read.  Every run fails at -1 steps, and a run that spends no
    step succeeds at 0: [[0, -1, -1], [0, 0, -1]] saturates dx_1 - 1 and
    t*dx_2*dx_3 - 1, whose leads are coprime.
    """
    fails, succeeds = -1, 0
    while budget_outcome(Configuration(A), succeeds) is None:
        fails, succeeds = succeeds, 2 * succeeds + 1
    while succeeds - fails > 1:
        mid = (fails + succeeds) // 2
        if budget_outcome(Configuration(A), mid) is None:
            fails = mid
        else:
            succeeds = mid
    return succeeds


def engine_steps(config):
    """The steps of the engine's saturation of config, as toric_ideal_generators runs it.

    The input saturates at M, the columns where some row of the kernel
    basis is negative, and only the elements with a t-free lead are reduced.
    """
    budget = StepBudget(DEFAULT_STEP_BUDGET)
    basis = buchberger(_saturation_input(config), elimination_key, budget)
    reduced_basis([g for g in basis if not g[0][-1]], elimination_key, budget)
    return DEFAULT_STEP_BUDGET - budget.remaining


def saturated_columns(config):
    """The 0-based columns t * prod_{j in M} x_j - 1 names in the runtime's input."""
    saturating = _saturation_input(config)[-1]
    assert saturating[0][-1] == 1 and not any(saturating[1])
    return [j for j, e in enumerate(saturating[0][:-1]) if e]


def kernel_pivots(config):
    return [next(x for x in u if x) for u in config.kernel]


def negative_columns(config):
    """M: the 0-based columns where some kernel row is negative."""
    return sorted({j for u in config.kernel for j, x in enumerate(u) if x < 0})


def off_pivot_columns(config):
    """N: the 0-based columns where no kernel row has its pivot."""
    pivots = {min(j for j, x in enumerate(u) if x) for u in config.kernel}
    return [j for j in range(config.n) if j not in pivots]


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
        assert engine_steps(config) == 1473

    def test_signed_seven_columns_within_20000_steps(self):
        # From the canonical kernel basis, saturated at the columns where a
        # row is negative, with each new Buchberger element stored without
        # the common factor of its lead and tail, this input saturates in
        # 17 640 steps (17 503 at the columns off its pivots).  The
        # generators, and so the digest, depend on neither the kernel
        # basis, the saturated columns nor the cancellation.  Each budget
        # runs on a fresh configuration, so no saturation memo answers in
        # its place.
        A = IntMatrix([
            [-3, -3, 1, -2, -2, -1, 0], [2, -1, 1, 2, -1, 3, -1], [2, 2, 0, -1, -1, -1, -3]
        ])
        gens = toric_ideal_generators(Configuration(A), max_steps=20000)
        assert len(gens) == 206
        assert hashlib.sha256(repr([(b.plus, b.minus) for b in gens]).encode()).hexdigest() == (
            "f0bfee0e9e99fe99874c212dffa256db541224f07056fed592d8dcb6524c6d2b"
        )
        assert budget_outcome(Configuration(A), 17640) == gens
        assert budget_outcome(Configuration(A), 17639) is None

    def test_the_degree_16_curve_within_8431_steps(self):
        # toric-ideal on the curve exits 2 at --max-steps 8430 and prints its
        # 120 generators at 8431, each budget on a fresh configuration.
        assert budget_outcome(rational_normal_curve(16), 8430) is None
        assert len(budget_outcome(rational_normal_curve(16), 8431)) == 120

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


def oracle_sweep_cases():
    """300 seeded signed configurations, d <= 3 and n <= 6, entries in [-3, 3]."""
    rng = random.Random(2099)
    return [random_configuration(rng, dmax=3, nmax=6) for _ in range(300)]


class TestSaturatedColumns:
    """The runtime saturates only at M, the columns where a row of the Hermite basis is negative.

    Every row's negative part lies on M.  Once the columns of M are inverted,
    each row makes the variables of its positive part units, so every
    variable that occurs in a row is a unit, and the other variables occur
    in no generator: I_B : x_M^oo is the toric ideal.  Hermite form keeps
    the entries at the other rows' pivots in [0, pivot), so M lies within N,
    the d columns off the pivots.  The oracle,
    groebner_reference.reference_toric_ideal, saturates at every column.
    """

    def test_the_runtime_matches_the_full_saturation_oracle(self):
        cases = oracle_sweep_cases()
        counts = {"pivot_not_1": 0, "zero_column": 0, "duplicate_columns": 0, "non_pointed": 0}
        smaller_than_n = 0
        for config in cases:
            columns = config.A.columns()
            counts["pivot_not_1"] += any(p != 1 for p in kernel_pivots(config))
            counts["zero_column"] += any(not any(v) for v in columns)
            counts["duplicate_columns"] += len(set(columns)) < len(columns)
            counts["non_pointed"] += bool(config.lineality_columns)
            if config.kernel:
                smaller_than_n += set(saturated_columns(config)) < set(off_pivot_columns(config))
            generators = sorted((b.plus, b.minus) for b in toric_ideal_generators(config))
            assert generators == reference_toric_ideal(config)
        assert counts["pivot_not_1"] >= 100
        assert min(counts.values()) >= 20
        assert smaller_than_n >= 100

    def test_one_round_from_the_negative_columns_reaches_every_occurring_variable(self):
        # The premise of the exactness argument, on every sweep configuration.
        with_kernel = 0
        for config in oracle_sweep_cases():
            n, negative = config.n, negative_columns(config)
            assert saturated_columns(config) == negative
            off = off_pivot_columns(config)
            assert set(negative) <= set(off) and len(off) == config.d
            start, reached = {*negative, n}, {*negative, n}
            for pair in _saturation_input(config)[:-1]:
                for p, q in (pair, pair[::-1]):
                    if {k for k, e in enumerate(q) if e} <= start:
                        reached |= {k for k, e in enumerate(p) if e}
            assert reached == {j for u in config.kernel for j, x in enumerate(u) if x} | {n}
            with_kernel += bool(config.kernel)
        assert with_kernel >= 250

    def test_a_single_row_without_a_unit_pivot_saturates_off_its_pivot(self):
        config = Configuration(IntMatrix([[2, 3]]))
        assert config.kernel == ((3, -2),)
        assert saturated_columns(config) == [1]
        assert [(b.plus, b.minus) for b in toric_ideal_generators(config)] == [((3, 0), (0, 2))]

    def test_a_kernel_without_negative_entries_saturates_at_t_minus_1(self):
        config = Configuration(IntMatrix([[1, -1, 0], [0, 0, 1]]))
        assert config.kernel == ((1, 1, 0),)
        assert _saturation_input(config)[-1] == ((0, 0, 0, 1), (0, 0, 0, 0))
        assert [(b.plus, b.minus) for b in toric_ideal_generators(config)] == [
            ((1, 1, 0), (0, 0, 0))
        ]

    def test_a_zero_column_is_never_saturated(self):
        # The zero column j gives the kernel row e_j, pivot 1, and dx_j - 1.
        checked = 0
        for config in oracle_sweep_cases():
            zero = [j for j, v in enumerate(config.A.columns()) if not any(v)]
            if zero:
                assert not set(zero) & set(saturated_columns(config))
                checked += 1
        assert checked >= 20
        # Column 3 is off the pivots, but no row is negative there.
        config = Configuration(IntMatrix([[1, 0, 1, 1], [0, 0, 1, 2]]))
        assert off_pivot_columns(config) == [2, 3]
        assert saturated_columns(config) == [2]
        assert [(b.plus, b.minus) for b in toric_ideal_generators(config)] == [
            ((0, 1, 0, 0), (0, 0, 0, 0)),
            ((1, 0, 0, 1), (0, 0, 2, 0)),
        ]

    @pytest.mark.parametrize("k", [2, 3, 6, 16])
    def test_the_curve_of_degree_k_saturates_one_column(self, k):
        assert len(saturated_columns(rational_normal_curve(k))) == 1

    def test_golden_negative_numerators_within_30000_steps(self):
        # The benchmark's 140-face configuration saturates in 15 712 steps;
        # at every column it needed 119 243.
        config = Configuration(IntMatrix([
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], [3, 0, 0, 2, 3, 0, 1, 1, 0, 0, 1, 0],
            [1, 0, 1, 3, 1, 2, 0, 1, 0, 2, 2, 0], [3, 1, 0, 2, 0, 2, 0, 3, 0, 1, 0, 0],
            [2, 0, 0, 1, 3, 0, 0, 2, 1, 2, 2, 0],
        ]))
        assert len(toric_ideal_generators(config, max_steps=30000)) == 228


MARKOV_COUNT = 46


@functools.cache
def markov_cases():
    """Curves of degree 2-6 (the twisted cubic among them), twelve_columns, and
    40 seeded pointed configurations whose generators have degree at most 8
    times the least column degree, so that their fibers hold few points."""
    cases = [rational_normal_curve(k) for k in range(2, 7)]
    cases.append(Configuration(IntMatrix(TWELVE_COLUMNS)))
    rng = random.Random(131)
    while len(cases) < MARKOV_COUNT:
        config = random_configuration(rng, dmax=3, nmax=6)
        if config.lineality_columns or not config.kernel:
            continue
        weights = fiber_grading(config)
        top = max(sum(w * e for w, e in zip(weights, b.plus))
                  for b in toric_ideal_generators(config))
        if top <= 8 * min(weights):
            cases.append(config)
    return cases


class TestMarkovFibers:
    """The generators connect every fiber up to their degree (oracles.markov_fiber_failures).

    The seed-5 d=7, n=18 cone is left out: its column degrees are about
    25 000 each, and saturating it alone did not finish in 100 s.
    """

    @pytest.mark.parametrize("index", range(MARKOV_COUNT))
    def test_the_generators_connect_every_fiber(self, index):
        # Built at the first test, not at collection: a saturation fault
        # then fails each test, not the module's collection.
        config = markov_cases()[index]
        assert markov_fiber_failures(config, toric_ideal_generators(config)) == []

    def test_a_dropped_generator_disconnects_its_fiber(self):
        gens = toric_ideal_generators(CUBIC)
        for k, b in enumerate(gens):
            assert markov_fiber_failures(CUBIC, gens[:k] + gens[k + 1:]) == [
                CUBIC.A.mat_vec(b.plus)
            ]


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

    def test_a_generator_m_minus_1_makes_units(self):
        # x1*x2 - 1 makes x1 and x2 units: x2*(x1^2*x3 - x2) = x1*x3 - x2^2
        # modulo it.  x1 -> s, x2 -> 1/s, x3 -> s^-3 kills both generators
        # but not x1 - x3.
        generators = [Binomial((1, 1, 0), (0, 0, 0)), Binomial((2, 0, 1), (0, 1, 0))]
        assert in_ideal(generators, Binomial((1, 0, 1), (0, 2, 0)), 3)
        assert not in_ideal(generators, Binomial((1, 0, 0), (0, 0, 1)), 3)

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

    @pytest.mark.parametrize("plus, minus", [((1.7, 0), (0, 2.2)), ((True, 0), (0, 1))])
    def test_exponents_are_not_truncated_or_coerced(self, plus, minus):
        with pytest.raises(TypeError):
            Binomial(plus, minus)
