"""The Buchberger engine against a step-exact reference and against sympy.

groebner_reference.py keeps the engine with set-based pair selection and a
linear scan for divisors.  The engine's reduced_basis(buchberger(...)) must
return the reference's basis and spend exactly the same steps on every input
and budget, so every --max-steps outcome of the CLI is unchanged.  The engine's index of leads is checked
against that scan on its own.  The sympy oracle checks the toric ideal
itself with an independent Groebner implementation.
"""

import operator
import random

import pytest

import groebner_reference as reference
from gkzmono import (
    Configuration,
    GkzError,
    IntMatrix,
    ScaleLimit,
    kernel_lattice_basis,
    lattice_binomials,
    toric_ideal_generators,
)
from gkzmono import groebner
from gkzmono.groebner import (
    DEFAULT_STEP_BUDGET,
    StepBudget,
    _first,
    _Leads,
    buchberger,
    elimination_key,
    grevlex_key,
    reduced_basis,
)
from gkzmono.toric import _saturation_input
from oracles import matmul
from sweeps import random_configuration, random_unimodular, rational_normal_curve

KEYS = {"elimination": elimination_key, "grevlex": grevlex_key}
NON_POINTED = (
    [[1, -1, 0], [0, 0, 1]],
    [[1, -1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]],
)


def pointed_configuration(rng, n, hi=3):
    """n distinct columns (1, x, y) with x, y in [0, hi], generating Z^3."""
    while True:
        columns = set()
        while len(columns) < n:
            columns.add((1, rng.randint(0, hi), rng.randint(0, hi)))
        columns = list(columns)
        rng.shuffle(columns)
        try:
            return Configuration(IntMatrix.from_columns(columns, 3))
        except GkzError:
            continue


def random_binomials(rng, nvars, count, top=2):
    """Pure differences of random monomials (not a lattice ideal in general)."""
    def monomial():
        return tuple(rng.randint(0, top) for _ in range(nvars))

    return [(monomial(), monomial()) for _ in range(count)]


def saturation_configurations():
    rng = random.Random(2027)
    configs = [pointed_configuration(rng, 6) for _ in range(8)]
    configs.append(pointed_configuration(rng, 7))
    configs += [rational_normal_curve(k) for k in range(2, 9)]
    configs += [Configuration(IntMatrix(A)) for A in NON_POINTED]
    return configs


def kernel_degree(config):
    """Total degree of the kernel-basis binomials, the saturation input's size."""
    return sum(sum(b.plus) + sum(b.minus) for b in lattice_binomials(config))


def heavy_saturation_configurations():
    """Curves of degree 9 and 10, and n = 7 configurations of kernel degree 22-28.

    The degree is that of the Hermite kernel basis, the saturation's input.
    """
    rng = random.Random(2033)
    configs = [rational_normal_curve(9), rational_normal_curve(10)]
    while len(configs) < 6:
        config = pointed_configuration(rng, 7)
        if 22 <= kernel_degree(config) <= 28:
            configs.append(config)
    return configs


def binomial_inputs():
    rng = random.Random(2029)
    return [random_binomials(rng, rng.randint(3, 5), rng.randint(2, 5)) for _ in range(25)]


# A basis of the degree-6 curve's kernel lattice that is short in the L1
# norm (the Hermite basis reduced pairwise): without t*x_1*...*x_7 - 1 its
# saturation input has no unit generator.
CURVE_6_SHORT_KERNEL_BASIS = [
    (1, -1, 0, 0, 0, -1, 1),
    (0, 1, -1, 0, 0, -1, 1),
    (0, 0, 1, -1, 0, -1, 1),
    (0, 0, 0, 1, -1, -1, 1),
    (0, 0, 0, 0, 1, -2, 1),
]

# The saturation inputs are built from the canonical kernel basis and
# saturate at every column, as the oracle reference_toric_ideal does.
SATURATION_CONFIGURATIONS = saturation_configurations()
HEAVY_CONFIGURATIONS = heavy_saturation_configurations()
SATURATION = [reference.saturation_generators(c) for c in SATURATION_CONFIGURATIONS]
HEAVY_SATURATION = [reference.saturation_generators(c) for c in HEAVY_CONFIGURATIONS]
BINOMIALS = binomial_inputs()


def reduced_engine(generators, key, budget):
    """The engine's reduced basis, as the reference's buchberger returns it."""
    return reduced_basis(buchberger(generators, key, budget), key, budget)


def outcome(engine, generators, key, limit):
    """(basis, steps left), with None for the basis when ScaleLimit was raised."""
    budget = StepBudget(limit)
    try:
        basis = engine(generators, key, budget)
    except ScaleLimit:
        basis = None
    return basis, budget.remaining


def assert_same_run(generators, key, limit):
    expected = outcome(reference.buchberger, generators, key, limit)
    assert outcome(reduced_engine, generators, key, limit) == expected
    return expected


class TestAgainstTheReferenceEngine:
    @pytest.mark.parametrize("index", range(len(SATURATION)))
    def test_saturation_by_elimination(self, index):
        basis, _ = assert_same_run(SATURATION[index], elimination_key, DEFAULT_STEP_BUDGET)
        assert basis is not None

    @pytest.mark.parametrize("index", range(0, len(SATURATION), 4))
    def test_saturation_input_in_grevlex(self, index):
        assert_same_run(SATURATION[index], grevlex_key, DEFAULT_STEP_BUDGET)

    @pytest.mark.parametrize("key", KEYS.values(), ids=KEYS.keys())
    def test_plain_binomial_sets(self, key):
        for generators in BINOMIALS:
            assert_same_run(generators, key, DEFAULT_STEP_BUDGET)

    @pytest.mark.parametrize("index", range(len(HEAVY_SATURATION)))
    def test_heavy_saturation_by_elimination(self, index):
        basis, _ = assert_same_run(HEAVY_SATURATION[index], elimination_key, DEFAULT_STEP_BUDGET)
        assert basis is not None

    @pytest.mark.parametrize("limit", [1, 2, 100, "steps - 1", "steps"])
    @pytest.mark.parametrize("key", KEYS.values(), ids=KEYS.keys())
    def test_scale_limit_at_the_same_step(self, key, limit):
        if isinstance(limit, str):
            # The budget a run needs exactly, and one step less.
            short = limit == "steps - 1"
            for generators in SATURATION:
                _, remaining = outcome(reduced_engine, generators, key, DEFAULT_STEP_BUDGET)
                steps = DEFAULT_STEP_BUDGET - remaining
                basis, remaining = assert_same_run(generators, key, steps - short)
                assert (basis is None) == short and remaining == -short
            return
        raised = 0
        for generators in SATURATION + BINOMIALS:
            basis, remaining = assert_same_run(generators, key, limit)
            raised += basis is None
            assert remaining == -1 if basis is None else remaining >= 0
        assert raised > 0


class TestBasisIndependence:
    """The kernel basis changes the cost of a saturation, not its result."""

    @pytest.mark.parametrize(
        "index", range(len(SATURATION_CONFIGURATIONS) + len(HEAVY_CONFIGURATIONS))
    )
    def test_same_basis_as_a_unimodular_change_of_the_input(self, index):
        # I_B + (t*x_1*...*x_n - 1) is the same ideal for every Z-basis B of
        # the kernel lattice, so the reduced elimination bases are equal.  The
        # inputs include the curves of degree 2 to 10.  The change is seeded
        # row operations, then the first row negated, so it is never the
        # identity (a one-row kernel has no other change).
        config = (SATURATION_CONFIGURATIONS + HEAVY_CONFIGURATIONS)[index]
        kernel = IntMatrix(config.kernel)
        U = random_unimodular(random.Random(2039 + index), kernel.rows)
        changed = matmul(IntMatrix([[-x for x in U.row(0)], *U.data[1:]]), kernel)
        assert changed != kernel
        bases = [
            reduced_engine(
                reference.elimination_input(basis.data, config.n),
                elimination_key,
                StepBudget(DEFAULT_STEP_BUDGET),
            )
            for basis in (kernel, changed)
        ]
        assert bases[0] == bases[1]
        generators = toric_ideal_generators(Configuration(config.A))
        assert sorted((b.plus, b.minus) for b in generators) == reference.t_free_part(bases[0])


class TestOrderKeys:
    """The flat keys sort as the nested tuples of groebner_reference."""

    @pytest.mark.parametrize("nvars", range(1, 8))
    def test_same_order_as_the_nested_keys(self, nvars):
        rng = random.Random(2063 + nvars)
        monomials = [
            tuple(rng.choice((0, 0, 1, 2, 3, 10**12)) for _ in range(nvars)) for _ in range(300)
        ]
        for key, nested in (
            (grevlex_key, reference.nested_grevlex_key),
            (elimination_key, reference.nested_elimination_key),
        ):
            assert sorted(monomials, key=key) == sorted(monomials, key=nested)
            for p, q in zip(monomials, monomials[1:]):
                assert (key(p) < key(q)) == (nested(p) < nested(q))
                assert (key(p) == key(q)) == (p == q)


def divisors_by_scan(leads, m):
    """Indices of the leads dividing m, in basis order."""
    return [i for i, lead in enumerate(leads) if all(map(operator.le, lead, m))]


def bitset(indices):
    return sum(1 << i for i in indices)


class TestLeadIndex:
    """_Leads.divisors against a scan over the leads in basis order."""

    @staticmethod
    def exponent(rng):
        return 10**12 if rng.random() < 0.05 else rng.randint(0, 5)

    def monomial(self, rng, nvars):
        return tuple(self.exponent(rng) for _ in range(nvars))

    @pytest.mark.parametrize("nvars", range(1, 10))
    def test_queries_interleaved_with_adds(self, nvars):
        rng = random.Random(2039 + nvars)
        index, leads = _Leads(), []
        for _ in range(60):
            for _ in range(rng.randint(0, 4)):
                m = self.monomial(rng, nvars)
                if rng.random() < 0.3 and leads:
                    # a multiple of a lead, so that some query has divisors
                    m = tuple(a + b for a, b in zip(rng.choice(leads), m))
                bits, expected = index.divisors(m), divisors_by_scan(leads, m)
                assert bits == bitset(expected)
                if expected:
                    assert _first(bits) == expected[0]
            lead = self.monomial(rng, nvars)
            index.add(lead)
            leads.append(lead)
            # The pair update reads these columns as the leads' exponents.
            assert [t.column for t in index.tables] == [list(c) for c in zip(*leads)]

    def test_built_from_leads(self):
        rng = random.Random(2053)
        leads = [self.monomial(rng, 4) for _ in range(30)]
        index = _Leads(leads)
        for _ in range(200):
            m = self.monomial(rng, 4)
            assert index.divisors(m) == bitset(divisors_by_scan(leads, m))

    @pytest.mark.parametrize("nvars", [1, 3, 9])
    def test_empty_index(self, nvars):
        assert _Leads().divisors((0,) * nvars) == 0
        assert _Leads().divisors((10**12,) * nvars) == 0


def lcm(a, b):
    return tuple(map(max, a, b))


class TestPairUpdate:
    """After every update the engine's live pairs are the reference's pair set.

    The reference rebuilds the set from the pairs alive before the update,
    with every lcm recomputed and the minimal lcms found by a chain test.
    """

    @staticmethod
    def checked_run(monkeypatch, generators, key, limit):
        """Run the engine; return, per update, the sizes of its new pairs' lcm groups."""
        engine_update, groups = groebner._update_pairs, []

        def update(basis, leads, pairs, queue, key):
            before, queued, f = set(pairs), len(queue), basis[-1][0]
            engine_update(basis, leads, pairs, queue, key)
            new_index = len(basis) - 1
            assert set(pairs) == reference._update_pairs(basis, before, new_index, key)
            with_f = [lcm(lead, f) for lead, _ in basis[:new_index]]
            made = sorted(i for i, j in pairs if j == new_index)
            for i in made:
                assert pairs[i, new_index] == with_f[i]
            assert len(queue) == queued + len(made)
            groups.append([with_f.count(with_f[i]) for i in made])

        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_update_pairs", update)
            outcome(buchberger, generators, key, limit)
        return groups

    def test_saturation_and_binomial_runs(self, monkeypatch):
        groups = []
        for generators in SATURATION:
            groups += self.checked_run(monkeypatch, generators, elimination_key, DEFAULT_STEP_BUDGET)
        for generators in BINOMIALS:
            for key in KEYS.values():
                groups += self.checked_run(monkeypatch, generators, key, DEFAULT_STEP_BUDGET)
        # Some pairs were kept for a group of two or more equal lcms, which
        # the test of a lead's own bit alone cannot keep.
        assert any(size > 1 for sizes in groups for size in sizes)

    def test_budgeted_run_with_huge_exponents(self, monkeypatch):
        config = Configuration(IntMatrix([[1, 1, 1, 1], [0, 1, 10**12, 10**12 + 1]]))
        generators = reference.saturation_generators(config)
        assert self.checked_run(monkeypatch, generators, elimination_key, 300)

    @staticmethod
    def update(leads, key=grevlex_key):
        """The engine's new pairs for the last lead, checked against the reference.

        Both updates start from every pair of the older leads.
        """
        basis = [(lead, (0,) * len(lead)) for lead in leads]
        older = range(len(leads) - 1)
        pairs = {(i, j): lcm(leads[i], leads[j]) for i in older for j in older if i < j}
        expected = reference._update_pairs(basis, set(pairs), len(leads) - 1, key)
        queue = []
        groebner._update_pairs(basis, _Leads(leads), pairs, queue, key)
        assert set(pairs) == expected
        made = {ij for ij in pairs if ij[1] == len(leads) - 1}
        assert sorted(queue) == sorted((key(pairs[ij]), *ij) for ij in made)
        return made

    def test_group_with_a_coprime_lead_makes_no_pair(self):
        # f = x1*x2.  Lead 1 (x3) shares no variable with f, lead 0 (x1*x3)
        # does, and both have lcm x1*x2*x3 with f.  Lead 2 (x1^2) makes a
        # pair of its own.
        leads = [(1, 0, 1, 0), (0, 0, 1, 0), (2, 0, 0, 0), (1, 1, 0, 0)]
        assert self.update(leads) == {(2, 3)}

    def test_group_pair_takes_the_lowest_index(self):
        # f = x1*x2.  Leads 1 and 3 both have lcm x1*x2*x3 with f and share a
        # variable with it; lead 2 is coprime to f.
        leads = [(2, 0, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0)]
        assert self.update(leads) == {(0, 4), (1, 4)}


def sympy_cases():
    """The twisted cubic and 15 seeded configurations with a nonzero kernel."""
    rng = random.Random(2031)
    configs = [rational_normal_curve(3)]
    while len(configs) < 16:
        config = random_configuration(rng, dmax=3, nmax=5)
        if kernel_lattice_basis(config.A):
            configs.append(config)
    return configs


SYMPY_CASES = sympy_cases()


class TestAgainstSympy:
    """Saturation by lex elimination in sympy gives the same toric ideal."""

    @pytest.mark.parametrize("index", range(len(SYMPY_CASES)))
    def test_elimination_in_sympy(self, index):
        sympy = pytest.importorskip("sympy")
        config = SYMPY_CASES[index]
        xs = sympy.symbols(f"x1:{config.n + 1}")
        t = sympy.Symbol("t")

        def monomial(exponents):
            return sympy.Mul(*(x**e for x, e in zip(xs, exponents)))

        def binomial(u):
            plus = [max(e, 0) for e in u]
            minus = [max(-e, 0) for e in u]
            return monomial(plus) - monomial(minus)

        lattice = [binomial(u) for u in kernel_lattice_basis(config.A)]
        lex = sympy.groebner(lattice + [t * sympy.Mul(*xs) - 1], t, *xs, order="lex")
        eliminated = [g for g in lex.exprs if t not in g.free_symbols]
        ours = [monomial(b.plus) - monomial(b.minus) for b in toric_ideal_generators(config)]

        expected = sympy.groebner(eliminated, *xs, order="grevlex")
        assert sympy.groebner(ours, *xs, order="grevlex").exprs == expected.exprs
        # Our generators already are that reduced basis, up to sign.
        assert {frozenset((g, -g)) for g in map(sympy.expand, ours)} == {
            frozenset((g, -g)) for g in expected.exprs
        }


def lattice_pairs(config):
    return [(b.plus, b.minus) for b in lattice_binomials(config)]


class TestUnitVariables:
    """The variables of a generator m - 1 are units, and only they are cancelled."""

    @staticmethod
    def stored_run(monkeypatch, generators, key):
        """(basis, every element the engine stored), checked against the reference."""
        engine_update, stored = groebner._update_pairs, []

        def update(basis, *args):
            stored.append(basis[-1])
            engine_update(basis, *args)

        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_update_pairs", update)
            basis, _ = assert_same_run(generators, key, DEFAULT_STEP_BUDGET)
        return basis, stored

    def test_a_unit_generator_over_some_of_the_variables(self, monkeypatch):
        # x1*x2 - 1 among binomials in 4 variables: x1 and x2 are units, x3
        # and x4 are not.
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x1:5")

        def monomial(exponents):
            return sympy.Mul(*(x**e for x, e in zip(xs, exponents)))

        rng, kept = random.Random(2081), 0
        for _ in range(8):
            generators = [g for g in random_binomials(rng, 4, 3) if all(map(any, g))]
            generators.append(((1, 1, 0, 0), (0, 0, 0, 0)))
            basis, stored = self.stored_run(monkeypatch, generators, grevlex_key)
            assert all(min(lead[k], tail[k]) == 0 for lead, tail in stored for k in (0, 1))
            kept += any(min(lead[k], tail[k]) for lead, tail in stored for k in (2, 3))
            expected = sympy.groebner(
                [monomial(p) - monomial(q) for p, q in generators], *xs, order="grevlex"
            )
            assert {monomial(lead) - monomial(tail) for lead, tail in basis} == set(expected.exprs)
        # A common factor in x3 or x4 stays.
        assert kept

    @staticmethod
    def closure_input(rng, chain, nvars):
        """chain, and random binomials whose two sides both hold the last variable.

        The last variable is then no unit, and every unit the engine finds
        comes from chain.
        """
        extra = []
        while len(extra) < 3:
            p, q = random_binomials(rng, nvars, 1)[0]
            extra.append(tuple(m[:-1] + (m[-1] + 1,) for m in (p, q)))
        return chain + extra

    @pytest.mark.parametrize(
        "chain, units",
        [
            # x3*x4 - 1 makes x3 and x4 units, then x1*x2 - x3 makes x1, x2 units.
            ([((0, 0, 1, 1, 0), (0,) * 5), ((1, 1, 0, 0, 0), (0, 0, 1, 0, 0))], 4),
            # x4*x5 - 1, then x3 - x4^2, then x1*x2 - x3*x5: three rounds.
            (
                [
                    ((1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0)),
                    ((0, 0, 1, 0, 0, 0), (0, 0, 0, 2, 0, 0)),
                    ((0, 0, 0, 1, 1, 0), (0,) * 6),
                ],
                5,
            ),
        ],
        ids=["two_rounds", "three_rounds"],
    )
    def test_units_found_only_by_the_closure(self, monkeypatch, chain, units):
        # Each round of the closure adds units that no generator m - 1 names.
        # Every stored element is coprime over all of them, and some normal
        # form had a common factor in a unit of a later round, so the closure
        # cancelled something the first round alone would have kept.
        sympy = pytest.importorskip("sympy")
        nvars = len(chain[0][0])
        xs = sympy.symbols(f"x1:{nvars + 1}")

        def monomial(exponents):
            return sympy.Mul(*(x**e for x, e in zip(xs, exponents)))

        engine_nf, forms = groebner._normal_form, []

        def normal_form(*args):
            forms.append(engine_nf(*args))
            return forms[-1]

        first_round = {k for p, q in chain if not any(q) for k, e in enumerate(p) if e}
        rng, kept, later = random.Random(2087), 0, 0
        for _ in range(6):
            generators = self.closure_input(rng, chain, nvars)
            with monkeypatch.context() as patch:
                patch.setattr(groebner, "_normal_form", normal_form)
                basis, stored = self.stored_run(monkeypatch, generators, grevlex_key)
            assert all(min(lead[k], tail[k]) == 0 for lead, tail in stored for k in range(units))
            kept += any(min(lead[-1], tail[-1]) for lead, tail in stored)
            later += any(
                min(f[0][k], f[1][k]) for f in forms if f for k in range(units) if k not in first_round
            )
            expected = sympy.groebner(
                [monomial(p) - monomial(q) for p, q in generators], *xs, order="grevlex"
            )
            assert {monomial(lead) - monomial(tail) for lead, tail in basis} == set(expected.exprs)
        assert kept and later

    @pytest.mark.parametrize("index", range(len(SATURATION_CONFIGURATIONS)))
    def test_the_runtime_saturation_input_makes_every_variable_a_unit(self, monkeypatch, index):
        # t * prod_{j in N} x_j - 1 names the columns of N and t; each kernel
        # row's side on N then makes its other variables units.
        config = SATURATION_CONFIGURATIONS[index]
        generators = _saturation_input(config)
        basis, stored = self.stored_run(monkeypatch, generators, elimination_key)
        assert all(min(lead[k], tail[k]) == 0 for lead, tail in stored for k in range(config.n + 1))
        t_free = [g for g in basis if not g[0][-1]]
        assert reference.t_free_part(t_free) == reference.reference_toric_ideal(config)

    @pytest.mark.parametrize(
        "name, key, steps",
        [
            ("curve_6", grevlex_key, 123),
            ("curve_8", grevlex_key, 395),
            ("not_saturated", grevlex_key, 7),
            ("curve_6_saturation_input_without_t", elimination_key, 92),
        ],
    )
    def test_no_unit_generator_spends_the_steps_it_always_did(self, name, key, steps):
        # Step counts of the engine before it cancelled unit factors: with no
        # generator m - 1 nothing is cancelled.  [[1,1,1,1],[0,1,3,4]] is the
        # configuration whose kernel-basis binomials miss part of the toric ideal.
        generators = {
            "curve_6": lattice_pairs(rational_normal_curve(6)),
            "curve_8": lattice_pairs(rational_normal_curve(8)),
            "not_saturated": lattice_pairs(Configuration(IntMatrix([[1, 1, 1, 1], [0, 1, 3, 4]]))),
            "curve_6_saturation_input_without_t": reference.elimination_input(
                CURVE_6_SHORT_KERNEL_BASIS, 7
            )[:-1],
        }[name]
        assert all(all(map(any, g)) for g in generators)
        _, remaining = assert_same_run(generators, key, DEFAULT_STEP_BUDGET)
        assert DEFAULT_STEP_BUDGET - remaining == steps
