"""The Buchberger engine against a step-exact reference and against sympy.

groebner_reference.py keeps the engine with set-based pair selection and a
linear scan for divisors.  The engine must return the same basis and spend
exactly the same steps on every input and budget, so every --max-steps
outcome of the CLI is unchanged.  The engine's index of leads is checked
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
from gkzmono.groebner import (
    DEFAULT_STEP_BUDGET,
    StepBudget,
    _first,
    _Leads,
    buchberger,
    elimination_key,
    grevlex_key,
)
from sweeps import random_configuration

KEYS = {"elimination": elimination_key, "grevlex": grevlex_key}
NON_POINTED = (
    [[1, -1, 0], [0, 0, 1]],
    [[1, -1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]],
)


def rational_normal_curve(k):
    return Configuration(IntMatrix([[1] * (k + 1), list(range(k + 1))]))


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


def saturation_inputs():
    rng = random.Random(2027)
    configs = [pointed_configuration(rng, 6) for _ in range(8)]
    configs.append(pointed_configuration(rng, 7))
    configs += [rational_normal_curve(k) for k in range(2, 9)]
    configs += [Configuration(IntMatrix(A)) for A in NON_POINTED]
    return [reference.saturation_generators(c) for c in configs]


def kernel_degree(config):
    """Total degree of the kernel-basis binomials, the saturation input's size."""
    return sum(sum(b.plus) + sum(b.minus) for b in lattice_binomials(config))


def heavy_saturation_inputs():
    """Curves of degree 9 and 10, and n = 7 configurations of kernel degree 22-28."""
    rng = random.Random(2033)
    configs = [rational_normal_curve(9), rational_normal_curve(10)]
    while len(configs) < 6:
        config = pointed_configuration(rng, 7)
        if 22 <= kernel_degree(config) <= 28:
            configs.append(config)
    return [reference.saturation_generators(c) for c in configs]


def binomial_inputs():
    rng = random.Random(2029)
    return [random_binomials(rng, rng.randint(3, 5), rng.randint(2, 5)) for _ in range(25)]


SATURATION = saturation_inputs()
HEAVY_SATURATION = heavy_saturation_inputs()
BINOMIALS = binomial_inputs()


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
    assert outcome(buchberger, generators, key, limit) == expected
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
                _, remaining = outcome(buchberger, generators, key, DEFAULT_STEP_BUDGET)
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
