"""The hypergeometric system attached to (A, beta), in exchange form.

The system consists of the Euler operators sum_j a_ij x_j dx_j - beta_i and
the toric ideal of A inside the polynomial ring in the dx variables.  The
toric ideal is obtained from the kernel-lattice binomials by saturating at
the product of all variables: adjoin an auxiliary variable t, add
t*dx_1*...*dx_n - 1, compute a Groebner basis for an order eliminating t,
and keep the t-free part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from .cones import Configuration, as_parameter
from .errors import InternalInconsistency, ScaleLimit
from .groebner import (
    DEFAULT_STEP_BUDGET,
    BinPair,
    StepBudget,
    buchberger,
    elimination_key,
    grevlex_key,
    normal_form,
    oriented,
)
from .intlinalg import GaussRat, IntVec, integer_entries

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class Binomial:
    """A pure difference dx^plus - dx^minus with coprime monomials."""

    plus: Monomial
    minus: Monomial

    def __post_init__(self):
        object.__setattr__(self, "plus", integer_entries(self.plus))
        object.__setattr__(self, "minus", integer_entries(self.minus))
        if len(self.plus) != len(self.minus):
            raise ValueError("binomial monomials must have equal length")
        if self.plus == self.minus:
            raise ValueError("binomial monomials must differ")
        if any(e < 0 for e in self.plus + self.minus):
            raise ValueError("binomial exponents must be nonnegative")
        if any(min(p, m) != 0 for p, m in zip(self.plus, self.minus)):
            raise ValueError("binomial monomials must be coprime")

    @property
    def exponent(self) -> IntVec:
        """The kernel vector plus - minus."""
        return tuple(p - m for p, m in zip(self.plus, self.minus))

    def to_json(self) -> dict:
        return {"plus": list(self.plus), "minus": list(self.minus)}


@dataclass(frozen=True)
class EulerOperator:
    """sum_j coefficients[j] * x_j dx_j + shift, with shift = -beta_i."""

    index: int
    coefficients: IntVec
    shift: GaussRat

    def __post_init__(self):
        object.__setattr__(self, "coefficients", integer_entries(self.coefficients))

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "coefficients": list(self.coefficients),
            "shift": self.shift.to_json(),
        }


@dataclass(frozen=True)
class ToricSystem:
    euler: tuple[EulerOperator, ...]
    binomials: tuple[Binomial, ...]
    nvars: int
    # The binomials always generate the saturated toric ideal:
    # hypergeometric_system raises instead of falling back to a lattice ideal.
    saturated: ClassVar[bool] = True

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "saturated": self.saturated,
            "euler": [e.to_json() for e in self.euler],
            "binomials": [b.to_json() for b in self.binomials],
        }


def euler_operators(config: Configuration, beta) -> list[EulerOperator]:
    """One operator per row of A, with shift -beta_i."""
    beta = as_parameter(beta, config.d)
    return [
        EulerOperator(i + 1, config.A.row(i), -beta[i])
        for i in range(config.d)
    ]


def _display_binomial(pair: BinPair) -> Binomial:
    """Orient with the lexicographically larger monomial first."""
    p, q = pair
    return Binomial(p, q) if p > q else Binomial(q, p)


def _canonical_sort(binomials: Sequence[Binomial]) -> tuple[Binomial, ...]:
    """Ascending total degree, then descending lex on (plus, minus)."""
    return tuple(
        sorted(
            binomials,
            key=lambda b: (
                sum(b.plus),
                tuple(-e for e in b.plus),
                tuple(-e for e in b.minus),
            ),
        )
    )


def _assert_homogeneous(config: Configuration, binomials: Sequence[Binomial]):
    for b in binomials:
        if config.A.mat_vec(b.plus) != config.A.mat_vec(b.minus):
            raise InternalInconsistency("emitted binomial is not A-homogeneous")


def binomial_from_kernel_vector(u: Sequence[int]) -> Binomial:
    plus = tuple(max(x, 0) for x in u)
    minus = tuple(-min(x, 0) for x in u)
    return _display_binomial((plus, minus))


def lattice_binomials(config: Configuration) -> list[Binomial]:
    """The binomials of a kernel lattice basis (not saturated in general)."""
    result = [binomial_from_kernel_vector(u) for u in config.kernel]
    result = list(_canonical_sort(result))
    _assert_homogeneous(config, result)
    return result


def toric_ideal_generators(
    config: Configuration, max_steps: int = DEFAULT_STEP_BUDGET
) -> list[Binomial]:
    """A canonical generating set of the full toric ideal of A.

    Saturation by elimination: the kernel-basis binomials together with
    t*dx_1*...*dx_n - 1 generate an ideal whose t-free Groebner basis part
    (for a block order with t on top) generates the toric ideal.  The
    result is interreduced and canonically sorted.  Raises ScaleLimit when
    the computation exceeds max_steps.

    The run is a deterministic function of A, so it succeeds exactly when
    max_steps covers the steps it spends.  The first successful run is kept
    in the configuration's memo with that step count, and later calls
    replay its outcome for their own budget without running Buchberger.
    """
    if not config.kernel:
        return []
    key = (_saturate,)
    if key not in config._memo:
        config._memo[key] = _saturate(config, max_steps)
    generators, steps = config._memo[key]
    if steps > max_steps:
        raise ScaleLimit("Groebner step budget exceeded")
    return list(generators)


def _saturate(config: Configuration, max_steps: int) -> tuple[tuple[Binomial, ...], int]:
    """(generators, steps spent) of one saturation run under max_steps."""
    n = config.n
    budget = StepBudget(max_steps)
    generators: list[BinPair] = [
        (b.plus + (0,), b.minus + (0,)) for b in map(binomial_from_kernel_vector, config.kernel)
    ]
    generators.append((tuple([1] * n) + (1,), tuple([0] * n) + (0,)))
    basis = buchberger(generators, elimination_key, budget)
    result = []
    for lead, tail in basis:
        if lead[-1] == 0 and tail[-1] == 0:
            result.append(_display_binomial((lead[:-1], tail[:-1])))
    result = _canonical_sort(result)
    _assert_homogeneous(config, result)
    return result, max_steps - budget.remaining


def in_ideal(binomials: Sequence[Binomial], candidate: Binomial, nvars: int) -> bool:
    """Groebner normal-form membership test against a generating set.

    Recomputes a grevlex basis of the given binomials first, so the test is
    sound for any generating set, not only for Groebner bases.
    """
    budget = StepBudget(DEFAULT_STEP_BUDGET)
    pairs = []
    for b in binomials:
        o = oriented(b.plus, b.minus, grevlex_key)
        if o is not None:
            pairs.append(o)
    basis = buchberger(pairs, grevlex_key, budget)
    cand = oriented(candidate.plus, candidate.minus, grevlex_key)
    if cand is None:
        return True
    return normal_form(cand, basis, grevlex_key, budget) is None


def hypergeometric_system(
    config: Configuration, beta, max_steps: int = DEFAULT_STEP_BUDGET
) -> ToricSystem:
    """Bundle the Euler operators with the toric-ideal generators.

    Raises ScaleLimit, as toric_ideal_generators does, when saturation
    exceeds max_steps: the kernel-lattice binomials generate a different
    D-module, so there is no fallback.
    """
    euler = tuple(euler_operators(config, beta))
    return ToricSystem(euler, tuple(toric_ideal_generators(config, max_steps)), config.n)
