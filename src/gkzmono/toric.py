"""The hypergeometric system attached to (A, beta), in exchange form.

The system consists of the Euler operators sum_j a_ij x_j dx_j - beta_i and
the toric ideal of A inside the polynomial ring in the dx variables.  The
toric ideal I_L of the kernel lattice L is obtained from the binomials of
the canonical kernel basis B (Configuration.kernel, in Hermite form) by
saturation: adjoin an auxiliary variable t, add t*dx_M - 1, compute a
Groebner basis for an order eliminating t, and keep the t-free part.

dx_M is the product of the dx_j for j in M, the columns where some row of
B is negative (t*dx_M - 1 is t - 1 when M is empty).  Each row's negative
monomial lies on M, so once dx_M is inverted so is the row's positive
monomial, and each variable in it: every dx_j with j in S, the columns
some row occurs on, is a unit.  A variable off S occurs in no generator of
I_B, so it is a nonzerodivisor modulo I_B.  Hence I_B : dx_M^oo =
I_B : (dx_1...dx_n)^oo = I_L (Sturmfels, Groebner Bases and Convex
Polytopes, Lemma 12.2), and J = I_B + (t*dx_M - 1) = I_L + (t*dx_M - 1):
the t-free part of its reduced basis is the reduced basis of I_L, and B
and M move only the number of steps, never the generators.  Hermite form
keeps the entries at the other rows' pivots in [0, pivot), so M lies
within the d columns off the pivots.  The same argument makes t and every
dx_j with j in S a unit modulo J, which lets Buchberger cancel any common
factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Sequence

from .cones import Configuration, as_parameter
from .errors import DimensionMismatch, InternalInconsistency, ScaleLimit
from .groebner import (
    DEFAULT_STEP_BUDGET,
    BinPair,
    StepBudget,
    buchberger,
    elimination_key,
    grevlex_key,
    reduced_basis,
)
from .groebner import _Leads, _normal_form
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

    def to_json(self) -> dict:
        return {"plus": list(self.plus), "minus": list(self.minus)}

    @cached_property
    def rendered(self) -> dict[str, str]:
        """The exporters' text of this binomial, by format; not a field."""
        return {}


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

    def to_json(self, binomial: Callable[[Binomial], object] = Binomial.to_json) -> dict:
        return {
            "nvars": self.nvars,
            "saturated": self.saturated,
            "euler": [e.to_json() for e in self.euler],
            "binomials": [binomial(b) for b in self.binomials],
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
        if any(config.A.mat_vec([p - m for p, m in zip(b.plus, b.minus)])):
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
    t*dx_M - 1 generate an ideal whose t-free Groebner basis part (for a
    block order with t on top) generates the toric ideal.  Only that part is
    interreduced; the result is canonically sorted.  Raises ScaleLimit when
    the computation exceeds max_steps.

    The input is the canonical kernel basis as it is, and the budget counts
    Buchberger's reductions and S-pairs.  The run is a deterministic
    function of A, so it succeeds exactly when max_steps covers the steps
    it spends.  The first successful run is kept in the configuration's
    memo with that step count, and later calls replay its outcome for their
    own budget without running Buchberger.
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


def _saturation_input(config: Configuration) -> list[BinPair]:
    """The kernel binomials and t * prod_{j in M} dx_j - 1, t last (the module docstring)."""
    n, kernel = config.n, config.kernel
    generators: list[BinPair] = [
        (tuple(max(x, 0) for x in u) + (0,), tuple(max(-x, 0) for x in u) + (0,)) for u in kernel
    ]
    negative = {j for u in kernel for j, x in enumerate(u) if x < 0}
    generators.append((tuple(int(j in negative) for j in range(n)) + (1,), (0,) * (n + 1)))
    return generators


def _saturate(config: Configuration, max_steps: int) -> tuple[tuple[Binomial, ...], int]:
    """(generators, steps spent) of one saturation run under max_steps."""
    budget = StepBudget(max_steps)
    basis = buchberger(_saturation_input(config), elimination_key, budget)
    # The elements with a t-free lead, and so a t-free tail, form a Groebner
    # basis of I_L (the elimination theorem); only they are reduced.
    t_free = reduced_basis([g for g in basis if not g[0][-1]], elimination_key, budget)
    result = _canonical_sort([_display_binomial((lead[:-1], tail[:-1])) for lead, tail in t_free])
    _assert_homogeneous(config, result)
    return result, max_steps - budget.remaining


def in_ideal(binomials: Sequence[Binomial], candidate: Binomial, nvars: int) -> bool:
    """Groebner normal-form membership test against a generating set.

    Reduces the candidate by a grevlex basis of the binomials, computed here, so the test
    is sound for any generating set, also one with a binomial m - 1 (its variables are
    then units).  Raises DimensionMismatch unless every binomial has nvars exponents.
    """
    if any(len(b.plus) != nvars for b in (*binomials, candidate)):
        raise DimensionMismatch(f"binomials must have {nvars} exponents")
    budget = StepBudget(DEFAULT_STEP_BUDGET)
    basis = buchberger([(b.plus, b.minus) for b in binomials], grevlex_key, budget)
    pair, leads = (candidate.plus, candidate.minus), _Leads(lead for lead, _ in basis)
    return _normal_form(pair, basis, leads, grevlex_key, budget) is None


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
