"""A small Buchberger engine for pure-difference binomials.

Saturating a lattice ideal never leaves the class of differences of two
monomials: S-pairs of such binomials are again pure differences, and so are
their normal forms.  The engine therefore represents a polynomial as an
ordered pair (lead, tail) of exponent tuples and a monomial's normal form
is again a single monomial, which keeps reduction exact and fast.

Pair selection is the normal strategy (smallest lcm in the term order) and
the pair set is pruned with the Gebauer-Moeller criteria.  All work is
metered against a step budget; blowing the budget raises ScaleLimit.

Each critical pair keeps the lcm of its leads from its creation and sits in
a heap ordered by (key(lcm), i, j); a pair pruned later is skipped when
popped.  That total order pops the live pairs in the same sequence as a
minimum over the live set, and the same pairs are pruned, so a change to
how pairs are stored changes neither the basis nor the steps spent (the
one budget, and thus every ScaleLimit, depends on both).

Reduction uses the first basis element whose lead divides the monomial.
An append-only index of the leads keeps, per variable and exponent e, the
bitset of leads whose exponent there is at most e, so the leads dividing m
are the AND of m's sets; bit i is element i, and the lowest set bit is the
element a scan in basis order finds first.  The index maps only exponents
it has met, so its size follows the leads, not the exponents' magnitude.

The pair update for a new lead f reads the index too.  A variable's column
of lead exponents, clamped at f's exponent, is the column of the lcms
lcm(lead_i, f), and zipping the columns gives every lcm.  The update visits
the lcms by ascending degree, equal degrees by index, and drops from the
visit the multiples of each lcm m it reaches: lcm(lead_k, f) is a multiple
of m unless lead_k is at most m - 1 (an index entry) in a variable where m
exceeds f.  A proper divisor has a smaller degree, so every lcm reached is
minimal under division and is reached at the lowest index of its group of
equal lcms.  lead_j divides m iff lcm(lead_j, f) does, so the leads
dividing a minimal m are its group, and the pair is made unless one of
them shares no variable with f (the product criterion).  Those are the
lcms a chain test in ascending order keeps, with the same indices, so the
same pairs are made.

buchberger returns the basis it completes, and reduced_basis reduces a
Groebner basis in one pass.  The minimal basis keeps, in
ascending order of leads, each element whose lead no kept lead divides;
then each tail is reduced against the whole minimal basis.  No other lead
divides an element's lead, and tail reduction only reaches monomials below
that lead, which its own lead cannot divide.  So the leads, their order
and every reduction step are those of reducing each element against the
others, and no element reduces to zero.

If every variable of one side of a generator is a unit, so is the other
side modulo the ideal, and so each of its variables.  The units are the
closure of this rule from none: a generator m - 1 starts it.  In a
saturation input (the toric module) t*x_N - 1 makes t and x_N units, and
each kernel binomial's side on N then the rest.  A new element r = x^c h,
x^c the common factor of its lead and tail over the units, is stored as
h: h is in the ideal since x^c is a unit, its terms divide r's and so are
in normal form, and r reduces to zero by h, so every S-pair still does.
"""

from __future__ import annotations

import heapq
import operator
from functools import reduce
from typing import Callable, Iterable, Optional, Sequence

from .errors import ScaleLimit

Monomial = tuple[int, ...]
BinPair = tuple[Monomial, Monomial]
OrderKey = Callable[[Monomial], tuple]

DEFAULT_STEP_BUDGET = 500_000


def grevlex_key(m: Monomial) -> tuple:
    """Sort key realizing graded reverse lexicographic order (ascending).

    The flat tuple (degree, -m_n, ..., -m_1): keys of one ring all have the
    same length, so it orders as (degree, (-m_n, ..., -m_1)) does.
    """
    return (sum(m), *map(operator.neg, m[::-1]))


def elimination_key(m: Monomial) -> tuple:
    """Block order eliminating the last variable, grevlex inside the block."""
    return (m[-1], sum(m) - m[-1], *map(operator.neg, m[-2::-1]))


class StepBudget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise ScaleLimit("Groebner step budget exceeded")


def oriented(p: Monomial, q: Monomial, key: OrderKey) -> Optional[BinPair]:
    """Order the two monomials as (lead, tail); None when they cancel."""
    if p == q:
        return None
    return (p, q) if key(p) > key(q) else (q, p)


class _AtMost(dict):
    """One variable's exponent e -> bitset of the leads whose exponent is at most e."""

    __slots__ = ("column",)

    def __init__(self):
        self.column: list[int] = []

    def __missing__(self, e: int) -> int:
        bits = self[e] = sum(1 << i for i, x in enumerate(self.column) if x <= e)
        return bits

    def add(self, x: int, bit: int) -> None:
        self.column.append(x)
        for e in self:
            if e >= x:
                self[e] |= bit


class _Leads:
    """Append-only index of basis leads: bit i stands for the i-th lead."""

    __slots__ = ("tables", "everything")

    def __init__(self, leads: Iterable[Monomial] = ()):
        self.tables: list[_AtMost] = []
        self.everything = 0
        for lead in leads:
            self.add(lead)

    def add(self, lead: Monomial) -> None:
        if not self.tables:
            self.tables = [_AtMost() for _ in lead]
        bit = self.everything + 1
        self.everything |= bit
        for x, table in zip(lead, self.tables):
            table.add(x, bit)

    def divisors(self, m: Monomial) -> int:
        """Bitset of the leads dividing m."""
        return reduce(operator.and_, map(operator.getitem, self.tables, m), self.everything)


def _first(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _monomial_nf(
    m: Monomial, basis: Sequence[BinPair], leads: _Leads, budget: StepBudget
) -> Monomial:
    """Rewrite m by the first basis lead dividing it, until none does."""
    while bits := leads.divisors(m):
        lead, tail = basis[_first(bits)]
        budget.spend()
        m = tuple(map(operator.add, map(operator.sub, m, lead), tail))
    return m


def _normal_form(
    pair: BinPair, basis: Sequence[BinPair], leads: _Leads, key: OrderKey, budget: StepBudget
) -> Optional[BinPair]:
    p = _monomial_nf(pair[0], basis, leads, budget)
    q = _monomial_nf(pair[1], basis, leads, budget)
    return oriented(p, q, key)


def _spair(f: BinPair, g: BinPair, lcm: Monomial) -> Optional[BinPair]:
    """The S-pair's two monomials, unordered: _normal_form orients them after
    reducing each, which takes the same steps in either order."""
    p = tuple(map(operator.add, map(operator.sub, lcm, f[0]), f[1]))
    q = tuple(map(operator.add, map(operator.sub, lcm, g[0]), g[1]))
    return (p, q) if p != q else None


def _update_pairs(
    basis: list[BinPair], leads: _Leads, pairs: dict, queue: list, key: OrderKey
) -> None:
    """Gebauer-Moeller update of the critical pairs for the last element.

    pairs maps each live pair (i, j) to lcm(lm_i, lm_j); the heap queue
    holds (key(lcm), i, j) and may still hold pairs deleted here.  leads
    already holds the new lead.
    """
    new_index = len(basis) - 1
    f = basis[new_index][0]
    tables = leads.tables
    # lcm(lead_i, f) for every lead i, read off the index's columns.
    with_f = list(zip(*(t.column if not e else [x if x > e else e for x in t.column]
                        for t, e in zip(tables, f))))
    for ij, m in [item for item in pairs.items() if all(map(operator.le, f, item[1]))]:
        if m != with_f[ij[0]] and m != with_f[ij[1]]:
            del pairs[ij]
    older = leads.everything >> 1
    # Leads with no variable of f: their exponents there are at most 0.
    coprime = reduce(operator.and_, (t[0] for t, e in zip(tables, f) if e), older)
    # Visit the minimal lcms, each at the lowest index of its group (see above).
    alive, degree = older, list(map(sum, with_f))
    for i in sorted(range(new_index), key=degree.__getitem__):
        if alive >> i & 1:
            m = with_f[i]
            alive &= reduce(operator.or_, (t[x - 1] for t, x, e in zip(tables, m, f) if x > e), 0)
            if not reduce(operator.and_, map(operator.getitem, tables, m), coprime):
                pairs[i, new_index] = m
                heapq.heappush(queue, (key(m), i, new_index))


def buchberger(generators: Sequence[BinPair], key: OrderKey, budget: StepBudget) -> list[BinPair]:
    """A Groebner basis of a pure-difference binomial ideal; reduced_basis reduces it."""
    basis: list[BinPair] = []
    leads = _Leads()
    pairs: dict[tuple[int, int], Monomial] = {}
    queue: list = []
    # The closure of the unit rule (the module docstring), starting from no unit.
    supports = [[{k for k, e in enumerate(m) if e} for m in g] for g in generators]
    units: set[int] = set()
    while grown := {k for s in supports for p, q in (s, s[::-1]) if q <= units for k in p} - units:
        units |= grown

    def add(g: BinPair):
        reduced = _normal_form(g, basis, leads, key, budget)
        if reduced is not None:
            common = [min(x, y) if k in units else 0 for k, (x, y) in enumerate(zip(*reduced))]
            if any(common):
                reduced = tuple(tuple(map(operator.sub, m, common)) for m in reduced)
            basis.append(reduced)
            leads.add(reduced[0])
            _update_pairs(basis, leads, pairs, queue, key)

    for g in generators:
        if g[0] != g[1]:
            add(g)
    while pairs:
        _, i, j = heapq.heappop(queue)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue
        budget.spend()
        s = _spair(basis[i], basis[j], lcm)
        if s is not None:
            add(s)
    return basis


def reduced_basis(basis: Sequence[BinPair], key: OrderKey, budget: StepBudget) -> list[BinPair]:
    """The reduced Groebner basis of the ideal a Groebner basis generates."""
    # Minimalize: drop elements whose lead is divisible by another lead.
    minimal: list[BinPair] = []
    leads = _Leads()
    for g in sorted(basis, key=lambda b: key(b[0])):
        if not leads.divisors(g[0]):
            minimal.append(g)
            leads.add(g[0])
    # Reduce each tail against the minimal basis; see the module docstring.
    return [(lead, _monomial_nf(tail, minimal, leads, budget)) for lead, tail in minimal]
