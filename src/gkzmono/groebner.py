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
The pair update reads it too: lead_i divides lcm(lead_j, f) iff
lcm(lead_i, f) does, so a group of equal lcms is minimal under division,
and kept, exactly when the leads dividing its lcm are that group.  Those
are the lcms a chain test in ascending order keeps, and a pair still
takes the lowest index of its group, so the same pairs are made.

The reduced basis is built in one pass.  The minimal basis keeps, in
ascending order of leads, each element whose lead no kept lead divides;
then each tail is reduced against the whole minimal basis.  No other lead
divides an element's lead, and tail reduction only reaches monomials below
that lead, which its own lead cannot divide.  So the leads, their order
and every reduction step are those of reducing each element against the
others, and no element reduces to zero.
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
    """Sort key realizing graded reverse lexicographic order (ascending)."""
    return (sum(m), tuple(-e for e in reversed(m)))


def elimination_key(m: Monomial) -> tuple:
    """Block order eliminating the last variable, grevlex inside the block."""
    return (m[-1], grevlex_key(m[:-1]))


class StepBudget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, amount: int = 1):
        self.remaining -= amount
        if self.remaining < 0:
            raise ScaleLimit("Groebner step budget exceeded")


def oriented(p: Monomial, q: Monomial, key: OrderKey) -> Optional[BinPair]:
    """Order the two monomials as (lead, tail); None when they cancel."""
    if p == q:
        return None
    return (p, q) if key(p) > key(q) else (q, p)


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(operator.le, a, b))


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
        m = tuple(x - a + b for x, a, b in zip(m, lead, tail))
    return m


def _normal_form(
    pair: BinPair, basis: Sequence[BinPair], leads: _Leads, key: OrderKey, budget: StepBudget
) -> Optional[BinPair]:
    p = _monomial_nf(pair[0], basis, leads, budget)
    q = _monomial_nf(pair[1], basis, leads, budget)
    return oriented(p, q, key)


def normal_form(
    pair: BinPair, basis: Sequence[BinPair], key: OrderKey, budget: StepBudget
) -> Optional[BinPair]:
    """Fully reduce a pure difference; None means it reduced to zero."""
    return _normal_form(pair, basis, _Leads(lead for lead, _ in basis), key, budget)


def _spair(f: BinPair, g: BinPair, lcm: Monomial, key: OrderKey) -> Optional[BinPair]:
    p = tuple(l - a + b for l, a, b in zip(lcm, f[0], f[1]))
    q = tuple(l - a + b for l, a, b in zip(lcm, g[0], g[1]))
    return oriented(p, q, key)


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
    with_f = [tuple(map(max, lead, f)) for lead, _ in basis[:new_index]]
    for (i, j), m in list(pairs.items()):
        if _divides(f, m) and m != with_f[i] and m != with_f[j]:
            del pairs[i, j]
    groups: dict[Monomial, int] = {}
    for i, m in enumerate(with_f):
        groups[m] = groups.get(m, 0) | 1 << i
    older = leads.everything >> 1
    # Leads with no variable of f: their exponents there are at most 0.
    coprime = reduce(operator.and_, (t[0] for t, e in zip(leads.tables, f) if e), older)
    for m, group in groups.items():
        # Minimal under division iff only its own leads divide m (see above).
        if not group & coprime and leads.divisors(m) & older == group:
            i = _first(group)
            pairs[i, new_index] = m
            heapq.heappush(queue, (key(m), i, new_index))


def buchberger(generators: Sequence[BinPair], key: OrderKey, budget: StepBudget) -> list[BinPair]:
    """Reduced Groebner basis of a pure-difference binomial ideal."""
    basis: list[BinPair] = []
    leads = _Leads()
    pairs: dict[tuple[int, int], Monomial] = {}
    queue: list = []

    def add(g: BinPair):
        reduced = _normal_form(g, basis, leads, key, budget)
        if reduced is not None:
            basis.append(reduced)
            leads.add(reduced[0])
            _update_pairs(basis, leads, pairs, queue, key)

    for p, q in generators:
        o = oriented(p, q, key)
        if o is not None:
            add(o)
    while pairs:
        _, i, j = heapq.heappop(queue)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue
        budget.spend()
        s = _spair(basis[i], basis[j], lcm, key)
        if s is not None:
            add(s)

    # Minimalize: drop elements whose lead is divisible by another lead.
    minimal: list[BinPair] = []
    leads = _Leads()
    for g in sorted(basis, key=lambda b: key(b[0])):
        if not leads.divisors(g[0]):
            minimal.append(g)
            leads.add(g[0])
    # Reduce each tail against the minimal basis; see the module docstring.
    return [(lead, _monomial_nf(tail, minimal, leads, budget)) for lead, tail in minimal]
