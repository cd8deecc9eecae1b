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
one budget, and thus every ScaleLimit, depends on both).  Reduction uses
the first basis element whose lead divides the monomial; a lead whose
support bitmask or degree rules out division is skipped without the
exponent-wise test, which cannot change which element is first.

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
from typing import Callable, Optional, Sequence

from .errors import ScaleLimit

Monomial = tuple[int, ...]
BinPair = tuple[Monomial, Monomial]
OrderKey = Callable[[Monomial], tuple]
Signature = tuple[int, int]

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


def _signature(m: Monomial) -> Signature:
    """(support bitmask, degree): necessary conditions for dividing m."""
    return sum(1 << i for i, e in enumerate(m) if e), sum(m)


def _monomial_nf(
    m: Monomial, basis: Sequence[BinPair], signatures: Sequence[Signature], budget: StepBudget
) -> Monomial:
    """Rewrite m by the first basis lead dividing it, until none does."""
    changed = True
    while changed:
        changed = False
        mask, degree = _signature(m)
        for (lead, tail), (lead_mask, lead_degree) in zip(basis, signatures):
            if lead_mask & ~mask or lead_degree > degree or not _divides(lead, m):
                continue
            budget.spend()
            m = tuple(x - a + b for x, a, b in zip(m, lead, tail))
            changed = True
            break
    return m


def _normal_form(
    pair: BinPair,
    basis: Sequence[BinPair],
    signatures: Sequence[Signature],
    key: OrderKey,
    budget: StepBudget,
) -> Optional[BinPair]:
    p = _monomial_nf(pair[0], basis, signatures, budget)
    q = _monomial_nf(pair[1], basis, signatures, budget)
    return oriented(p, q, key)


def normal_form(
    pair: BinPair, basis: Sequence[BinPair], key: OrderKey, budget: StepBudget
) -> Optional[BinPair]:
    """Fully reduce a pure difference; None means it reduced to zero."""
    signatures = [_signature(lead) for lead, _ in basis]
    return _normal_form(pair, basis, signatures, key, budget)


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _spair(f: BinPair, g: BinPair, lcm: Monomial, key: OrderKey) -> Optional[BinPair]:
    p = tuple(l - a + b for l, a, b in zip(lcm, f[0], f[1]))
    q = tuple(l - a + b for l, a, b in zip(lcm, g[0], g[1]))
    return oriented(p, q, key)


def _update_pairs(
    basis: list[BinPair], signatures: list[Signature], pairs: dict, queue: list, key: OrderKey
) -> None:
    """Gebauer-Moeller update of the critical pairs for the last element.

    pairs maps each live pair (i, j) to lcm(lm_i, lm_j); the heap queue
    holds (key(lcm), i, j) and may still hold pairs deleted here.
    """
    new_index = len(basis) - 1
    f = basis[new_index][0]
    for (i, j), m in list(pairs.items()):
        if _divides(f, m) and m not in (_lcm(basis[i][0], f), _lcm(basis[j][0], f)):
            del pairs[i, j]
    lcms: dict[Monomial, list[int]] = {}
    for i in range(new_index):
        lcms.setdefault(_lcm(basis[i][0], f), []).append(i)
    kept: list[Monomial] = []
    for candidate in sorted(lcms, key=key):
        if all(not _divides(other, candidate) for other in kept):
            kept.append(candidate)
    f_mask = signatures[new_index][0]
    for candidate in kept:
        indices = lcms[candidate]
        if all(signatures[i][0] & f_mask for i in indices):
            pairs[indices[0], new_index] = candidate
            heapq.heappush(queue, (key(candidate), indices[0], new_index))


def buchberger(generators: Sequence[BinPair], key: OrderKey, budget: StepBudget) -> list[BinPair]:
    """Reduced Groebner basis of a pure-difference binomial ideal."""
    basis: list[BinPair] = []
    signatures: list[Signature] = []
    pairs: dict[tuple[int, int], Monomial] = {}
    queue: list = []

    def add(g: BinPair):
        reduced = _normal_form(g, basis, signatures, key, budget)
        if reduced is not None:
            basis.append(reduced)
            signatures.append(_signature(reduced[0]))
            _update_pairs(basis, signatures, pairs, queue, key)

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
    for g in sorted(basis, key=lambda b: key(b[0])):
        if all(not _divides(h[0], g[0]) for h in minimal):
            minimal.append(g)
    # Reduce each tail against the minimal basis; see the module docstring.
    signatures = [_signature(lead) for lead, _ in minimal]
    return [(lead, _monomial_nf(tail, minimal, signatures, budget)) for lead, tail in minimal]
