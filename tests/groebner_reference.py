"""Reference Buchberger engine: the step-exact oracle for gkzmono.groebner.

This is the engine as it was before pair selection moved to a heap: pairs
live in a set, the next one is the minimum of (key(lcm), i, j) over that set
with every lcm recomputed, and a monomial is reduced by testing each lead
exponent-wise.  Its buchberger returns the reduced basis, which the engine's
reduced_basis(buchberger(...)) must equal, with the same steps spent.  Like
the engine, it stores each new element without the common factor of its
lead and tail over the unit variables: those of a generator m - 1, closed
under the rule that a side with only unit variables makes every variable
of the other side a unit.

The module also keeps the order keys as nested tuples, the oracle for the
engine's flat keys, and builds the t-elimination input of a saturation at
every column from any basis of the kernel lattice.  The oracle
reference_toric_ideal starts from the canonical Hermite basis;
toric_ideal_generators saturates only at the columns where a row of that
basis is negative, and the reduced basis of the t-free part depends on
neither choice.
"""

from typing import Optional, Sequence

from gkzmono import kernel_lattice_basis
from gkzmono.groebner import (
    DEFAULT_STEP_BUDGET,
    BinPair,
    Monomial,
    OrderKey,
    StepBudget,
    elimination_key,
    oriented,
)


def nested_grevlex_key(m: Monomial) -> tuple:
    return (sum(m), tuple(-e for e in reversed(m)))


def nested_elimination_key(m: Monomial) -> tuple:
    return (m[-1], nested_grevlex_key(m[:-1]))


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monomial_nf(
    m: Monomial, basis: Sequence[BinPair], key: OrderKey, budget: StepBudget
) -> Monomial:
    changed = True
    while changed:
        changed = False
        for lead, tail in basis:
            if _divides(lead, m):
                budget.spend()
                m = tuple(x - a + b for x, a, b in zip(m, lead, tail))
                changed = True
                break
    return m


def normal_form(
    pair: BinPair, basis: Sequence[BinPair], key: OrderKey, budget: StepBudget
) -> Optional[BinPair]:
    p = _monomial_nf(pair[0], basis, key, budget)
    q = _monomial_nf(pair[1], basis, key, budget)
    return oriented(p, q, key)


def _spair(f: BinPair, g: BinPair, key: OrderKey) -> Optional[BinPair]:
    lcm = tuple(max(a, b) for a, b in zip(f[0], g[0]))
    p = tuple(l - a + b for l, a, b in zip(lcm, f[0], f[1]))
    q = tuple(l - a + b for l, a, b in zip(lcm, g[0], g[1]))
    return oriented(p, q, key)


def _update_pairs(
    basis: list[BinPair], pairs: set[tuple[int, int]], new_index: int, key: OrderKey
) -> set[tuple[int, int]]:
    """Gebauer-Moeller update of the critical pair set for one new element."""
    lm = [g[0] for g in basis]
    f = lm[new_index]

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    pairs = {
        (i, j)
        for (i, j) in pairs
        if not _divides(f, lcm(lm[i], lm[j]))
        or lcm(lm[i], lm[j]) == lcm(lm[i], f)
        or lcm(lm[i], lm[j]) == lcm(lm[j], f)
    }
    lcms: dict[Monomial, list[int]] = {}
    for i in range(new_index):
        lcms.setdefault(lcm(lm[i], f), []).append(i)
    kept: list[Monomial] = []
    for candidate in sorted(lcms, key=key):
        if all(not _divides(other, candidate) for other in kept):
            kept.append(candidate)
    for candidate in kept:
        indices = lcms[candidate]
        disjoint = any(
            lcm(lm[i], f) == tuple(x + y for x, y in zip(lm[i], f))
            for i in indices
        )
        if not disjoint:
            pairs.add((min(indices), new_index))
    return pairs


def buchberger(
    generators: Sequence[BinPair],
    key: OrderKey,
    budget: Optional[StepBudget] = None,
) -> list[BinPair]:
    """Reduced Groebner basis of a pure-difference binomial ideal."""
    if budget is None:
        budget = StepBudget(DEFAULT_STEP_BUDGET)
    basis: list[BinPair] = []
    pairs: set[tuple[int, int]] = set()
    # A side of a generator whose variables are all units is a unit, and so
    # is every variable of the other side; repeat until no unit is added.
    # A constant side has no variable, so each generator m - 1 starts it.
    units = [False] * len(generators[0][0]) if generators else []
    changed = True
    while changed:
        changed = False
        for p, q in generators:
            for monomial, other in ((p, q), (q, p)):
                if all(u or e == 0 for u, e in zip(units, other)):
                    for k, e in enumerate(monomial):
                        if e > 0 and not units[k]:
                            units[k] = changed = True

    def coprime(g: BinPair) -> BinPair:
        """g without the common factor of lead and tail over the unit variables."""
        common = [min(a, b) if u else 0 for a, b, u in zip(g[0], g[1], units)]
        return tuple(tuple(x - c for x, c in zip(m, common)) for m in g)

    seeds = []
    for p, q in generators:
        o = oriented(p, q, key)
        if o is not None:
            seeds.append(o)
    for g in seeds:
        reduced = normal_form(g, basis, key, budget)
        if reduced is None:
            continue
        basis.append(coprime(reduced))
        pairs = _update_pairs(basis, pairs, len(basis) - 1, key)

    def pair_key(ij):
        i, j = ij
        lcm = tuple(max(a, b) for a, b in zip(basis[i][0], basis[j][0]))
        return (key(lcm), i, j)

    while pairs:
        budget.spend()
        i, j = min(pairs, key=pair_key)
        pairs.remove((i, j))
        s = _spair(basis[i], basis[j], key)
        if s is None:
            continue
        reduced = normal_form(s, basis, key, budget)
        if reduced is None:
            continue
        basis.append(coprime(reduced))
        pairs = _update_pairs(basis, pairs, len(basis) - 1, key)

    # Minimalize: drop elements whose lead is divisible by another lead.
    minimal: list[BinPair] = []
    for g in sorted(basis, key=lambda b: key(b[0])):
        if all(not _divides(h[0], g[0]) for h in minimal):
            minimal.append(g)
    # Interreduce tails against the minimal basis.
    reduced_basis: list[BinPair] = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        nf = normal_form(g, others, key, budget)
        if nf is not None:
            reduced_basis.append(nf)
    return sorted(reduced_basis, key=lambda b: key(b[0]))


def elimination_input(kernel, n) -> list[BinPair]:
    """The binomials of a basis of the kernel lattice in Z^n, and t*x_1*...*x_n - 1.

    t is the last of the n + 1 variables; the kernel binomials do not involve it.
    """
    generators = [
        (tuple(max(x, 0) for x in u) + (0,), tuple(-min(x, 0) for x in u) + (0,))
        for u in kernel
    ]
    generators.append((tuple([1] * n) + (1,), tuple([0] * n) + (0,)))
    return generators


def saturation_generators(config) -> list[BinPair]:
    """The t-elimination input saturating at every column, the oracle's input."""
    return elimination_input(kernel_lattice_basis(config.A), config.n)


def reference_toric_ideal(config) -> list[tuple[Monomial, Monomial]]:
    """The t-free part of the reference elimination basis, as display pairs."""
    return t_free_part(buchberger(saturation_generators(config), elimination_key))


def t_free_part(basis: Sequence[BinPair]) -> list[tuple[Monomial, Monomial]]:
    """The elements of an elimination basis free of t, as sorted display pairs."""
    return sorted(
        max((lead[:-1], tail[:-1]), (tail[:-1], lead[:-1]))
        for lead, tail in basis
        if lead[-1] == 0 and tail[-1] == 0
    )
