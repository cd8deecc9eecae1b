"""Configurations and the face lattice of the nonnegative column span.

A configuration is an integer d x n matrix whose columns generate the full
lattice Z^d.  A face is a subset of column indices cut out by an integer
functional that vanishes on the subset and is strictly positive on its
complement; the whole column set is always a face (functional 0), and the
empty set is a face exactly when the configuration is pointed.

Feasibility questions ("is there a functional with these signs?") are
answered by exact Fourier-Motzkin elimination over Q.  Full face
enumeration either brute-forces all index subsets through that oracle or
computes the facets with the double description method on the dual cone and
closes them under intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import (
    BetaOutsideSpan,
    DimensionMismatch,
    FaceNotInLattice,
    InternalInconsistency,
    LatticeNotSaturated,
    RankDeficient,
)
from .intlinalg import (
    GaussRat,
    IntMatrix,
    IntVec,
    clear_denominators,
    hermite_normal_form,
    kernel_lattice_basis,
    primitive_vector,
    rank_int,
    smith_normal_form,
    solve_rational,
)

Parameter = tuple[GaussRat, ...]

# Below this many columns the default enumeration strategy brute-forces all
# index subsets against the feasibility oracle; double description takes
# over on larger instances.
BRUTE_FORCE_LIMIT = 10


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


class Face:
    """A face: sorted 1-based column indices plus an integer witness.

    The witness functional vanishes exactly on the indexed columns and is
    strictly positive on all others.  Witnesses are not unique; equality
    and hashing use the index set only.
    """

    __slots__ = ("indices", "witness")

    def __init__(self, indices: Iterable[int], witness: Iterable[int]):
        object.__setattr__(self, "indices", tuple(sorted(set(indices))))
        object.__setattr__(self, "witness", tuple(int(x) for x in witness))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Face is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Face) and self.indices == other.indices

    def __hash__(self) -> int:
        return hash(self.indices)

    def __repr__(self) -> str:
        return f"Face({list(self.indices)!r}, witness={list(self.witness)!r})"

    def to_json(self) -> dict:
        return {"indices": list(self.indices), "witness": list(self.witness)}


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a configuration, canonically sorted."""

    faces: tuple[Face, ...]

    def __iter__(self):
        return iter(self.faces)

    def __len__(self) -> int:
        return len(self.faces)

    def __contains__(self, item) -> bool:
        indices = item.indices if isinstance(item, Face) else tuple(sorted(set(item)))
        return any(f.indices == indices for f in self.faces)

    def face(self, indices: Iterable[int]) -> Face:
        key = tuple(sorted(set(indices)))
        for f in self.faces:
            if f.indices == key:
                return f
        raise FaceNotInLattice(f"{list(key)} is not a face of this configuration")

    @property
    def full_face(self) -> Face:
        return self.faces[-1]

    @property
    def has_empty_face(self) -> bool:
        return bool(self.faces) and self.faces[0].indices == ()

    def to_json(self) -> list:
        return [f.to_json() for f in self.faces]


class Configuration:
    """Validated configuration: integer d x n matrix with ZA = Z^d.

    Columns are addressed by 1-based labels, matching the face index sets.
    Construction fails for rank-deficient or unsaturated column lattices;
    use :func:`reduce_configuration` to normalize arbitrary input.  The face
    lattice depends on A alone and is enumerated once per instance.
    """

    def __init__(self, A: IntMatrix):
        if A.rows == 0 or A.cols == 0:
            raise RankDeficient("configuration must have at least one row and column")
        snf = smith_normal_form(A)
        if snf.rank() < A.rows:
            raise RankDeficient(
                f"columns span a rank-{snf.rank()} sublattice of Z^{A.rows}"
            )
        if any(f != 1 for f in snf.invariant_factors()):
            raise LatticeNotSaturated(
                "columns generate a proper sublattice; apply reduce_configuration"
            )
        self.A = A
        self._lattice: Optional[FaceLattice] = None
        self._perp: dict[tuple[int, ...], tuple[IntVec, ...]] = {}

    @property
    def d(self) -> int:
        return self.A.rows

    @property
    def n(self) -> int:
        return self.A.cols

    @property
    def rank(self) -> int:
        return self.A.rows

    def column(self, label: int) -> IntVec:
        if not 1 <= label <= self.n:
            raise DimensionMismatch(f"column label {label} out of range 1..{self.n}")
        return self.A.column(label - 1)

    def submatrix(self, labels: Iterable[int]) -> IntMatrix:
        cols = [self.column(j) for j in sorted(set(labels))]
        return IntMatrix.from_columns(cols, self.d)

    @cached_property
    def pointed(self) -> bool:
        """True iff the empty set is a face (a functional is positive on all columns)."""
        return is_face(self, ()) is not None

    @cached_property
    def lineality_columns(self) -> tuple[int, ...]:
        """Labels of columns lying in the lineality space (the minimal face)."""
        common = set(range(1, self.n + 1))
        for facet in _facets(self):
            common &= set(facet.indices)
        return tuple(sorted(common))

    def face_lattice(self) -> FaceLattice:
        if self._lattice is None:
            self._lattice = enumerate_faces(self)
        return self._lattice

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and self.A == other.A

    def __hash__(self) -> int:
        return hash(self.A)

    def __repr__(self) -> str:
        return f"Configuration({self.A!r})"


def as_parameter(values, d: int) -> Parameter:
    """Coerce a sequence of parameter entries to GaussRat, checking arity."""
    beta = tuple(GaussRat.parse(v) for v in values)
    if len(beta) != d:
        raise DimensionMismatch(f"parameter has {len(beta)} entries, expected {d}")
    return beta


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility
# ---------------------------------------------------------------------------


def _normalize_inequality(coeffs, rhs) -> Optional[tuple[IntVec, int]]:
    """Canonical integer form of coeffs . y >= rhs; None for tautologies."""
    vec = clear_denominators(tuple(coeffs) + (rhs,))
    vec = primitive_vector(vec)
    coeffs, rhs = vec[:-1], vec[-1]
    if all(c == 0 for c in coeffs) and rhs <= 0:
        return None
    return coeffs, rhs


def fourier_motzkin_point(
    inequalities: Sequence[tuple[Sequence[Fraction], Fraction]], nvars: int
) -> Optional[tuple[Fraction, ...]]:
    """Find y in Q^nvars with coeffs . y >= rhs for every inequality.

    Eliminates variables left to right, then back-substitutes, always
    picking the tightest lower bound (or the upper bound when unbounded
    below, or 0 when unconstrained).  Returns None when infeasible.
    """
    current: list[tuple[IntVec, int]] = []
    for coeffs, rhs in inequalities:
        norm = _normalize_inequality(coeffs, rhs)
        if norm is not None:
            current.append(norm)
    current = list(dict.fromkeys(current))
    stages: list[list[tuple[IntVec, int]]] = []
    for k in range(nvars):
        stages.append(current)
        positive = [q for q in current if q[0][k] > 0]
        negative = [q for q in current if q[0][k] < 0]
        untouched = [q for q in current if q[0][k] == 0]
        combined: list[tuple[IntVec, int]] = []
        for pc, pr in positive:
            for nc, nr in negative:
                coeffs = tuple(
                    -nc[k] * a + pc[k] * b for a, b in zip(pc, nc)
                )
                rhs = -nc[k] * pr + pc[k] * nr
                norm = _normalize_inequality(
                    [Fraction(c) for c in coeffs], Fraction(rhs)
                )
                if norm is not None:
                    combined.append(norm)
        current = list(dict.fromkeys(untouched + combined))
        if any(all(c == 0 for c in co) and r > 0 for co, r in current):
            return None
    if any(r > 0 for _, r in current):
        return None
    y = [Fraction(0)] * nvars
    for k in reversed(range(nvars)):
        lower: Optional[Fraction] = None
        upper: Optional[Fraction] = None
        for coeffs, rhs in stages[k]:
            ck = coeffs[k]
            if ck == 0:
                continue
            rest = sum((coeffs[j] * y[j] for j in range(k + 1, nvars)), Fraction(0))
            bound = (Fraction(rhs) - rest) / ck
            if ck > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is not None:
            y[k] = lower
        elif upper is not None:
            y[k] = upper
        if lower is not None and upper is not None and lower > upper:
            raise InternalInconsistency("Fourier-Motzkin back-substitution failed")
    return tuple(y)


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------


def _perp_lattice_basis(config: Configuration, labels: Sequence[int]) -> tuple[IntVec, ...]:
    """Saturated basis of {w in Z^d : w . a_j = 0 for j in labels}.

    Computed once per label set and configuration: it serves the face test
    and the resonance congruences of every parameter.
    """
    labels = tuple(sorted(set(labels)))
    basis = config._perp.get(labels)
    if basis is None:
        if labels:
            basis = kernel_lattice_basis(config.submatrix(labels).transpose())
        else:
            basis = tuple(IntMatrix.identity(config.d).data)
        config._perp[labels] = basis
    return basis


def is_face(config: Configuration, subset: Iterable[int]) -> Optional[Face]:
    """Return a Face with an integer witness, or None if subset is not a face.

    Solved as an exact LP feasibility problem: parametrize the functionals
    vanishing on the subset by the saturated orthogonal lattice, then ask
    Fourier-Motzkin for a point with value >= 1 on every other column (the
    system is homogeneous, so >= 1 is the same as > 0).
    """
    labels = tuple(sorted(set(subset)))
    if labels and (labels[0] < 1 or labels[-1] > config.n):
        raise DimensionMismatch(f"column labels out of range 1..{config.n}")
    basis = _perp_lattice_basis(config, labels)
    complement = [j for j in range(1, config.n + 1) if j not in labels]
    inequalities = []
    for j in complement:
        col = config.column(j)
        coeffs = tuple(Fraction(_dot(w, col)) for w in basis)
        if all(c == 0 for c in coeffs):
            return None
        inequalities.append((coeffs, Fraction(1)))
    y = fourier_motzkin_point(inequalities, len(basis))
    if y is None:
        return None
    phi_rat = tuple(
        sum((yi * wi for yi, wi in zip(y, (Fraction(w[k]) for w in basis))), Fraction(0))
        for k in range(config.d)
    )
    witness = primitive_vector(clear_denominators(phi_rat))
    for j in range(1, config.n + 1):
        value = _dot(witness, config.column(j))
        ok = value == 0 if j in labels else value > 0
        if not ok:
            raise InternalInconsistency("face witness fails its sign conditions")
    return Face(labels, witness)


def _dual_extreme_rays(config: Configuration) -> list[IntVec]:
    """Extreme rays of {phi : phi . a_j >= 0 for all j}, via double description.

    The dual cone is pointed because the columns span Q^d, so the incremental
    method starts from the full space (lineality basis = identity, no rays)
    and ends with an empty lineality part.  Adjacency of rays uses the exact
    rank test on the columns tight at both.
    """
    d = config.d
    lineality = [tuple(row) for row in IntMatrix.identity(d).data]
    rays: list[IntVec] = []
    processed: list[IntVec] = []

    def adjacent(r1: IntVec, r2: IntVec) -> bool:
        tight = [c for c in processed if _dot(r1, c) == 0 and _dot(r2, c) == 0]
        target = d - len(lineality) - 2
        if target < 0:
            return False
        if not tight:
            return target == 0
        return rank_int(tight) == target

    for j in range(1, config.n + 1):
        a = config.column(j)
        if all(x == 0 for x in a):
            continue
        values = [_dot(l, a) for l in lineality]
        if any(values):
            idx = next(i for i, v in enumerate(values) if v != 0)
            l0 = lineality[idx]
            if values[idx] < 0:
                l0 = tuple(-x for x in l0)
            v0 = abs(values[idx])
            lineality = [
                primitive_vector(tuple(v0 * x - v * y for x, y in zip(l, l0)))
                for i, (l, v) in enumerate(zip(lineality, values))
                if i != idx
            ]
            rays = [
                primitive_vector(tuple(v0 * x - _dot(r, a) * y for x, y in zip(r, l0)))
                for r in rays
            ]
            rays = [r for r in rays if any(r)]
            rays.append(primitive_vector(l0))
            rays = list(dict.fromkeys(rays))
        else:
            negative = [r for r in rays if _dot(r, a) < 0]
            if negative:
                keep = [r for r in rays if _dot(r, a) >= 0]
                new_rays = []
                for p in (r for r in rays if _dot(r, a) > 0):
                    for m in negative:
                        if not adjacent(p, m):
                            continue
                        pa, ma = _dot(p, a), _dot(m, a)
                        combo = tuple(pa * x - ma * y for x, y in zip(m, p))
                        if any(combo):
                            new_rays.append(primitive_vector(combo))
                rays = list(dict.fromkeys(keep + new_rays))
        processed.append(a)
    if lineality:
        raise InternalInconsistency("dual cone kept a lineality direction")
    for r in rays:
        tight = [c for c in processed if _dot(r, c) == 0]
        expected = d - 1
        got = rank_int(tight) if tight else 0
        if got != expected:
            raise InternalInconsistency("double description produced a non-extreme ray")
    return sorted(set(rays))


def _facets(config: Configuration) -> list[Face]:
    """Facets of the cone: tight column sets of the dual extreme rays."""
    facets = []
    for ray in _dual_extreme_rays(config):
        tight = tuple(
            j for j in range(1, config.n + 1) if _dot(ray, config.column(j)) == 0
        )
        facets.append(Face(tight, ray))
    return facets


def enumerate_faces(config: Configuration, method: str = "auto") -> FaceLattice:
    """The complete face lattice, canonically sorted by (size, indices).

    method "brute" checks every index subset with the feasibility oracle;
    "dd" computes the facets by double description and closes their index
    sets under intersection (every proper face is such an intersection,
    witnessed by the sum of the witnesses of the facets containing it);
    "auto" picks brute force up to BRUTE_FORCE_LIMIT columns.
    """
    if method == "auto":
        method = "brute" if config.n <= BRUTE_FORCE_LIMIT else "dd"
    if method == "brute":
        labels = range(1, config.n + 1)
        found = (is_face(config, s) for k in range(config.n + 1) for s in combinations(labels, k))
        faces = [face for face in found if face is not None]
        return FaceLattice(tuple(sorted(faces, key=lambda f: (len(f.indices), f.indices))))
    if method != "dd":
        raise ValueError(f"unknown face enumeration method {method!r}")

    facets = _facets(config)
    all_columns = frozenset(range(1, config.n + 1))
    index_sets = {all_columns} | {frozenset(f.indices) for f in facets}
    worklist = list(index_sets)
    while worklist:
        current = worklist.pop()
        for other in list(index_sets):
            meet = current & other
            if meet not in index_sets:
                index_sets.add(meet)
                worklist.append(meet)
    zero = tuple(0 for _ in range(config.d))
    faces = []
    for index_set in index_sets:
        supporting = [f for f in facets if index_set <= frozenset(f.indices)]
        witness = zero
        for f in supporting:
            witness = tuple(x + y for x, y in zip(witness, f.witness))
        witness = primitive_vector(witness)
        tight = tuple(
            j for j in range(1, config.n + 1)
            if _dot(witness, config.column(j)) == 0
        )
        if tight != tuple(sorted(index_set)):
            raise InternalInconsistency("facet intersection is not a face")
        faces.append(Face(index_set, witness))
    return FaceLattice(tuple(sorted(faces, key=lambda f: (len(f.indices), f.indices))))


def subfaces(lattice: FaceLattice, face: Face) -> list[Face]:
    """All faces strictly contained in the given one."""
    if face not in lattice:
        raise FaceNotInLattice(f"{list(face.indices)} is not in the lattice")
    target = set(face.indices)
    return [
        g
        for g in lattice.faces
        if set(g.indices) < target
    ]


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def _solve_gauss_rat(B: IntMatrix, beta: Parameter) -> Optional[Parameter]:
    """Solve B*y = beta over the Gaussian rationals (componentwise solves)."""
    real = solve_rational(B, [b.re for b in beta])
    imag = solve_rational(B, [b.im for b in beta])
    if real is None or imag is None:
        return None
    return tuple(GaussRat(r, i) for r, i in zip(real, imag))


# Equal matrices share one normalized Configuration, and with it the face
# lattice and every cached property.  Only A enters the key: beta is solved
# per call, so nothing that depends on it is ever cached.  Each entry holds
# a whole face lattice, so the cache stays small.
@lru_cache(maxsize=16)
def _normalize_matrix(A_raw: IntMatrix) -> tuple[Configuration, Optional[IntMatrix]]:
    """(config, B) with A_raw = B * config.A; B is None when A_raw is valid as is."""
    try:
        return Configuration(A_raw), None
    except (RankDeficient, LatticeNotSaturated):
        pass
    if A_raw.rows == 0 or A_raw.cols == 0:
        raise RankDeficient("cannot reduce an empty matrix")
    H, _ = hermite_normal_form(A_raw.transpose())
    basis_rows = [row for row in H.data if any(row)]
    if not basis_rows:
        raise RankDeficient("all columns are zero")
    B = IntMatrix.from_columns(basis_rows, A_raw.rows)
    reduced_cols = []
    for j in range(A_raw.cols):
        x = solve_rational(B, A_raw.column(j))
        assert x is not None and all(q.denominator == 1 for q in x)
        reduced_cols.append(tuple(int(q) for q in x))
    return Configuration(IntMatrix.from_columns(reduced_cols, len(basis_rows))), B


def reduce_configuration(
    A_raw: IntMatrix, beta_raw
) -> tuple[Configuration, Parameter, IntMatrix]:
    """Normalize (A, beta) so the columns generate the full lattice.

    Returns (config, beta', B) with A_raw = B * config.A and
    beta_raw = B * beta'.  When A_raw is already a valid configuration it is
    returned unchanged with B the identity.  Otherwise B's columns are the
    canonical (column-Hermite) basis of the column lattice of A_raw, which
    also drops redundant rows when A_raw has dependent rows.  Calls with
    equal matrices return the same config instance.
    """
    beta = as_parameter(beta_raw, A_raw.rows)
    config, B = _normalize_matrix(A_raw)
    if B is None:
        return config, beta, IntMatrix.identity(A_raw.rows)
    beta_reduced = _solve_gauss_rat(B, beta)
    if beta_reduced is None:
        raise BetaOutsideSpan(
            "beta is not in the column span of the configuration"
        )
    return config, beta_reduced, B
