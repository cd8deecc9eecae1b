"""Configurations and the face lattice of the nonnegative column span.

A configuration is an integer d x n matrix whose columns generate the full
lattice Z^d.  A face is a subset of column indices cut out by an integer
functional that vanishes on the subset and is strictly positive on its
complement; the whole column set is always a face (functional 0).  The
minimal face is the set of columns on every facet, read off the facets
alone; the configuration is pointed when it is empty.

Face enumeration computes the facets with the double description method
on the dual cone, whose rays carry the bitmasks of the columns they vanish
on (adjacency is a test on those bitmasks), and closes the facet bitmasks
under intersection, once per configuration (_face_closure).  The faces stay
bitmasks until a Face is read: one helper (_face) witnesses a closure entry
by the primitive sum of the normals of the facets that contain it.
Feasibility questions ("is there a functional with these signs?") are
answered by exact Fourier-Motzkin elimination on primitive integer rows;
only the back-substituted point is rational.  That oracle still enumerates
the faces up to BRUTE_FORCE_LIMIT columns, for the reason at the constant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations, product
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import (
    BetaOutsideSpan,
    DimensionMismatch,
    InputError,
    InternalInconsistency,
    LatticeNotSaturated,
    RankDeficient,
    ScaleLimit,
)
from .intlinalg import (
    GaussRat,
    IntMatrix,
    IntVec,
    _hermite_rows,
    _hermite_solutions,
    clear_denominators,
    hermite_kernel_basis,
    hermite_normal_form,
    integer_entries,
    primitive_vector,
    rank_int,
)

Parameter = tuple[GaussRat, ...]

# Up to this many columns "auto" brute-forces all index subsets against the
# feasibility oracle, and runs double description above.  DD is faster at
# every n measured (2 to 10).  The only reason brute force remains is the
# benchmark, which asserts that a cold classify of a 2x3 matrix reaches
# is_face; ROADMAP item 2's benchmark change lifts that pin, and item 3 then
# deletes this constant with the brute path.  Up to this many columns
# resonance reports also take their faces from face_lattice()
# (resonance._reported_face), so they print the witnesses that `faces` prints.
BRUTE_FORCE_LIMIT = 3

# A Fourier-Motzkin stage builds (positive rows) * (negative rows) + (the rest)
# rows; above this it raises ScaleLimit.  The test suite's largest stage has 756.
FOURIER_MOTZKIN_ROW_LIMIT = 10_000


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def per_configuration(fn):
    """Memoize fn(config, *args) in config._memo; it lives as long as the configuration.

    Only for immutable results that depend on A alone, never on beta or on a
    step budget: equal matrices share one configuration (_normalize_matrix).
    The memo also holds the saturated toric ideal with the Buchberger steps
    it took (toric.toric_ideal_generators), which replays every budget
    exactly: a later call raises when those steps exceed its max_steps.
    """

    @wraps(fn)
    def memoized(config, *args):
        key = (fn,) + args
        if key not in config._memo:
            config._memo[key] = fn(config, *args)
        return config._memo[key]

    return memoized


class Face:
    """A face: sorted 1-based column indices plus an integer witness.

    The witness functional vanishes exactly on the indexed columns and is
    strictly positive on all others.  Witnesses are not unique; equality
    and hashing use the index set only.
    """

    __slots__ = ("indices", "witness")

    def __init__(self, indices: Iterable[int], witness: Iterable[int]):
        object.__setattr__(self, "indices", tuple(sorted(set(integer_entries(indices)))))
        object.__setattr__(self, "witness", integer_entries(witness))

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


class Configuration:
    """Validated configuration: integer d x n matrix with ZA = Z^d.

    Columns are addressed by 1-based labels, matching the face index sets.
    Validation: ZA = Z^d iff the row Hermite form of A^T has d nonzero rows,
    all with pivot 1; otherwise RankDeficient or LatticeNotSaturated is
    raised (use :func:`reduce_configuration` to normalize arbitrary input).
    The validating form U*A^T = H is kept as self.hermite, and the kernel
    basis and the related columns read it.  Results that depend on A alone
    (face lattice, perp bases, volumes, the columns in toric relations, the
    kernel basis and the saturated toric ideal) are computed once per
    instance and kept in its memo.
    """

    def __init__(self, A: IntMatrix):
        if A.rows == 0 or A.cols == 0:
            raise RankDeficient("configuration must have at least one row and column")
        H, U = hermite_normal_form(A.transpose())
        rank = sum(map(any, H.data))
        if rank < A.rows:
            raise RankDeficient(f"columns span a rank-{rank} sublattice of Z^{A.rows}")
        if any(H.data[i][i] != 1 for i in range(rank)):
            raise LatticeNotSaturated(
                "columns generate a proper sublattice; apply reduce_configuration"
            )
        self.A = A
        self.hermite = (H, U)
        self._memo: dict = {}

    @property
    def d(self) -> int:
        return self.A.rows

    @property
    def n(self) -> int:
        return self.A.cols

    def column(self, label: int) -> IntVec:
        if not 1 <= label <= self.n:
            raise DimensionMismatch(f"column label {label} out of range 1..{self.n}")
        return self.A.column(label - 1)

    @property
    @per_configuration
    def kernel(self) -> tuple[IntVec, ...]:
        """kernel_lattice_basis(A), read off the validating form self.hermite."""
        return hermite_kernel_basis(*self.hermite)

    @property
    @per_configuration
    def lineality_columns(self) -> tuple[int, ...]:
        """Labels of the columns in the minimal face, the lineality space.

        They are the columns on every facet, and every column when the cone
        has no facet (it is all of Q^d).  The configuration is pointed iff
        this is ().
        """
        common = (1 << self.n) - 1
        for _, mask in _facets(self):
            common &= mask
        return tuple(j + 1 for j in range(self.n) if common >> j & 1)

    @per_configuration
    def face_lattice(self) -> tuple[Face, ...]:
        return enumerate_faces(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and self.A == other.A

    def __hash__(self) -> int:
        return hash(self.A)

    def __repr__(self) -> str:
        return f"Configuration({self.A!r})"


def as_parameter(values, d: int) -> Parameter:
    """Coerce a sequence of parameter entries to GaussRat, checking arity.

    A string is not a sequence of entries: "12" would read as (1, 2).
    """
    if isinstance(values, (str, bytes, bytearray)):
        raise InputError(f"parameter must be a sequence of entries, not {values!r}")
    beta = tuple(GaussRat.parse(v) for v in values)
    if len(beta) != d:
        raise DimensionMismatch(f"parameter has {len(beta)} entries, expected {d}")
    return beta


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility
# ---------------------------------------------------------------------------


def _primitive_rows(rows: Iterable[IntVec]) -> list[IntVec]:
    """Distinct primitive rows (coeffs..., rhs) of coeffs . y >= rhs, tautologies dropped."""
    rows = (primitive_vector(row) for row in rows)
    return list(dict.fromkeys(row for row in rows if any(row[:-1]) or row[-1] > 0))


def fourier_motzkin_point(
    inequalities: Sequence[tuple[Sequence[Fraction], Fraction]], nvars: int
) -> Optional[tuple[Fraction, ...]]:
    """Find y in Q^nvars with coeffs . y >= rhs for every inequality.

    Each row is cleared of denominators once; elimination then runs on
    primitive integer rows (coeffs..., rhs), variables left to right.
    Back-substitution always picks the tightest lower bound (or the upper
    bound when unbounded below, or 0 when unconstrained).  Returns None when
    infeasible; a stage above FOURIER_MOTZKIN_ROW_LIMIT rows raises ScaleLimit.
    """
    current = _primitive_rows(
        clear_denominators(tuple(coeffs) + (rhs,)) for coeffs, rhs in inequalities
    )
    stages: list[list[IntVec]] = []
    for k in range(nvars):
        stages.append(current)
        positive = [row for row in current if row[k] > 0]
        negative = [row for row in current if row[k] < 0]
        kept = [row for row in current if row[k] == 0]
        if len(kept) + len(positive) * len(negative) > FOURIER_MOTZKIN_ROW_LIMIT:
            raise ScaleLimit(f"Fourier-Motzkin stage exceeds {FOURIER_MOTZKIN_ROW_LIMIT} rows")
        combined = [
            tuple(-n[k] * x + p[k] * y for x, y in zip(p, n)) for p in positive for n in negative
        ]
        current = _primitive_rows(kept + combined)
        if any(not any(row[:-1]) for row in current):
            return None
    if current:  # all variables eliminated: only rows 0 >= rhs > 0 remain
        return None
    y = [Fraction(0)] * nvars
    for k in reversed(range(nvars)):
        lower: Optional[Fraction] = None
        upper: Optional[Fraction] = None
        for row in stages[k]:
            ck = row[k]
            if ck == 0:
                continue
            bound = (row[-1] - sum(c * v for c, v in zip(row[k + 1:-1], y[k + 1:]))) / Fraction(ck)
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


def _perp_kernel(config: Configuration, labels: tuple[int, ...]) -> tuple[IntVec, ...]:
    """A basis of {w in Z^d : w . a_j = 0 for j in labels (sorted)}, from one Hermite pass.

    The face matrix M, cut from config.A on plain rows, carries the identity
    along its Hermite form U*M = H; the rows of U whose H row is zero span
    the saturated lattice (as in hermite_kernel_basis).  Not memoized.
    """
    d, width = config.d, len(labels)
    rows = [[row[j - 1] for j in labels] + [0] * i + [1] + [0] * (d - 1 - i)
            for i, row in enumerate(config.A.data)]
    return tuple(tuple(row[width:]) for row in rows[_hermite_rows(rows, width):])


@per_configuration
def _perp_lattice_basis(config: Configuration, labels: tuple[int, ...]) -> tuple[IntVec, ...]:
    """The canonical basis of that lattice (memoized): _perp_kernel's rows in Hermite form."""
    basis = list(_perp_kernel(config, labels))
    _hermite_rows(basis, config.d)
    return tuple(map(tuple, basis))


def _check_labels(config: Configuration, labels: tuple[int, ...]) -> None:
    """Raise DimensionMismatch unless the sorted labels are all column labels 1..n."""
    if labels and (labels[0] < 1 or labels[-1] > config.n):
        raise DimensionMismatch(f"column labels out of range 1..{config.n}")


def is_face(config: Configuration, subset: Iterable[int]) -> Optional[Face]:
    """Return a Face with an integer witness, or None if subset is not a face.

    Solved as an exact LP feasibility problem: parametrize the functionals
    vanishing on the subset by the saturated orthogonal lattice, then ask
    Fourier-Motzkin for a point with value >= 1 on every other column (the
    system is homogeneous, so >= 1 is the same as > 0).
    """
    labels = tuple(sorted(set(integer_entries(subset))))
    _check_labels(config, labels)
    basis = _perp_lattice_basis(config, labels)
    complement = [j for j in range(1, config.n + 1) if j not in labels]
    inequalities = []
    for j in complement:
        coeffs = tuple(_dot(w, config.column(j)) for w in basis)
        if not any(coeffs):
            return None
        inequalities.append((coeffs, 1))
    y = fourier_motzkin_point(inequalities, len(basis))
    if y is None:
        return None
    phi_rat = [sum(yi * w[k] for yi, w in zip(y, basis)) for k in range(config.d)]
    witness = primitive_vector(clear_denominators(phi_rat))
    for j in range(1, config.n + 1):
        value = _dot(witness, config.column(j))
        ok = value == 0 if j in labels else value > 0
        if not ok:
            raise InternalInconsistency("face witness fails its sign conditions")
    return Face(labels, witness)


@per_configuration
def _facets(config: Configuration) -> tuple[tuple[IntVec, int], ...]:
    """Facets of the cone as (primitive inner normal, column bitmask), sorted by normal.

    The normals are the extreme rays of the dual cone {phi : phi . a_j >= 0},
    found by the double description method.  The dual cone is pointed because
    the columns span Q^d, so the method starts from the full space (lineality
    basis = identity, no rays) and ends with an empty lineality part.  Each
    ray carries the bitmask of the columns so far that it vanishes on (bit
    j - 1 for column j).  Two rays are adjacent iff their common zero set has
    at least d - dim(lineality) - 2 columns and lies in no third ray's zero
    set (the combinatorial test of Fukuda and Prodon 1996).  Face enumeration
    and the resonance walk share the result.
    """
    d = config.d
    lineality = [tuple(row) for row in IntMatrix.identity(d).data]
    columns = config.A.columns()
    rays: dict[IntVec, int] = {}
    for j, a in enumerate(columns):
        bit = 1 << j
        values = [_dot(l, a) for l in lineality]
        if any(values):
            idx = next(i for i, v in enumerate(values) if v != 0)
            l0 = lineality[idx] if values[idx] > 0 else tuple(-x for x in lineality[idx])
            v0 = abs(values[idx])
            lineality = [
                primitive_vector(tuple(v0 * x - v * y for x, y in zip(l, l0)))
                for i, (l, v) in enumerate(zip(lineality, values))
                if i != idx
            ]
            rays = {
                primitive_vector(tuple(v0 * x - _dot(r, a) * y for x, y in zip(r, l0))): mask | bit
                for r, mask in rays.items()
            }
            rays[l0] = bit - 1  # l0 vanished on every earlier column
        else:
            target = d - len(lineality) - 2
            value = {r: _dot(r, a) for r in rays}
            masks = list(rays.values())
            new_rays = {}
            positive = [(p, pm) for p, pm in rays.items() if value[p] > 0]
            negative = [(m, mm) for m, mm in rays.items() if value[m] < 0]
            for (p, pm), (m, mm) in product(positive, negative):
                meet = pm & mm
                if meet.bit_count() < target:
                    continue
                if sum(meet & other == meet for other in masks) == 2:  # p and m only
                    combo = tuple(value[p] * x - value[m] * y for x, y in zip(m, p))
                    new_rays[primitive_vector(combo)] = meet | bit
            rays = {
                r: mask | (bit if value[r] == 0 else 0)
                for r, mask in rays.items()
                if value[r] >= 0
            }
            rays.update(new_rays)
    if lineality:
        raise InternalInconsistency("dual cone kept a lineality direction")
    for mask in rays.values():
        tight = [a for j, a in enumerate(columns) if mask >> j & 1]
        if rank_int(tight) != d - 1:
            raise InternalInconsistency("double description produced a non-extreme ray")
    return tuple(sorted(rays.items()))


@per_configuration
def _face_closure(config: Configuration) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every face as (column bitmask, labels), sorted by (size, labels): lattice order.

    The facet bitmasks closed under intersection, plus the full face: every
    proper face is such an intersection.  Each facet normal is checked once
    here to be nonnegative on the columns and zero exactly on its bitmask.
    """
    columns = config.A.columns()
    for normal, facet in _facets(config):
        values = [_dot(normal, a) for a in columns]
        if min(values) < 0 or facet != sum(1 << j for j, v in enumerate(values) if v == 0):
            raise InternalInconsistency("facet intersection is not a face")
    masks = {(1 << config.n) - 1}
    for _, facet in _facets(config):
        masks |= {mask & facet for mask in masks}
    bits = [(j, 1 << j - 1) for j in range(1, config.n + 1)]
    closure = [(mask, tuple([j for j, bit in bits if mask & bit])) for mask in masks]
    return tuple(sorted(closure, key=lambda pair: (len(pair[1]), pair[1])))


def _face(config: Configuration, mask: int, labels: tuple[int, ...]) -> Face:
    """The Face of a closure entry, witnessed by the primitive sum of its facets' normals.

    The normals are checked by _face_closure, so the witness vanishes exactly
    on the meet of those facets, which must be the face.  The labels and the
    witness are the package's own, so the slots are set without Face's checks.
    """
    meet, normals = (1 << config.n) - 1, [(0,) * config.d]
    for normal, facet in _facets(config):
        if facet & mask == mask:
            meet &= facet
            normals.append(normal)
    if meet != mask:
        raise InternalInconsistency("facet intersection is not a face")
    face = object.__new__(Face)
    object.__setattr__(face, "indices", labels)
    object.__setattr__(face, "witness", primitive_vector(tuple(map(sum, zip(*normals)))))
    return face


def enumerate_faces(config: Configuration, method: str = "auto") -> tuple[Face, ...]:
    """Every face, sorted by (size, indices): the minimal face first, the full face last.

    method "dd" computes the facets by double description and builds a Face
    from each entry of their closure (_face_closure, _face), witnessed by the
    primitive sum of the normals of the facets containing it (canonical).
    "brute" checks every index subset with the feasibility oracle.  "auto"
    runs DD, except up to BRUTE_FORCE_LIMIT columns, where it keeps brute
    force only because the benchmark pins that path; ROADMAP item 1's
    benchmark change deletes it.
    """
    if method == "auto":
        method = "brute" if config.n <= BRUTE_FORCE_LIMIT else "dd"
    if method == "dd":
        return tuple(_face(config, mask, labels) for mask, labels in _face_closure(config))
    if method != "brute":
        raise InputError(f"unknown face enumeration method {method!r}")
    labels = range(1, config.n + 1)
    found = (is_face(config, s) for k in range(config.n + 1) for s in combinations(labels, k))
    return tuple(face for face in found if face is not None)  # combinations are in lattice order


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def _gauss_rat_coordinates(rows: Sequence[IntVec], beta: Parameter) -> Optional[Parameter]:
    """Coordinates of beta on the nonzero rows of a row Hermite form, or None.

    The real and imaginary parts are solved separately.
    """
    real, imag = _hermite_solutions(rows, ([b.re for b in beta], [b.im for b in beta]))
    if real is None or imag is None:
        return None
    return tuple(GaussRat(r, i) for r, i in zip(real, imag))


# The only module-level cache of the package.  Equal matrices share one
# normalized Configuration, and with it every A-side result in its memo.
# Only A enters the key: beta is solved per call, so nothing that depends on
# it is ever cached.  An entry can hold a whole face lattice, so the cache
# stays small.
@lru_cache(maxsize=16)
def _normalize_matrix(A_raw: IntMatrix) -> tuple[Configuration, IntMatrix, bool]:
    """(config, B, reduced) with A_raw = B * config.A.

    When A_raw is valid as is, B is the identity and reduced is False.
    Otherwise its columns are reduced (_hermite_reduce).
    """
    if A_raw.rows == 0 or A_raw.cols == 0:
        raise RankDeficient("cannot reduce an empty matrix")
    try:
        return Configuration(A_raw), IntMatrix.identity(A_raw.rows), False
    except (RankDeficient, LatticeNotSaturated):
        pass
    coordinates, basis = _hermite_reduce(A_raw.columns())
    if not basis:
        raise RankDeficient("all columns are zero")
    B = IntMatrix.from_columns(basis, A_raw.rows)
    return Configuration(IntMatrix.from_columns(coordinates, len(basis))), B, True


def _hermite_reduce(columns: Sequence[IntVec]) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """(coordinates, basis): the one Hermite reduction of a column lattice, on plain rows.

    basis is the nonzero rows of the row Hermite form H of the columns as rows, from one
    transform-free pass, and column j = sum_i coordinates[j][i] basis[i], integral.  It
    normalizes user matrices that fail validation, and gives faces volumes and spans.
    """
    H = [list(col) for col in columns]
    _hermite_rows(H, len(H[0]))
    basis = tuple(tuple(row) for row in H if any(row))
    coordinates = tuple(_hermite_solutions(basis, columns))
    if any(x is None or any(q.denominator != 1 for q in x) for x in coordinates):
        raise InternalInconsistency("a column is not in the lattice of its Hermite basis")
    return coordinates, basis


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
    config, B, reduced = _normalize_matrix(A_raw)
    if not reduced:
        return config, beta, B
    beta_reduced = _gauss_rat_coordinates(B.columns(), beta)
    if beta_reduced is None:
        raise BetaOutsideSpan(
            "beta is not in the column span of the configuration"
        )
    return config, beta_reduced, B
