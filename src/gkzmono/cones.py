"""Configurations and the face lattice of the nonnegative column span.

A configuration is an integer d x n matrix whose columns generate the full
lattice Z^d.  A face is a subset of column indices cut out by an integer
functional that vanishes on the subset and is strictly positive on its
complement; the whole column set is always a face (functional 0).  The
minimal face is the set of columns on every facet, read off the facets
alone; the configuration is pointed when it is empty.

The hull, conv(0 + columns), is triangulated once by placing (_hull).  A
facet form, x -> det(the facet's lifted vertices (1, v), then (1, x)), is
derived from the parent simplex's forms by one exact exchange rule, so a
visibility test is one dot product, also the new simplex's certificate
entry.  The cone is the hull's tangent cone at 0: its facets are read off
the final boundary through 0, and the normalized volume reads the same
triangulation.  Face enumeration closes the facet bitmasks under
intersection, once per configuration (_face_closure).  The faces stay
bitmasks until a Face is read: one helper (_face) witnesses a closure entry
by the primitive sum of the normals of the facets that contain it.
Feasibility questions ("is there a functional with these signs?") are
answered by exact Fourier-Motzkin elimination on primitive integer rows;
only the back-substituted point is rational.  That oracle still enumerates
the faces up to BRUTE_FORCE_LIMIT columns, for the reason at the constant.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import (
    BetaOutsideSpan,
    DegenerateConfiguration,
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
)

Parameter = tuple[GaussRat, ...]
Simplex = tuple[int, ...]

# Up to this many columns "auto" brute-forces all index subsets against the
# feasibility oracle, and closes the hull's facets above.  The closure is
# faster at every n measured (2 to 10).  The only reason brute force remains
# is the benchmark, which asserts that a cold classify of a 2x3 matrix reaches
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
# The hull: a placing triangulation of conv(0 + columns)
# ---------------------------------------------------------------------------


def _derived_forms(parent: list[IntVec], parent_det: int, parent_forms: list[IntVec], k: int,
                   p: IntVec, i: int, det: int) -> list[IntVec]:
    """Facet forms of parent's facet k with p inserted at position i, exactly; det is its det.

    Points are lifted to (1, x).  f_k stays; opposite q = parent[j],
    +-(f_k(p) f_j - f_j(p) f_k) / parent_det, signed by f_j(q) = (-1)^(d-j) parent_det.
    A zero det, a remainder, or a value at the vertex in position m other than
    (-1)^(d-m) det raises InternalInconsistency.
    """
    if not det:
        raise InternalInconsistency("placing triangulation has a flat simplex")
    d, order = len(parent) - 1, [j for j in range(len(parent)) if j != k]
    order.insert(i, k)  # k stands for p
    at_p, forms = [sum(map(mul, f, p)) for f in parent_forms], []
    for m, j in enumerate(order):
        g, rest, expected = parent_forms[k], (), (-1) ** (d - m) * det
        if j != k:
            sign = 1 if (-1) ** (d - j) * at_p[k] == expected else -1
            v, w = sign * at_p[k], sign * at_p[j]
            g, rest = zip(*[divmod(v * x - w * y, parent_det)
                            for x, y in zip(parent_forms[j], parent_forms[k])])
        if any(rest) or sum(map(mul, g, p if j == k else parent[j])) != expected:
            raise InternalInconsistency("a derived facet form disagrees with the determinant")
        forms.append(g)
    return forms


def _seed_simplex(points: dict[int, IntVec], labels: list[int], d: int):
    """(labels, det, facet forms) of the first affinely independent points in label order.

    Points are exchanged into the unit simplex base, base + e_1, ..., base + e_d
    (det 1, forms (-1)^(d-k) times its barycentric coordinates): a point enters
    iff the form opposite a remaining unit vertex is nonzero at it.
    """
    base = points[labels[0]]
    vertices = [base] + [base[:k] + (base[k] + 1,) + base[k + 1:] for k in range(1, d + 1)]
    forms = [tuple((-1) ** d * x for x in (sum(base),) + (-1,) * d)]
    forms += [tuple((-1) ** (d - k) * (-base[k] if m == 0 else int(m == k)) for m in range(d + 1))
              for k in range(1, d + 1)]
    seed, det = labels[:1], 1
    for label in labels[1:]:
        p, i = points[label], len(seed)
        k, value = next(((k, v) for k in range(i, d + 1) if (v := sum(map(mul, forms[k], p)))),
                        (0, 0))
        if value:  # p moves from last to position i: a (d-i+1)-cycle
            new_det = -value if (d - i) % 2 else value
            forms = _derived_forms(vertices, det, forms, k, p, i, new_det)
            vertices = vertices[:i] + [p] + [v for j, v in enumerate(vertices[i:], i) if j != k]
            seed, det = seed + [label], new_det
            if len(seed) == d + 1:
                break
    if len(seed) < d + 1:
        raise DegenerateConfiguration("points do not span the ambient space")
    return tuple(seed), det, forms


def _placing_triangulation(points: dict[int, IntVec], d: int):
    """Triangulate conv(points) by inserting in ascending label order.

    Each new point is joined to the boundary facets it strictly sees; points
    inside (or on) the current hull contribute nothing, and a repeated point
    only by its smallest label.  Returns the sorted simplices with their
    |det|, the final boundary and the facet forms derived so far.
    """
    labels = sorted({x: label for label, x in sorted(points.items(), reverse=True)}.values())
    points = {label: (1,) + points[label] for label in labels}
    seed, seed_det, seed_forms = _seed_simplex(points, labels, d)
    simplices: list[tuple[Simplex, int]] = []
    # facet -> (simplex, det, k, birth): () for the seed, else _derived_forms' arguments but det
    boundary: dict[Simplex, tuple] = {}
    forms: dict[Simplex, list] = {seed: seed_forms}  # facet forms of each simplex tested so far

    def place(simplex: Simplex, det: int, birth: tuple = ()):
        # det is the edge determinant of the sorted simplex; combinations
        # drops simplex[d], simplex[d-1], ... in turn.
        simplices.append((simplex, abs(det)))
        for k, facet in zip(range(d, -1, -1), combinations(simplex, d)):
            if boundary.pop(facet, None) is None:
                boundary[facet] = (simplex, det, k, birth)

    place(seed, seed_det)
    for label, p in [(l, points[l]) for l in labels if l not in seed]:
        # A snapshot: p lies on none of its facets, so their order does not matter.
        for facet, (simplex, simplex_det, dropped, birth) in list(boundary.items()):
            if simplex not in forms:
                forms[simplex] = _derived_forms(*birth, simplex_det)
            value = sum(map(mul, forms[simplex][dropped], p))
            if value * (-1) ** (d - dropped) * simplex_det < 0:  # p strictly sees the facet
                i = bisect(facet, label)  # moving the label to position i: a (d-i+1)-cycle
                place(facet[:i] + (label,) + facet[i:], -value if (d - i) % 2 else value,
                      ([points[v] for v in simplex], simplex_det, forms[simplex], dropped, p, i))
    return tuple(sorted(simplices)), boundary, forms


@per_configuration
def _hull(config: Configuration) -> tuple[tuple, tuple]:
    """(triangulation, facets) of conv(0 + columns), the one hull of the configuration.

    A facet is read off each boundary simplex through the origin: the linear
    part of its form, signed positive at the opposite vertex, primitive.  The
    form must vanish on the facet's d (affinely independent) vertices and the
    normal be nonnegative on every column, else InternalInconsistency.
    """
    d, columns = config.d, config.A.columns()
    points = ((0,) * d, *columns)  # the origin is label 0, column j label j
    triangulation, boundary, forms = _placing_triangulation(dict(enumerate(points)), d)
    normals = set()
    for facet, (simplex, det, k, birth) in boundary.items():
        if facet[0]:  # not through the origin
            continue
        form = (forms.get(simplex) or forms.setdefault(simplex, _derived_forms(*birth, det)))[k]
        if any(sum(map(mul, form, (1,) + points[v])) for v in facet):
            raise InternalInconsistency("a hull facet form does not vanish on its facet")
        sign = det if (d - k) % 2 == 0 else -det  # the sign of the form at the opposite vertex
        normals.add(primitive_vector(tuple(sign * x for x in form[1:])))
    facets = []
    for normal in sorted(normals):
        values = [_dot(normal, a) for a in columns]
        if min(values) < 0:
            raise InternalInconsistency("a hull facet normal is negative on a column")
        facets.append((normal, sum(1 << j for j, v in enumerate(values) if v == 0)))
    return triangulation, tuple(facets)


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
    """The cone's facets as (primitive inner normal, column bitmask), sorted: _hull's."""
    return _hull(config)[1]


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

    method "dd", a name kept from double description, now names the facet
    closure: a Face per closure entry of the hull's facets (_face_closure,
    _face), witnessed by the primitive sum of its facets' normals.  "brute"
    checks every index subset with the feasibility oracle; "auto" runs it up
    to BRUTE_FORCE_LIMIT columns, only because the benchmark pins it there.
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
