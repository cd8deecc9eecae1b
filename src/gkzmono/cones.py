"""Configurations and the face lattice of the nonnegative column span.

A configuration is an integer d x n matrix whose columns generate the full
lattice Z^d.  A face is a subset of column indices cut out by an integer
functional that vanishes on the subset and is strictly positive on its
complement; the whole column set is always a face (functional 0).  The
minimal face is the set of columns on every facet, read off the facets
alone; the configuration is pointed when it is empty.

The hull, conv(0 + columns), is triangulated once by placing (_hull).  Each
boundary facet keeps one inner form, x -> +-det(the facet's lifted vertices
(1, v), then (1, x)), so a visibility test is one dot product, also the new
simplex's certificate entry; a new facet's form is derived exactly at its
horizon ridge.  The cone is the hull's tangent cone at 0: its facets are
read off the final boundary through 0 and certified there, once, and the
normalized volume reads the same triangulation.  A homogeneous configuration
places its columns alone, in their own hyperplane (_cone_placing).  Face
enumeration closes the facet bitmasks under intersection, once per
configuration (_face_closure).  The faces stay bitmasks until a Face is read.
One rule (_meet_face) decides and witnesses every face: a set of columns is
a face iff it is the meet of the facets that contain it, witnessed by the
primitive sum of their normals.  is_face applies it to any subset, and the
closure's entries must pass it.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache, wraps
from itertools import combinations
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import (
    BetaOutsideSpan,
    DimensionMismatch,
    InputError,
    InternalInconsistency,
    LatticeNotSaturated,
    RankDeficient,
)
from .intlinalg import (
    GaussRat,
    IntMatrix,
    IntVec,
    _hermite_rows,
    _hermite_solutions,
    integer_entries,
    kernel_lattice_basis,
    primitive_vector,
    xgcd,
)

Parameter = tuple[GaussRat, ...]
Simplex = tuple[int, ...]

# Up to this many columns "auto" runs every index subset through is_face, and
# closes the hull's facets above.  Both read the same facets and return equal
# faces and witnesses, so this is a benchmark pin only: the benchmark asserts
# that a cold classify of a 2x3 matrix reaches is_face.  ROADMAP item 2a lifts
# that pin, and item 3 then deletes this constant with the brute path and the
# face_lattice() read of resonance._reported_face.
BRUTE_FORCE_LIMIT = 3


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
    Validation: ZA = Z^d iff the row Hermite form of the columns as rows has
    d nonzero rows, all with pivot 1; otherwise RankDeficient or
    LatticeNotSaturated is raised (use :func:`reduce_configuration` to
    normalize arbitrary input; the error keeps the rows as hermite_rows).  It
    is one transform-free pass on the rows [a_j | 1]: an accepted form is
    [I_d; 0], so the carried column is (y; 0) iff y . a_j = 1 for every j.
    Only that grading (_grading, else None) and the columns are kept.  Results that
    depend on A alone (face lattice, perp bases, volumes, the columns in
    toric relations, the kernel basis and the saturated toric ideal) are
    computed once per instance, when first read, and kept in its memo.
    """

    def __init__(self, A: IntMatrix):
        if A.rows == 0 or A.cols == 0:
            raise RankDeficient("configuration must have at least one row and column")
        columns, d = A.columns(), A.rows
        H = [[*a, 1] for a in columns]
        rank = _hermite_rows(H, d)
        if rank < d or any(H[i][i] != 1 for i in range(rank)):
            invalid = (RankDeficient(f"columns span a rank-{rank} sublattice of Z^{d}") if rank < d
                       else LatticeNotSaturated("columns generate a proper sublattice; apply "
                                                "reduce_configuration"))
            invalid.hermite_rows = H
            raise invalid
        self.A = A
        self._columns = columns
        self._grading = None if any(row[d] for row in H[d:]) else tuple(row[d] for row in H[:d])
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
        return self._columns[label - 1]

    @property
    @per_configuration
    def kernel(self) -> tuple[IntVec, ...]:
        """kernel_lattice_basis(A): only the toric ideal and its exports read it."""
        return kernel_lattice_basis(self.A)

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
# The hull: a placing triangulation of conv(0 + columns)
# ---------------------------------------------------------------------------


def _seed_simplex(points: dict[int, IntVec], labels: list[int], d: int):
    """(labels, |det|, inner forms) of the first affinely independent points in label order.

    Points are exchanged into the unit simplex base, base + e_1, ..., base + e_d
    (|det| 1, its barycentric coordinates as inner forms): p enters iff the form
    g opposite a remaining unit vertex is nonzero at it, and replaces that
    vertex; the new forms are derived as at a horizon, with the sign of g that
    p sees (_horizon_form).  forms[m] is the form opposite seed[m].
    """
    base = points[labels[0]]
    vertices = [base] + [base[:k] + (base[k] + 1,) + base[k + 1:] for k in range(1, d + 1)]
    forms = [(sum(base),) + (-1,) * d]
    forms += [tuple(-base[k] if m == 0 else int(m == k) for m in range(d + 1))
              for k in range(1, d + 1)]
    seed, det = labels[:1], 1
    for label in labels[1:]:
        p, i = points[label], len(seed)
        if i > d:
            break
        at_p = [sum(map(mul, g, p)) for g in forms]
        k = next((k for k in range(i, d + 1) if at_p[k]), None)
        if k is None:  # p lies in the span of the seed so far
            continue
        seen, det = forms[k] if at_p[k] < 0 else tuple(-x for x in forms[k]), abs(at_p[k])
        forms = [tuple(-x for x in seen) if j == k else _horizon_form(seen, -det, g, at_p[j], v)
                 for j, (g, v) in enumerate(zip(forms, vertices))]
        vertices[k], vertices[i], forms[k], forms[i] = vertices[i], p, forms[i], forms[k]
        seed.append(label)
    if len(seed) <= d:  # every caller's points span: a configuration's, or a face's lattice
        raise InternalInconsistency("placing seed: the points do not span the ambient space")
    return tuple(seed), det, forms


def _horizon_form(seen: IntVec, seen_p: int, hidden: IntVec, hidden_p: int, u: IntVec) -> IntVec:
    """Inner form of ridge + p, where p sees seen = ridge + u; hidden is the ridge's other facet.

    (hidden(p) seen - seen(p) hidden) / hidden(u), exactly, with -seen(p) at u.
    A divisor <= 0, a remainder or another value raises InternalInconsistency.
    """
    divisor = sum(map(mul, hidden, u))
    if divisor <= 0:
        raise InternalInconsistency("placing triangulation has a flat simplex or an outer form")
    form, rest = zip(*[divmod(hidden_p * x - seen_p * y, divisor) for x, y in zip(seen, hidden)])
    if any(rest) or sum(map(mul, form, u)) != -seen_p:
        raise InternalInconsistency("a derived facet form disagrees with the determinant")
    return form


def _placing_triangulation(points: dict[int, IntVec], d: int):
    """Triangulate conv(points) by inserting in ascending label order (beneath-beyond).

    Each new point p is joined to the boundary facets it strictly sees; points
    inside (or on) the current hull contribute nothing, and a repeated point
    only by its smallest label.  A boundary facet keeps one inner form g: g >= 0
    on the hull, |g(x)| = |det| of its lifted points then (1, x).  So p sees it
    iff g(p) < 0, and -g(p) is the new simplex's |det|.  A new facet's form is
    derived at its horizon ridge, shared with a facet p does not see.  Returns
    the sorted simplices with their |det| and the final boundary with its forms.
    """
    labels = sorted({x: label for label, x in sorted(points.items(), reverse=True)}.values())
    points = {label: (1,) + points[label] for label in labels}
    seed, det, forms = _seed_simplex(points, labels, d)
    simplices: list[tuple[Simplex, int]] = [(seed, det)]
    boundary: dict[Simplex, IntVec] = {}
    ridges: dict[Simplex, list[Simplex]] = {}  # (d-1)-tuple -> its two boundary facets
    for m, g in enumerate(forms):
        facet = seed[:m] + seed[m + 1:]
        boundary[facet] = g
        for j in range(d):
            ridges.setdefault(facet[:j] + facet[j + 1:], []).append(facet)
    for label, p in [(l, points[l]) for l in labels if l not in seed]:
        at_p = {facet: sum(map(mul, g, p)) for facet, g in boundary.items()}
        for facet in [facet for facet, value in at_p.items() if value < 0]:  # p sees it
            value, g, i = at_p[facet], boundary.pop(facet), bisect(facet, label)
            simplices.append((facet[:i] + (label,) + facet[i:], -value))
            read = False  # whether a derivation checks g(u) = 0: p off the other facet's plane
            for m, u in enumerate(facet):
                ridge = facet[:m] + facet[m + 1:]
                pair = ridges.get(ridge, ())
                other = pair[pair[0] == facet] if len(pair) == 2 and facet in pair else None
                if other not in at_p:
                    raise InternalInconsistency("a boundary ridge is not in exactly two facets")
                if at_p[other] >= 0:  # a horizon ridge: with p, it spans a new facet
                    read, i = read or at_p[other] > 0, bisect(ridge, label)
                    new = pair[pair.index(facet)] = ridge[:i] + (label,) + ridge[i:]
                    boundary[new] = _horizon_form(g, value, boundary[other], at_p[other], points[u])
                    for j in [j for j in range(d) if j != i]:
                        ridges.setdefault(new[:j] + new[j + 1:], []).append(new)
                elif other not in boundary:  # p sees both, and both have left the boundary
                    del ridges[ridge]
            if not read and any(_dot(g, points[v]) for v in facet):
                raise InternalInconsistency("a hull facet form does not vanish on its facet")
    return tuple(sorted(simplices)), boundary


def _cone_placing(columns: Sequence[IntVec], grading: Optional[IntVec]):
    """(triangulation, cone facets as (vertex labels, form)) of conv(0 + columns), 0 labeled 0.

    Without a grading the origin is placed too; every final boundary form must vanish on its
    vertices.  With a grading y (y . a_j = 1) the hull is a pyramid with apex 0: the columns
    alone are placed, coordinate k (least nonzero |y_k|) dropped, lifted as phi(a) = (y . a,
    a without k), det phi = +-y_k.  So a simplex s is (0,) + s with |det| / |y_k| exactly,
    and a boundary form g is the cone form g . phi = g_0 y + (g_rest with 0 at k).
    """
    d = len(columns[0])
    if grading is None:
        points = ((0,) * d, *columns)
        triangulation, boundary = _placing_triangulation(dict(enumerate(points)), d)
        if any(g[0] + _dot(g[1:], points[v]) for facet, g in boundary.items() for v in facet):
            raise InternalInconsistency("a hull facet form does not vanish on its facet")
        return triangulation, [(f[1:], g[1:]) for f, g in boundary.items() if f[:1] == (0,)]
    size, k = min((abs(y), i) for i, y in enumerate(grading) if y)
    points = {j: a[:k] + a[k + 1:] for j, a in enumerate(columns, 1)}
    cells, boundary = _placing_triangulation(points, d - 1)
    if any(det % size for _, det in cells):
        raise InternalInconsistency("a simplex's |det| is not a multiple of the grading's")
    return tuple(((0, *s), det // size) for s, det in cells), [
        (facet, tuple(g[0] * y + x for y, x in zip(grading, (*g[1:k + 1], 0, *g[k + 1:]))))
        for facet, g in boundary.items()
    ]


@per_configuration
def _hull(config: Configuration) -> tuple[tuple, tuple]:
    """(triangulation, facets) of conv(0 + columns), the one hull of the configuration.

    A facet is read off each cone form of the placing (_cone_placing), made
    primitive.  The normal must vanish on the form's vertices (read off the
    column bitmask) and be nonnegative on every column, else
    InternalInconsistency.  This is the one certificate of the facets: the
    bitmask comes from the same dot products, so every reader takes a normal
    as nonnegative on the columns and zero exactly on its bitmask.
    """
    columns = config._columns
    triangulation, cone = _cone_placing(columns, config._grading)
    vertices: dict[IntVec, int] = {}  # normal -> bitmask of its boundary facets' vertices
    for facet, form in cone:
        normal = primitive_vector(form)
        vertices[normal] = vertices.get(normal, 0) | sum(1 << v - 1 for v in facet)
    facets = []
    for normal in sorted(vertices):
        values = [_dot(normal, a) for a in columns]
        if min(values) < 0:
            raise InternalInconsistency("a hull facet normal is negative on a column")
        mask = sum(1 << j for j, v in enumerate(values) if v == 0)
        if vertices[normal] & ~mask:
            raise InternalInconsistency("a hull facet form does not vanish on its facet")
        facets.append((normal, mask))
    return triangulation, tuple(facets)


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------


def _perp_step(basis: Sequence[IntVec], column: IntVec) -> tuple[IntVec, ...]:
    """A basis of L ∩ column^perp, L spanned by the basis rows: one unimodular step.

    Integer row operations bring x = (w . column for w in basis) to one
    nonzero entry, whose row is dropped; x = 0 returns the rows as they are.
    """
    rows, x, pivot = list(basis), [sum(map(mul, w, column)) for w in basis], None
    for k, b in enumerate(x):
        if b and pivot is None:
            pivot = k
        elif b:  # rows (pivot, k) <- (s p + t r, (a r - b p) / g): x_k becomes 0
            a, p, r = x[pivot], rows[pivot], rows[k]
            g, s, t = xgcd(a, b) if b % a else (a, 1, 0)
            rows[pivot], x[pivot] = (tuple(s * u + t * v for u, v in zip(p, r)) if t else p), g
            a, b = a // g, b // g
            rows[k] = tuple(a * v - b * u for u, v in zip(p, r))
    return tuple(row for k, row in enumerate(rows) if k != pivot)


@per_configuration
def _perp_lattice_basis(config: Configuration, labels: tuple[int, ...]) -> tuple[IntVec, ...]:
    """Hermite basis of {w in Z^d : w . a_j = 0 for j in labels}: one _perp_step per column."""
    basis = [(0,) * i + (1,) + (0,) * (config.d - 1 - i) for i in range(config.d)]
    for j in labels:
        basis = _perp_step(basis, config._columns[j - 1])
    rows = list(map(list, basis))
    _hermite_rows(rows, config.d)
    return tuple(map(tuple, rows))


def _check_labels(config: Configuration, labels: tuple[int, ...]) -> None:
    """Raise DimensionMismatch unless the sorted labels are all column labels 1..n."""
    if labels and (labels[0] < 1 or labels[-1] > config.n):
        raise DimensionMismatch(f"column labels out of range 1..{config.n}")


@per_configuration
def _facets(config: Configuration) -> tuple[tuple[IntVec, int], ...]:
    """The cone's facets as (primitive inner normal, column bitmask), sorted: _hull's."""
    return _hull(config)[1]


@per_configuration
def _face_closure(config: Configuration) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every face as (column bitmask, labels), sorted by (size, labels): lattice order.

    The facet bitmasks closed under intersection, plus the full face: every
    proper face is such an intersection.  The facets are certified by _hull.
    """
    masks = {(1 << config.n) - 1}
    for _, facet in _facets(config):
        masks |= {mask & facet for mask in masks}
    bits = [(j, 1 << j - 1) for j in range(1, config.n + 1)]
    closure = [(mask, tuple([j for j, bit in bits if mask & bit])) for mask in masks]
    return tuple(sorted(closure, key=lambda pair: (len(pair[1]), pair[1])))


def _meet_face(config: Configuration, mask: int, labels: tuple[int, ...]) -> Optional[Face]:
    """The Face on the columns in mask (labels), or None: the one face rule.

    The columns are a face iff they are the meet of the facets that contain
    them, witnessed by the primitive sum of those normals, which _hull
    certified.  The slots are set without Face's checks: the values are ours.
    """
    meet, normals = (1 << config.n) - 1, [(0,) * config.d]
    for normal, facet in _facets(config):
        if facet & mask == mask:
            meet &= facet
            normals.append(normal)
    if meet != mask:
        return None
    face = object.__new__(Face)
    object.__setattr__(face, "indices", labels)
    object.__setattr__(face, "witness", primitive_vector(tuple(map(sum, zip(*normals)))))
    return face


def _face(config: Configuration, mask: int, labels: tuple[int, ...]) -> Face:
    """The Face of a closure entry (_meet_face), which must be a face."""
    face = _meet_face(config, mask, labels)
    if face is None:
        raise InternalInconsistency("facet intersection is not a face")
    return face


def is_face(config: Configuration, subset: Iterable[int]) -> Optional[Face]:
    """The Face on subset, witnessed by the hull's facets, or None if it is not one (_meet_face)."""
    labels = tuple(sorted(set(integer_entries(subset))))
    _check_labels(config, labels)
    return _meet_face(config, sum(1 << j - 1 for j in labels), labels)


def enumerate_faces(config: Configuration, method: str = "auto") -> tuple[Face, ...]:
    """Every face, sorted by (size, indices): the minimal face first, the full face last.

    method "dd", a name kept from double description, now names the facet
    closure: a Face per closure entry of the hull's facets (_face_closure,
    _face).  "brute" runs every index subset through is_face, which reads
    the same facets, so both return equal faces and witnesses; "auto" runs
    it up to BRUTE_FORCE_LIMIT columns, only because the benchmark pins it.
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
    Otherwise _hermite_reduce takes the rows that failed validation, less the carried column.
    """
    if A_raw.rows == 0 or A_raw.cols == 0:
        raise RankDeficient("cannot reduce an empty matrix")
    try:
        return Configuration(A_raw), IntMatrix.identity(A_raw.rows), False
    except (RankDeficient, LatticeNotSaturated) as invalid:
        H = [row[:-1] for row in invalid.hermite_rows]
    coordinates, basis = _hermite_reduce(A_raw.columns(), H)
    if not basis:
        raise RankDeficient("all columns are zero")
    B = IntMatrix.from_columns(basis, A_raw.rows)
    return Configuration(IntMatrix.from_columns(coordinates, len(basis))), B, True


def _hermite_reduce(columns: Sequence[IntVec], H=None) -> tuple[tuple[IntVec, ...], ...]:
    """(coordinates, basis): the one Hermite reduction of a column lattice, on plain rows.

    basis: the nonzero rows of the row Hermite form H of the columns as rows (one transform-free
    pass unless the caller has H); column j = sum_i coordinates[j][i] basis[i], integral.  It
    normalizes user matrices that fail validation, and gives faces volumes and spans.
    """
    if H is None:
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
