"""Test oracles: the pyramid characterizations and a paper-level verdict.

The runtime pyramid test, gkzmono.is_pyramid, is the kernel-support test:
no toric relation among the distinct columns involves a column outside the
face.  It reads those columns off the hull's facets (a column is in none
iff it is an apex); related_columns_by_distinct_kernel is their
definition, on the kernel of the matrix of distinct columns.  The three characterizations here are
computed in different ways and must agree with the test on every face:

* rank: d equals the number of distinct columns outside the face plus the
  rank of the face span;
* summand: every distinct column outside the face splits off Z^d as a
  direct summand complementary to the other distinct columns (Smith form);
* volume: the face has the normalized volume of the whole configuration
  (nonempty faces only).

verdict_by_apex_stripping decides reducibility along the proof of
Schulze-Walther, "Resonance equals reducibility for A-hypergeometric
systems" (arXiv:1009.3569): split off apexes one at a time, then the
apex-free core is irreducible iff beta is not resonant.  It never looks at
resonance centers, their uniqueness or volumes, so it checks classify from
the outside.  verdict_by_facet_theorem reads the verdict off the facets
alone: Irreducible iff every facet whose resonant span holds beta contains
the related columns (Gelfand-Kapranov-Zelevinsky 1990; Beukers 2011;
Schulze-Walther), from double description and the definitions, with no
hull and no resonance table.

solve_rational is the Gauss-Jordan reference for the runtime's one exact
solver, forward substitution on Hermite rows (intlinalg._hermite_solutions).
fraction_elimination is the rank and determinant by elimination over Q, the
reference for the Bareiss rank (intlinalg.rank_int) and for every rank and
determinant a test needs, and cofactor_adjugate the adjugate from signed
minors, the reference for the seed simplex's inner facet forms, which the
placing keeps as its first boundary (cones._seed_simplex).  matmul is the
plain matrix product.

facets_by_subset_normals lists the facets from the hyperplanes through d - 1
independent columns, and facets_by_double_description finds them as the
extreme rays of the dual cone (Fukuda and Prodon 1996), the oracle that
scales to wide cones: both are references for the facets that the runtime
reads off the boundary of its placing triangulation (cones._hull, through
cones._facets).

face_by_fourier_motzkin is the face oracle that reads no facet: a subset
is a face iff some functional vanishes on it and is positive on every other
column, an exact LP decided by Fourier-Motzkin elimination
(fourier_motzkin_point) over the saturated perp lattice of the subset
(perp_lattice_by_hermite_forms).  faces_by_fourier_motzkin runs it on every
subset of columns.  The runtime decides a face by the hull's facets
(cones._meet_face) instead, for is_face and for both enumerate_faces
methods, so only this oracle checks those facets from outside.
feasible_point_by_minimal_faces decides a system of linear inequalities
without elimination, the reference for Fourier-Motzkin.

triangulated_face_volume is a face's volume with no shortcut: its columns
are triangulated in their coordinates on the IntMatrix Hermite basis of the
lattice they generate, the reference for the unimodular identity that
volume.face_volume reads off a face's rank (intlinalg.rank_int).

perp_lattice_by_hermite_forms is the saturated perp lattice of a face read
through the IntMatrix Hermite form of the face matrix, the reference for
the reduction of the face's own rows in cones._perp_lattice_basis and, up
to a Hermite form, for the kernel rows that the resonance table keeps
(cones._perp_kernel).  kernel_by_hermite_transform reads the kernel of A
the same way, off the transform of the IntMatrix Hermite form of A^T: the
reference for intlinalg.kernel_lattice_basis, which carries the transform
on plain rows.

triangulation_failures checks a triangulation certificate against the
axioms of a triangulation of conv(points) (De Loera, Rambau & Santos,
Triangulations, 2010, ch. 4): full-dimensional simplices of their stated
|det|, two simplices on opposite sides of every interior ridge, every
other ridge on a facet of the hull, and one generic point covered once.
It proves the normalized volume without the placing order.

face_lattice_axiom_failures checks the face lattice and the resonance
table's cover relation against the axioms of a face lattice (Ziegler,
Lectures on Polytopes, 1995, Thm 2.7 and Cor 8.17), with inclusion read
off the column sets and ranks from fraction_elimination: meets are faces,
every interval of length 2 is a diamond, the covers are the inclusions of
rank step 1, and the Euler sum vanishes.

markov_fiber_failures checks a generating set of the toric ideal without
Buchberger: the moves of its binomials must connect every fiber
{u in N^n : Au = b} up to their largest degree (Diaconis & Sturmfels 1998),
under the grading of a pointed configuration by the sum of its facet normals
(fiber_grading).
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from gkzmono import (
    IRREDUCIBLE,
    REDUCIBLE,
    DimensionMismatch,
    Face,
    GaussRat,
    IntMatrix,
    ScaleLimit,
    face_functionals,
    face_volume,
    hermite_normal_form,
    kernel_lattice_basis,
    normalized_volume,
    reduce_configuration,
    smith_normal_form,
)
from gkzmono.cones import per_configuration
from gkzmono.intlinalg import _hermite_rows, _hermite_solutions, primitive_vector
from gkzmono.resonance import _resonance_table
from gkzmono.volume import _volume_of_matrix


def distinct_columns(config):
    return tuple(dict.fromkeys(config.A.columns()))


def outside_vectors(config, face):
    inside = {config.column(j) for j in face.indices}
    return tuple(v for v in distinct_columns(config) if v not in inside)


def related_columns_by_distinct_kernel(config):
    """Labels of the columns in a toric relation among the distinct columns.

    The definition: the kernel lattice of the matrix of distinct columns,
    then every copy of each column some basis relation involves.
    """
    distinct = distinct_columns(config)
    kernel = kernel_lattice_basis(IntMatrix.from_columns(distinct, config.d))
    related = {v for k, v in enumerate(distinct) if any(u[k] for u in kernel)}
    return frozenset(j for j in range(1, config.n + 1) if config.column(j) in related)


def is_pyramid_rank(config, face):
    """d = #distinct columns outside the face + rank of the face span."""
    face_rank = fraction_elimination([config.column(j) for j in face.indices])[0]
    return config.d == len(outside_vectors(config, face)) + face_rank


@per_configuration
def _vector_splits_off(config, v):
    """Does Z*v split off as a direct summand complementary to the others?

    Checked structurally on the matrix M of the remaining distinct columns:
    M must have rank d-1, its column lattice must be saturated (all Smith
    invariant factors 1), and the image of v in the rank-1 quotient must be
    a generator.
    """
    d = config.d
    rest = [c for c in distinct_columns(config) if c != v]
    if not rest:
        return d == 1 and abs(v[0]) == 1
    snf = smith_normal_form(IntMatrix.from_columns(rest, d))
    if snf.rank() != d - 1:
        return False
    if any(f != 1 for f in snf.invariant_factors()):
        return False
    quotient_row = snf.U.row(d - 1)
    return abs(sum(u * a for u, a in zip(quotient_row, v))) == 1


def is_pyramid_summand(config, face):
    """Every distinct column outside the face is a direct lattice summand."""
    return all(_vector_splits_off(config, v) for v in outside_vectors(config, face))


def is_pyramid_volume(config, face):
    """The face has the normalized volume of the whole configuration.

    Only meaningful for nonempty faces; None for the empty face.
    """
    if not face.indices:
        return None
    return face_volume(config, face) == normalized_volume(config).volume


ORACLES = {
    "rank": is_pyramid_rank,
    "summand": is_pyramid_summand,
    "volume": is_pyramid_volume,
}


def fraction_in_resonant_span(config, face, beta):
    """beta in Z^d + C*span(face), by the definition in Fraction arithmetic."""
    beta = [GaussRat.parse(b) for b in beta]
    for w in face_functionals(config, face):
        if sum(wk * b.im for wk, b in zip(w, beta)) != 0:
            return False
        if sum(wk * b.re for wk, b in zip(w, beta)).denominator != 1:
            return False
    return True


def _apex(config):
    """A distinct column whose removal, with its copies, leaves rank d-1."""
    for v in distinct_columns(config):
        rest = [c for c in config.A.columns() if c != v]
        if fraction_elimination(rest)[0] == config.d - 1:
            return v
    return None


def verdict_by_apex_stripping(A, beta):
    """Reducible or Irreducible, by splitting off apexes.

    If v is an apex, A is a pyramid over the other columns G, the lattice
    splits as ZG + Zv, and the system is the product of the rank-one
    factor for v (always irreducible) with the system of (G, beta_G),
    where beta = beta_G + c*v.  An apex-free core is irreducible iff no
    proper face has beta in its resonant span.
    """
    config, beta, _ = reduce_configuration(A, beta)
    while (v := _apex(config)) is not None:
        if config.d == 1:
            return IRREDUCIBLE
        rest = [c for c in config.A.columns() if c != v]
        # The one functional that vanishes on G reads off the coefficient of v.
        (phi,) = kernel_lattice_basis(IntMatrix(rest))
        c = sum((p * b for p, b in zip(phi, beta)), GaussRat(0)) * Fraction(
            1, sum(p * a for p, a in zip(phi, v))
        )
        beta_G = [b - c * a for b, a in zip(beta, v)]
        config, beta, _ = reduce_configuration(IntMatrix.from_columns(rest, config.d), beta_G)
    lattice = config.face_lattice()
    proper = lattice[:-1]
    if any(fraction_in_resonant_span(config, f, beta) for f in proper):
        return REDUCIBLE
    return IRREDUCIBLE


def verdict_by_facet_theorem(A, beta):
    """Reducible or Irreducible: Irreducible iff every member facet contains R.

    R is the set of related columns (related_columns_by_distinct_kernel), and
    a member facet is a facet (facets_by_double_description) whose resonant
    span Z^d + C*span(F) holds beta (fraction_in_resonant_span), both on the
    normalized pair.  It reads neither the hull nor the resonance table.
    """
    config, beta, _ = reduce_configuration(A, beta)
    related = related_columns_by_distinct_kernel(config)
    for normal, mask in facets_by_double_description(config):
        labels = {j for j in range(1, config.n + 1) if mask >> j - 1 & 1}
        if not related <= labels and fraction_in_resonant_span(config, Face(labels, normal), beta):
            return REDUCIBLE
    return IRREDUCIBLE


def solve_rational(A, b):
    """One exact solution of A*x = b over Q (free variables set to 0).

    Gauss-Jordan elimination in Fraction arithmetic.  Returns None when the
    system is inconsistent.
    """
    if len(b) != A.rows:
        raise DimensionMismatch("right-hand side length does not match rows")
    aug = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(A.data, b)]
    nrows, ncols = A.rows, A.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row, col in pivots:
        x[col] = aug[row][ncols]
    return tuple(x)


def fraction_elimination(rows):
    """(rank, det) oracle by Gaussian elimination over Q; det is None unless square."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank, det = 0, Fraction(1)
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        inv = m[rank][c]
        det *= inv
        for i in range(rank + 1, nrows):
            if m[i][c] != 0:
                factor = m[i][c] / inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    if nrows != ncols:
        return rank, None
    return rank, int(det) if rank == nrows else 0


def matmul(*matrices):
    """The product of IntMatrix factors, left to right."""
    product = matrices[0]
    for M in matrices[1:]:
        if product.cols != M.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        columns = M.columns()
        product = IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in columns]
                             for row in product.data], cols=M.cols)
    return product


def cofactor_adjugate(rows):
    """adj(M) oracle: entry (i, j) is the signed minor of M without row j and column i."""
    n = len(rows)
    minor = lambda i, j: [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
    return [[(-1) ** (i + j) * fraction_elimination(minor(i, j))[1] for j in range(n)]
            for i in range(n)]


def _normal(rows, d):
    """Primitive integer vector orthogonal to d - 1 rows of rank d - 1, else None.

    Gauss-Jordan elimination by integer row combinations; the one free
    variable is set to the lcm of the pivots.
    """
    m = [list(row) for row in rows]
    pivots = []
    for c in range(d):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [m[r][c] * x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    if len(pivots) < d - 1:
        return None
    free = next(c for c in range(d) if c not in pivots)
    scale = lcm(*(m[r][c] for r, c in enumerate(pivots)))
    x = [0] * d
    x[free] = scale
    for r, c in enumerate(pivots):
        x[c] = -m[r][free] * scale // m[r][c]
    g = gcd(*x)
    return [a // g for a in x]


def facets_by_subset_normals(config):
    """Facets as sorted (primitive inner normal, column labels) pairs.

    A facet is spanned by d - 1 independent columns, so its normal is
    orthogonal to such a subset.  A normal is kept, with its sign fixed,
    when all columns lie on one side of it.
    """
    d, columns = config.d, config.A.columns()
    facets = {}
    for subset in combinations(sorted(set(columns) - {(0,) * d}), d - 1):
        normal = _normal(subset, d)
        if normal is None:
            continue
        values = [sum(w * a for w, a in zip(normal, col)) for col in columns]
        if all(v <= 0 for v in values):
            normal, values = [-w for w in normal], [-v for v in values]
        elif not all(v >= 0 for v in values):
            continue
        facets[tuple(normal)] = tuple(j for j, v in enumerate(values, 1) if v == 0)
    return sorted(facets.items())


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v) if g else tuple(v)


def facets_by_double_description(config):
    """Facets as sorted (primitive inner normal, column bitmask) pairs, the runtime's format.

    The normals are the extreme rays of the dual cone {phi : phi . a_j >= 0}.
    The dual cone is pointed because the columns span Q^d, so the method
    starts from the full space (lineality basis = identity, no rays) and ends
    with an empty lineality part.  Each ray carries the bitmask of the
    columns so far that it vanishes on (bit j - 1 for column j).  Two rays
    are adjacent iff their common zero set has at least d - dim(lineality) - 2
    columns and lies in no third ray's zero set (the combinatorial test of
    Fukuda and Prodon 1996).  Every ray is checked to be extreme: its zero
    set has rank d - 1.
    """
    d, columns = config.d, config.A.columns()
    dot = lambda u, v: sum(x * y for x, y in zip(u, v))
    lineality = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays = {}
    for j, a in enumerate(columns):
        bit = 1 << j
        values = [dot(l, a) for l in lineality]
        if any(values):
            idx = next(i for i, v in enumerate(values) if v != 0)
            l0 = lineality[idx] if values[idx] > 0 else tuple(-x for x in lineality[idx])
            v0 = abs(values[idx])
            lineality = [
                _primitive([v0 * x - v * y for x, y in zip(l, l0)])
                for i, (l, v) in enumerate(zip(lineality, values))
                if i != idx
            ]
            rays = {
                _primitive([v0 * x - dot(r, a) * y for x, y in zip(r, l0)]): mask | bit
                for r, mask in rays.items()
            }
            rays[l0] = bit - 1  # l0 vanished on every earlier column
        else:
            target = d - len(lineality) - 2
            value = {r: dot(r, a) for r in rays}
            masks = list(rays.values())
            new_rays = {}
            positive = [(p, pm) for p, pm in rays.items() if value[p] > 0]
            negative = [(m, mm) for m, mm in rays.items() if value[m] < 0]
            for (p, pm), (m, mm) in product(positive, negative):
                meet = pm & mm
                if meet.bit_count() < target:
                    continue
                if sum(meet & other == meet for other in masks) == 2:  # p and m only
                    combo = [value[p] * x - value[m] * y for x, y in zip(m, p)]
                    new_rays[_primitive(combo)] = meet | bit
            rays = {
                r: mask | (bit if value[r] == 0 else 0)
                for r, mask in rays.items()
                if value[r] >= 0
            }
            rays.update(new_rays)
    assert not lineality, "the dual cone kept a lineality direction"
    for mask in rays.values():
        tight = [a for j, a in enumerate(columns) if mask >> j & 1]
        assert fraction_elimination(tight)[0] == d - 1, "a non-extreme ray"
    return tuple(sorted(rays.items()))


def feasible_point_by_minimal_faces(rows, nvars):
    """A point y in Q^nvars with coeffs . y >= rhs for all rows, or None.

    A nonempty polyhedron {y : C y >= r} has a minimal face, an affine space
    cut out by rank(C) of its rows at equality, and every solution of those
    equalities lies in the polyhedron.  So it suffices to solve every set of
    rank(C) rows at equality (Gauss-Jordan) and test the solution.
    """
    scaled = []
    for coeffs, rhs in rows:
        row = [Fraction(x) for x in (*coeffs, rhs)]
        scale = lcm(*(q.denominator for q in row))
        scaled.append([int(q * scale) for q in row])
    rank = fraction_elimination([row[:-1] for row in scaled])[0]
    for subset in combinations(scaled, rank):
        system = IntMatrix([row[:-1] for row in subset], cols=nvars)
        y = solve_rational(system, [row[-1] for row in subset])
        if y is not None and all(
            sum(c * v for c, v in zip(coeffs, y)) >= rhs for coeffs, rhs in rows
        ):
            return y
    return None


# A Fourier-Motzkin stage builds (positive rows) * (negative rows) + (the rest)
# rows; above this it raises ScaleLimit.  The test suite's largest stage has 756.
FOURIER_MOTZKIN_ROW_LIMIT = 10_000


def _clear_denominators(v):
    """Scale a rational vector by the positive lcm of denominators."""
    scale = lcm(*(q.denominator for q in v))
    return tuple(int(q * scale) for q in v)


def _primitive_rows(rows):
    """Distinct primitive rows (coeffs..., rhs) of coeffs . y >= rhs, tautologies dropped."""
    rows = (primitive_vector(row) for row in rows)
    return list(dict.fromkeys(row for row in rows if any(row[:-1]) or row[-1] > 0))


def fourier_motzkin_point(inequalities, nvars):
    """Find y in Q^nvars with coeffs . y >= rhs for every inequality.

    Each row is cleared of denominators once; elimination then runs on
    primitive integer rows (coeffs..., rhs), variables left to right.
    Back-substitution always picks the tightest lower bound (or the upper
    bound when unbounded below, or 0 when unconstrained).  Returns None when
    infeasible; a stage above FOURIER_MOTZKIN_ROW_LIMIT rows raises ScaleLimit.
    """
    current = _primitive_rows(
        _clear_denominators(tuple(coeffs) + (rhs,)) for coeffs, rhs in inequalities
    )
    stages = []
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
        lower = upper = None
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
        assert lower is None or upper is None or lower <= upper, "back-substitution failed"
    return tuple(y)


def face_by_fourier_motzkin(config, subset):
    """A Face with an integer witness, or None if subset is not a face, by exact LP.

    Parametrize the functionals vanishing on the subset by its saturated
    perp lattice, then ask Fourier-Motzkin for a point with value >= 1 on
    every other column (the system is homogeneous, so >= 1 is the same as
    > 0).  The witness is that point made primitive.
    """
    labels = tuple(sorted(set(subset)))
    basis = perp_lattice_by_hermite_forms(config, labels)
    inequalities = []
    for j in range(1, config.n + 1):
        if j not in labels:
            coeffs = tuple(sum(w * a for w, a in zip(v, config.column(j))) for v in basis)
            if not any(coeffs):
                return None
            inequalities.append((coeffs, 1))
    y = fourier_motzkin_point(inequalities, len(basis))
    if y is None:
        return None
    phi = [sum(yi * w[k] for yi, w in zip(y, basis)) for k in range(config.d)]
    witness = primitive_vector(_clear_denominators(phi))
    for j in range(1, config.n + 1):
        value = sum(w * a for w, a in zip(witness, config.column(j)))
        assert value == 0 if j in labels else value > 0, "a witness fails its sign conditions"
    return Face(labels, witness)


def faces_by_fourier_motzkin(config):
    """Every face in lattice order (size, indices): face_by_fourier_motzkin on every subset."""
    labels = range(1, config.n + 1)
    found = (face_by_fourier_motzkin(config, s)
             for k in range(config.n + 1) for s in combinations(labels, k))
    return tuple(face for face in found if face is not None)


def hermite_kernel_basis(H, U):
    """Canonical basis of the left kernel lattice {u : u*M = 0}, given U*M = H.

    The rows of the unimodular U whose H row is zero span it (Cohen, A
    Course in Computational Algebraic Number Theory, 2.4), put in HNF-canonical
    order by one transform-free pass: a deterministic function of M, () when
    trivial.
    """
    basis = [list(u) for u, h in zip(U.data, H.data) if not any(h)]
    _hermite_rows(basis, U.cols)
    return tuple(map(tuple, basis))


def kernel_by_hermite_transform(A):
    """The saturated kernel lattice {u : A*u = 0} off the Hermite form U*A^T = H."""
    return hermite_kernel_basis(*hermite_normal_form(A.transpose())) if A.cols else ()


def perp_lattice_by_hermite_forms(config, labels):
    """Saturated basis of {w in Z^d : w . a_j = 0 for j in labels}.

    The kernel rows of the transform of the IntMatrix Hermite form of the
    face matrix, put in canonical order by hermite_kernel_basis.
    """
    face = IntMatrix.from_columns([config.column(j) for j in labels], config.d)
    return hermite_kernel_basis(*hermite_normal_form(face))


def triangulated_face_volume(config, face):
    """A nonempty face's normalized volume in the lattice its columns generate, triangulated."""
    columns = [config.column(j) for j in face.indices]
    H, _ = hermite_normal_form(IntMatrix(columns, cols=config.d))
    basis = [row for row in H.data if any(row)]
    return _volume_of_matrix(list(_hermite_solutions(basis, columns))).volume


def face_lattice_axiom_failures(config):
    """The face-lattice axioms that config's faces and resonance table break ([] if none).

    Inclusion is read off the column sets and each face's rank is the rank
    of its columns (fraction_elimination), never the table's.  Meets: every
    face is the meet of the coatoms above it, and a face meets each coatom
    in a face; by induction over the coatoms above one face, the meet of any
    two faces is then a face.  Then every interval of length 2 has exactly
    two middle faces, the table's covers are the inclusions of rank step 1,
    and with more than one face the sum of (-1)^rank vanishes.
    """
    faces = config.face_lattice()
    masks = [sum(1 << j - 1 for j in f.indices) for f in faces]
    ranks = [fraction_elimination([config.column(j) for j in f.indices])[0] for f in faces]
    full, known, failures = (1 << config.n) - 1, set(masks), []
    if len(known) != len(masks) or full not in known:
        failures.append("faces repeat or miss the full face")
    top = max(ranks)
    coatoms = [m for m, r in zip(masks, ranks) if r == top - 1]
    for mask in masks:
        meet = full
        for coatom in coatoms:
            if coatom & mask == mask:
                meet &= coatom
            if coatom & mask not in known:
                failures.append(f"a meet with a coatom is not a face: {mask:b} & {coatom:b}")
        if mask != meet:
            failures.append(f"a face is not the meet of the coatoms above it: {mask:b}")
    level: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        level.setdefault(r, []).append(i)

    def above(i, step):
        return [k for k in level.get(ranks[i] + step, ()) if masks[i] & masks[k] == masks[i]]

    covers = [above(i, 1) for i in range(len(faces))]
    for i in range(len(faces)):
        middles = Counter(k for j in covers[i] for k in covers[j])
        if any(middles[k] != 2 for k in above(i, 2)):
            failures.append(f"an interval of length 2 above {masks[i]:b} is not a diamond")
    table = _resonance_table(config)
    if [mask for mask, _ in table.closure] != masks:
        failures.append("the table's faces are not the face lattice")
    below = [set() for _ in faces]
    for i, up in enumerate(covers):
        for k in up:
            below[k].add(i)
    if [set(b) for b in table.below] != below:
        failures.append("the table's covers are not the inclusions of rank step 1")
    if len(faces) > 1 and sum((-1) ** r for r in ranks):
        failures.append("the Euler sum of the face lattice is not 0")
    return failures


def triangulation_failures(points, triangulation):
    """The triangulation axioms that (simplex, |det|) pairs over points break ([] if none).

    points maps each label to a point of Z^d.  Every simplex must be
    full-dimensional with its stated |det| (fraction_elimination on its
    edges).  A ridge (a simplex less one vertex) in two simplices must have
    their opposite vertices strictly on opposite sides of it; a ridge in one
    simplex must have every point on one closed side, so that it lies on a
    facet of conv(points); no ridge lies in three.  Then the simplices cover
    conv(points) a constant number of times off the ridges, and one generic
    point near the first simplex's centroid, covered exactly once, makes
    that number 1 (De Loera, Rambau & Santos, Triangulations, 2010, ch. 4):
    the |det| sum to the normalized volume whatever the placing order.
    """
    lifted = {label: (1, *x) for label, x in points.items()}
    d = len(next(iter(lifted.values()))) - 1
    dot = lambda u, v: sum(x * y for x, y in zip(u, v))
    failures, ridges = [], {}
    for simplex, det in triangulation:
        edges = [[a - b for a, b in zip(points[v], points[simplex[0]])] for v in simplex[1:]]
        if len(simplex) != d + 1 or det <= 0 or abs(fraction_elimination(edges)[1]) != det:
            failures.append(f"simplex {simplex} is flat or its |det| is not {det}")
            continue
        for k, v in enumerate(simplex):
            ridges.setdefault(simplex[:k] + simplex[k + 1:], []).append(v)
    forms = {ridge: _normal([lifted[v] for v in ridge], d + 1) for ridge in ridges}
    for ridge, opposite in ridges.items():
        if len(opposite) == 1:
            values = [dot(forms[ridge], x) for x in lifted.values()]
            if min(values) < 0 < max(values):
                failures.append(f"boundary ridge {ridge} has points on both sides")
        elif len(opposite) > 2:
            failures.append(f"ridge {ridge} lies in {len(opposite)} simplices")
        elif dot(forms[ridge], lifted[opposite[0]]) * dot(forms[ridge], lifted[opposite[1]]) >= 0:
            failures.append(f"the simplices at interior ridge {ridge} are on one side")
    if failures or not triangulation:
        return failures or ["no simplex"]

    def covers(simplex, q):
        return all(dot(forms[simplex[:k] + simplex[k + 1:]], q)
                   * dot(forms[simplex[:k] + simplex[k + 1:]], lifted[v]) > 0
                   for k, v in enumerate(simplex))

    # q = the first simplex's centroid, moved along (1, s, s^2, ...) off every
    # ridge's hyperplane, in homogeneous coordinates (scale, scale * x).
    first = triangulation[0][0]
    centre = [sum(column) for column in zip(*(lifted[v] for v in first))]
    for s in range(2, 50):
        q = [10 ** (6 + s) * c + (0, *(s ** m for m in range(d)))[i] for i, c in enumerate(centre)]
        if covers(first, q) and all(dot(form, q) for form in forms.values()):
            break
    else:
        return ["no generic point found in the first simplex"]
    covered = sum(covers(simplex, q) for simplex, _ in triangulation)
    if covered != 1:
        failures.append(f"a generic point is covered {covered} times")
    return failures


def fiber_grading(config):
    """Each column's degree under the sum of the facet normals (facets_by_double_description).

    The sum is positive on every column exactly when config is pointed and
    has no zero column, and then every fiber {u in N^n : Au = b} is finite.
    """
    normals = [normal for normal, _ in facets_by_double_description(config)]
    grading = [sum(entries) for entries in zip(*normals)]
    return [sum(g * a for g, a in zip(grading, column)) for column in config.A.columns()]


def markov_fiber_failures(config, binomials):
    """The b whose fiber {u in N^n : Au = b} the moves of the binomials leave disconnected.

    A set of binomials generates the toric ideal of A exactly when its moves
    u -> u - plus + minus and u -> u - minus + plus, taken wherever the
    result stays in N^n, connect every fiber (Diaconis & Sturmfels,
    Algebraic algorithms for sampling from conditional distributions, Ann.
    Statist. 1998, Thm 3.1).  Every fiber of degree (fiber_grading) at most
    the largest degree of a binomial is enumerated whole, and each is walked
    from its least point.  No Groebner basis enters.
    """
    weights = fiber_grading(config)
    if min(weights) <= 0:
        raise ValueError("the fibers are finite only for a pointed config with no zero column")
    top = max((sum(w * e for w, e in zip(weights, b.plus)) for b in binomials), default=0)
    fibers, stack = {}, [((), 0)]
    while stack:
        u, degree = stack.pop()
        if len(u) == len(weights):
            fibers.setdefault(config.A.mat_vec(u), []).append(u)
            continue
        w = weights[len(u)]
        stack += [((*u, e), degree + e * w) for e in range((top - degree) // w + 1)]
    moves = [(b.plus, b.minus) for b in binomials] + [(b.minus, b.plus) for b in binomials]
    failures = []
    for b, fiber in sorted(fibers.items()):
        reached = {min(fiber)}
        walk = list(reached)
        while walk:
            u = walk.pop()
            for lose, gain in moves:
                if all(x >= y for x, y in zip(u, lose)):
                    v = tuple(x - y + z for x, y, z in zip(u, lose, gain))
                    if v not in reached:
                        reached.add(v)
                        walk.append(v)
        if len(reached) < len(fiber):
            failures.append(b)
    return failures
