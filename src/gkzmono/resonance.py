"""Resonance tests: membership of the parameter in Z^d + C*span(face).

The membership test reduces to finitely many congruences.  For a face F,
take an integer basis w_1, ..., w_k of the saturated lattice orthogonal to
the columns of F.  Because that lattice is a direct summand of Z^d, the map
x -> (w_i . x) sends Z^d onto Z^k, so

    beta in Z^d + C*span(F)   iff   every w_i . Im(beta) = 0
                                    and every w_i . Re(beta) is an integer.

The test runs in integers: with L the lcm of the denominators of all real
and imaginary entries of beta, the conditions read w_i . (L Im beta) = 0
and w_i . (L Re beta) = 0 mod L.  beta is scaled once per call.  Any
basis of the lattice gives the same test; face_functionals returns the
canonical one, which the printed congruences read.  A facet's lattice is
Z*v, v its primitive normal from double description.  The walk reads the
functionals of every face from a table in lattice order, (size, indices),
built once per configuration with the cover relation, and only below a
member facet.  The table keeps any basis: a facet's normal, and for every
other face the kernel rows of one Hermite pass (cones._perp_kernel).

The member faces are up-closed (span G in span F when G is a face of F),
and the face lattice is graded by rank, so the walk prunes from both ends.
The minimal face, the columns on every facet, is tested first: if it is a
member, so is every face, and it is the only center.  Otherwise each facet
is tested on its normal, and when no facet is a member, the full face is
the only member and the parameter is nonresonant.  Otherwise the table is
built and the walk goes down from the member facets, testing a face only
once every face covering it is a member; a face with a non-member above it
cannot be a member.  The centers are the members with no member directly
below them.  A generic parameter thus costs one test per facet, plus one
for the minimal face, and closes no face lattice; only a member minimal
face or facet reads the lattice, and only a member facet builds the table.

The same functionals, read face by face without the table, and the Hermite
basis of the face's columns (cones._hermite_reduce) describe each component
of the resonant arrangement; their text is formatted only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul

from .cones import Configuration, Face, Parameter, as_parameter, per_configuration
from .cones import _facets, _hermite_reduce, _perp_kernel, _perp_lattice_basis
from .intlinalg import IntVec


@per_configuration
def _facet_functionals(config: Configuration) -> dict[tuple[int, ...], tuple[IntVec]]:
    """Facet labels -> DD normal, signed like the Hermite form: first nonzero entry positive."""
    functionals = {}
    for normal, mask in _facets(config):
        sign = 1 if next(x for x in normal if x) > 0 else -1
        labels = tuple(j + 1 for j in range(config.n) if mask >> j & 1)
        functionals[labels] = (tuple(sign * x for x in normal),)
    return functionals


def face_functionals(config: Configuration, face: Face) -> tuple[IntVec, ...]:
    """Integer functionals whose congruences cut out Z^d + C*span(face)."""
    facet = _facet_functionals(config).get(face.indices)
    return facet or _perp_lattice_basis(config, face.indices)


@dataclass(frozen=True)
class _ResonanceTable:
    """Per-face data in lattice order, plus the cover relation.

    below[i] holds the positions of the faces that face i covers,
    cover_counts[i] the number of faces that cover face i, and facets[k]
    the position of the k-th entry of cones._facets.
    """

    faces: tuple[Face, ...]
    functionals: tuple[tuple[IntVec, ...], ...]
    below: tuple[tuple[int, ...], ...]
    cover_counts: tuple[int, ...]
    facets: tuple[int, ...]


@per_configuration
def _resonance_table(config: Configuration) -> _ResonanceTable:
    """The functionals and covers of every face.

    A facet keeps its DD normal and every other face the kernel rows of one
    Hermite pass, not the canonical basis of face_functionals: any basis has
    the same congruences and corank.  G covers F iff G contains F and has
    rank one more.  The rank of a face is d minus the number of its
    functionals, and the face lattice of a cone, pointed or not, is graded
    by rank.
    """
    faces = config.face_lattice()
    masks = [sum(1 << j - 1 for j in f.indices) for f in faces]
    normals = _facet_functionals(config)
    functionals = tuple(normals.get(f.indices) or _perp_kernel(config, f.indices) for f in faces)
    position = {mask: i for i, mask in enumerate(masks)}
    by_corank: dict[int, list[int]] = {}
    for i, w in enumerate(functionals):
        by_corank.setdefault(len(w), []).append(i)
    below = tuple(
        tuple(i for i in by_corank.get(len(w) + 1, ()) if masks[i] & mask == masks[i])
        for w, mask in zip(functionals, masks)
    )
    cover_counts = [0] * len(faces)
    for positions in below:
        for i in positions:
            cover_counts[i] += 1
    return _ResonanceTable(
        faces,
        functionals,
        below,
        tuple(cover_counts),
        tuple(position[mask] for _, mask in _facets(config)),
    )


def _scaled(beta: Parameter) -> tuple[int, IntVec, IntVec]:
    """(L, L*Re(beta), L*Im(beta)), L the lcm of every entry's denominator.

    L*Im(beta) is the empty tuple when beta is real.
    """
    scale = lcm(*(q.denominator for b in beta for q in (b.re, b.im)))
    re = tuple(b.re.numerator * (scale // b.re.denominator) for b in beta)
    if not any(b.im for b in beta):
        return scale, re, ()
    return scale, re, tuple(b.im.numerator * (scale // b.im.denominator) for b in beta)


def _passes(functionals: tuple[IntVec, ...], scale: int, re: IntVec, im: IntVec) -> bool:
    """The congruences of one face, on a parameter scaled by _scaled."""
    for w in functionals:
        # An empty im (real beta) skips the imaginary products.
        if im and sum(map(mul, w, im)) or sum(map(mul, w, re)) % scale:
            return False
    return True


@dataclass(frozen=True)
class ResonanceReport:
    """Faces whose resonant span contains beta, and the minimal ones."""

    config: Configuration
    beta: Parameter
    member_faces: tuple[Face, ...]
    centers: tuple[Face, ...]

    @property
    def is_nonresonant(self) -> bool:
        """The full face is always a member; beta is nonresonant iff it is the only one."""
        return len(self.member_faces) == 1

    @property
    def member_congruences(self) -> tuple[tuple[str, ...], ...]:
        """Per member face, the integer congruences that certify membership.

        One string per functional of the face, formatted when read.
        """
        return tuple(
            tuple(map(_congruence_text, face_functionals(self.config, f)))
            for f in self.member_faces
        )

    def to_json(self) -> dict:
        members = []
        for face, congruences in zip(self.member_faces, self.member_congruences):
            entry = face.to_json()
            entry["congruences"] = list(congruences)
            members.append(entry)
        return {
            "beta": [b.to_json() for b in self.beta],
            "member_faces": members,
            "centers": [f.to_json() for f in self.centers],
            "is_nonresonant": self.is_nonresonant,
        }


@per_configuration
def _full_face(config: Configuration) -> tuple[Face, ...]:
    """The members and centers of a nonresonant report: the full face, witness 0."""
    return (Face(range(1, config.n + 1), (0,) * config.d),)


def resonance_centers(config: Configuration, beta) -> ResonanceReport:
    """All member faces and the inclusion-minimal ones (never empty)."""
    beta = as_parameter(beta, config.d)
    scaled = _scaled(beta)
    if _passes(_perp_lattice_basis(config, config.lineality_columns), *scaled):
        # The minimal face is a member, hence so is every face above it.
        faces = config.face_lattice()
        return ResonanceReport(config, beta, faces, faces[:1])
    facets = _facets(config)
    if len(facets) == 1:  # a lone facet is the minimal face, which has failed
        facets = ()
    member_facets = [k for k, (normal, _) in enumerate(facets) if _passes((normal,), *scaled)]
    if not member_facets:
        # The full face is always a member: the columns span Q^d.
        full = _full_face(config)
        return ResonanceReport(config, beta, full, full)
    table = _resonance_table(config)
    below = table.below
    pending = list(table.cover_counts)
    stack = [table.facets[k] for k in member_facets]
    found = {len(pending) - 1, *stack}
    while stack:
        for i in below[stack.pop()]:
            pending[i] -= 1
            # Position 0, the minimal face, has already failed its test.
            if not pending[i] and i and _passes(table.functionals[i], *scaled):
                found.add(i)
                stack.append(i)
    members = sorted(found)
    centers = [i for i in members if found.isdisjoint(below[i])]
    return ResonanceReport(
        config,
        beta,
        tuple(table.faces[i] for i in members),
        tuple(table.faces[i] for i in centers),
    )


def _congruence_text(w: IntVec) -> str:
    """The congruence "w . beta in Z" as text."""
    terms = []
    for k, c in enumerate(w, start=1):
        if c == 0:
            continue
        if c == 1:
            term = f"b{k}"
        elif c == -1:
            term = f"-b{k}"
        else:
            term = f"{c}*b{k}"
        if terms and not term.startswith("-"):
            terms.append(f"+ {term}")
        elif terms:
            terms.append(f"- {term[1:]}")
        else:
            terms.append(term)
    expr = " ".join(terms) if terms else "0"
    return f"{expr} in Z"


@dataclass(frozen=True)
class ArrangementComponent:
    """One component Z^d + C*span(face) of the resonant arrangement."""

    face: Face
    span_basis: tuple[IntVec, ...]
    functionals: tuple[IntVec, ...]
    congruences: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "face": self.face.to_json(),
            "span_basis": [list(v) for v in self.span_basis],
            "functionals": [list(w) for w in self.functionals],
            "congruences": list(self.congruences),
        }


def describe_resonant_arrangement(config: Configuration) -> tuple[ArrangementComponent, ...]:
    """One component per proper face, with its congruence conditions."""
    components = []
    # The full face comes last in lattice order.
    for face in config.face_lattice()[:-1]:
        span_basis = face.indices and _hermite_reduce([config.column(j) for j in face.indices])[1]
        functionals = face_functionals(config, face)
        congruences = tuple(map(_congruence_text, functionals))
        components.append(ArrangementComponent(face, span_basis, functionals, congruences))
    return tuple(components)
