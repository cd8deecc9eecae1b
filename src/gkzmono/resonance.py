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
canonical one (cones._perp_lattice_basis), which the printed congruences
read.  A facet's lattice is Z*v, v its primitive inner normal read off the
hull (cones._facets), and its canonical basis is v signed to start positive.
The walk reads the functionals of every face from a table in lattice order,
(size, indices), built once per configuration with the cover relation, and
only below a member facet.  The table keeps any basis: a facet's inner
normal, and for every other face the kernel rows of one Hermite pass
(cones._perp_kernel).  It is read off the closure of the
facet bitmasks (cones._face_closure) and holds no Face until the walk
reports one: a reported face is built once (cones._face) and kept by
position, so a walk witnesses its member faces and nothing else.

The member faces are up-closed (span G in span F when G is a face of F),
and the face lattice is graded by rank, so the walk prunes from both ends.
The minimal face, the columns on every facet, is tested first: if it is a
member, so is every face, and it is the only center, witnessed from the
facets alone; the report's member_faces builds face_lattice() when read.
Otherwise all facet normals are tested in one sweep, imaginary part first;
if none passes, the full face is the only member and beta is nonresonant.
Otherwise the table is built and the walk goes down from the member
facets, testing a face only once every face covering it is a member (none
below a non-member can be).  The centers are the members with no member
directly below them.  A generic or an integer parameter closes no lattice.

The same functionals, read face by face without the table, and the Hermite
basis of the face's columns (cones._hermite_reduce) describe each component
of the resonant arrangement; their text is formatted only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul
from typing import Optional

from .cones import BRUTE_FORCE_LIMIT, Configuration, Face, Parameter, as_parameter
from .cones import _check_labels, _face, _face_closure, _facets, _hermite_reduce
from .cones import _perp_kernel, _perp_lattice_basis, per_configuration
from .intlinalg import IntVec, format_combination


def face_functionals(config: Configuration, face: Face) -> tuple[IntVec, ...]:
    """Integer functionals whose congruences cut out Z^d + C*span(face): the canonical basis."""
    _check_labels(config, face.indices)
    return _perp_lattice_basis(config, face.indices)


@dataclass(frozen=True)
class _ResonanceTable:
    """Per-face data in lattice order, plus the cover relation.

    closure is cones._face_closure, the (column bitmask, labels) of every
    face.  faces maps a position to its Face once a report has read it:
    _walk builds only the faces it reports.  below[i] holds the positions of
    the faces that face i covers, cover_counts[i] the number of faces that
    cover face i, and facets[k] the position of the k-th entry of cones._facets,
    the hull's facets sorted by inner normal.
    """

    closure: tuple[tuple[int, tuple[int, ...]], ...]
    faces: dict[int, Face]
    functionals: tuple[tuple[IntVec, ...], ...]
    below: tuple[tuple[int, ...], ...]
    cover_counts: tuple[int, ...]
    facets: tuple[int, ...]


@per_configuration
def _resonance_table(config: Configuration) -> _ResonanceTable:
    """The functionals and covers of every face, read off the bitmask closure.

    A facet keeps its inner normal, found by its position in the lattice, and
    every other face the kernel rows of one Hermite pass, not the canonical
    basis of face_functionals: any basis has the same congruences and
    corank.  G covers F iff G contains F and has rank one more.  The rank of
    a face is d minus the number of its functionals, and the face lattice of
    a cone, pointed or not, is graded by rank.  No Face is built here.
    """
    closure = _face_closure(config)
    masks = [mask for mask, _ in closure]
    position = {mask: i for i, mask in enumerate(masks)}
    facets = {position[mask]: (normal,) for normal, mask in _facets(config)}  # in _facets order
    functionals = tuple(facets.get(i) or _perp_kernel(config, labels)
                        for i, (_, labels) in enumerate(closure))
    by_corank: dict[int, list[int]] = {}
    for i, w in enumerate(functionals):
        by_corank.setdefault(len(w), []).append(i)
    below = tuple(
        tuple(i for i in by_corank.get(len(w) + 1, ()) if masks[i] & mask == masks[i])
        for w, mask in zip(functionals, masks)
    )
    cover_counts = [0] * len(closure)
    for positions in below:
        for i in positions:
            cover_counts[i] += 1
    return _ResonanceTable(closure, {}, functionals, below, tuple(cover_counts), tuple(facets))


def _reported_face(config: Configuration, i: int, entry: tuple[int, tuple[int, ...]]) -> Face:
    """_face(config, *entry), read from face_lattice()[i] up to BRUTE_FORCE_LIMIT as a pin."""
    return config.face_lattice()[i] if config.n <= BRUTE_FORCE_LIMIT else _face(config, *entry)


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
    _members: Optional[tuple[Face, ...]]  # None when the minimal face is a member
    centers: tuple[Face, ...]

    @property
    def member_faces(self) -> tuple[Face, ...]:
        """The member faces in lattice order: every face when the minimal face is one."""
        return self.config.face_lattice() if self._members is None else self._members

    @property
    def is_nonresonant(self) -> bool:
        """The members are up-closed: the full face is the only one iff it is a center."""
        return len(self.centers[0].indices) == self.config.n

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


@per_configuration
def _minimal_face(config: Configuration) -> tuple[Face, ...]:
    """The centers when the minimal face is a member, witnessed by the facets _hull certified."""
    labels = config.lineality_columns
    return (_reported_face(config, 0, (sum(1 << j - 1 for j in labels), labels)),)


def resonance_centers(config: Configuration, beta) -> ResonanceReport:
    """All member faces and the inclusion-minimal ones (never empty)."""
    return _walk(config, as_parameter(beta, config.d))


def _member_facets(facets, scale: int, re: IntVec, im: IntVec) -> list[int]:
    """Positions of the facets whose normal v passes, all in one sweep, v . Im first."""
    return [k for k, (v, _) in enumerate(facets)
            if not (im and sum(map(mul, v, im))) and not sum(map(mul, v, re)) % scale]


def _walk(config: Configuration, beta: Parameter) -> ResonanceReport:
    """resonance_centers on a coerced parameter."""
    scaled = _scaled(beta)
    if _passes(_perp_lattice_basis(config, config.lineality_columns), *scaled):
        return ResonanceReport(config, beta, None, _minimal_face(config))  # all faces are members
    facets = _facets(config)  # a lone facet is the minimal face, which has failed
    member_facets = _member_facets(facets, *scaled) if len(facets) > 1 else ()
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
    members, faces = sorted(found), table.faces
    for i in members:
        if i not in faces:
            faces[i] = _reported_face(config, i, table.closure[i])
    return ResonanceReport(config, beta, tuple(faces[i] for i in members),
                           tuple(faces[i] for i in members if found.isdisjoint(below[i])))


def _congruence_text(w: IntVec) -> str:
    """The congruence "w . beta in Z" as text, signs spaced: "b1 - 2*b3 in Z"."""
    return format_combination(w, lambda k: f"b{k}", " ") + " in Z"


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
