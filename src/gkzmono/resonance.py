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
only below a member facet.  One pass up the closure of the facet bitmasks
(cones._face_closure) cuts each face's lattice from its largest subface by
one width-1 Hermite pass (cones._perp_step), reads the face's rank off that
lattice and its covers off bitsets; a facet keeps its inner normal.  The
table holds no Face until the walk reports one: a reported face is built
once (cones._face), kept by position.

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
from functools import reduce
from math import lcm
from operator import mul, or_
from typing import Optional, Sequence

from .cones import BRUTE_FORCE_LIMIT, Configuration, Face, Parameter, as_parameter
from .cones import _check_labels, _face, _face_closure, _facets, _hermite_reduce
from .cones import _perp_lattice_basis, _perp_step, per_configuration
from .errors import InternalInconsistency
from .intlinalg import IntVec, format_combination


def face_functionals(config: Configuration, face: Face) -> tuple[IntVec, ...]:
    """Integer functionals whose congruences cut out Z^d + C*span(face): the canonical basis."""
    _check_labels(config, face.indices)
    return _perp_lattice_basis(config, face.indices)


@dataclass(frozen=True)
class _ResonanceTable:
    """Per-face data in lattice order, plus the cover relation.

    closure is cones._face_closure, the (column bitmask, labels) of every
    face, and faces maps a position to its Face once a report has read it.
    below[i] holds the positions of the faces that face i covers,
    cover_counts[i] the number of faces covering it, and facets[k] the
    position of the k-th facet of cones._facets.
    """

    closure: tuple[tuple[int, tuple[int, ...]], ...]
    faces: dict[int, Face]
    functionals: tuple[tuple[IntVec, ...], ...]
    below: tuple[tuple[int, ...], ...]
    cover_counts: tuple[int, ...]
    facets: tuple[int, ...]


@per_configuration
def _resonance_table(config: Configuration) -> _ResonanceTable:
    """The functionals and covers of every face, in one pass up the bitmask closure.

    Bitsets over positions grow with the pass, per column (the faces holding
    it) and per rank.  A face's subfaces are the earlier positions holding no
    column outside it.  A facet keeps its inner normal, the minimal face its
    canonical basis, and any other face G takes F ∩ a_j^perp
    (cones._perp_step), F its last subface and a_j a column of G outside F.
    F has the most columns of G's subfaces, so G covers it, and a_j is off
    span F since C ∩ span F = F.  Each entry fixes its face's rank, d less
    its length, and a face's covers are its subfaces one rank down (the
    face lattice is graded).
    """
    closure, d = _face_closure(config), config.d
    facet_of = {mask: (k, (normal,)) for k, (normal, mask) in enumerate(_facets(config))}
    facets, holds, at_rank = [0] * len(facet_of), [0] * config.n, [0] * (d + 1)
    functionals, below, cover_counts = [], [], [0] * len(closure)
    for i, (mask, labels) in enumerate(closure):
        outside = reduce(or_, (h for j, h in enumerate(holds) if not mask >> j & 1), 0)
        subfaces = (1 << i) - 1 & ~outside
        if mask in facet_of:
            k, entry = facet_of[mask]
            facets[k] = i
        elif i:
            last = subfaces.bit_length() - 1
            basis, beyond = functionals[last], mask & ~closure[last][0]
            entry = _perp_step(basis, config._columns[(beyond & -beyond).bit_length() - 1])
            if len(entry) == len(basis):
                raise InternalInconsistency("a face's column lies in the span of a face it covers")
        else:
            entry = _perp_lattice_basis(config, labels)
        rank = d - len(entry)
        covered, bits = [], at_rank[rank - 1] & subfaces
        while bits:  # the positions of the covers, ascending
            covered.append((bits & -bits).bit_length() - 1)
            cover_counts[covered[-1]] += 1
            bits &= bits - 1
        functionals.append(entry)
        below.append(tuple(covered))
        at_rank[rank] |= 1 << i
        for j in labels:
            holds[j - 1] |= 1 << i
    return _ResonanceTable(closure, {}, tuple(functionals), tuple(below), tuple(cover_counts),
                           tuple(facets))


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
        members = [{**face.to_json(), "congruences": list(congruences)}
                   for face, congruences in zip(self.member_faces, self.member_congruences)]
        return {
            "beta": [b.to_json() for b in self.beta],
            "member_faces": members,
            "centers": [f.to_json() for f in self.centers],
            "is_nonresonant": self.is_nonresonant,
        }


@per_configuration
def _full_face(config: Configuration) -> tuple[Face, ...]:
    """The members and centers of a nonresonant report: the full face, witness 0 (_face)."""
    return (_face(config, (1 << config.n) - 1, tuple(range(1, config.n + 1))),)


@per_configuration
def _minimal_face(config: Configuration) -> tuple[Face, ...]:
    """The centers when the minimal face is a member, witnessed by the facets _hull certified."""
    labels = config.lineality_columns
    return (_reported_face(config, 0, (sum(1 << j - 1 for j in labels), labels)),)


def resonance_centers(config: Configuration, beta) -> ResonanceReport:
    """All member faces and the inclusion-minimal ones (never empty)."""
    return _walk(config, as_parameter(beta, config.d))[0]


def _member_facets(facets, scale: int, re: IntVec, im: IntVec) -> list[int]:
    """Positions of the facets whose normal v passes, all in one sweep, v . Im first."""
    return [k for k, (v, _) in enumerate(facets)
            if not (im and sum(map(mul, v, im))) and not sum(map(mul, v, re)) % scale]


def _walk(config: Configuration, beta: Parameter) -> tuple[ResonanceReport, Sequence[int]]:
    """(resonance_centers on a coerced parameter, the indices of its member facets in _facets)."""
    scaled, facets = _scaled(beta), _facets(config)  # a lone facet is the minimal face
    if _passes(_perp_lattice_basis(config, config.lineality_columns), *scaled):
        return ResonanceReport(config, beta, None, _minimal_face(config)), range(len(facets))
    member_facets = _member_facets(facets, *scaled) if len(facets) > 1 else ()
    if not member_facets:
        # The full face is always a member: the columns span Q^d.
        full = _full_face(config)
        return ResonanceReport(config, beta, full, full), ()
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
    return ResonanceReport(config, beta, tuple(faces[i] for i in members), tuple(
        faces[i] for i in members if found.isdisjoint(below[i]))), member_facets


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
