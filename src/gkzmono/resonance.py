"""Resonance tests: membership of the parameter in Z^d + C*span(face).

The membership test reduces to finitely many congruences.  For a face F,
take an integer basis w_1, ..., w_k of the saturated lattice orthogonal to
the columns of F.  Because that lattice is a direct summand of Z^d, the map
x -> (w_i . x) sends Z^d onto Z^k, so

    beta in Z^d + C*span(F)   iff   every w_i . Im(beta) = 0
                                    and every w_i . Re(beta) is an integer.

The test runs in integers: with L the lcm of the denominators of all real
and imaginary entries of beta, the conditions read w_i . (L Im beta) = 0
and w_i . (L Re beta) = 0 mod L.  beta is scaled once per call, and the
functionals of every face, with their congruence text, are compiled once
per configuration into a table in lattice order, (size, indices), together
with the cover relation of the lattice.

The member faces are up-closed (span G in span F when G is a face of F),
and the face lattice is graded by rank, so the walk prunes from both ends.
The minimal face is tested first: if it is a member, so is every face, and
it is the only center.  Otherwise the walk goes down from the full face,
which is always a member, and tests a face only once every face covering it
is a member; a face with a non-member above it cannot be a member.  The
centers are the members with no member directly below them.  A generic
parameter thus costs one test per facet, plus one for the minimal face.

The same functionals provide the human-readable description of each
component of the resonant arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul

from .cones import Configuration, Face, Parameter, as_parameter, per_configuration
from .cones import _perp_lattice_basis
from .intlinalg import IntMatrix, IntVec, hermite_normal_form


def face_functionals(config: Configuration, face: Face) -> tuple[IntVec, ...]:
    """Integer functionals whose congruences cut out Z^d + C*span(face)."""
    return _perp_lattice_basis(config, face.indices)


@dataclass(frozen=True)
class _ResonanceTable:
    """Per-face data in lattice order, plus the cover relation.

    below[i] holds the positions of the faces that face i covers, and
    cover_counts[i] the number of faces that cover face i.
    """

    faces: tuple[Face, ...]
    functionals: tuple[tuple[IntVec, ...], ...]
    congruences: tuple[tuple[str, ...], ...]
    below: tuple[tuple[int, ...], ...]
    cover_counts: tuple[int, ...]


@per_configuration
def _resonance_table(config: Configuration) -> _ResonanceTable:
    """The functionals, congruence text and covers of every face.

    G covers F iff G contains F and has rank one more.  The rank of a face
    is d minus the number of its functionals, and the face lattice of a
    cone, pointed or not, is graded by rank.
    """
    faces = config.face_lattice().faces
    functionals = tuple(face_functionals(config, f) for f in faces)
    masks = [sum(1 << j for j in f.indices) for f in faces]
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
        tuple(tuple(map(_congruence_text, w)) for w in functionals),
        below,
        tuple(cover_counts),
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
    """Faces whose resonant span contains beta, and the minimal ones.

    member_congruences holds, per member face, the integer congruences that
    certify membership (one string per quotient functional).
    """

    beta: Parameter
    member_faces: tuple[Face, ...]
    centers: tuple[Face, ...]
    is_nonresonant: bool
    member_congruences: tuple[tuple[str, ...], ...] = ()

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


def resonance_centers(config: Configuration, beta) -> ResonanceReport:
    """All member faces and the inclusion-minimal ones (never empty)."""
    beta = as_parameter(beta, config.d)
    scaled = _scaled(beta)
    table = _resonance_table(config)
    if _passes(table.functionals[0], *scaled):
        # The minimal face is a member, hence so is every face above it.
        return ResonanceReport(
            beta, table.faces, table.faces[:1], len(table.faces) == 1, table.congruences
        )
    below = table.below
    pending = list(table.cover_counts)
    # The full face is always a member: the columns span Q^d.
    top = len(pending) - 1
    found = {top}
    stack = [top]
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
        beta,
        tuple(table.faces[i] for i in members),
        tuple(table.faces[i] for i in centers),
        centers == [top],
        tuple(table.congruences[i] for i in members),
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


@dataclass(frozen=True)
class ArrangementDescription:
    components: tuple[ArrangementComponent, ...]

    def to_json(self) -> list:
        return [c.to_json() for c in self.components]


def describe_resonant_arrangement(config: Configuration) -> ArrangementDescription:
    """One component per proper face, with its congruence conditions."""
    table = _resonance_table(config)
    components = []
    # The full face comes last in lattice order.
    rows = zip(table.faces[:-1], table.functionals, table.congruences)
    for face, functionals, congruences in rows:
        if face.indices:
            span_rows = [config.column(j) for j in face.indices]
            H, _ = hermite_normal_form(IntMatrix(span_rows, cols=config.d))
            span_basis = tuple(row for row in H.data if any(row))
        else:
            span_basis = ()
        components.append(ArrangementComponent(face, span_basis, functionals, congruences))
    return ArrangementDescription(tuple(components))
