"""Resonance tests: membership of the parameter in Z^d + C*span(face).

The membership test reduces to finitely many congruences.  For a face F,
take an integer basis w_1, ..., w_k of the saturated lattice orthogonal to
the columns of F.  Because that lattice is a direct summand of Z^d, the map
x -> (w_i . x) sends Z^d onto Z^k, so

    beta in Z^d + C*span(F)   iff   every w_i . Im(beta) = 0
                                    and every w_i . Re(beta) is an integer.

The same functionals provide the human-readable description of each
component of the resonant arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Configuration, Face, Parameter, as_parameter, per_configuration
from .cones import _perp_lattice_basis
from .intlinalg import IntMatrix, IntVec, hermite_normal_form


def face_functionals(config: Configuration, face: Face) -> tuple[IntVec, ...]:
    """Integer functionals whose congruences cut out Z^d + C*span(face)."""
    return _perp_lattice_basis(config, face.indices)


def in_resonant_span(config: Configuration, face: Face, beta) -> bool:
    """Decide beta in Z^d + C*span(columns of face), exactly."""
    beta = as_parameter(beta, config.d)
    for w in face_functionals(config, face):
        if sum(wk * b.im for wk, b in zip(w, beta)) != 0:
            return False
        value = sum(wk * b.re for wk, b in zip(w, beta))
        if value.denominator != 1:
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
    lattice = config.face_lattice()
    members = [f for f in lattice if in_resonant_span(config, f, beta)]
    centers = [f for f in members if not any(set(g.indices) < set(f.indices) for g in members)]
    full = lattice.full_face
    is_nonresonant = len(centers) == 1 and centers[0] == full
    congruences = tuple(face_congruences(config, f) for f in members)
    return ResonanceReport(
        beta, tuple(members), tuple(centers), is_nonresonant, congruences
    )


def is_resonant(config: Configuration, beta) -> bool:
    """True iff some proper face's resonant span contains beta."""
    beta = as_parameter(beta, config.d)
    lattice = config.face_lattice()
    full = lattice.full_face
    return any(
        in_resonant_span(config, f, beta) for f in lattice if f != full
    )


@per_configuration
def face_congruences(config: Configuration, face: Face) -> tuple[str, ...]:
    """The congruences "w . beta in Z" that cut out Z^d + C*span(face)."""
    return tuple(_congruence_text(w) for w in face_functionals(config, face))


def _congruence_text(w: IntVec) -> str:
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
    lattice = config.face_lattice()
    full = lattice.full_face
    components = []
    for face in lattice:
        if face == full:
            continue
        if face.indices:
            span_rows = [config.column(j) for j in face.indices]
            H, _ = hermite_normal_form(IntMatrix(span_rows, cols=config.d))
            span_basis = tuple(row for row in H.data if any(row))
        else:
            span_basis = ()
        functionals = face_functionals(config, face)
        congruences = face_congruences(config, face)
        components.append(ArrangementComponent(face, span_basis, functionals, congruences))
    return ArrangementDescription(tuple(components))
