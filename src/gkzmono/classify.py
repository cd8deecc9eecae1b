"""The decision procedure: reducible or irreducible monodromy.

The verdict is a theorem application, not an analytic computation: after
normalizing the input (which coerces beta once), every resonance center is
tested for the pyramid property.  Monodromy is irreducible exactly when a
center is a pyramid base (then it is the only center); otherwise it is
reducible, and for a nonempty center the strict volume drop face_volume <
generic rank is the evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cones import Configuration, Face, Parameter, _facets, per_configuration, reduce_configuration
from .errors import InternalInconsistency
from .intlinalg import IntMatrix
from .pyramids import _related_columns, is_pyramid
from .resonance import _walk
from .volume import face_volume, generic_rank

REDUCIBLE = "Reducible"
IRREDUCIBLE = "Irreducible"


@dataclass(frozen=True)
class Classification:
    verdict: str
    centers: tuple[Face, ...]
    pyramid_flags: tuple[bool, ...]
    generic_rank: int
    face_volumes: tuple[Optional[int], ...]
    configuration: Configuration
    parameter: Parameter
    basis: IntMatrix

    def to_json(self) -> dict:
        details = [{**face.to_json(), "pyramid": pyramid, "face_volume": vol} for face, pyramid, vol
                   in zip(self.centers, self.pyramid_flags, self.face_volumes)]
        return {
            "verdict": self.verdict,
            "centers": [list(f.indices) for f in self.centers],
            "center_details": details,
            "generic_rank": self.generic_rank,
            "normalization": {
                "B": [list(r) for r in self.basis.data],
                "A": [list(r) for r in self.configuration.A.data],
                "beta": [b.to_json() for b in self.parameter],
            },
        }


@per_configuration
def _facets_missing_related(config: Configuration) -> frozenset[int]:
    """The indices in _facets of the facets that miss a related column (see classify)."""
    related = sum(1 << j - 1 for j in _related_columns(config))
    return frozenset(k for k, (_, mask) in enumerate(_facets(config)) if related & ~mask)


def classify(A_raw: IntMatrix, beta_raw) -> Classification:
    """Classify the monodromy of the system attached to (A, beta).

    Normalizes the input, finds the resonance centers, and applies the
    pyramid criterion to each.  Also asserts three facts the theory
    guarantees: a pyramid center is the unique center, a reducible verdict
    with a nonempty center shows a strict volume drop, and the facet theorem
    holds: Irreducible iff every member facet contains the related columns.
    """
    config, beta, basis = reduce_configuration(A_raw, beta_raw)
    report, member_facets = _walk(config, beta)
    flags = tuple(is_pyramid(config, f) for f in report.centers)
    rank = generic_rank(config)
    volumes = tuple(face_volume(config, f) if f.indices else None for f in report.centers)
    if any(flags):
        if len(report.centers) != 1:
            raise InternalInconsistency(
                "a pyramid center must be the unique resonance center"
            )
        verdict = IRREDUCIBLE
    else:
        verdict = REDUCIBLE
        for face, vol in zip(report.centers, volumes):
            if face.indices and not vol < rank:
                raise InternalInconsistency(
                    "reducible verdict without a strict volume drop"
                )
    reducible = member_facets and not _facets_missing_related(config).isdisjoint(member_facets)
    if bool(reducible) != (verdict == REDUCIBLE):
        raise InternalInconsistency("the verdict disagrees with the facet theorem")
    return Classification(
        verdict=verdict,
        centers=report.centers,
        pyramid_flags=flags,
        generic_rank=rank,
        face_volumes=volumes,
        configuration=config,
        parameter=beta,
        basis=basis,
    )

