"""The decision procedure: reducible or irreducible monodromy.

The verdict is a theorem application, not an analytic computation: after
normalizing the input, every resonance center of the parameter is tested
for the pyramid property.  Monodromy is irreducible exactly when a center
is a pyramid base (in which case it is the only center); otherwise it is
reducible, and for a nonempty center the strict volume drop
face_volume(center) < generic rank is recorded as evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cones import Configuration, Face, Parameter, as_parameter, reduce_configuration
from .errors import DimensionMismatch, InputError, InternalInconsistency, ShiftInvarianceViolation
from .intlinalg import GaussRat, IntMatrix, lattice_member
from .pyramids import PyramidVerdict, is_pyramid
from .resonance import resonance_centers
from .volume import face_volume, generic_rank

REDUCIBLE = "Reducible"
IRREDUCIBLE = "Irreducible"


@dataclass(frozen=True)
class Classification:
    verdict: str
    centers: tuple[Face, ...]
    pyramid_flags: tuple[PyramidVerdict, ...]
    generic_rank: int
    face_volumes: tuple[Optional[int], ...]
    configuration: Configuration
    parameter: Parameter
    basis: IntMatrix

    def to_json(self) -> dict:
        details = []
        for face, verdict, vol in zip(self.centers, self.pyramid_flags, self.face_volumes):
            details.append(
                {
                    "indices": list(face.indices),
                    "witness": list(face.witness),
                    "pyramid": verdict.to_json(),
                    "face_volume": vol,
                }
            )
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


def classify(A_raw: IntMatrix, beta_raw) -> Classification:
    """Classify the monodromy of the system attached to (A, beta).

    Normalizes the input, finds the resonance centers, and applies the
    pyramid criterion to each.  Also asserts two facts the theory
    guarantees: a pyramid center is the unique center, and a reducible
    verdict with a nonempty center comes with a strict volume drop.
    """
    config, beta, basis = reduce_configuration(A_raw, beta_raw)
    report = resonance_centers(config, beta)
    verdicts = tuple(is_pyramid(config, f) for f in report.centers)
    rank = generic_rank(config)
    volumes = tuple(
        face_volume(config, f) if f.indices else None for f in report.centers
    )
    pyramid_centers = [
        f for f, v in zip(report.centers, verdicts) if v.is_pyramid
    ]
    if pyramid_centers:
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
    return Classification(
        verdict=verdict,
        centers=report.centers,
        pyramid_flags=verdicts,
        generic_rank=rank,
        face_volumes=volumes,
        configuration=config,
        parameter=beta,
        basis=basis,
    )


def _validated_shift(A_raw: IntMatrix, shift: Sequence[int]) -> tuple[int, ...]:
    z = tuple(int(x) for x in shift)
    if len(z) == A_raw.rows:
        if not lattice_member(A_raw.columns(), z):
            raise InputError(
                f"shift {list(z)} is not in the lattice generated by the columns"
            )
        return z
    if len(z) == A_raw.cols:
        return A_raw.mat_vec(z)
    raise DimensionMismatch(
        f"shift length {len(z)} matches neither d={A_raw.rows} nor n={A_raw.cols}"
    )


def classify_equivalence_class(
    A_raw: IntMatrix, beta_raw, shifts: Sequence[Sequence[int]]
) -> list[Classification]:
    """Classify beta + z for each lattice shift z; the verdict may not move.

    Shifts of length d are taken literally (and must lie in the column
    lattice); shifts of length n are applied through the matrix.
    """
    beta = as_parameter(beta_raw, A_raw.rows)
    results = []
    for shift in shifts:
        z = _validated_shift(A_raw, shift)
        shifted = tuple(b + GaussRat(x) for b, x in zip(beta, z))
        results.append(classify(A_raw, shifted))
    if len({r.verdict for r in results}) > 1:
        raise ShiftInvarianceViolation(
            "classification changed under a lattice shift of beta"
        )
    return results
