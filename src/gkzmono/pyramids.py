"""Pyramid test: is the configuration a pyramid over a given face?

A configuration is a pyramid over the face F when, identifying the
configuration with its set of distinct columns, d equals the number of
distinct columns outside F plus the rank of the lattice generated by F's
columns: every column outside F sticks out in its own independent
direction.  Duplicate columns count once (they always lie on the same
faces, and the theory behind the classification sees the column set, not
the index multiset: doubling a column leaves the solution structure alone).

The test reads the toric relations among the distinct columns: A is a
pyramid over F exactly when no relation involves a column outside F.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Mapping

from .cones import Configuration, Face, Parameter, as_parameter, per_configuration
from .cones import _gauss_rat_coordinates
from .errors import InternalInconsistency, NotAPyramid
from .intlinalg import GaussRat, IntMatrix, IntVec, hermite_normal_form, kernel_lattice_basis


@per_configuration
def _distinct_columns(config: Configuration) -> tuple[IntVec, ...]:
    return tuple(dict.fromkeys(config.A.columns()))


@per_configuration
def _related_columns(config: Configuration) -> frozenset[int]:
    """Labels of the columns that appear in a toric relation among the distinct columns.

    Every copy of such a column is listed: copies lie on the same faces.
    """
    distinct = _distinct_columns(config)
    kernel = kernel_lattice_basis(IntMatrix.from_columns(distinct, config.d))
    related = {v for k, v in enumerate(distinct) if any(u[k] for u in kernel)}
    return frozenset(j for j in range(1, config.n + 1) if config.column(j) in related)


def is_pyramid(config: Configuration, face: Face) -> bool:
    """No toric relation among the distinct columns involves a column outside the face."""
    return _related_columns(config).issubset(face.indices)


@dataclass(frozen=True)
class BetaSplit:
    """beta = beta_face + sum of coefficients[j] * a_j over j outside the face."""

    beta_face: Parameter
    coefficients: Mapping[int, GaussRat]

    def to_json(self) -> dict:
        return {
            "beta_face": [b.to_json() for b in self.beta_face],
            "coefficients": {str(j): c.to_json() for j, c in self.coefficients.items()},
        }


def split_beta(config: Configuration, face: Face, beta) -> BetaSplit:
    """Split beta into its face component and the outside coefficients.

    The coefficient of each distinct column outside the face is uniquely
    determined exactly when the configuration is a pyramid over the face,
    so anything else is rejected.  When a column outside the face is
    duplicated, its coefficient is attached to the first occurrence and the
    later copies get coefficient zero.
    """
    beta = as_parameter(beta, config.d)
    if not is_pyramid(config, face):
        raise NotAPyramid(
            f"configuration is not a pyramid over {list(face.indices)}"
        )
    # With U*D^T = H, beta = sum y_i H_i gives D*x = beta for x = sum y_i U_i.
    distinct = _distinct_columns(config)
    H, U = hermite_normal_form(IntMatrix(distinct, cols=config.d))
    rank = sum(map(any, H.data))
    y = _gauss_rat_coordinates(H.data[:rank], beta)
    if y is None:
        raise InternalInconsistency("beta is not in the span of the columns")
    solution = [sum(map(mul, y, column), GaussRat()) for column in zip(*U.data[:rank])]
    by_vector = dict(zip(distinct, solution))
    coeffs: dict[int, GaussRat] = {}
    claimed: set[IntVec] = set()
    for j in range(1, config.n + 1):
        if j in face.indices:
            continue
        v = config.column(j)
        if v in claimed:
            coeffs[j] = GaussRat(0)
        else:
            claimed.add(v)
            coeffs[j] = by_vector[v]
    beta_face = list(beta)
    for j, c in coeffs.items():
        col = config.column(j)
        beta_face = [b - c * a for b, a in zip(beta_face, col)]
    reconstructed = list(beta_face)
    for j, c in coeffs.items():
        col = config.column(j)
        reconstructed = [b + c * a for b, a in zip(reconstructed, col)]
    if tuple(reconstructed) != beta:
        raise InternalInconsistency("beta split does not reconstruct")
    return BetaSplit(tuple(beta_face), coeffs)
