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
from .intlinalg import GaussRat, IntVec


@per_configuration
def _related_columns(config: Configuration) -> frozenset[int]:
    """Labels of the columns that appear in a toric relation among the distinct columns.

    Summing over copies maps ker A onto those relations (lift one onto the
    first copies), so a column is related iff some basis relation of A has
    a nonzero sum over its copies.  Every copy is listed.
    """
    copies: dict[IntVec, list[int]] = {}
    for j in range(1, config.n + 1):
        copies.setdefault(config.column(j), []).append(j)
    return frozenset(
        j
        for labels in copies.values()
        if any(sum(u[k - 1] for k in labels) for u in config.kernel)
        for j in labels
    )


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
    so anything else is rejected.  It is the sum over the column's copies
    of any solution x of A*x = beta, and it is attached to the first copy;
    later copies get coefficient zero.
    """
    beta = as_parameter(beta, config.d)
    if not is_pyramid(config, face):
        raise NotAPyramid(
            f"configuration is not a pyramid over {list(face.indices)}"
        )
    # With U*A^T = H, beta = sum y_i H_i gives A*x = beta for x = sum y_i U_i.
    H, U = config.hermite
    y = _gauss_rat_coordinates(H.data[: config.d], beta)
    if y is None:
        raise InternalInconsistency("beta is not in the span of the columns")
    x = [sum(map(mul, y, column), GaussRat()) for column in zip(*U.data[: config.d])]
    coeffs: dict[int, GaussRat] = {}
    first: dict[IntVec, int] = {}
    for j in range(1, config.n + 1):
        if j not in face.indices:
            k = first.setdefault(config.column(j), j)
            coeffs[j] = GaussRat()
            coeffs[k] += x[j - 1]
    beta_face = list(beta)
    for j, c in coeffs.items():
        beta_face = [b - c * a for b, a in zip(beta_face, config.column(j))]
    return BetaSplit(tuple(beta_face), coeffs)
