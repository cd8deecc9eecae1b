"""Pyramid tests: is the configuration a pyramid over a given face?

A configuration is a pyramid over the face F when, identifying the
configuration with its set of distinct columns, d equals the number of
distinct columns outside F plus the rank of the lattice generated by F's
columns: every column outside F sticks out in its own independent
direction.  Duplicate columns count once (they always lie on the same
faces, and the theory behind the classification sees the column set, not
the index multiset: doubling a column leaves the solution structure alone).

Four equivalent characterizations are implemented through genuinely
different computations and must agree.  A disagreement is an implementation
bug, reported as InternalInconsistency, never a data error.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .cones import Configuration, Face, Parameter, as_parameter, per_configuration
from .cones import _solve_gauss_rat
from .errors import InternalInconsistency, NotAPyramid
from .intlinalg import (
    GaussRat,
    IntMatrix,
    IntVec,
    kernel_lattice_basis,
    rank_int,
    smith_normal_form,
)
from .volume import face_volume, normalized_volume


@dataclass(frozen=True)
class PyramidVerdict:
    is_pyramid: bool
    checks: Mapping[str, Optional[bool]]
    agreement: bool

    def to_json(self) -> dict:
        return {
            "is_pyramid": self.is_pyramid,
            "checks": dict(self.checks),
            "agreement": self.agreement,
        }


@per_configuration
def _distinct_columns(config: Configuration) -> tuple[IntVec, ...]:
    return tuple(dict.fromkeys(config.A.columns()))


@per_configuration
def _distinct_kernel(config: Configuration) -> tuple[IntVec, ...]:
    """Kernel lattice basis of the distinct-column matrix: its toric relations."""
    return kernel_lattice_basis(IntMatrix.from_columns(_distinct_columns(config), config.d))


def _face_vectors(config: Configuration, face: Face) -> frozenset[IntVec]:
    return frozenset(config.column(j) for j in face.indices)


def _outside_vectors(config: Configuration, face: Face) -> tuple[IntVec, ...]:
    inside = _face_vectors(config, face)
    return tuple(v for v in _distinct_columns(config) if v not in inside)


def is_pyramid_rank(config: Configuration, face: Face) -> bool:
    """d = #distinct columns outside the face + rank of the face span."""
    outside = len(_outside_vectors(config, face))
    face_rank = rank_int(config.submatrix(face.indices).data) if face.indices else 0
    return config.d == outside + face_rank


@per_configuration
def _vector_splits_off(config: Configuration, v: IntVec) -> bool:
    """Does Z*v split off as a direct summand complementary to the others?

    Checked structurally on the matrix M of the remaining distinct columns:
    M must have rank d-1, its column lattice must be saturated (all Smith
    invariant factors 1), and the image of v in the rank-1 quotient must be
    a generator.
    """
    d = config.d
    rest = [c for c in _distinct_columns(config) if c != v]
    if not rest:
        return d == 1 and abs(v[0]) == 1
    M = IntMatrix.from_columns(rest, d)
    snf = smith_normal_form(M)
    if snf.rank() != d - 1:
        return False
    if any(f != 1 for f in snf.invariant_factors()):
        return False
    quotient_row = snf.U.row(d - 1)
    image = sum(u * a for u, a in zip(quotient_row, v))
    return abs(image) == 1


def is_pyramid_summand(config: Configuration, face: Face) -> bool:
    """Every distinct column outside the face is a direct lattice summand."""
    return all(
        _vector_splits_off(config, v) for v in _outside_vectors(config, face)
    )


def is_pyramid_kernel(config: Configuration, face: Face) -> bool:
    """The kernel lattice of the distinct-column matrix is supported in the face.

    Equivalently, no toric relation among distinct columns involves a
    variable outside the face.
    """
    distinct = _distinct_columns(config)
    inside = _face_vectors(config, face)
    for u in _distinct_kernel(config):
        for vec, entry in zip(distinct, u):
            if entry != 0 and vec not in inside:
                return False
    return True


def is_pyramid_volume(config: Configuration, face: Face) -> bool:
    """The face has the same normalized volume as the whole configuration.

    Only meaningful for nonempty faces; callers skip it for the empty face.
    """
    return face_volume(config, face) == normalized_volume(config).volume


@per_configuration
def is_pyramid(config: Configuration, face: Face) -> PyramidVerdict:
    """Run all applicable pyramid checks and assert that they agree.

    The verdict is shared by every later call, so its checks are read-only.
    """
    checks: dict[str, Optional[bool]] = {
        "rank": is_pyramid_rank(config, face),
        "summand": is_pyramid_summand(config, face),
        "kernel_support": is_pyramid_kernel(config, face),
        "volume": is_pyramid_volume(config, face) if face.indices else None,
    }
    values = {v for v in checks.values() if v is not None}
    agreement = len(values) == 1
    if not agreement:
        raise InternalInconsistency(
            f"pyramid checks disagree on face {list(face.indices)}: {checks}"
        )
    return PyramidVerdict(values.pop(), MappingProxyType(checks), agreement)


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
    if not is_pyramid(config, face).is_pyramid:
        raise NotAPyramid(
            f"configuration is not a pyramid over {list(face.indices)}"
        )
    distinct = _distinct_columns(config)
    D = IntMatrix.from_columns(distinct, config.d)
    solution = _solve_gauss_rat(D, beta)
    assert solution is not None
    by_vector = dict(zip(distinct, solution))
    inside = _face_vectors(config, face)
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
