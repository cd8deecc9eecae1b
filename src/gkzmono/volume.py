"""Normalized volume: d! times the Euclidean volume of conv(columns + 0).

A configuration's volume reads the placing triangulation of its hull
(cones._hull), the run that also gives the facets; a face's triangulates
its own Hermite coordinates and reads no facets.  The simplices (the origin
labeled 0, columns by their 1-based labels) are returned as a certificate:
the volume is the sum of their |det|, each re-checkable on its own.  For a
configuration it equals the holonomic rank at generic parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cones import Configuration, Face, Simplex, _check_labels, _hermite_reduce, _hull
from .cones import _placing_triangulation, per_configuration
from .errors import EmptyFace
from .intlinalg import IntVec, rank_int


@dataclass(frozen=True)
class VolumeResult:
    volume: int
    triangulation: tuple[tuple[Simplex, int], ...]

    def to_json(self) -> dict:
        return {
            "volume": self.volume,
            "triangulation": [
                {"vertices": list(s), "det": c} for s, c in self.triangulation
            ],
        }


def _volume_of_matrix(columns: Sequence[IntVec]) -> VolumeResult:
    d = len(columns[0])
    triangulation = _placing_triangulation(dict(enumerate([(0,) * d, *columns])), d)[0]
    return VolumeResult(sum(c for _, c in triangulation), triangulation)


@per_configuration
def normalized_volume(config: Configuration) -> VolumeResult:
    """Exact normalized volume of conv(columns + origin), certified by the hull's triangulation."""
    triangulation = _hull(config)[0]
    return VolumeResult(sum(c for _, c in triangulation), triangulation)


@per_configuration
def face_volume(config: Configuration, face: Face) -> int:
    """Normalized volume of a face in the lattice its columns generate.

    Distinct nonzero columns as many as the face's rank (rank_int) are a basis:
    volume 1 (a point at rank 0), with no Hermite pass.  Other faces are
    triangulated on the Hermite basis (cones._hermite_reduce) of their lattice,
    which may be a proper sublattice of its saturation; the full face's is Z^d.
    """
    _check_labels(config, face.indices)
    if not face.indices:
        raise EmptyFace("volume of the empty face is undefined")
    if len(face.indices) == config.n:
        return normalized_volume(config).volume
    columns = [config.A.column(j - 1) for j in face.indices]
    if len(set(columns) - {(0,) * config.d}) == rank_int(columns):
        return 1
    return _volume_of_matrix(_hermite_reduce(columns)[0]).volume


def generic_rank(config: Configuration) -> int:
    """Holonomic rank at generic parameters: alias for the normalized volume."""
    return normalized_volume(config).volume
