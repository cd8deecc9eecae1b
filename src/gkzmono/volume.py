"""Normalized volume: d! times the Euclidean volume of conv(columns + 0).

Computed from an incremental placing triangulation with exact integer
orientation tests.  The simplices (with the origin labeled 0 and columns by
their 1-based labels) are returned as a certificate: the volume is the sum
of the |det| contributions, and each simplex can be re-checked
independently.  For a configuration the normalized volume equals the
holonomic rank of the associated hypergeometric system at generic
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cones import Configuration, Face, _hermite_reduce, per_configuration
from .errors import DegenerateConfiguration, EmptyFace, InternalInconsistency
from .intlinalg import IntMatrix, IntVec, det_int, rank_int

Simplex = tuple[int, ...]


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


def _edge_det(points: list[IntVec]) -> int:
    """Determinant of the edge vectors points[i] - points[0]."""
    base = points[0]
    return det_int([tuple(p - b for p, b in zip(q, base)) for q in points[1:]])


def _orient(facet_points: list[IntVec], x: IntVec) -> int:
    det = _edge_det(facet_points + [x])
    return (det > 0) - (det < 0)


def _placing_triangulation(points: dict[int, IntVec], d: int) -> list[Simplex]:
    """Triangulate conv(points) by inserting in ascending label order.

    Each new point is joined to the boundary facets it strictly sees; points
    inside (or on) the current hull contribute nothing.  Duplicate points
    must have been removed by the caller.
    """
    labels = sorted(points)
    seed: list[int] = []
    for label in labels:
        trial = seed + [label]
        base = points[trial[0]]
        diffs = [
            tuple(p - b for p, b in zip(points[l], base)) for l in trial[1:]
        ]
        if not diffs or rank_int(diffs) == len(diffs):
            seed = trial
        if len(seed) == d + 1:
            break
    if len(seed) < d + 1:
        raise DegenerateConfiguration("points do not span the ambient space")
    simplices: list[Simplex] = []
    boundary: dict[Simplex, int] = {}  # boundary facet -> the vertex opposite it

    def place(simplex: Simplex):
        simplices.append(simplex)
        for facet in combinations(simplex, d):
            if boundary.pop(facet, None) is None:
                boundary[facet] = next(v for v in simplex if v not in facet)

    place(tuple(sorted(seed)))
    for label in [l for l in labels if l not in seed]:
        p = points[label]
        for facet, inner in sorted(boundary.items()):
            facet_points = [points[v] for v in facet]
            side_new = _orient(facet_points, p)
            if side_new != 0 and side_new != _orient(facet_points, points[inner]):
                place(tuple(sorted(facet + (label,))))
    return sorted(simplices)


def _volume_of_matrix(A: IntMatrix) -> VolumeResult:
    d = A.rows
    first_label: dict[IntVec, int] = {}  # the origin is labeled 0
    for j, col in enumerate(((0,) * d,) + A.columns()):
        first_label.setdefault(col, j)
    points = {j: col for col, j in first_label.items()}
    simplices = _placing_triangulation(points, d)
    certificate = []
    total = 0
    for simplex in simplices:
        contribution = abs(_edge_det([points[v] for v in simplex]))
        if not contribution:
            raise InternalInconsistency("placing triangulation has a flat simplex")
        certificate.append((simplex, contribution))
        total += contribution
    return VolumeResult(total, tuple(certificate))


@per_configuration
def normalized_volume(config: Configuration) -> VolumeResult:
    """Exact normalized volume of conv(columns + origin) with certificate."""
    return _volume_of_matrix(config.A)


@per_configuration
def face_volume(config: Configuration, face: Face) -> int:
    """Normalized volume of a face in the lattice its columns generate.

    The columns are re-expressed in a basis of that lattice, which may be a
    proper sublattice of its saturation, before triangulating.  A face of
    zero columns only spans a rank-0 lattice; its volume is 1 (the volume
    of a point).  The full face already lives in Z^d: its volume is the
    normalized volume.
    """
    if not face.indices:
        raise EmptyFace("volume of the empty face is undefined")
    if len(face.indices) == config.n:
        return normalized_volume(config).volume
    sub = config.submatrix(face.indices)
    if not any(map(any, sub.data)):
        return 1
    # Straight to the Hermite reduction, which validates the reduced matrix:
    # a proper face has rank < d, so Configuration(sub) would always fail.
    # Face matrices stay out of the user-matrix cache.
    face_config, _ = _hermite_reduce(sub)
    return _volume_of_matrix(face_config.A).volume


def generic_rank(config: Configuration) -> int:
    """Holonomic rank at generic parameters: alias for the normalized volume."""
    return normalized_volume(config).volume
