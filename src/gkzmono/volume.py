"""Normalized volume: d! times the Euclidean volume of conv(columns + 0).

Computed from an incremental placing triangulation with exact integer
orientation tests.  Each boundary facet keeps the side its simplex lies on,
read off the parity of that simplex's determinant, so a visibility test
takes one determinant, which is also the new simplex's certificate entry.
The simplices (with the origin labeled 0 and columns by their 1-based
labels) are returned as that certificate: the volume is the sum of the |det|
contributions, and each simplex can be re-checked independently.  For a
configuration the normalized volume equals the holonomic rank of the
associated hypergeometric system at generic parameters.
"""

from __future__ import annotations

from bisect import bisect
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


def _placing_triangulation(points: dict[int, IntVec], d: int) -> list[tuple[Simplex, int]]:
    """Triangulate conv(points) by inserting in ascending label order.

    Each new point is joined to the boundary facets it strictly sees; points
    inside (or on) the current hull contribute nothing.  Duplicate points
    must have been removed by the caller.  Returns each simplex with its |det|.
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
    simplices: list[tuple[Simplex, int]] = []
    boundary: dict[Simplex, bool] = {}  # facet -> _edge_det(facet + [inner vertex]) > 0

    def place(simplex: Simplex, det: int):
        # det is the edge determinant of the sorted simplex.
        if not det:
            raise InternalInconsistency("placing triangulation has a flat simplex")
        simplices.append((simplex, abs(det)))
        # The facet without simplex[i] sees it with sign (-1)^(d-i) * det;
        # combinations drops simplex[d], simplex[d-1], ... in turn.
        positive = det > 0
        for facet in combinations(simplex, d):
            if boundary.pop(facet, None) is None:
                boundary[facet] = positive
            positive = not positive

    place(tuple(seed), _edge_det([points[v] for v in seed]))
    for label in [l for l in labels if l not in seed]:
        p = points[label]
        for facet, positive in sorted(boundary.items()):
            det = _edge_det([points[v] for v in facet] + [p])
            if det and (det > 0) != positive:
                k = bisect(facet, label)  # moving the label to position k: a (d-k+1)-cycle
                place(facet[:k] + (label,) + facet[k:], -det if (d - k) % 2 else det)
    return sorted(simplices)


def _volume_of_matrix(A: IntMatrix) -> VolumeResult:
    d = A.rows
    first_label: dict[IntVec, int] = {}  # the origin is labeled 0
    for j, col in enumerate(((0,) * d,) + A.columns()):
        first_label.setdefault(col, j)
    points = {j: col for col, j in first_label.items()}
    triangulation = tuple(_placing_triangulation(points, d))
    return VolumeResult(sum(c for _, c in triangulation), triangulation)


@per_configuration
def normalized_volume(config: Configuration) -> VolumeResult:
    """Exact normalized volume of conv(columns + origin) with certificate."""
    return _volume_of_matrix(config.A)


@per_configuration
def face_volume(config: Configuration, face: Face) -> int:
    """Normalized volume of a face in the lattice its columns generate.

    The face's columns are triangulated in their coordinates on the Hermite
    basis of that lattice (cones._hermite_reduce), which may be a proper
    sublattice of its saturation.  A face of zero columns only spans a
    rank-0 lattice; its volume is 1 (the volume of a point).  The full face
    already lives in Z^d: its volume is the normalized volume.
    """
    if not face.indices:
        raise EmptyFace("volume of the empty face is undefined")
    if len(face.indices) == config.n:
        return normalized_volume(config).volume
    reduced, _ = _hermite_reduce(config.submatrix(face.indices))
    return _volume_of_matrix(reduced).volume if reduced.rows else 1


def generic_rank(config: Configuration) -> int:
    """Holonomic rank at generic parameters: alias for the normalized volume."""
    return normalized_volume(config).volume
