"""Normalized volume: d! times the Euclidean volume of conv(columns + 0).

Computed from an incremental placing triangulation with exact integer
orientation tests.  The determinant of a facet's points followed by x is
affine in x: one integer adjugate gives these forms for the seed simplex, and
each later simplex derives its own from its parent's in O(d) each.  So a
visibility test is one dot product, whose value is also the new simplex's
certificate entry.  The simplices (with the origin labeled 0 and columns by
their 1-based labels) are returned as that certificate: the volume is the
sum of the |det| contributions, and each simplex can be re-checked
independently.  For a configuration the normalized volume equals the
holonomic rank of the associated hypergeometric system at generic parameters.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Sequence

from .cones import Configuration, Face, _hermite_reduce, per_configuration
from .errors import DegenerateConfiguration, EmptyFace, InternalInconsistency
from .intlinalg import IntVec, adjugate_int, det_int, rank_int

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


def _facet_forms(vertices: list[IntVec], det: int) -> list[tuple[int, IntVec, bool]]:
    """(c0, c, positive) per k: c0 + c . x = _edge_det(facet + [x]), sign at vertices[k].

    The facet is vertices without vertices[k].  With x in its place the
    determinant is det * lambda_k(x) for barycentric lambda (Cramer), and
    moving x last signs it by (-1)^(d-k).  Row k - 1 of the adjugate of the
    edge matrix's transpose is det * lambda_k on x - vertices[0], and
    lambda_0 = 1 - sum lambda_k.
    """
    base, d = vertices[0], len(vertices) - 1
    rows = adjugate_int([[v[i] - b for v in vertices[1:]] for i, b in enumerate(base)], det)
    forms = []
    for k, row in enumerate([[-sum(col) for col in zip(*rows)]] + rows):
        sign = (-1) ** (d - k)
        c = tuple(sign * x for x in row)
        forms.append((sign * det * (k == 0) - sum(map(mul, c, base)), c, sign * det > 0))
    return forms


def _derived_forms(vertices: list[IntVec], det: int, parent: list[IntVec], parent_det: int,
                   parent_forms: list, k: int) -> list[tuple[int, IntVec, bool]]:
    """_facet_forms of vertices, parent's facet k plus a new vertex p, exactly.

    f_k stays; opposite q = parent[j], +-(f_k(p) f_j - f_j(p) f_k) / parent_det, signed by
    f_j(q) = (-1)^(d-j) parent_det.  A remainder, or a value at q other than (-1)^(d-i) det,
    raises InternalInconsistency.
    """
    d, index = len(vertices) - 1, {q: j for j, q in enumerate(parent)}
    p = (1,) + next(x for x in vertices if x not in index)
    flat, forms = [(c0,) + c for c0, c, _ in parent_forms], []
    at_p = [sum(map(mul, f, p)) for f in flat]
    for i, q in enumerate(vertices):
        j, expected = index.get(q, k), (-1) ** (d - i) * det  # k stands for p
        g, rest = flat[k], ()
        if j != k:
            sign = 1 if (-1) ** (d - j) * at_p[k] == expected else -1
            v, w = sign * at_p[k], sign * at_p[j]
            g, rest = zip(*[divmod(v * x - w * y, parent_det) for x, y in zip(flat[j], flat[k])])
        if any(rest) or sum(map(mul, g, (1,) + q)) != expected:
            raise InternalInconsistency("a derived facet form disagrees with the determinant")
        forms.append((g[0], g[1:], expected > 0))
    return forms


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
        diffs = [tuple(p - b for p, b in zip(points[l], base)) for l in trial[1:]]
        if not diffs or rank_int(diffs) == len(diffs):
            seed = trial
        if len(seed) == d + 1:
            break
    if len(seed) < d + 1:
        raise DegenerateConfiguration("points do not span the ambient space")
    simplices: list[tuple[Simplex, int]] = []
    # facet -> (simplex, det, k, birth): () for the seed, else _derived_forms' parent arguments
    boundary: dict[Simplex, tuple] = {}
    forms: dict[Simplex, list] = {}  # facet forms of each simplex tested so far

    def place(simplex: Simplex, det: int, birth: tuple = ()):
        # det is the edge determinant of the sorted simplex; combinations
        # drops simplex[d], simplex[d-1], ... in turn.
        if not det:
            raise InternalInconsistency("placing triangulation has a flat simplex")
        simplices.append((simplex, abs(det)))
        for k, facet in zip(range(d, -1, -1), combinations(simplex, d)):
            if boundary.pop(facet, None) is None:
                boundary[facet] = (simplex, det, k, birth)

    place(tuple(seed), _edge_det([points[v] for v in seed]))
    for label, p in [(l, points[l]) for l in labels if l not in seed]:
        for facet, (simplex, simplex_det, dropped, birth) in sorted(boundary.items()):
            if simplex not in forms:
                vertices = [points[v] for v in simplex]
                forms[simplex] = (_derived_forms(vertices, simplex_det, *birth) if birth
                                  else _facet_forms(vertices, simplex_det))
            c0, c, positive = forms[simplex][dropped]
            det = sum(map(mul, c, p), c0)
            if det and (det > 0) != positive:
                k = bisect(facet, label)  # moving the label to position k: a (d-k+1)-cycle
                place(facet[:k] + (label,) + facet[k:], -det if (d - k) % 2 else det,
                      ([points[v] for v in simplex], simplex_det, forms[simplex], dropped))
    return sorted(simplices)


def _volume_of_matrix(columns: Sequence[IntVec]) -> VolumeResult:
    d = len(columns[0])
    first_label: dict[IntVec, int] = {}  # the origin is labeled 0
    for j, col in enumerate([(0,) * d, *columns]):
        first_label.setdefault(col, j)
    points = {j: col for col, j in first_label.items()}
    triangulation = tuple(_placing_triangulation(points, d))
    return VolumeResult(sum(c for _, c in triangulation), triangulation)


@per_configuration
def normalized_volume(config: Configuration) -> VolumeResult:
    """Exact normalized volume of conv(columns + origin) with certificate."""
    return _volume_of_matrix(config.A.columns())


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
    coordinates, basis = _hermite_reduce([config.A.column(j - 1) for j in face.indices])
    return _volume_of_matrix(coordinates).volume if basis else 1


def generic_rank(config: Configuration) -> int:
    """Holonomic rank at generic parameters: alias for the normalized volume."""
    return normalized_volume(config).volume
