"""Normalized volume: d! times the Euclidean volume of conv(columns + 0).

Computed from an incremental placing triangulation with exact integer
orientation tests.  The determinant of a facet's points followed by x is
affine in x.  One exact exchange rule gives every simplex these forms from
its parent's, in O(d) each: the seed is reached by exchanging points into
the unit simplex at the first point, and each later simplex derives its
forms when one of its facets is first tested.  So a visibility test is one
dot product, whose value is also the new simplex's certificate entry.  The
simplices (with the origin labeled 0 and columns by their 1-based labels)
are returned as that certificate: the volume is the sum of the |det|
contributions, and each simplex can be re-checked independently.  For a
configuration the normalized volume equals the holonomic rank of the
associated hypergeometric system at generic parameters.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Sequence

from .cones import Configuration, Face, _check_labels, _hermite_reduce, per_configuration
from .errors import DegenerateConfiguration, EmptyFace, InternalInconsistency
from .intlinalg import IntVec, rank_int

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


def _derived_forms(parent: list[IntVec], parent_det: int, parent_forms: list[IntVec], k: int,
                   p: IntVec, i: int, det: int) -> list[IntVec]:
    """Facet forms of parent's facet k with p inserted at position i, exactly; det is its det.

    Points are lifted to (1, x).  f_k stays; opposite q = parent[j],
    +-(f_k(p) f_j - f_j(p) f_k) / parent_det, signed by f_j(q) = (-1)^(d-j) parent_det.
    A zero det, a remainder, or a value at the vertex in position m other than
    (-1)^(d-m) det raises InternalInconsistency.
    """
    if not det:
        raise InternalInconsistency("placing triangulation has a flat simplex")
    d, order = len(parent) - 1, [j for j in range(len(parent)) if j != k]
    order.insert(i, k)  # k stands for p
    at_p, forms = [sum(map(mul, f, p)) for f in parent_forms], []
    for m, j in enumerate(order):
        g, rest, expected = parent_forms[k], (), (-1) ** (d - m) * det
        if j != k:
            sign = 1 if (-1) ** (d - j) * at_p[k] == expected else -1
            v, w = sign * at_p[k], sign * at_p[j]
            g, rest = zip(*[divmod(v * x - w * y, parent_det)
                            for x, y in zip(parent_forms[j], parent_forms[k])])
        if any(rest) or sum(map(mul, g, p if j == k else parent[j])) != expected:
            raise InternalInconsistency("a derived facet form disagrees with the determinant")
        forms.append(g)
    return forms


def _seed_simplex(points: dict[int, IntVec], labels: list[int], d: int):
    """(labels, det, facet forms) of the first affinely independent points in label order.

    Points are exchanged into the unit simplex base, base + e_1, ..., base + e_d
    (det 1, forms (-1)^(d-k) times its barycentric coordinates): a point enters
    iff the form opposite a remaining unit vertex is nonzero at it.
    """
    base = points[labels[0]]
    vertices = [base] + [base[:k] + (base[k] + 1,) + base[k + 1:] for k in range(1, d + 1)]
    forms = [tuple((-1) ** d * x for x in (sum(base),) + (-1,) * d)]
    forms += [tuple((-1) ** (d - k) * (-base[k] if m == 0 else int(m == k)) for m in range(d + 1))
              for k in range(1, d + 1)]
    seed, det = labels[:1], 1
    for label in labels[1:]:
        p, i = points[label], len(seed)
        k, value = next(((k, v) for k in range(i, d + 1) if (v := sum(map(mul, forms[k], p)))),
                        (0, 0))
        if value:  # p moves from last to position i: a (d-i+1)-cycle
            new_det = -value if (d - i) % 2 else value
            forms = _derived_forms(vertices, det, forms, k, p, i, new_det)
            vertices = vertices[:i] + [p] + [v for j, v in enumerate(vertices[i:], i) if j != k]
            seed, det = seed + [label], new_det
            if len(seed) == d + 1:
                break
    if len(seed) < d + 1:
        raise DegenerateConfiguration("points do not span the ambient space")
    return tuple(seed), det, forms


def _placing_triangulation(points: dict[int, IntVec], d: int) -> list[tuple[Simplex, int]]:
    """Triangulate conv(points) by inserting in ascending label order.

    Each new point is joined to the boundary facets it strictly sees; points
    inside (or on) the current hull contribute nothing.  Duplicate points
    must have been removed by the caller.  Returns each simplex with its |det|.
    """
    points = {label: (1,) + x for label, x in points.items()}
    labels = sorted(points)
    seed, seed_det, seed_forms = _seed_simplex(points, labels, d)
    simplices: list[tuple[Simplex, int]] = []
    # facet -> (simplex, det, k, birth): () for the seed, else _derived_forms' arguments but det
    boundary: dict[Simplex, tuple] = {}
    forms: dict[Simplex, list] = {seed: seed_forms}  # facet forms of each simplex tested so far

    def place(simplex: Simplex, det: int, birth: tuple = ()):
        # det is the edge determinant of the sorted simplex; combinations
        # drops simplex[d], simplex[d-1], ... in turn.
        simplices.append((simplex, abs(det)))
        for k, facet in zip(range(d, -1, -1), combinations(simplex, d)):
            if boundary.pop(facet, None) is None:
                boundary[facet] = (simplex, det, k, birth)

    place(seed, seed_det)
    for label, p in [(l, points[l]) for l in labels if l not in seed]:
        # A snapshot: p lies on none of its facets, so their order does not matter.
        for facet, (simplex, simplex_det, dropped, birth) in list(boundary.items()):
            if simplex not in forms:
                forms[simplex] = _derived_forms(*birth, simplex_det)
            value = sum(map(mul, forms[simplex][dropped], p))
            if value * (-1) ** (d - dropped) * simplex_det < 0:  # p strictly sees the facet
                i = bisect(facet, label)  # moving the label to position i: a (d-i+1)-cycle
                place(facet[:i] + (label,) + facet[i:], -value if (d - i) % 2 else value,
                      ([points[v] for v in simplex], simplex_det, forms[simplex], dropped, p, i))
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
