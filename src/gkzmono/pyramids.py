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

from .cones import Configuration, Face, _check_labels, per_configuration
from .intlinalg import IntVec


@per_configuration
def _related_columns(config: Configuration) -> frozenset[int]:
    """Labels of the columns that appear in a toric relation among the distinct columns.

    Summing over copies maps ker A onto those relations (lift one onto the
    first copies), so a column is related iff a relation in any basis of ker A,
    the raw rows of U*A^T = H, sums to nonzero over its copies, all listed.
    """
    H, U = config.hermite
    copies: dict[IntVec, list[int]] = {}
    for j in range(1, config.n + 1):
        copies.setdefault(config.column(j), []).append(j)
    return frozenset(
        j
        for labels in copies.values()
        if any(sum(u[k - 1] for k in labels) for u, h in zip(U.data, H.data) if not any(h))
        for j in labels
    )


def is_pyramid(config: Configuration, face: Face) -> bool:
    """No toric relation among the distinct columns involves a column outside the face."""
    _check_labels(config, face.indices)
    return _related_columns(config).issubset(face.indices)

