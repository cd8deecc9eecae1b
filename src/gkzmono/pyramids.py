"""Pyramid test: is the configuration a pyramid over a given face?

A configuration is a pyramid over the face F when, identifying the
configuration with its set of distinct columns, d equals the number of
distinct columns outside F plus the rank of the lattice generated by F's
columns: every column outside F sticks out in its own independent
direction.  Duplicate columns count once (they always lie on the same
faces, and the theory behind the classification sees the column set, not
the index multiset: doubling a column leaves the solution structure alone).

The test reads the toric relations among the distinct columns: A is a
pyramid over F exactly when no relation involves a column outside F.  A
distinct column is in no relation iff it is outside the span of the others,
that is, iff it is an apex: its copies are the whole complement of one
facet.  So the related columns are read off the hull's facets
(cones._facets), and no kernel is computed.
"""

from __future__ import annotations

from .cones import Configuration, Face, _check_labels, _facets, per_configuration
from .intlinalg import IntVec


@per_configuration
def _related_columns(config: Configuration) -> frozenset[int]:
    """Labels of the columns that appear in a toric relation among the distinct columns.

    Every label except the apexes: a facet whose complement is exactly the
    copies of one column.  A zero column lies on every facet, so it is always
    related (e_j is a relation), and a cone with no facet (all of Q^d) has a
    strictly positive relation, so every column is related.
    """
    copies: dict[IntVec, int] = {}
    for j, a in enumerate(config._columns):
        copies[a] = copies.get(a, 0) | 1 << j
    classes, every = set(copies.values()), (1 << config.n) - 1
    apexes = 0
    for _, mask in _facets(config):
        if every & ~mask in classes:
            apexes |= every & ~mask
    return frozenset(j for j in range(1, config.n + 1) if not apexes >> j - 1 & 1)


def is_pyramid(config: Configuration, face: Face) -> bool:
    """No toric relation among the distinct columns involves a column outside the face."""
    _check_labels(config, face.indices)
    return _related_columns(config).issubset(face.indices)
