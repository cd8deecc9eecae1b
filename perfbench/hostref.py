"""Frozen host-speed reference computation.

The benchmark host changes speed over seconds to minutes (another tenant on
the sibling hardware thread, frequency changes), and process CPU time moves
with it.  Every time the benchmark reports is therefore divided by the
duration ``r`` of this fixed computation, measured right next to it, and
multiplied by the constant ``R0_S``:

    normalized = raw * R0_S / r

The kernel does the same kind of work as the program under test (exact
``Fraction`` Gaussian elimination, tuple building and hashing) but uses the
standard library only.  It must never import gkzmono, and its work must never
change: the checksum pins it, and a changed kernel would silently rescale
every normalized number.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median duration of reference() on the calibration host (2-vCPU Intel Xeon
# VM, CPython 3.11.7, quiet).  Normalized times read as seconds on that host.
R0_S = 0.0040

CHECKSUM = 1394164

_MATRIX = (
    (4, -3, 7, 1, 0, -2, 5, 3, -1),
    (2, 6, -1, -4, 3, 1, 0, -5, 2),
    (-1, 2, 5, 3, -6, 4, 1, 0, 7),
    (3, 0, -2, 6, 1, -5, 4, 2, -3),
    (5, 1, 3, -2, 4, 0, -3, 6, 1),
    (0, -4, 1, 5, 2, 3, -6, 1, 4),
    (6, 3, 0, -1, -3, 2, 2, -4, 5),
    (-2, 5, 4, 0, 6, -1, 3, 1, -2),
)


def _eliminate() -> int:
    rows = [[Fraction(x) for x in row] for row in _MATRIX]
    n = len(rows)
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    last = rows[n - 1][n] / rows[n - 1][n - 1]
    return last.numerator % 1000003 + last.denominator % 1000003


def _hash_tuples() -> int:
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(2500):
        key = (i % 17, i % 5, (i * 7) % 23)
        counts[key] = counts.get(key, 0) + 1
    return len(counts) + sum(v * v for v in counts.values())


def reference() -> int:
    """Run the frozen kernel once and return its checksum."""
    return _eliminate() + _hash_tuples()


def time_reference() -> float:
    """Duration of one reference() call, in seconds."""
    start = time.perf_counter()
    value = reference()
    elapsed = time.perf_counter() - start
    if value != CHECKSUM:
        raise RuntimeError(f"host reference kernel changed: checksum {value}")
    return elapsed
