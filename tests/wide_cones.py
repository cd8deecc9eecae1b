"""Cold timings of the face and resonance layers on the seed-5 wide cones.

Usage (from the repository root; no options):

    python3 tests/wide_cones.py

For random_homogeneous_configuration(Random(5), d, n) with (d, n) in
(6, 16), (7, 18), (8, 20) and (9, 22), it prints the seconds of a cold
face closure (cones._face_closure, the hull included), of the resonance
table built on it (resonance._resonance_table), the bit length of the
table's largest entry (|x| over every functional of every face), and the
seconds of a cold classify for a generic, a facet-resonant (e1/3) and an
integer parameter, each on a fresh configuration.  Up to d = 7 it checks
the table against the Hermite kernel oracle
(oracles.resonance_table_mismatches) and exits 1 on a mismatch.  pytest
does not collect this file.
"""

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gkzmono import classify, cones, resonance  # noqa: E402
from oracles import resonance_table_mismatches  # noqa: E402
from sweeps import random_homogeneous_configuration  # noqa: E402

CONES = ((6, 16), (7, 18), (8, 20), (9, 22))
PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139)
ORACLE_UP_TO = 7


def betas(d):
    """(name, beta): generic, facet-resonant and integer."""
    return (
        ("generic", [Fraction(1, p) for p in PRIMES[:d]]),
        ("e1/3", [Fraction(1, 3)] + [0] * (d - 1)),
        ("integer", [k % 5 - 2 for k in range(d)]),
    )


def seconds(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def main() -> int:
    failed = False
    print(f"{'d':>2} {'n':>3} {'faces':>6} {'closure':>8} {'table':>7} {'bits':>4}"
          + "".join(f" {name:>8}" for name, _ in betas(1)) + "  oracle")
    for d, n in CONES:
        matrix = random_homogeneous_configuration(random.Random(5), d, n).A
        config = cones.Configuration(matrix)
        closure_s, closure = seconds(cones._face_closure, config)
        table_s, table = seconds(resonance._resonance_table, config)
        bits = max(abs(x) for entry in table.functionals for w in entry for x in w).bit_length()
        classify_s = []
        for _, beta in betas(d):
            cones._normalize_matrix.cache_clear()
            classify_s.append(seconds(classify, matrix, beta)[0])
        oracle = "-"
        if d <= ORACLE_UP_TO:
            mismatches = resonance_table_mismatches(config)
            oracle = "ok" if not mismatches else "MISMATCH: " + ", ".join(mismatches)
            failed |= oracle != "ok"
        print(f"{d:>2} {n:>3} {len(closure):>6} {closure_s:>8.3f} {table_s:>7.3f} {bits:>4}"
              + "".join(f" {s:>8.3f}" for s in classify_s) + f"  {oracle}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
