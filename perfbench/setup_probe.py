"""One set-up of a workload in a fresh interpreter, host-normalized.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED COUNT

Times importing gkzmono, building the workload's inputs and the warm-up op,
with the host reference kernel run before and after, and prints the
host-normalized seconds.  run.py starts several of these and reports the
median as setup_s.
"""

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_RUNS = 3


def main(argv) -> int:
    workload, seed, count = argv[0], int(argv[1]), int(argv[2])
    sys.path.insert(0, str(HERE))
    import hostref

    refs = [hostref.time_reference() for _ in range(REFERENCE_RUNS)]
    start = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    wl = workloads.WORKLOADS[workload](seed, count)
    wl.warm_up()
    raw = time.perf_counter() - start
    refs += [hostref.time_reference() for _ in range(REFERENCE_RUNS)]
    print(raw * hostref.R0_S / statistics.median(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
