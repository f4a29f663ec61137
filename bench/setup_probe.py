"""Print the set-up time of one workload in this fresh process.

Usage: python3 bench/setup_probe.py WORKLOAD SEED [M]

The clock starts before sparsefl (and with it numpy) is imported and stops
once the plant, excitation, library spec and config are built. bench/run.py
pins the BLAS thread variables in the environment it passes down.
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]) if len(sys.argv) > 3 else None)
print(perf_counter() - t0)
