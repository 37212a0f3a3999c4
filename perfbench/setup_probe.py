"""Set-up time of one workload in a fresh interpreter.

Usage (PYTHONPATH must hold the repository's ``src``):
    python3 perfbench/setup_probe.py <workload> <seed>

Times ``import pdmpfrag`` and the workload's set-up (models, grids, initial
densities) from the start of the script, and prints one JSON line
``{"import_s": ..., "setup_s": ...}``.
"""

import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import pdmpfrag  # noqa: F401  (timed: the first import of the package)

    t1 = time.perf_counter()
    import json
    import sys

    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
