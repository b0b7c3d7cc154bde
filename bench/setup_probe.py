"""Measure one set-up of a workload in a fresh interpreter.

Set-up is importing pagiant, parsing and validating every spec of the
workload, and building the first ProcessState of each.  `run.py` starts
this script several times and reports the median.

    python3 bench/setup_probe.py WORKLOAD SEED [--smoke]

prints {"setup_s": ...} as its last line.
"""

import json
import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.WORKLOADS[name]
    wl.setup(wl.inputs(seed, "--smoke" in sys.argv[3:]))
    print(json.dumps({"setup_s": time.perf_counter() - started}))
