"""Time one set-up in a fresh interpreter: import opsyslab, then build round 0's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR  (src/ on PYTHONPATH)

Prints one JSON line {"import_s": ..., "inputs_s": ...}.  Nothing is
imported before opsyslab, so import_s includes numpy and scipy as a user
pays them.
"""

import json
import sys
import time

t0 = time.perf_counter()
import opsyslab  # noqa: E402,F401

t1 = time.perf_counter()

from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
wl = WORKLOADS[workload](seed, workdir)
t2 = time.perf_counter()
wl.prepare()
wl.round(0)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t3 - t2}))
