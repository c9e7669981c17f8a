"""Set-up probe: a fresh interpreter that imports qwps, runs one workload's
set-up (bench/workloads.py: setup) and prints one JSON line when it could
time its first task.

    PYTHONPATH=src python3 bench/probe.py WORKLOAD
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import qwps.cli  # noqa: E402,F401

import_s = perf_counter() - t0

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.setup(sys.argv[1])
    print(json.dumps({"import_s": import_s}), flush=True)
