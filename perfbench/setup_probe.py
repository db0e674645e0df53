"""Time one workload set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line with ``setup_s`` (import of znav plus the problem
build, as a new process pays it) and ``validate_mild_s`` (the wind
mildness sweep inside that build, 0 when the workload has none).
"""
import json
import os
import sys
import time

from workloads import WORKLOADS


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workload = WORKLOADS[name](root, seed)
    try:
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
    finally:
        workload.close()
    print(json.dumps({"setup_s": setup_s, "validate_mild_s": workload.validate_mild_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
