"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_sample.py WORKLOAD

Prints the seconds from before `import trigdunkl` to the end of the
workload's set-up.
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    workload.setup()
    print(time.perf_counter() - t0)
