"""One cold start: interpreter, ``import kolmo_rfn``, the first op's config and spec.

Prints ``time.perf_counter()`` when the first op could begin. On Linux
that clock is system-wide, so the parent subtracts its own reading taken
just before it started this process. Usage:
``python3 perfbench/setup_probe.py WORKLOAD SEED SIZE``.
"""

import sys
import time

from program import import_program

import_program()
import workloads  # noqa: E402

name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.WORKLOADS[name].prepare(workloads.op_seed(seed, 0), size)
print(repr(time.perf_counter()))
