"""Set-up probe: a fresh interpreter imports what a workload calls, builds
its inputs, and prints CLOCK_MONOTONIC (ns) at the moment the first op
could start.

    python perfbench/setup_child.py <workload> <seed>
"""

import sys
import time

import workloads

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print(time.clock_gettime_ns(time.CLOCK_MONOTONIC), flush=True)
