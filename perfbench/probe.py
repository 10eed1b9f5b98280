"""Set-up probe: one fresh process that does a workload's set-up and exits.

Usage: python probe.py WORKLOAD SEED WORKDIR

Prints the monotonic time at which the first timed call could begin; the
parent subtracts the time at which it spawned this process to get setup_s.
"""

import sys
import time

from workloads import WORKLOADS  # this script's directory is on sys.path

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name]().setup(seed, workdir)
    print(repr(time.monotonic()), flush=True)
