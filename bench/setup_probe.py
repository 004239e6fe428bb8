"""Set-up probe for setup_s: a fresh interpreter imports kndirac with its
dependencies, builds the workload's inputs, and prints "ready".

    python3 bench/setup_probe.py <workload> <seed>

run.py starts it several times and times each start-to-"ready" interval.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), os.path.join(HERE, "out"))
print("ready", flush=True)
