"""One set-up, timed by run.py: a fresh interpreter imports the package and
prepares a workload, then prints the wall-clock time at which it was ready.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""
import bootstrap  # noqa: F401  (pins BLAS and selects the checkout's src/ before numpy loads)

import sys
import time

import pipeline

pipeline.prepare(sys.argv[1], int(sys.argv[2]))
print(repr(time.time()))
