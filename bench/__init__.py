"""The repo's performance ledger: four end-to-end workloads, one traced
per-layer split, one comparator.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` is
the contract ``BENCHMARK.json`` names; ``python3 -m bench --seed 0``
runs every workload and prints the whole ledger.  Everything here
measures ``src/repro`` from outside -- by timing calls into its public
functions -- and changes nothing in it.  See ``bench/README.md``.
"""

import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: Everything a run leaves behind (ledgers, traces, the kernel cache).
OUT_DIR = os.path.join(BENCH_DIR, "out")
