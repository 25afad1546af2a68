"""Builds one workload's inputs in a fresh interpreter and prints the seconds
since <start>, raw and at reference host speed (hostspeed.py).  run.py
reads its own monotonic clock just before starting this interpreter and
passes that reading as <start>; the two readings are one set-up sample.

    python3 bench/setup_probe.py <workload> <seed> <output directory> <start>
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402  (imports numpy)

sampler = hostspeed.Sampler()
sampler.start()
import workloads  # noqa: E402  (imports actionlab)

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
end = time.monotonic()
sampler.stop()
start = float(sys.argv[4])
print(end - start, sampler.scaled(start, end))
