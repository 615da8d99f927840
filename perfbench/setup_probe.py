"""Set-up probe: import alcove and load one dataset in a fresh process.

Prints the seconds from the probe's first statement to the loaded dataset.
Usage: ``python3 perfbench/setup_probe.py <src dir> <manifest>``.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import alcove  # noqa: E402

alcove.load_dataset(sys.argv[2])
print(time.perf_counter() - t0)
