"""Machine-speed calibration: a fixed CPU-bound task that runs no finpolylog code.

Usage: python3 perfbench/calibrate.py REPS

Prints a JSON list of the seconds each repetition took.  The task mixes the
two kinds of work finpolylog does: Python dict and tuple arithmetic, and
numpy sorting of int64 arrays.  Because it never changes, its time tracks
how fast the machine is running at the moment, and nothing else.
"""

import json
import sys
import time

import numpy as np


def task() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(300_000):
        key = (i % 97, i % 89)
        table[key] = (table.get(key, 0) + i * i) % 1_000_003
    keys = np.arange(2_000_000, dtype=np.int64) * 7919 % 1_000_003
    np.unique(keys, return_inverse=True)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps([task() for _ in range(int(sys.argv[1]))]))
