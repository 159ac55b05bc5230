"""Fixed reference work that measures how fast this machine is right now.

    python3 bench/calibrate.py

run.py starts this script in a fresh interpreter before every job and every
import probe, and scales the timings it reports by these samples (see
``CAL_REF_S`` in run.py).  The script never imports
``lebp``, so a change to the program cannot move it; it only tracks the
speed of the shared host, which drifts by tens of percent within minutes.

The work mimics what a job spends its time on: interpreter start and the
import of numpy, a Python loop over permutations with products (the
chamber-norm expansions), vectorised sine sums over a grid (the sine-series
kernels) and small determinants.  One sample takes about 0.3 s.
"""

import itertools
import math

import numpy as np


def python_part():
    total = 0.0
    for perm in itertools.permutations(range(8)):
        sign = 1.0
        prod = 1.0
        for i, p in enumerate(perm):
            prod *= 1.0 + 0.1 * ((i * 7 + p) % 5)
            if p < i:
                sign = -sign
        total += sign * prod
    return total


def numpy_part():
    x = np.linspace(0.1, 3.0, 20000)
    acc = np.zeros_like(x)
    for k in range(1, 81):
        acc += np.sin(k * x) * np.exp(-0.05 * k * x) / k
    mats = np.sin(np.arange(1, 4 * 4 * 2000 + 1, dtype=float)).reshape(2000, 4, 4) + 4.0 * np.eye(4)
    dets = 0.0
    for m in mats:
        dets += math.log(abs(np.linalg.det(m)))
    return float(acc.sum()) + dets


if __name__ == "__main__":
    print(f"{python_part():.6f} {numpy_part():.6f}")
