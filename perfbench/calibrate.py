"""A fixed work mix that measures the host's current pace; no chainrad code.

Imported, :func:`work` times interpreter and numpy work in-process. Run as
a script (``python perfbench/calibrate.py``), a fresh interpreter imports
numpy and runs it SCRIPT_REPEATS times; the wall time of that process
tracks the pace of process start-up and imports, which is what cli_cold
ops and set-up probes spend and the in-process mix does not measure.
"""

import math

import numpy as np

_VECTOR = np.arange(64.0)
SCRIPT_REPEATS = 8


def work() -> float:
    """Equal parts scalar Python math, numpy scalar arithmetic and small
    numpy calls: tenants slow each of these by different amounts, and
    chainrad's ops mix all three."""
    total = 0.0
    for k in range(1, 2000):
        total += math.sin(k * 1e-3) / k
    for k in range(800):
        total += _VECTOR[k % 64] * _VECTOR[(k + 1) % 64]
    for _ in range(250):
        total += float(np.dot(_VECTOR, _VECTOR))
    return float(total)


if __name__ == "__main__":
    for _ in range(SCRIPT_REPEATS):
        work()
