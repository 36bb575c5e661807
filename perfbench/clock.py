"""Times in reference seconds.

The CPU that runs the benchmark does not keep one speed: on a 2-vCPU
virtual machine with nothing else running in it, the same 25,000-sample
glauber call read 0.13 s in one process and 0.19 s in the next.  Wall time
alone cannot show a 25% regression there.  So every timed section is
bracketed by a fixed calibration loop of plain Python (random draws,
big-int bit operations, dict updates: the operations gbsmc's chains are
made of), and its wall time is divided by how slow that loop ran, relative
to ``REFERENCE_LOOP_S``.  The result reads as the time the section takes
on a CPU that runs the loop in exactly ``REFERENCE_LOOP_S``.
"""

from __future__ import annotations

import math
import random
import time

REFERENCE_LOOP_S = 0.0015
_LOOP_DRAWS = 3000
_LOOP_BEST_OF = 3


def _loop():
    rnd = random.Random(12345).random
    bits = 0
    seen = {}
    for _ in range(_LOOP_DRAWS):
        j = int(rnd() * 256)
        b = 1 << j
        if bits & b:
            bits &= ~b
        else:
            bits |= b
        seen[j] = seen.get(j, 0) + 1
    return bits


def slowness() -> float:
    """How much slower than the reference the CPU runs right now: best of
    three calibration loops over ``REFERENCE_LOOP_S``."""
    best = math.inf
    for _ in range(_LOOP_BEST_OF):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_LOOP_S


def timed(fn):
    """Run ``fn()``; returns (result, reference seconds, wall seconds)."""
    before = slowness()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall / ((before + slowness()) / 2), wall
