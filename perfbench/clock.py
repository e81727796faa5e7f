"""A fixed pure-Python loop: the benchmark's yardstick for machine speed.

The measurement machine moves between phases about 1.5x apart in speed that
last from seconds to minutes, far more than any program change the
benchmark has to resolve.  The ``script`` and ``serve`` workloads therefore
time this loop right before and right after each timed job, in the same
process, and report the job's time scaled to :data:`REFERENCE_S` — the
loop's time on the reference machine in its fast phase — alongside the raw
wall time.  The start/end noise probe of ``run.py`` uses the same loop.
"""

from __future__ import annotations

import time

#: Iterations of the yardstick loop (about 20-30 ms on a 2-vCPU Xeon).
LOOP = 300_000

#: Seconds the loop takes on the reference machine (2-vCPU Xeon, fast phase).
REFERENCE_S = 0.020


def loop_seconds() -> float:
    """Wall seconds of one run of the yardstick loop."""
    start = time.perf_counter()
    total = 0
    for value in range(LOOP):
        total += value * value
    return time.perf_counter() - start


def calibrated(seconds: float, loop: float) -> float:
    """``seconds`` measured while the loop took ``loop``, at reference speed."""
    return seconds * REFERENCE_S / loop
