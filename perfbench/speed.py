"""Machine-speed probe.

The machines this benchmark runs on are virtual, and their speed drifts by
a fifth or more over minutes as neighbours load the host (the same op took
0.43 s and 0.76 s within one minute on a 2-vCPU KVM guest).  Every timed
op is therefore bracketed by a fixed pure-Python kernel that uses no code
of the program, and op times are reported at a reference speed:

    reported = wall time * REFERENCE_S / (kernel time around the op)

REFERENCE_S is the kernel's time on the 2-vCPU Xeon guest the benchmark
was built on, in a quiet phase.  A change to the program cannot move the
kernel, so it moves the reported time exactly as it moves the wall time
at a fixed machine speed.
"""

from __future__ import annotations

import gc
import math
import time

REFERENCE_S = 0.005


def _kernel() -> int:
    # integer arithmetic with gcd reductions, tuples and a dict: the same
    # kind of work as the program's exact scalars and memo tables
    table = {}
    a, b, d = 3, -2, 35
    for i in range(1, 4000):
        e, f = i % 11 - 5, i % 7 + 1
        a, b, d = a * f - b * e, a * e + b * f, d * f
        g = math.gcd(a, b, d)
        a, b, d = a // g, b // g, d // g
        if d > 10**12:
            a, b, d = a % 1000 + 1, b % 1000, 7
        table[(i, a % 97)] = (a, b, d)
    return len(table)


def probe() -> float:
    """Seconds one run of the kernel takes now (garbage collection paused,
    so the program's heap does not change the reading)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
