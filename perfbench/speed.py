"""Host-speed calibration for the timed metrics.

Small shared virtual machines change speed by tens of percent within
seconds: on a 2-vCPU Xeon VM the same pure-Python loop took 0.21 s in
one interval and 0.36 s in the next, and the two vCPUs drift apart.
So every timed span is bracketed by a fixed calibration kernel, and the
span is reported in *reference seconds*: its wall time divided by the
speed factor ``kernel time / REFERENCE_S`` measured around it.  The
kernel is benchmark code only (plain dict, list and integer work with
the collector off), so no change to the program can move it.  The
served workload is calibrated with a reference service instead (see
``refservice.py``).  The raw wall-clock figures are printed alongside.
"""

from __future__ import annotations

import gc
import time

#: Kernel seconds that define speed factor 1.0.
REFERENCE_S = 0.002


def _kernel() -> int:
    table = {}
    acc = 0
    for i in range(8000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    kept = [x for x in range(4000) if x % 3]
    return acc + len(kept) + len(table)


def sample() -> float:
    """CPU seconds of one kernel run on the calling thread's CPU."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _kernel()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def factor(*samples: float) -> float:
    """The speed factor for a span bracketed by ``samples``: above 1.0
    when the host ran slower than the reference."""
    return sum(samples) / len(samples) / REFERENCE_S

