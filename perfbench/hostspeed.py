"""Host-speed calibration: scale measured seconds to a reference host.

The benchmark's host is shared, and its single-thread speed drifts by
up to ~40 % over seconds and minutes, which no amount of repetition
averages away.  So the benchmark runs :func:`calibrate`, a fixed
pure-Python loop that uses none of the repository's code, right before
and after every timed operation, and reports

    seconds = measured seconds * REFERENCE_S / calibration seconds

with the mean of the two calibrations around the operation.  On a
2-vCPU Intel Xeon host (Python 3.11), over 20-second windows of the
same 200-second recording, this cut the quartile spread of the median
pass time from 9 % to 4 % (fig3-matmul) and from 15 % to 7 %
(steady-open).  Of the loops tried there (a heap-based event loop, best
of five short event loops, and this one), this had the lowest
pass-to-pass spread on both.
"""

import time

#: Seconds :func:`calibrate` takes on the reference host (about the
#: median on the host that recorded ``baseline.json``).
REFERENCE_S = 0.03


def calibrate():
    """Host seconds for a fixed loop of integer arithmetic and dict stores."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(300_000):
        acc += i & 7
        table[i & 255] = acc
    return time.perf_counter() - t0
