"""Cold start of one workload: import ``repro`` and build its first system.

``run.py`` runs this in a fresh interpreter per sample::

    python3 perfbench/setup_probe.py <workload>

and reads the seconds from the last line of its output.  The clock
starts before the first ``import repro`` and stops when the workload's
first ``MulticomputerSystem`` is built, before its first event.  The
seconds are scaled to the reference host speed like every timing of
the benchmark (see ``hostspeed.py``).
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402
from hostspeed import REFERENCE_S, calibrate  # noqa: E402

before = calibrate()
t0 = time.perf_counter()
import repro  # noqa: E402,F401

workloads.make_workload(sys.argv[1], 0).setup()
elapsed = time.perf_counter() - t0
after = calibrate()
print(repr(elapsed * REFERENCE_S * 2.0 / (before + after)))
