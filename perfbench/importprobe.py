"""Time ``import entroconj.cli`` in this fresh interpreter.

Run as ``python -m perfbench.importprobe`` with the package on the path.
Prints ``{"import_s": ..., "cal_ms": [a, b]}``.  Both calibration slices
follow the import, because a slice before it would import numpy and hide
that cost; each is the median of three kernel runs, which steadies the first
runs in a new process.
"""

import time

start = time.perf_counter()
import entroconj.cli  # noqa: E402,F401

elapsed = time.perf_counter() - start

import json  # noqa: E402
import statistics  # noqa: E402

from perfbench.measure import kernel_ms  # noqa: E402

runs = [kernel_ms() for _ in range(6)]
print(json.dumps({"import_s": elapsed, "cal_ms": [statistics.median(runs[:3]), statistics.median(runs[3:])]}))
