"""Host-speed probe: a fixed pure-Python kernel timed next to the workload.

The shared hosts this benchmark runs on switch between full and roughly
half speed many times a second, in regimes that last minutes (no steal
time is reported, and process CPU time slows with wall time).  Between two
runs that swamps any bound a throughput gate could use.  This kernel is
timed in short chunks between the workload's timed intervals, all through
a run; its interquartile mean chunk time tracks how slow the host was
during the run, and multiplying a run's measured time by :func:`speed`
rescales it to the reference host speed below, so two runs compare the
program rather than the neighbours' load.  Chunk times are bimodal, so a
median would flip between the modes and a plain mean follows single
spikes; the interquartile mean does neither.  On link-sweep iterations
recorded for five minutes this cut the spread between 20-second runs from
12% to 5%.
"""

from __future__ import annotations

import statistics
import time

#: :func:`chunk` time of the reference host at full speed (5th percentile
#: on a 2-vCPU Intel Xeon VM, Python 3.11.7); only a scale, the same in
#: every run
REFERENCE_S = 0.0048
CHUNKS = 16


def chunk() -> float:
    """Seconds for one fixed slice of integer arithmetic and dict stores."""
    start = time.perf_counter()
    x = 0
    table = {}
    for i in range(60_000):
        x += i * 3
        table[i & 255] = x
    return time.perf_counter() - start


def probe() -> list[float]:
    return [chunk() for _ in range(CHUNKS)]


def speed(samples: list[float]) -> float:
    """Host speed relative to the reference: 0.5 means twice as slow."""
    ordered = sorted(samples)
    quarter = len(ordered) // 4
    return REFERENCE_S / statistics.fmean(ordered[quarter:len(ordered) - quarter])
