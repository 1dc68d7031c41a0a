"""Machine speed, measured by a fixed piece of reference work.

The machines this benchmark runs on are shared: the CPU time of the same
computation drifts by up to 30% over seconds as other tenants load the
host (a fixed loop timed back to back for a minute took 120 to 220 ms).
The worker therefore runs ``reference_work`` right before every
operation, and each operation's CPU time is scaled by the speed of the
reference work around it: the median over the 11 samples centred on
the operation, against ``NOMINAL_S``.  On repeated runs of one seed this
cut the quartile spread of throughput from 14% to 2%.  Times reported
by the benchmark are therefore CPU seconds at nominal machine speed; the
raw CPU and wall times are printed alongside.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# CPU time of one reference_work() on the machine the bounds were set
# on, in a quiet period; it only fixes the unit of the scaled times
NOMINAL_S = 0.00087
HALF_WINDOW = 5


def reference_work():
    """A fixed piece of pure-Python work with the workload's mix of
    rational arithmetic, big integers and dict and tuple churn."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    d: dict = {}
    for i in range(600):
        k = (i % 97, i % 7)
        d[k] = d.get(k, 0) + i * i * 12345678901
    return acc, len(d)


def sample() -> float:
    """CPU time of one run of the reference work."""
    t0 = time.process_time()
    reference_work()
    return time.process_time() - t0


def scaled(latencies: list[float], samples: list[float]) -> list[float]:
    """Each latency scaled to nominal speed by the reference samples
    around it (``samples[i]`` was taken right before operation i)."""
    out = []
    for i, lat in enumerate(latencies):
        window = samples[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]
        out.append(lat * NOMINAL_S / statistics.median(window))
    return out
