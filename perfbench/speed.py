"""Host speed calibration for the end-to-end times.

The benchmark gets a few cores of a shared host, and the speed those cores
give one process drifts by a third and more over tens of seconds: on a
2-vCPU Intel Xeon VM the same fixed rep_sweep input took 6.6 s in one run and
9.6 s in another a minute later, and a fixed 200k-step loop took 14 ms in
one three-second window and 27 ms in the next.  The drift slows the
interpreter as a whole, so a fixed pure-Python loop timed in the same
process, between the operations, slows by nearly the same factor: over ten
seeds, the quartile spread of wall_s on tensor_grid and rep_sweep fell from
27-43% of its median to 4-5% (METRICS.md).

So each process that is timed also times `loop_s` now and then, and its
times are multiplied by NOMINAL_S / (median of its loop times): the
end-to-end times are seconds at the host speed at which the loop takes
NOMINAL_S, the loop's time on that VM when nothing else slowed it.  A change
to brauer cannot change the loop, so it moves these times as it moves the
raw ones; other load on the host does not.
"""

from __future__ import annotations

import statistics
import time

LOOP = 50_000
NOMINAL_S = 0.0033
# an untraced workload samples the loop before an operation when this long
# has passed since the last sample (about 3% of its time)
EVERY_S = 0.1


def loop_s() -> float:
    """Time of a fixed pure-Python loop, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Multiplier that brings times measured beside `samples` to nominal speed."""
    return NOMINAL_S / statistics.median(samples)
