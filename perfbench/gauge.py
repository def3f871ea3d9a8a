"""The host gauge: a fixed pure-Python integer loop timed next to the work.

On a shared host the processor's speed drifts by up to a factor of two
over minutes.  The benchmark times this loop in every measured process,
right before the work it measures, and reports times rescaled to a host
on which the loop takes NOMINAL_S.  It imports nothing, so running it
before `import optcoding` does not change what that import costs.
"""

import time

ITERATIONS = 200_000
NOMINAL_S = 0.016  # the loop on a 2-vCPU Intel Xeon guest when its host is quiet


def host_gauge() -> float:
    """Seconds for the fixed loop: the host's current speed."""
    t = time.perf_counter()
    n = 0
    for i in range(ITERATIONS):
        n += i * i % 7
    return time.perf_counter() - t


def median_gauge(repeats: int = 3) -> float:
    return sorted(host_gauge() for _ in range(repeats))[repeats // 2]


def rescaled(seconds: float, gauge_s: float) -> float:
    """`seconds` on a host where the gauge takes NOMINAL_S."""
    return seconds * NOMINAL_S / gauge_s
