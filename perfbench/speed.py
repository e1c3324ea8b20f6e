"""Host speed, read from a fixed calibration kernel.

The shared host the benchmark was tuned on (2 cores, Python 3.11,
numpy 2.4) switches between a fast state and one about 1.6x slower, in
spells of seconds to minutes, and CPU time slows as much as wall time.
A 30-s run can spend anywhere from a fifth to all of its time in the slow
state, so raw latencies, and any median or mean of them, follow the
host.  The run therefore times this kernel just before and just after
every request and divides the request's latency by the host's slowdown
at that moment: the mean of the two kernel times over ``REFERENCE_S``.  In a 150-s trace of bounds requests,
the median latency of each 15-s window ranged from 18.7 to 28.5 ms as
measured, and from 13.9 to 15.9 ms divided by the slowdown.

The kernel runs no bellbound code, so a change to the program cannot
move it.  It mixes the two kinds of work the program does: an
interpreter loop like the Gray-code walk, and small numpy products.  In
six 25-s runs of each of ``bounds`` and ``geometry`` (seeds 201-206),
the quartile spread of requests_per_s, latency_p50_ms and latency_p90_ms
was 0.18-0.30 as measured; divided by the slowdown it was 0.01-0.03 on
``bounds`` and 0.04-0.06 on ``geometry``, against 0.02-0.03 and
0.05-0.08 with the interpreter loop alone.
"""

import time

import numpy as np

# The kernel's time on the tuning host in its fast state (2nd percentile
# of about 36000 runs over 30 s); latencies are reported at this speed.
REFERENCE_S = 0.57e-3

_MATRIX = np.random.default_rng(0).normal(size=(160, 160))


def kernel_seconds() -> float:
    """Run the calibration kernel once and return its wall time."""
    start = time.perf_counter()
    acc = 0
    for step in range(1, 1 << 12):
        acc ^= (step & -step).bit_length()
    for _ in range(8):
        _MATRIX @ _MATRIX[:, :40]
    return time.perf_counter() - start
