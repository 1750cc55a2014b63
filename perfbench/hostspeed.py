"""Host-speed probe: a fixed computation owned by the benchmark.

The shared host this benchmark was written on changes speed by up to 1.7x
within seconds, and its level drifts by tens of percent over half an hour,
so raw wall times of one run say as much about the neighbours as about the
program.  Every op is therefore preceded by one ``probe()``, and each op's
times are reported at reference speed:

    normalized = measured * REFERENCE_NS / mean of the WINDOW probes around the op

One probe takes a few milliseconds and often sees another speed than the op
after it, so a single probe is too noisy to scale its op by.  One factor for
the whole run is too coarse: when the host is slow for part of a run, the
run's median op falls in the slow part at once while the mean probe moves
only part of the way, so the percentiles follow the host's load.  The mean
of the probes around the op follows the host's level during the op.  The
probe never calls the program, so a change to the program moves the
normalized figure by the same fraction as the raw one.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_NS = 2_000_000  # the probe's time on a quiet host of the baseline kind
WINDOW = 5                # probes that estimate the host's speed during one op
_MASK = (1 << 64) - 1
_state: dict = {}


def _work(values, np) -> None:
    # 64-bit integer mixing as in a pure-Python PRNG, small numpy ops, and
    # passes over a 1e5 array: the three kinds of work the workloads do.
    x = 0x9E3779B97F4A7C15
    for _ in range(1500):
        x ^= (x << 13) & _MASK
        x ^= x >> 7
        x = (x * 5 + (x << 17)) & _MASK
    small = values[:64]
    for _ in range(120):
        small = np.abs(small - small.mean()) + 0.5
    for _ in range(3):
        float(-(values * np.log(values)).sum())


def probe() -> int:
    """Run the reference computation once; return its wall time in ns."""
    if not _state:
        import numpy as np

        _state["np"] = np
        _state["values"] = np.linspace(0.01, 1.0, 100_000)
        _work(_state["values"], np)  # first call pays one-time costs
    start = time.perf_counter_ns()
    _work(_state["values"], _state["np"])
    return time.perf_counter_ns() - start


def speed_factor(probe_ns) -> float:
    """Reference speed over the host's mean speed during the probed window."""
    return REFERENCE_NS / statistics.fmean(probe_ns)


def op_factors(probe_ns) -> list[float]:
    """The factor of each op: reference speed over the mean of the WINDOW
    probes centred on the op's own (fewer at the ends of the run)."""
    half = WINDOW // 2
    return [speed_factor(probe_ns[max(0, i - half):i + half + 1])
            for i in range(len(probe_ns))]
