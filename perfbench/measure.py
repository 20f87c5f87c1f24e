"""The benchmark's own arithmetic: percentiles, ratios, derived times.

Pure functions over plain numbers, so ``test_measure.py`` can pin every
rule without running a simulation.
"""

from __future__ import annotations

import math
import resource
import statistics

#: A tail percentile is reported as supported only when at least this
#: many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation between
    closest ranks (the "inclusive" method: p0 is the minimum, p100 the
    maximum)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> float:
    """Expected number of samples above the *q*-th percentile of *n*."""
    return n * (100.0 - q) / 100.0


def tail_supported(n: int, q: float) -> bool:
    """True when *n* samples put at least MIN_TAIL_SAMPLES beyond p*q*."""
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed-or-refused jobs over attempted jobs."""
    if attempted < 1:
        raise ValueError("no job was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def driver_seconds(run_s: float, node_walls) -> float:
    """Host time of a process run outside its slowest node: spawn, arm,
    collect and result assembly."""
    return run_s - max(node_walls)


def speedup_vs_seq(seq_times, process_times) -> float:
    """Median sequential job over median process job (> 1: the process
    backend wins)."""
    return statistics.median(seq_times) / statistics.median(process_times)


def trace_overhead(traced_times, untraced_times) -> float:
    """Traced over untraced median job time, minus one."""
    return statistics.median(traced_times) / statistics.median(untraced_times) - 1.0


def interval_cover(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any descendant it has
    waited for (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def children_cpu_s() -> float:
    """User + system CPU of every descendant waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def self_cpu_s() -> float:
    """User + system CPU of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
