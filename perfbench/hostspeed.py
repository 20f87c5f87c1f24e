"""Host-speed probe: a fixed pure-Python reference, timed between jobs.

The reference host is a 2-vCPU VM shared with other tenants, and its
speed drifts: the same CPU-bound loop runs 20-40% slower for minutes at
a time.  Host time measured there moves with the neighbours, not with
the program.  So each workload times this reference between its jobs
(never inside a job or a timed window), and the host times are
scaled by ``REFERENCE_S / mean(reference times)``: host seconds at
the speed the reference host has when the reference takes
``REFERENCE_S``.  The mean, not the median: the host flips between a
fast and a slow state (about 9 and 16 ms for the reference), so the
median jumps with the share of slow samples while the mean follows
it, as the jobs' own times do.  The reference uses nothing from the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Iterations of the reference work.
REFERENCE_N = 12_000
#: Time of the reference work on the reference host (2-vCPU VM,
#: Python 3.11.7) in its fast state; the scale of the reported seconds.
REFERENCE_S = 0.010


def reference_work(n: int = REFERENCE_N) -> float:
    """Time *n* steps of dict updates, heap pushes and pops and tuple
    building, the operations the simulators spend their time in."""
    t0 = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    for i in range(n):
        key = i * 7919 % 1021
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def speed_factor(samples, reference_s: float = REFERENCE_S) -> float:
    """Scale from measured host seconds to reference-speed seconds:
    above 1 when the host ran fast, below 1 when it ran slow."""
    if not samples:
        raise ValueError("no reference samples")
    return reference_s / statistics.mean(samples)


def at_reference(seconds: float, samples, reference_s: float = REFERENCE_S) -> float:
    """*seconds* measured between reference *samples*, at reference
    speed.  Set-ups are short and sit at the edges of a run, so each is
    scaled by the reference timed just before and after it, not by the
    run's mean."""
    return seconds * speed_factor(samples, reference_s)


class HostSpeed:
    """Reference samples taken over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the reference once; returns its duration."""
        took = reference_work()
        self.samples.append(took)
        return took

    def factor(self) -> float:
        return speed_factor(self.samples)
