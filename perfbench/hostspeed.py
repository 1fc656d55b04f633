"""Host-speed reference for the benchmark's timings.

On a shared host, the same single-threaded Python code can run 1.5x slower
for minutes at a time.  User time slows with it, so the cause is not
descheduling.  A fixed pure-Python loop, timed between measurements, slows
in the same phases.  ``scaled`` divides a timing by the loop's times
around it and quotes the result at ``REF_S``, a typical time of the loop.
Over 4.5 minutes of such phases, the quartile spread of 25-second window
medians of one call fell from 0.23 of the median unscaled to 0.06 scaled.

The loop is part of the benchmark, not of the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_S = 0.05  # about the median reference_time() on a 2-CPU host, Python 3.11


def _reference_work() -> int:
    """Tuples, dict and list updates, integer ops and sorts: the kind of
    interpreter work the protocols do."""
    groups: dict[int, list] = {}
    acc = 0
    items = [(i * 7919 % 100_003, i, (i, i + 1)) for i in range(40_000)]
    for key, i, pair in items:
        groups.setdefault(key % 5000, []).append(pair)
        acc += (key ^ i) & 7
    items.sort()
    return acc + len(sorted(groups.items(), key=lambda kv: len(kv[1])))


def reference_time() -> float:
    """Median of three timings of the loop, so one stall does not count."""
    times = []
    for _ in range(3):
        gc.collect()
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def between_references(step, more) -> tuple[list, list[float]]:
    """Call ``step(i)`` while ``more(i)`` is true, timing the reference loop
    before the first step and after every step.  Returns the step results
    and the reference times, one more than the results."""
    reference_time()  # the first run pays for fresh memory; not kept
    refs = [reference_time()]
    results: list = []
    while more(len(results)):
        results.append(step(len(results)))
        refs.append(reference_time())
    return results, refs


def scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """Each timing quoted at ``REF_S``: divided by the median of the four
    reference times around it (one before, the two adjacent, one after)."""
    return [
        s * REF_S / statistics.median(refs[max(0, i - 1):i + 3])
        for i, s in enumerate(seconds)
    ]
