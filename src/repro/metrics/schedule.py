"""Intra-server worker scheduling model.

The paper parallelises tile processing across a server's ``T`` OpenMP
workers (§III-C.3).  Charging compute as ``total_edges / (rate · T)``
assumes perfect divisibility, but tiles are indivisible units: a server
whose superstep is one huge tile finishes no faster with 24 workers than
with one.  The engines therefore model each server's compute time as the
**LPT (longest-processing-time) makespan** of its tile durations over
``T`` workers — the classic 4/3-approximation to optimal multiprocessor
scheduling, and a good match for OpenMP dynamic scheduling of
independent chunks.
"""

from __future__ import annotations

import heapq

import numpy as np


def lpt_makespan(durations, workers: int) -> float:
    """Makespan of LPT list scheduling on ``workers`` identical machines.

    ``durations`` are arbitrary non-negative job sizes (e.g. per-tile
    edge counts); the result has the same unit.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    jobs = np.asarray(durations, dtype=np.float64)
    if jobs.size == 0:
        return 0.0
    if np.any(jobs < 0):
        raise ValueError("durations must be non-negative")
    if workers == 1 or jobs.size <= 1:
        return float(jobs.sum()) if workers == 1 else float(jobs.max())
    # The ``workers`` largest jobs each start on an idle machine (0.0 +
    # job is job): only the jobs after them go through the heap.
    order = np.sort(jobs)[::-1].tolist()
    loads = order[:workers]
    heapq.heapify(loads)
    for job in order[workers:]:
        heapq.heapreplace(loads, loads[0] + job)
    return max(loads)


def effective_parallel_volume(durations, workers: int) -> float:
    """Volume that, divided by ``workers``, equals the LPT makespan.

    Engines meter compute as a volume and the cost model divides by the
    worker count; scaling the true volume up by the scheduling
    inefficiency (``makespan · workers / total``) lets the same formula
    account for indivisible-tile stragglers.
    """
    jobs = np.asarray(durations, dtype=np.float64)
    total = float(jobs.sum())
    if total == 0.0:
        return 0.0
    return lpt_makespan(jobs, workers) * workers
