"""Runtime substrate: how the simulated cluster executes on real hardware.

The cost model decides what a superstep *would* take on the paper's
testbed; this package decides how fast the simulation itself runs on the
host — serial (reference), thread-parallel, or process-parallel with
shared-memory vertex state.  Metering and results are
executor-independent by construction.
"""

from repro.runtime.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    default_num_threads,
    make_executor,
)
from repro.runtime.prefetch import (
    PrefetchedLoad,
    TilePrefetcher,
    speculate_load,
)
from repro.runtime.process import ProcessExecutor, default_num_workers
from repro.runtime.shm import (
    SharedArray,
    outstanding_segments,
    process_runtime_available,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ProcessExecutor",
    "SharedArray",
    "PrefetchedLoad",
    "TilePrefetcher",
    "speculate_load",
    "make_executor",
    "default_num_threads",
    "default_num_workers",
    "outstanding_segments",
    "process_runtime_available",
]
