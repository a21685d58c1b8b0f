"""``repro.service`` — a persistent engine serving concurrent jobs.

The GraphD-style deployment of the reproduction: instead of one-shot
facade calls that rebuild the cluster per run, a long-lived
:class:`Engine` registers each graph once — cluster build, SPE
preprocessing, MPE setup, and a warm decoded-tile cache — then serves
a stream of :class:`JobSpec` requests through a
bounded, priority-classed, tenant-fair queue.

Invariant: with the default ``cache_policy="cold"``, every job's
values, Counters, CacheStats, and modeled costs are bitwise identical
to a cold one-shot :class:`repro.core.GraphH` run with the same knobs
(see :func:`reset_simulation`); the warmth — decoded-tile cache,
setup state — is host-side only.

Front ends: :class:`ServiceClient` in-process, or the socket/JSON
:class:`ServiceServer` behind ``repro serve`` / ``repro submit`` /
``repro jobs``.
"""

from repro.service.engine import Engine, GraphContext, reset_simulation
from repro.service.jobs import (
    ALGORITHMS,
    JobRecord,
    JobResult,
    JobSpec,
    JobStatus,
    build_program,
)
from repro.service.scheduler import AdmissionError, JobQueue
from repro.service.client import (
    ServiceClient,
    ServiceServer,
    SocketServiceClient,
)

__all__ = [
    "Engine",
    "GraphContext",
    "reset_simulation",
    "JobSpec",
    "JobResult",
    "JobRecord",
    "JobStatus",
    "ALGORITHMS",
    "build_program",
    "JobQueue",
    "AdmissionError",
    "ServiceClient",
    "ServiceServer",
    "SocketServiceClient",
]
