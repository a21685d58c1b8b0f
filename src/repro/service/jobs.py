"""Job model for the service layer: specs, results, lifecycle states.

A *job* is one vertex-program run against a graph already registered
with a warm :class:`repro.service.engine.Engine` — algorithm name plus
parameters, an optional source vertex, the run-scoped engine knobs
(executor / prefetch / selective / …), and scheduling metadata
(priority class, tenant).  Specs are plain data: they round-trip
through JSON so the socket front end, the persisted queue file, and
the in-process client all speak the same shape.

Job IDs are stable and monotonic (``job-00000001`` …); the engine
persists the sequence counter with its queue so IDs never collide
across a restart.  Results persist in the checkpoint wire format
(:func:`repro.core.checkpoint.pack_snapshot`) next to a JSON metadata
sidecar, so a restarted service can still serve ``result`` requests
for jobs finished before the restart.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.knobs import knob_rows, overlay
from repro.core.mpe import MPEConfig

__all__ = [
    "JobStatus",
    "JobSpec",
    "JobResult",
    "JobRecord",
    "PRIORITIES",
    "RUN_KNOBS",
    "ALGORITHMS",
    "build_program",
]


class JobStatus:
    """Lifecycle states (plain strings so they serialise as-is)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"

    TERMINAL = frozenset({DONE, FAILED, REJECTED})


# Priority classes in pop order: every queued "high" job runs before
# any "normal" job, which runs before any "low" job.
PRIORITIES = ("high", "normal", "low")


def _make_pagerank(params: dict):
    from repro.apps import PageRank

    return PageRank(
        damping=float(params.get("damping", 0.85)),
        tolerance=float(params.get("tolerance", 1e-9)),
    )


def _make_sssp(params: dict):
    from repro.apps import SSSP

    return SSSP(source=int(params.get("source", 0)))


def _make_bfs(params: dict):
    from repro.apps import BFS

    return BFS(source=int(params.get("source", 0)))


def _make_wcc(params: dict):
    from repro.apps import WCC

    return WCC()


def _make_katz(params: dict):
    from repro.apps import KatzCentrality

    return KatzCentrality(
        alpha=float(params.get("alpha", 0.005)),
        beta=float(params.get("beta", 1.0)),
        tolerance=float(params.get("tolerance", 1e-10)),
    )


def _make_ppr(params: dict):
    from repro.apps import PersonalizedPageRank

    return PersonalizedPageRank(
        seeds=[int(s) for s in params.get("seeds", [0])],
        damping=float(params.get("damping", 0.85)),
        tolerance=float(params.get("tolerance", 1e-9)),
    )


def _make_degree(params: dict):
    from repro.apps import InDegreeCentrality

    return InDegreeCentrality()


# algorithm name → (factory, needs symmetrised dataset?)
ALGORITHMS = {
    "pagerank": (_make_pagerank, False),
    "sssp": (_make_sssp, False),
    "bfs": (_make_bfs, False),
    "wcc": (_make_wcc, True),
    "katz": (_make_katz, False),
    "ppr": (_make_ppr, False),
    "degree": (_make_degree, False),
}


def build_program(algorithm: str, params: dict | None = None):
    """Instantiate the vertex program for an algorithm name."""
    try:
        factory, _needs_sym = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r} "
            f"(supported: {', '.join(sorted(ALGORITHMS))})"
        ) from None
    return factory(params or {})


# The run-scoped MPEConfig rows, by field name and alias: exactly the
# knobs a job may carry.
RUN_KNOBS = frozenset(
    key
    for row in knob_rows(MPEConfig)
    if row.scope == "run"
    for key in (row.name, row.key)
)


@dataclass(frozen=True, init=False)
class JobSpec:
    """One job request: the job's own fields plus ``**knobs``.

    Only *run-scoped* engine knobs may ride along (``RUN_KNOBS`` — the
    ``scope="run"`` rows of :class:`MPEConfig`, named by field or
    alias): each can be swapped on a warm engine between jobs without
    invalidating its setup state (tile placement, source summaries,
    caches).  Setup-scoped knobs — replication policy, bloom on/off,
    cache capacity/mode, tile assignment — are fixed when the graph is
    registered; a job that needs different ones needs a different
    registration.  The constructor keeps whatever keys it is given;
    admission (``Engine.submit``) checks them against the rows and
    rejects a job whose knob is unknown, setup-scoped or out of range.

    On the wire and in the persisted queue a spec is one flat dict
    (:meth:`to_dict`): job fields and set knobs side by side.
    """

    graph: str
    algorithm: str
    params: dict
    priority: str
    tenant: str
    # Fault-injection schedule (list of FaultEvent dicts) + retry budget:
    # when present the engine runs the job under a Supervisor.
    fault_events: tuple
    max_restarts: int
    # The knobs this job sets (unset → the registration's base config).
    knobs: dict

    def __init__(
        self,
        graph: str,
        algorithm: str = "pagerank",
        params: dict | None = None,
        priority: str = "normal",
        tenant: str = "default",
        fault_events=(),
        max_restarts: int = 2,
        **knobs,
    ) -> None:
        if priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {priority!r}"
            )
        # Frozen: fill the instance dict directly.
        self.__dict__.update(
            graph=graph,
            algorithm=algorithm,
            params=dict(params or {}),
            priority=priority,
            tenant=tenant,
            fault_events=tuple(dict(e) for e in fault_events),
            max_restarts=max_restarts,
            knobs={k: v for k, v in knobs.items() if v is not None},
        )

    def build_program(self):
        return build_program(self.algorithm, self.params)

    def overlay(self, base: MPEConfig) -> MPEConfig:
        """``base`` under this job's knobs (``TypeError`` / ``ValueError``
        naming the knob that is unknown, setup-scoped or out of range)."""
        return overlay(base, scope="run", **self.knobs)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["fault_events"] = [dict(e) for e in self.fault_events]
        d.update(d.pop("knobs"))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        """A spec back from a persisted queue / job index.

        Keys that are neither a job field nor a run-scoped knob are
        ignored: a newer daemon's file must not brick an older one.
        (A *submitted* spec is built with ``JobSpec(**spec)``, which
        keeps every key so admission can reject the stray one.)
        """
        known = RUN_KNOBS | {f.name for f in dataclasses.fields(cls)} - {"knobs"}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass
class JobResult:
    """What a finished job produced (values + the full metered story)."""

    job_id: str
    values: np.ndarray | None = None
    converged: bool = False
    num_supersteps: int = 0
    executor: str = ""
    # Modeled costs: the per-superstep trace rows plus the paper metric.
    supersteps: list = field(default_factory=list)
    avg_superstep_modeled_s: float = 0.0
    modeled_job_s: float = 0.0
    # Metered story, per server id.
    counters: dict = field(default_factory=dict)
    cache_stats: dict = field(default_factory=dict)
    decoded_cache_hits: int = 0
    decoded_cache_misses: int = 0
    net_bytes: int = 0
    disk_read_bytes: int = 0
    # Supervised-recovery summary when the job ran under fault injection.
    recovery: dict | None = None
    # Autotuner summary (fitted constants, residuals, decision trace)
    # when the job ran tuned; None otherwise.
    tuning: dict | None = None
    # Evolving-graph summary (repro.delta): incremental-plan stats plus
    # the overlay-store state; None on non-evolving registrations.
    delta: dict | None = None

    def to_dict(self, include_values: bool = True) -> dict:
        d = {
            "job_id": self.job_id,
            "converged": self.converged,
            "num_supersteps": self.num_supersteps,
            "executor": self.executor,
            "supersteps": self.supersteps,
            "avg_superstep_modeled_s": self.avg_superstep_modeled_s,
            "modeled_job_s": self.modeled_job_s,
            "counters": self.counters,
            "cache_stats": self.cache_stats,
            "decoded_cache_hits": self.decoded_cache_hits,
            "decoded_cache_misses": self.decoded_cache_misses,
            "net_bytes": self.net_bytes,
            "disk_read_bytes": self.disk_read_bytes,
            "recovery": self.recovery,
            "tuning": self.tuning,
            "delta": self.delta,
        }
        if include_values and self.values is not None:
            d["values"] = [float(v) for v in self.values]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "JobResult":
        values = d.get("values")
        return cls(
            job_id=d["job_id"],
            values=np.asarray(values, dtype=np.float64)
            if values is not None
            else None,
            converged=bool(d.get("converged", False)),
            num_supersteps=int(d.get("num_supersteps", 0)),
            executor=d.get("executor", ""),
            supersteps=d.get("supersteps", []),
            avg_superstep_modeled_s=float(d.get("avg_superstep_modeled_s", 0.0)),
            modeled_job_s=float(d.get("modeled_job_s", 0.0)),
            counters=d.get("counters", {}),
            cache_stats=d.get("cache_stats", {}),
            decoded_cache_hits=int(d.get("decoded_cache_hits", 0)),
            decoded_cache_misses=int(d.get("decoded_cache_misses", 0)),
            net_bytes=int(d.get("net_bytes", 0)),
            disk_read_bytes=int(d.get("disk_read_bytes", 0)),
            recovery=d.get("recovery"),
            tuning=d.get("tuning"),
            delta=d.get("delta"),
        )


@dataclass
class JobRecord:
    """A job's full lifecycle as the engine tracks it."""

    job_id: str
    spec: JobSpec
    status: str = JobStatus.QUEUED
    reason: str = ""  # rejection reason / failure message
    submitted_unix: float = field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    wait_s: float = 0.0
    run_s: float = 0.0
    result: JobResult | None = None

    @property
    def done(self) -> bool:
        return self.status in JobStatus.TERMINAL

    def to_dict(self, include_result: bool = False) -> dict:
        d = {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "reason": self.reason,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "wait_s": self.wait_s,
            "run_s": self.run_s,
        }
        if include_result and self.result is not None:
            d["result"] = self.result.to_dict(include_values=False)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "JobRecord":
        return cls(
            job_id=d["job_id"],
            spec=JobSpec.from_dict(d["spec"]),
            status=d.get("status", JobStatus.QUEUED),
            reason=d.get("reason", ""),
            submitted_unix=float(d.get("submitted_unix", 0.0)),
            started_unix=d.get("started_unix"),
            finished_unix=d.get("finished_unix"),
            wait_s=float(d.get("wait_s", 0.0)),
            run_s=float(d.get("run_s", 0.0)),
        )
