"""The persistent service engine: load a graph once, serve many jobs.

GraphH's edge cache exists to amortise tile-load cost across
supersteps (§IV-B); this engine amortises the whole cold start across
*jobs*.  Registering a graph builds a :class:`repro.core.ClusterBuild`
(cluster + SPE preprocessing), runs the engine's setup once (tile
placement, source summaries, caches), and — on
platforms with POSIX shared memory — relocates every tile blob into a
long-lived :class:`repro.runtime.shm.SharedBlobArena` fronting each
server's disk.  Every subsequent job reuses all of it: no cluster
construction, no SPE pass, no tile re-fetch, no re-parse (the decoded
tile cache stays warm), no per-run arena copy for the process executor.

Warm-vs-cold identity
---------------------
The core invariant: a job on a warm engine produces **bitwise-identical
values, Counters, CacheStats, and modeled costs** to a cold one-shot
facade run with the same knobs, at every executor.  Two mechanisms
make that hold:

* :func:`reset_simulation` — run before every job — restarts the
  *metered story*: fresh ``Counters``, zeroed disk meters and channel
  totals, §IV-B edge cache emptied (contents are part of the simulated
  cache economics, so each job starts it cold exactly like a cold
  run), decoded-tile-cache stats zeroed.
* The decoded-tile cache's *contents* are deliberately kept: its hit
  path re-drives the edge-cache/disk metering byte-for-byte
  (``Server.load_tile``), so skipping the CSR re-parse is invisible to
  every counter — warm jobs are faster on the host without diverging
  from the cold metered story.  The per-job decoded hit ratio is the
  observable evidence of cross-job reuse.

``cache_policy="warm"`` opts out of the edge-cache clear (true
"load once, iterate fast" deployment); per-job metering then shows the
cross-job hits and the cold-identity invariant intentionally no longer
applies.

Concurrency: jobs on the same graph serialise on the graph's lock
(observable state never interleaves); jobs on different graphs run
concurrently unless a tracer is attached, in which case all execution
serialises (the MPE's begin/end span buffers are single-writer).
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from collections import deque

import numpy as np

from repro.cluster.counters import Counters
from repro.core.checkpoint import (
    clear_checkpoints,
    pack_snapshot,
    unpack_snapshot,
)
from repro.core.facade import ClusterBuild
from repro.core.mpe import MPEConfig
from repro.service.jobs import (
    ALGORITHMS,
    JobRecord,
    JobResult,
    JobSpec,
    JobStatus,
)
from repro.service.scheduler import AdmissionError, JobQueue

__all__ = ["Engine", "GraphContext", "reset_simulation"]

QUEUE_SCHEMA = "repro-service-queue/v1"
# Finished results whose value arrays stay in memory once the state dir
# holds them; Engine.load_result reads an older one back.  Without the
# bound a long-lived daemon's memory is every result it ever computed.
RESULTS_IN_MEMORY = 16


def reset_simulation(cluster, channel=None, cache_policy: str = "cold") -> None:
    """Restart the metered story so the next run starts like a cold one.

    Fresh per-server :class:`Counters`, zeroed disk meters, zeroed
    channel totals, edge cache emptied + stats zeroed (``"cold"``
    policy) or kept + stats zeroed (``"warm"``), decoded-tile-cache
    stats zeroed with contents kept (the metering-neutral warmth).
    """
    for server in cluster.servers:
        server.counters = Counters()
        server.disk.reset_counters()
        if server.cache is not None:
            if cache_policy == "cold":
                server.cache.clear()
            server.cache.reset_stats()
        if server.decoded_cache is not None:
            server.decoded_cache.reset_stats()
    if channel is not None:
        channel.reset_meters()


class GraphContext:
    """Everything the engine keeps warm for one registered graph."""

    def __init__(self, name: str, build: ClusterBuild, mpe, base_config):
        self.name = name
        self.build = build
        self.mpe = mpe
        self.base_config = base_config
        self.lock = threading.Lock()
        self.arena = None
        self._unfront = None
        self.jobs_run = 0

    @property
    def cluster(self):
        return self.build.cluster

    def install_arena(self) -> bool:
        """Front every server disk with a shared warm-tile arena.

        The per-run process pool detects the ArenaDisk fronting and
        inherits it instead of building (and tearing down) its own
        arena copy.  Reads stay byte-identically metered for every
        executor.  Returns False when the platform lacks POSIX shm.
        """
        from repro.runtime import process_runtime_available
        from repro.runtime.shm import front_disks

        if process_runtime_available() and self.arena is None:
            self.arena, self._unfront = front_disks(
                self.cluster.servers, self.mpe._assignments
            )
        return self.arena is not None

    def release(self) -> None:
        """Restore disks, release the arena, tear the cluster down."""
        if self.arena is not None:
            self._unfront()
            self.arena = None
        self.build.close()


class Engine:
    """A long-lived graph-analytics engine serving a job stream.

    Parameters
    ----------
    num_servers:
        Default simulated cluster width for registered graphs.
    config:
        Base :class:`MPEConfig` for registrations (jobs overlay their
        run-scoped knobs on top of it).
    state_dir:
        Directory for persisted state: the queue file (written on
        graceful shutdown, reloaded on construction), the job index,
        and per-job result blobs in checkpoint wire format.
    capacity / tenant_quota:
        Admission control for the job queue.
    job_workers:
        Background worker threads executing queued jobs after
        :meth:`start`.  ``0`` (the default) means jobs run only via
        explicit :meth:`run_next` calls — the deterministic mode tests
        and benchmarks use.
    tracer:
        A :class:`repro.obs.trace.Tracer`; enables per-job spans and
        serialises job execution globally (the MPE's span buffers are
        single-writer).
    cache_policy:
        ``"cold"`` (default) pins the warm-vs-cold identity invariant;
        ``"warm"`` keeps the §IV-B edge cache populated across jobs.
    share_tiles:
        Front registered graphs' disks with a shared warm-tile arena
        (default: wherever the process runtime is available).
    """

    def __init__(
        self,
        num_servers: int = 4,
        config: MPEConfig | None = None,
        state_dir: str | None = None,
        capacity: int = 64,
        tenant_quota: int | None = None,
        job_workers: int = 0,
        tracer=None,
        cache_policy: str = "cold",
        share_tiles: bool | None = None,
    ) -> None:
        if cache_policy not in ("cold", "warm"):
            raise ValueError("cache_policy must be 'cold' or 'warm'")
        self.num_servers = int(num_servers)
        self.base_config = config or MPEConfig()
        self.state_dir = state_dir
        self.tracer = tracer
        self.cache_policy = cache_policy
        if share_tiles is None:
            from repro.runtime import process_runtime_available

            share_tiles = process_runtime_available()
        self.share_tiles = bool(share_tiles)
        self.queue = JobQueue(capacity=capacity, tenant_quota=tenant_quota)
        self._graphs: dict[str, GraphContext] = {}
        self._records: dict[str, JobRecord] = {}
        self._order: list[str] = []  # job ids in submission order
        self._persisted: deque[JobResult] = deque()  # values still in memory
        self._seq = 0
        self._lock = threading.Lock()  # records / registry / seq
        self._done = threading.Condition(self._lock)
        self._exec_lock = threading.Lock()  # global, used when tracing
        self._workers: list[threading.Thread] = []
        self._stop = threading.Event()
        self._shut_down = False

        if tracer is not None:
            self.metrics = tracer.metrics
        else:
            from repro.obs.metrics import MetricsRegistry

            self.metrics = MetricsRegistry()
        from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS

        self._g_depth = self.metrics.gauge(
            "repro_service_queue_depth", "jobs waiting in the queue"
        ).labels()
        self._g_active = self.metrics.gauge(
            "repro_service_active_jobs", "jobs currently executing"
        ).labels()
        self._c_jobs = self.metrics.counter(
            "repro_service_jobs_total",
            "terminal job outcomes",
            labelnames=("status",),
        )
        self._h_wait = self.metrics.histogram(
            "repro_service_job_wait_seconds",
            "queue wait time per executed job",
            buckets=DEFAULT_SECONDS_BUCKETS,
        ).labels()
        self._h_run = self.metrics.histogram(
            "repro_service_job_run_seconds",
            "execution time per job",
            buckets=DEFAULT_SECONDS_BUCKETS,
        ).labels()

        if state_dir:
            os.makedirs(os.path.join(state_dir, "results"), exist_ok=True)
            self._restore_state()

    # -- graph registry ------------------------------------------------
    def register_graph(
        self,
        graph,
        name: str | None = None,
        num_servers: int | None = None,
        avg_tile_edges: int | None = None,
        config: MPEConfig | None = None,
        symmetrize: bool = False,
    ) -> str:
        """Load a graph once; every job against it reuses the result.

        ``symmetrize=True`` registers the undirected expansion instead
        (required for WCC's label propagation).  Returns the registered
        name.
        """
        if symmetrize:
            graph = graph.to_undirected_edges()
        name = name or graph.name
        with self._lock:
            if name in self._graphs:
                raise ValueError(f"graph {name!r} already registered")
        build = ClusterBuild(num_servers=num_servers or self.num_servers)
        base = config or self.base_config
        # Registrations always carry evolving-graph support: with no
        # pending mutations the delta machinery is a bitwise no-op
        # (values, counters, modeled costs), and it lets jobs flip
        # ``incremental`` and clients call :meth:`mutate` without a
        # re-registration.
        if not base.mutations:
            base = dataclasses.replace(base, mutations=True)
        manifest = build.load(graph, avg_tile_edges=avg_tile_edges, name=name)
        mpe = build.mpe(name, config=base, tracer=self.tracer)
        mpe.setup()  # the once-per-graph cold start
        ctx = GraphContext(name, build, mpe, base)
        # Replay this graph's persisted mutation log (service restart)
        # before the arena freezes tile bytes: overlays/merges from
        # earlier sessions must be visible to every job.  Fixed-point
        # memory does not survive a restart — the first incremental job
        # after one fails with a reason until a scratch run completes.
        self._replay_mutlog(ctx)
        if self.share_tiles:
            ctx.install_arena()
        with self._lock:
            self._graphs[name] = ctx
        if self.tracer is not None:
            self.tracer.service().instant(
                "graph_register",
                "service",
                graph=name,
                num_tiles=manifest.num_tiles,
                shared_arena=ctx.arena is not None,
            )
        return name

    def evict_graph(self, name: str) -> None:
        """Release a registered graph's warm state (segments included)."""
        with self._lock:
            ctx = self._graphs.pop(name, None)
        if ctx is None:
            raise KeyError(f"graph {name!r} not registered")
        with ctx.lock:
            ctx.release()
        if self.tracer is not None:
            self.tracer.service().instant("graph_evict", "service", graph=name)

    def graphs(self) -> list[str]:
        with self._lock:
            return sorted(self._graphs)

    # -- evolving graphs (repro.delta) ---------------------------------
    def mutate(self, graph: str, ops) -> dict:
        """Apply a batch of edge mutations to a registered graph.

        ``ops`` is a list of ``{"op": "insert"|"delete", "src", "dst"
        [, "weight"]}`` dicts.  The batch lands in per-tile delta
        overlays on the warm engine (base tile blobs stay immutable,
        shared arena included); every job submitted afterwards sees the
        mutated graph, and ``incremental=True`` jobs repair from the
        previous fixed point.  Serialises against jobs on the same
        graph via the context lock.  The full mutation log persists to
        the state dir and is replayed on restart, so mutations survive
        a service bounce.  Returns the compaction report.
        """
        with self._lock:
            ctx = self._graphs.get(graph)
        if ctx is None:
            raise KeyError(f"graph {graph!r} not registered")
        outer = self._exec_lock if self.tracer is not None else _NULL_LOCK
        with outer, ctx.lock:
            report = ctx.mpe.apply_mutations(ops)
            self._persist_mutlog(ctx)
        if self.tracer is not None:
            self.tracer.service().instant(
                "graph_mutate",
                "service",
                graph=graph,
                applied=report["applied"],
                inserts=report["inserts"],
                deletes=report["deletes"],
                affected_tiles=report["affected_tiles"],
                merged=len(report["merged"]),
            )
        return report

    def _persist_mutlog(self, ctx: GraphContext) -> None:
        if not self.state_dir or ctx.mpe.mutation_log is None:
            return
        ctx.mpe.mutation_log.save(
            os.path.join(self.state_dir, f"mutlog-{ctx.name}.json")
        )

    def _replay_mutlog(self, ctx: GraphContext) -> None:
        """Re-apply a persisted mutation log after a restart.

        The fresh engine's delta watermark is 0, so the whole log
        replays; compaction is deterministic, so overlays and merges
        land exactly as the pre-restart session left them.
        """
        if not self.state_dir:
            return
        path = os.path.join(self.state_dir, f"mutlog-{ctx.name}.json")
        if not os.path.exists(path):
            return
        from repro.delta.mutlog import MutationLog

        ctx.mpe.apply_mutations(log=MutationLog.load(path))

    # -- submission ----------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit a job (or record its rejection — never raises for
        admission problems; the record's status/reason says what
        happened)."""
        with self._lock:
            self._seq += 1
            job_id = f"job-{self._seq:08d}"
            record = JobRecord(job_id=job_id, spec=spec)
            self._records[job_id] = record
            self._order.append(job_id)
        reason = self._validate(spec)
        if reason is None:
            try:
                self.queue.push(record)
            except AdmissionError as exc:
                reason = exc.reason
        if reason is not None:
            with self._lock:
                record.status = JobStatus.REJECTED
                record.reason = reason
                record.finished_unix = time.time()
                self._done.notify_all()
            self._c_jobs.labels(status=JobStatus.REJECTED).inc()
            if self.tracer is not None:
                self.tracer.service().instant(
                    "job_reject",
                    "service",
                    job=job_id,
                    graph=spec.graph,
                    reason=reason,
                )
        else:
            self._g_depth.set(self.queue.depth())
            if self.tracer is not None:
                self.tracer.service().instant(
                    "job_submit",
                    "service",
                    job=job_id,
                    graph=spec.graph,
                    algorithm=spec.algorithm,
                    tenant=spec.tenant,
                    priority=spec.priority,
                )
        self._persist_jobs_index()
        return record

    def _validate(self, spec: JobSpec) -> str | None:
        if self._shut_down:
            return "engine is shutting down"
        if spec.algorithm not in ALGORITHMS:
            return (
                f"unknown algorithm {spec.algorithm!r} "
                f"(supported: {', '.join(sorted(ALGORITHMS))})"
            )
        with self._lock:
            ctx = self._graphs.get(spec.graph)
        if ctx is None:
            return f"graph {spec.graph!r} not registered"
        _factory, needs_sym = ALGORITHMS[spec.algorithm]
        if needs_sym and not spec.graph.endswith("-sym"):
            return (
                f"algorithm {spec.algorithm!r} needs an undirected dataset; "
                f"register the graph with symmetrize=True"
            )
        # Input from outside the program: checked against the knob rows
        # here, never coerced, so a bad job is refused at the door
        # instead of holding a worker slot until it fails in the run.
        try:
            spec.overlay(ctx.base_config)
        except (ValueError, TypeError) as exc:
            return f"bad knob: {exc}"
        try:
            spec.build_program()
        except (ValueError, TypeError) as exc:
            return f"bad parameters: {exc}"
        return None

    # -- lifecycle -----------------------------------------------------
    def jobs(self) -> list[JobRecord]:
        """All records in submission order."""
        with self._lock:
            return [self._records[j] for j in self._order]

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            try:
                return self._records[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def wait(self, job_id: str, timeout: float | None = None) -> JobRecord:
        """Block until a job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._done:
            record = self._records.get(job_id)
            if record is None:
                raise KeyError(f"unknown job {job_id!r}")
            while not record.done:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._done.wait(timeout=remaining)
            return record

    # -- execution -----------------------------------------------------
    def run_next(self, timeout: float | None = 0.0) -> JobRecord | None:
        """Pop and execute one queued job synchronously (``None`` when
        nothing is queued within ``timeout``)."""
        record = self.queue.pop(timeout=timeout)
        if record is None:
            return None
        self._g_depth.set(self.queue.depth())
        self._execute(record)
        return record

    def start(self, job_workers: int | None = None) -> None:
        """Spawn background worker threads draining the queue."""
        count = 1 if job_workers is None else int(job_workers)
        for i in range(count):
            t = threading.Thread(
                target=self._worker_loop, name=f"svc-worker-{i}", daemon=True
            )
            t.start()
            self._workers.append(t)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            record = self.queue.pop(timeout=0.2)
            if record is None:
                continue
            self._g_depth.set(self.queue.depth())
            self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        spec = record.spec
        with self._lock:
            ctx = self._graphs.get(spec.graph)
        if ctx is None:
            self._finish(
                record,
                JobStatus.FAILED,
                reason=f"graph {spec.graph!r} not registered",
            )
            return
        now = time.time()
        with self._lock:
            record.status = JobStatus.RUNNING
            record.started_unix = now
            record.wait_s = max(0.0, now - record.submitted_unix)
        self._g_active.inc()
        # Tracing serialises globally: the MPE's begin/end buffers are
        # single-writer.  Untraced engines only serialise per graph.
        outer = self._exec_lock if self.tracer is not None else _NULL_LOCK
        start = time.perf_counter()  # the trace clock (obs uses perf_counter)
        try:
            with outer, ctx.lock:
                result = self._run_on_ctx(ctx, record)
        except Exception as exc:  # a failed job must not kill the worker
            record.run_s = time.perf_counter() - start
            self._finish(
                record,
                JobStatus.FAILED,
                reason=f"{type(exc).__name__}: {exc}",
            )
            return
        finally:
            self._g_active.inc(-1.0)
        end = time.perf_counter()
        record.run_s = end - start
        record.result = result
        self._persist_result(record)
        self._finish(record, JobStatus.DONE)
        self._h_wait.observe(record.wait_s)
        self._h_run.observe(record.run_s)
        if self.tracer is not None:
            self.tracer.service().complete(
                "job",
                "service",
                start,
                end,
                job=record.job_id,
                graph=spec.graph,
                algorithm=spec.algorithm,
                tenant=spec.tenant,
                priority=spec.priority,
                supersteps=result.num_supersteps,
                converged=result.converged,
            )

    def _run_on_ctx(self, ctx: GraphContext, record: JobRecord) -> JobResult:
        """Execute one job on a warm graph context (caller holds locks)."""
        spec = record.spec
        mpe = ctx.mpe
        program = spec.build_program()
        saved_config = mpe.config
        mpe.config = spec.overlay(ctx.base_config)
        try:
            # Stale snapshots from an earlier job with the same
            # (dataset, program) must not leak into this job's retries.
            if mpe.config.checkpoint_every is not None or spec.fault_events:
                clear_checkpoints(
                    ctx.cluster.dfs, mpe.manifest.name, program.name
                )
            reset_simulation(
                ctx.cluster, mpe.channel, cache_policy=self.cache_policy
            )
            recovery = None
            if spec.fault_events:
                result, recovery = self._run_supervised(ctx, spec, program)
            else:
                result = mpe.run(program)
        finally:
            mpe.config = saved_config
        ctx.jobs_run += 1
        counters = {
            str(s.server_id): s.counters.snapshot()
            for s in ctx.cluster.servers
        }
        cache_stats = {
            str(s.server_id): dataclasses.asdict(s.cache.stats)
            for s in ctx.cluster.servers
            if s.cache is not None
        }
        trace_rows = result.trace()
        return JobResult(
            job_id=record.job_id,
            values=result.values,
            converged=result.converged,
            num_supersteps=result.num_supersteps,
            executor=result.executor,
            supersteps=trace_rows,
            avg_superstep_modeled_s=result.avg_superstep_modeled_s(),
            modeled_job_s=round(
                sum(
                    (r.get("modeled_s") or {}).get("total", 0.0)
                    for r in trace_rows
                ),
                9,
            ),
            counters=counters,
            cache_stats=cache_stats,
            decoded_cache_hits=result.decoded_cache_hits,
            decoded_cache_misses=result.decoded_cache_misses,
            net_bytes=result.total_net_bytes(),
            disk_read_bytes=result.total_disk_read(),
            recovery=recovery,
            tuning=result.tuning,
            delta=result.delta,
        )

    def _run_supervised(self, ctx: GraphContext, spec: JobSpec, program):
        """Run under fault injection with supervisor-backed retry."""
        from repro.faults import (
            FaultEvent,
            FaultSchedule,
            RecoveryPolicy,
            Supervisor,
        )

        events = []
        for raw in spec.fault_events:
            kwargs = {
                k: v
                for k, v in dict(raw).items()
                if k in {f.name for f in FaultEvent.__dataclass_fields__.values()}
            }
            events.append(FaultEvent(**kwargs))
        supervisor = Supervisor(
            ctx.mpe,
            schedule=FaultSchedule(events),
            policy=RecoveryPolicy(
                max_restarts=spec.max_restarts, backoff_s=0.0
            ),
        )
        try:
            result, report = supervisor.run(program)
        finally:
            supervisor.injector.detach()
        return result, report.to_dict()

    def _finish(self, record: JobRecord, status: str, reason: str = "") -> None:
        with self._lock:
            record.status = status
            record.reason = reason
            record.finished_unix = time.time()
            self._done.notify_all()
        self._c_jobs.labels(status=status).inc()
        self._persist_jobs_index()

    # -- persistence ---------------------------------------------------
    def _persist_result(self, record: JobRecord) -> None:
        if not self.state_dir or record.result is None:
            return
        result = record.result
        blob = pack_snapshot(
            result.num_supersteps,
            result.values
            if result.values is not None
            else np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.int64),
        )
        base = os.path.join(self.state_dir, "results", record.job_id)
        with open(base + ".bin", "wb") as fh:
            fh.write(blob)
        _atomic_json(base + ".json", result.to_dict(include_values=False))
        with self._lock:
            self._persisted.append(result)
            if len(self._persisted) > RESULTS_IN_MEMORY:
                self._persisted.popleft().values = None

    def load_result(self, job_id: str) -> JobResult | None:
        """A job's result — from memory, else from the state dir."""
        with self._lock:
            record = self._records.get(job_id)
        if (
            record is not None
            and record.result is not None
            and record.result.values is not None
        ):
            return record.result
        if not self.state_dir:
            return None
        base = os.path.join(self.state_dir, "results", job_id)
        if not os.path.exists(base + ".json"):
            return None
        with open(base + ".json", "r", encoding="utf-8") as fh:
            result = JobResult.from_dict(json.load(fh))
        with open(base + ".bin", "rb") as fh:
            snapshot = unpack_snapshot(fh.read())
        result.values = snapshot.values
        return result

    def _persist_jobs_index(self) -> None:
        if not self.state_dir:
            return
        with self._lock:
            rows = [self._records[j].to_dict() for j in self._order]
        _atomic_json(
            os.path.join(self.state_dir, "jobs.json"),
            {"schema": QUEUE_SCHEMA, "jobs": rows},
        )

    def _persist_queue(self) -> list[JobRecord]:
        """Drain the queue and write it (+ the id sequence) to disk."""
        queued = self.queue.drain()
        if self.state_dir:
            with self._lock:
                seq = self._seq
            _atomic_json(
                os.path.join(self.state_dir, "queue.json"),
                {
                    "schema": QUEUE_SCHEMA,
                    "next_job_seq": seq,
                    "queued": [r.to_dict() for r in queued],
                },
            )
        return queued

    def _restore_state(self) -> None:
        """Reload the persisted queue and job index after a restart."""
        index_path = os.path.join(self.state_dir, "jobs.json")
        if os.path.exists(index_path):
            with open(index_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            for row in data.get("jobs", []):
                record = JobRecord.from_dict(row)
                self._records[record.job_id] = record
                self._order.append(record.job_id)
        queue_path = os.path.join(self.state_dir, "queue.json")
        if not os.path.exists(queue_path):
            return
        with open(queue_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        self._seq = int(data.get("next_job_seq", 0))
        for row in data.get("queued", []):
            record = self._records.get(row["job_id"]) or JobRecord.from_dict(row)
            record.status = JobStatus.QUEUED
            if record.job_id not in self._records:
                self._records[record.job_id] = record
                self._order.append(record.job_id)
            self.queue.push(record)
        self._g_depth.set(self.queue.depth())
        os.remove(queue_path)  # consumed; a clean shutdown rewrites it

    # -- shutdown ------------------------------------------------------
    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful stop: running jobs finish, queued jobs persist,
        every shared segment is released (leak-registry clean).

        ``drain=False`` skips waiting for workers (still releases all
        shared state).  Idempotent.
        """
        if self._shut_down:
            return
        self._shut_down = True
        self.queue.close()
        self._stop.set()
        if drain:
            deadline = time.monotonic() + timeout
            for t in self._workers:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        self._workers.clear()
        self._persist_queue()
        self._persist_jobs_index()
        with self._lock:
            contexts = list(self._graphs.values())
            self._graphs.clear()
        for ctx in contexts:
            with ctx.lock:
                ctx.release()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class _NullLock:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_LOCK = _NullLock()


def _atomic_json(path: str, payload: dict) -> None:
    # One ``dumps`` call, no ``indent``: indenting forces the
    # pure-Python encoder, and these files are rewritten every job.
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")
    os.replace(tmp, path)
