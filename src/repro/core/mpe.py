"""MPE: the MPI-based graph processing engine running GAB (§III-C, Alg. 5).

Execution model
---------------
* Stage-two partitioning: tile ``i`` goes to server ``i mod N``; each
  server fetches its tiles from DFS onto local disk once, at setup.
* All-in-All replication: every server holds the full ``float64[|V|]``
  value array, a ``float64[|V|]`` incoming-update buffer, and (when the
  program needs it) the ``int32[|V|]`` out-degree array — 20 bytes per
  vertex, §IV-A's accounting.
* Superstep (Algorithm 5): every server streams its tiles through
  memory one at a time — skipping tiles whose bloom filter proves no
  source vertex updated last superstep — runs the vectorised
  gather/apply over each tile's target range, buffers changed values,
  then broadcasts them with the hybrid dense/sparse codec-compressed
  message.  A BSP barrier applies all updates to every replica.
* The edge cache (§IV-B) sits between tile loads and the local disk;
  its mode is auto-selected from the capacity constraint unless forced.

The tile is the unit of I/O, caching and skipping; a stretch of tiles a
server holds in both caches is metered in one step (``Server.load_held``),
any other tile through the one metered load, in sweep order.  A sweep
meters its whole schedule first, then computes.  The unit of *compute*
is a run — a stretch of a server's scheduled tiles that are consecutive
in its assignment, all of them in its slab after the walk
(:class:`repro.partition.tiles.TileSlab`); one vectorised kernel
(:func:`_sweep_run`: for an additive program that reads no edge weight,
one CSR mat-vec of the run's edges against the message slot,
:func:`repro.utils.segments.gather_sum`; for a min/max one, the slot
gathered and folded a bounded number of edges at a time,
:func:`repro.utils.segments.gather_fold`; otherwise gather by index and
:func:`repro.utils.segments.segment_reduce`; then a vectorised apply)
covers the whole run, so the Python interpreter appears once per run,
not once per tile.  What it gathers is the replica's message slot: a
program that reads no edge weight has its ``edge_message`` evaluated
once per resident vertex at the top of each server's sweep, not once
per edge in every tile.  A program whose apply folds, with a small
frontier, gathers only the frontier's out-edges, over the server's whole
slab at once (:func:`_sweep_sparse`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.apps.base import (
    VertexProgram,
    check_elementwise_in_source,
    check_elementwise_in_target,
    check_fold,
)
from repro.cluster.cluster import Cluster
from repro.cluster.counters import CounterSnapshot
from repro.comm import Channel, UpdatePayload, stage_update
from repro.comm.messages import DENSE, SPARSE
from repro.core.checkpoint import Checkpointer
from repro.core.knobs import knob, knob_row, knob_rows
from repro.core.result import RunResult, SuperstepReport
from repro.core.spe import SPE, TileManifest
from repro.core.vertexstore import AllInAllStore, OnDemandStore
from repro.metrics.cost import CostModel
from repro.metrics.schedule import effective_parallel_volume
from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS, NULL_METRICS
from repro.obs.trace import NULL_BUFFER
from repro.partition.tiles import (
    EdgeIndex,
    Tile,
    TileRun,
    TileSlab,
    assign_tiles_balanced,
    assign_tiles_round_robin,
)
from repro.runtime import make_executor, process_runtime_available
from repro.runtime.active import (
    ActiveBitmap,
    SourceHeads,
    SourceTileIndex,
    TileSourceSummary,
    gathers_sparse,
    pushes,
)
from repro.runtime.shm import InboxResolver, SharedAllocator, StagedInboxes
from repro.storage.backing import BackingStore
from repro.storage.cache import cache_plan
from repro.storage.codecs import CACHE_MODES, CODECS
from repro.tuning.plan import KnobSettings
from repro.tuning.tuner import TunedRun
from repro.utils.bloom import BloomFilter, hash_keys
from repro.utils.segments import (
    gather_fold,
    gather_sum,
    merge_sorted_unique,
    segment_reduce,
    sorted_unique,
)

#: Target false-positive rate of every tile's bloom filter.
BLOOM_FALSE_POSITIVE_RATE = 0.01


@dataclass(frozen=True)
class MPEConfig:
    """Tunables for one MPE instance (defaults = the paper's).

    Each field declaration is the knob's one row (:mod:`repro.core.knobs`):
    the validation below, :func:`~repro.core.knobs.overlay`, the CLI's
    flags, ``JobSpec``'s knob set, service admission, the warm-engine
    rule (:attr:`MPE.config`) and README's reference table all read it.
    """

    # --- set-up scope: fixed when the engine is built -----------------
    cache_capacity_bytes: int | None = knob(
        None, scope="setup", min=0, contract="metered",
        help="edge-cache budget per server, in bytes (None = unlimited: "
        "all idle RAM)",
    )
    cache_mode: int | None = knob(
        None, scope="setup", choices=tuple(range(1, len(CACHE_MODES) + 1)),
        tunable=True, contract="metered",
        help="edge-cache mode 1-4 (None = auto-select from the capacity "
        "constraint, §IV-B)",
    )
    message_codec: str = knob(
        "snappylike", scope="setup", choices=tuple(CODECS), tunable=True,
        contract="metered",
        help="broadcast payload codec (default: Figure 8d's winner)",
    )
    comm_mode: str = knob(
        "hybrid", scope="setup", choices=("hybrid", "dense", "sparse"),
        tunable=True, contract="metered",
        help="broadcast representation; hybrid picks dense or sparse per "
        "message at §IV-C's 0.8 sparsity ratio",
    )
    use_bloom_filters: bool = knob(
        True, scope="setup", tunable=True, contract="metered",
        help="bloom-filter tile skipping, wherever the exact bitmap of "
        "selective scheduling does not decide",
    )
    replication_policy: str = knob(
        "aa", scope="setup", choices=("aa", "od"), contract="metered",
        help="vertex replication: All-in-All (§IV-A) or On-Demand",
    )
    tile_assignment: str = knob(
        "round_robin", scope="setup", choices=("round_robin", "balanced"),
        contract="metered",
        help="stage-two tile placement: round-robin (§III-C.1) or LPT over "
        "tile sizes (better stragglers on skew)",
    )
    # None keeps the engine frozen-graph: no delta store exists and the
    # tile parser is the plain ``Tile.from_bytes``.
    mutations: bool | None = knob(
        None, scope="setup", contract="identical",
        help="evolving graphs (repro.delta): accept mutation batches and "
        "overlay them on the immutable base tiles at load time",
    )

    # --- run scope: a per-run choice (flag, JobSpec key, warm swap) ---
    # Strictly more skips than bloom alone (differing only on bloom
    # false positives); see MPE._resolve_schedule.
    selective_scheduling: bool = knob(
        True, scope="run", alias="selective", contract="metered",
        help="selective scheduling: skip tiles whose source vertices are "
        "all inactive (exact active-vertex bitmap; GraphMP)",
    )
    max_supersteps: int = knob(
        200, scope="run", min=1, contract="values",
        help="superstep cap per run",
    )
    checkpoint_every: int | None = knob(
        None, scope="run", min=1, contract="metered",
        help="snapshot values into DFS every N supersteps (bounds "
        "re-executed work after a fault)",
    )
    # The REPRO_EXECUTOR environment variable (CI's forcing flag)
    # overrides this at run time.
    executor: str = knob(
        "serial", scope="run", choices=("serial", "parallel", "process"),
        contract="identical",
        help="host executor: serial sweep, GIL threads, or the "
        "shared-memory process pool",
    )
    num_threads: int | None = knob(
        None, scope="run", min=1, contract="identical",
        help="thread-pool width for --executor parallel (default: one "
        "per core)",
    )
    num_workers: int | None = knob(
        None, scope="run", min=1, contract="identical",
        help="process-pool width for --executor process (default: one "
        "per core, capped)",
    )
    prefetch_depth: int = knob(
        0, scope="run", min=0, tunable=True, contract="identical",
        help="tile prefetch pipeline depth (0 = off): overlap the next "
        "tile's disk read + decompress + decode with compute",
    )
    io_threads: int = knob(
        1, scope="run", min=1, tunable=True, contract="identical",
        help="background I/O threads per server feeding the pipeline",
    )
    vertex_store: str = knob(
        "mem", scope="run", choices=("mem", "mmap"), contract="identical",
        help="vertex replica backing: in-RAM arrays or file-backed "
        "memmaps (semi-external memory — scales past RAM)",
    )
    # Requires mutations=True and a prior completed run of the same
    # program on this engine (ValueError otherwise).  SSSP/WCC repair is
    # bitwise-equal to from-scratch on the mutated graph; PageRank
    # agrees to its convergence tolerance (DESIGN.md §5i).
    incremental: bool = knob(
        False, scope="run", warm_only=True, contract="values",
        help="restart from the graph's previous fixed point, repairing "
        "only mutation-disturbed vertices (needs a prior completed run "
        "of the same algorithm)",
    )
    tune: bool = knob(
        False, scope="run", contract="metered",
        help="online autotuner: fit the cost model to the first "
        "supersteps, then switch codec/comm/cache/prefetch knobs mid-run "
        "at superstep boundaries (repro.tuning)",
    )

    def __post_init__(self) -> None:
        for row in knob_rows(type(self)):
            row.check(getattr(self, row.name))
        if self.incremental and not self.mutations:
            raise ValueError("incremental=True requires mutations=True")


class MPE:
    """GAB executor over a simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        manifest: TileManifest,
        config: MPEConfig | None = None,
        tracer=None,
    ) -> None:
        self.cluster = cluster
        self.manifest = manifest
        self._config = config or MPEConfig()
        self.channel = Channel(cluster.servers)
        self.cost_model = CostModel(cluster.spec)
        # Optional repro.obs.trace.Tracer.  With None (the default) no
        # buffers exist: _wire_tracer hands every instrumentation site
        # the null buffer / null instrument instead.
        self.tracer = tracer
        # The tuner carrying fitted constants across runs (a warm
        # service engine reuses them job to job; repro.tuning builds it
        # at the first tuned run), an externally installed scripted
        # TuningPlan (tests/ablations — consulted even with tuning off),
        # and the knobs currently in force.  ``_knobs`` is always
        # concrete: an untuned run holds the config's values for the
        # whole run, so every knob read below is tune-agnostic.
        self.tuner = None
        self.tuning_plan = None
        self._knobs = KnobSettings.of(self.config)
        # Per-tile exact source summaries (tile_id -> TileSourceSummary)
        # backing the bitmap prune; built at setup for every tile (a
        # warm engine's next job may switch selective scheduling on)
        # and refreshed by apply_mutations — as is their batched front,
        # the [P, 64] matrix of every tile's first sources.  Their
        # transpose, the vertex -> tile index a small frontier is pushed
        # through, is built by the first push and dropped by retile.
        self._summaries: dict[int, TileSourceSummary] = {}
        self._heads: SourceHeads | None = None
        self._source_index: SourceTileIndex | None = None
        # The evolving graph (repro.delta: overlays, mutation log, fixed
        # points) — built at setup when config.mutations is on, None
        # otherwise.  ``_tile_parser`` is the decode callback every
        # metered tile load funnels through: the plain Tile.from_bytes
        # on frozen graphs, the evolving graph's compose-overlay-on-parse
        # when there is one (same object everywhere in one engine, so
        # prefetch speculation identity checks keep holding).
        self.delta = None
        self._tile_parser = self._TILE_PARSER
        self.spe = SPE(cluster.dfs)
        self._tiles_fetched = False
        # Per-server: list of (tile_id, blob_name, nbytes), and where in
        # it each tile is (tile id -> (server id, index); a merge only
        # renames, so this never changes after setup); the tiles' bloom
        # filters, empty until _ensure_blooms builds them all.
        self._assignments: list[list[tuple[int, str, int]]] = []
        self._tile_home: dict[int, tuple[int, int]] = {}
        self._blooms: dict[int, BloomFilter] = {}
        # The one filter build's record (superstep, tiles, bytes); None
        # while no schedule has routed a decision through a filter.
        self.filters_built: dict | None = None
        # Per-server sorted global ids of the targets its tiles own —
        # the shared static index behind range-dense broadcasts.
        self._server_target_ids: list[np.ndarray] = []
        # Installed by repro.faults.FaultInjector.attach(); None in
        # normal runs.
        self.injector = None
        # --- phase-handler state (see _phase_handler) ------------------
        # The run in progress (its program and per-run tables: set
        # before the pool forks, so handlers read it in any process);
        # each server's own (ids, vals) update, left by its compute
        # phase for its apply phase;
        # whether this process is a forked worker (set post-fork by
        # _process_child_init), in which case handler results carry a
        # ServerMirror for the parent; and the OD apply phase's inbox
        # resolver (its shared-segment attachment, in a worker).
        self._run: _RunPrep | None = None
        self._own_updates: dict[int, tuple] = {}
        self._forked = False
        self._inboxes = InboxResolver()
        # Per server, its forked worker's sweeps this run, (scheduled
        # tiles, gathered sparsely), for _resync_parent_caches.
        self._worker_sweeps: list[list[tuple]] = []

    # ------------------------------------------------------------------
    # Observability wiring (repro.obs)
    # ------------------------------------------------------------------
    def _lane(self, lane: str, *key):
        """The attached tracer's ``lane`` buffer (``"engine"``,
        ``"server"``, ``"prefetch"``, ``"tuning"``, ``"delta"``; created
        on first use) — the null buffer when there is no tracer.  With
        :attr:`_metrics`, the only place tracing on/off is decided."""
        if self.tracer is not None:
            return getattr(self.tracer, lane)(*key)
        return NULL_BUFFER

    @property
    def _metrics(self):
        """The tracer's metrics registry, or the null one."""
        return self.tracer.metrics if self.tracer is not None else NULL_METRICS

    def _wire_tracer(self):
        """Install trace buffers and live instruments; returns the
        engine buffer.

        Called at the top of every :meth:`run`, before :meth:`setup`, so
        caches attached during setup inherit their server's buffer and
        setup's DFS reads land in the engine buffer.  With no tracer
        every hook gets the null buffer / null instrument — a cluster
        previously traced runs clean again.
        """
        # A tuned (or scripted) run may switch the pipeline on mid-run;
        # its buffers must exist before the process pool forks.
        prefetch_on = (
            self.config.prefetch_depth > 0
            or self.config.tune
            or self.tuning_plan is not None
        )
        for server in self.cluster.servers:
            buf = server.trace = self._lane("server", server.server_id)
            # The prefetch pipeline's I/O threads get their own buffer
            # (complete-events only, multi-writer safe) — created only
            # when the pipeline is on, so depth-0 traces are unchanged.
            server.prefetch_trace = (
                self._lane("prefetch", server.server_id)
                if prefetch_on
                else NULL_BUFFER
            )
            if server.cache is not None:
                server.cache.trace = buf
        ebuf = self.cluster.dfs.trace = self._lane("engine")
        metrics = self._metrics
        self.channel.obs_bytes = metrics.histogram(
            "repro_channel_message_bytes",
            "broadcast payload sizes",
        ).labels()
        self._obs_wall = metrics.histogram(
            "repro_superstep_wall_seconds",
            "host wall time per superstep",
            buckets=DEFAULT_SECONDS_BUCKETS,
        ).labels()
        self._obs_prefetch = (
            metrics.gauge(
                "repro_prefetch_occupancy",
                "fraction of tile dequeues served without stalling",
                ("server",),
            )
            if prefetch_on
            else NULL_METRICS
        )
        self._obs_skipped = metrics.counter(
            "repro_tiles_skipped",
            "tiles pruned from the schedule (bitmap or bloom)",
        ).labels()
        self._obs_scheduled = metrics.counter(
            "repro_tiles_scheduled",
            "tiles that survived schedule pruning and were processed",
        ).labels()
        return ebuf

    # ------------------------------------------------------------------
    # Setup: fetch tiles, summarise their sources, size caches
    # ------------------------------------------------------------------
    @property
    def config(self) -> MPEConfig:
        return self._config

    @config.setter
    def config(self, config: MPEConfig) -> None:
        """Swap the config between runs.  Once :meth:`setup` has run
        only run-scoped rows may differ: a set-up-scoped change is
        refused, naming the row, instead of being silently ignored."""
        if self._tiles_fetched:
            for row in knob_rows(MPEConfig):
                if row.scope != "setup" or getattr(config, row.name) == getattr(
                    self._config, row.name
                ):
                    continue
                # ``mutations`` binds when it first turns on — the top
                # of setup(), idempotent — not at the tile fetch.
                if row.name == "mutations" and self.delta is None:
                    continue
                raise ValueError(
                    f"{row.name} is set-up-scoped: this engine was set up "
                    f"with {getattr(self._config, row.name)!r} and cannot "
                    f"switch to {getattr(config, row.name)!r}; build a "
                    "fresh engine"
                )
        self._config = config

    def setup(self) -> None:
        """Stage-two assignment + local fetch (idempotent)."""
        if self.config.mutations and self.delta is None:
            # Evolving-graph plumbing exists from the first setup on.
            # Imported here: repro.delta reaches back into repro.core
            # (checkpoints), and a frozen-graph engine never needs it.
            from repro.delta.attach import EvolvingGraph

            self.delta = EvolvingGraph(self)
            self._tile_parser = self.delta.parse
        if self._tiles_fetched:
            return
        n = self.cluster.num_servers
        self._assignments = [[] for _ in range(n)]
        self._server_sources: list[list[np.ndarray]] = [[] for _ in range(n)]
        per_server_bytes = [0] * n
        shapes: list[list[tuple]] = [[] for _ in range(n)]
        # Stage-two placement: the paper's round-robin, or LPT over the
        # serialised tile sizes (known to the namenode without reads).
        if self.config.tile_assignment == "balanced":
            sizes = [
                self.cluster.dfs.size(self.manifest.tile_path(t))
                for t in range(self.manifest.num_tiles)
            ]
            placement = assign_tiles_balanced(sizes, n)
        else:
            placement = assign_tiles_round_robin(self.manifest.num_tiles, n)
        tile_owner = {
            tile_id: server_id
            for server_id, tiles in enumerate(placement)
            for tile_id in tiles
        }
        for tile_id in range(self.manifest.num_tiles):
            server_id = tile_owner[tile_id]
            server = self.cluster.servers[server_id]
            blob = self.cluster.dfs.read(
                self.manifest.tile_path(tile_id), prefer_datanode=server_id
            )
            name = f"tile-{tile_id}"
            server.store_blob(name, blob)
            self._tile_home[tile_id] = (server_id, len(self._assignments[server_id]))
            self._assignments[server_id].append((tile_id, name, len(blob)))
            per_server_bytes[server_id] += len(blob)
            tile = self._tile_parser(blob)
            self._summaries[tile_id] = TileSourceSummary.from_tile(tile)
            shapes[server_id].append(TileSlab.shape_of(tile))
            if self.config.replication_policy == "od":
                self._server_sources[server_id].append(tile.source_vertices)
        self._heads = SourceHeads(self._summaries)
        # Targets owned per server: the concatenation of its tiles'
        # (ascending) target ranges.  Known statically on every server,
        # so broadcasts address vertices by *local* index (§IV-C's dense
        # array covers only the sender's updated-value buffer, keeping
        # traffic O(N|V|) cluster-wide, Table III).
        splitter = self.manifest.splitter
        self._server_target_ids = []
        for server_id in range(n):
            ranges = [
                np.arange(splitter[tid], splitter[tid + 1], dtype=np.int64)
                for tid, _, _ in self._assignments[server_id]
            ]
            self._server_target_ids.append(
                np.concatenate(ranges) if ranges else np.zeros(0, dtype=np.int64)
            )
        self._check_static_layout()
        # Edge cache per server (§IV-B): capacity = configured budget,
        # mode auto-selected from the server's own tile volume.
        for server_id, server in enumerate(self.cluster.servers):
            capacity, mode = cache_plan(
                per_server_bytes[server_id],
                self.config.cache_capacity_bytes,
                mode=self.config.cache_mode,
            )
            server.attach_cache(capacity_bytes=capacity, mode=mode)
            # The decoded tiles' shadows live in one slab (resident runs
            # are swept as one).
            names = [name for _t, name, _n in self._assignments[server_id]]
            targets = self._server_target_ids[server_id]
            server.attach_decoded_cache(TileSlab(names, shapes[server_id], targets))
        self._tiles_fetched = True

    def _check_static_layout(self) -> None:
        """The two facts about stage-two placement the superstep relies
        on, checked once instead of re-tested (and worked around) every
        superstep; both hold for ``round_robin`` and ``balanced``.

        * Each server's tile ids are strictly ascending, so its per-tile
          changed-id parts — ascending disjoint target ranges — arrive
          already sorted and the sweep concatenates them without a sort.
        * Every vertex has exactly one owning server, so each sender's
          update lands with its own ``store.write``, in any order: with
          disjoint targets the write order cannot matter.
        """
        for server_id, tiles in enumerate(self._assignments):
            ids = [tile_id for tile_id, _name, _nbytes in tiles]
            if any(b <= a for a, b in zip(ids, ids[1:])):
                raise RuntimeError(
                    f"server {server_id}'s tile ids are not strictly "
                    f"ascending ({ids}): its update parts would not "
                    "concatenate sorted"
                )
        all_targets = np.concatenate(self._server_target_ids)
        if sorted_unique(all_targets).size != all_targets.size:
            raise RuntimeError(
                "servers' target ids overlap: the per-sender apply "
                "needs every vertex owned by exactly one server"
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: VertexProgram,
        graph_for_init=None,
        resume: bool = False,
    ) -> RunResult:
        """Execute one vertex program to convergence (Algorithm 5).

        ``graph_for_init`` is only consulted by programs whose
        ``init_values`` needs graph metadata beyond what the manifest
        holds; the degree arrays always come from DFS like the paper's.
        ``resume=True`` restarts from the newest DFS checkpoint for this
        (dataset, program) pair, if one exists.
        """
        ebuf = self._wire_tracer()
        ebuf.begin("run", "run", program=program.name)
        cfg = self.config
        servers = self.cluster.servers
        # Run-scoped shared-memory state (the stores) is torn
        # down LIFO in the finally below — on every path, including
        # injected faults and KeyboardInterrupt, so no SharedMemory
        # segment outlives the run.
        cleanup: list = []
        executor = None
        try:
            self.setup()
            attached = self._participants(resume)
            prep = self._run = self._begin_run(program, graph_for_init, attached)
            runtime_name, width, requested = self._resolve_runtime(ebuf)
            # The one place the transport is chosen.  Built unstarted:
            # starting a forking executor is the fork point, and every
            # shared structure must exist first so workers inherit it by
            # address, not by pickle.
            executor = make_executor(runtime_name, width)
            self._build_stores(
                prep.init_values, prep.degrees, executor.forks, cleanup
            )
            prev_updated = prep.prev_updated
            reports: list[SuperstepReport] = []
            converged = False
            if executor.forks:
                # Cache contents and slab fills live in the workers while
                # the pool runs; the parent's are rebuilt at teardown.
                self._worker_sweeps = [[] for _ in servers]
                cleanup.append(self._resync_parent_caches)
            executor.start(
                self._phase_handler,
                len(servers),
                child_init=self._process_child_init,
            )

            for superstep in range(prep.start_superstep, cfg.max_supersteps):
                t0 = time.perf_counter()
                ebuf.begin("superstep", "superstep", superstep=superstep)
                if self.injector is not None:
                    self.injector.begin_superstep(superstep)
                # ---- resolve knobs: a participant may switch them ------
                for part in attached:
                    part.begin_superstep(prep, superstep)
                self._knobs = prep.knobs
                before = {
                    s.server_id: CounterSnapshot.capture(s) for s in servers
                }
                # ---- compute: each server streams its tiles ------------
                # Fanned out by the executor; each handler call touches
                # only its own server's state (+ read-only shared
                # structures), so parallel execution is race-free and
                # bitwise identical to serial.  Cross-server effects
                # (broadcast delivery) are staged in the results and
                # flushed below in server-id order, exactly like the
                # serial schedule.
                ebuf.begin("compute", "phase")
                # The superstep's tile schedule, resolved once: every
                # executor's sweep, the tuner's working set and the
                # compute-phase fault pass all read this record.
                schedule = self._resolve_schedule(
                    superstep,
                    prev_updated,
                    self.manifest.num_vertices,
                    prep.seed_tiles if superstep == 0 else frozenset(),
                )
                steps = self._dispatch(
                    executor,
                    "compute",
                    [(superstep, sched, self._knobs) for sched in schedule],
                )
                ebuf.end()  # compute
                ebuf.begin("broadcast", "phase")
                for server, step in zip(servers, steps):
                    if step.payload is not None:
                        self.channel.broadcast(server.server_id, step.payload)
                self._obs_skipped.inc(sum(st.tiles_skipped for st in steps))
                self._obs_scheduled.inc(sum(st.tiles_processed for st in steps))
                ebuf.end()  # broadcast
                ebuf.begin("sync", "phase")

                # ---- BSP barrier: detect lost broadcasts ---------------
                # Every server expects N-1 envelopes; a dropped delivery
                # fails the superstep *here*, before any store write, so
                # vertex state is still the previous barrier's and the
                # supervisor can retry or restore deterministically.
                if self.injector is not None:
                    self.injector.barrier_check()
                ebuf.end()  # sync
                ebuf.begin("apply", "phase")

                # ---- BSP barrier: apply all updates everywhere ---------
                # Also per-server-independent (own mailbox, own counters,
                # and own targets of the one AA replica or an own OD
                # store).  The parent drains each mailbox; every handler
                # writes the own update its compute phase left behind
                # (plus, under OD, its inbox's records) straight into
                # its (possibly shared) value arrays.
                self._dispatch(
                    executor,
                    "apply",
                    [
                        [
                            (env.src, env.payload)
                            for env in self.channel.receive_all(s.server_id)
                        ]
                        for s in servers
                    ],
                )
                ebuf.end()  # apply
                ebuf.begin("account", "phase")
                done = self._account_superstep(
                    prep, superstep, t0, before, schedule, steps
                )
                del steps  # free the records before the next compute
                reports.append(done.report)
                prev_updated = done.updated
                ebuf.end()  # account
                # Unwound in reverse, like the spans around them.
                for part in reversed(attached):
                    part.end_superstep(prep, done)
                converged = done.report.updated_vertices == 0
                if converged:
                    ebuf.instant("converged", "run", superstep=superstep)
                ebuf.end()  # superstep
                if converged:
                    break

            # Collect results while run-scoped shared stores are still
            # mapped; the finally unlinks their segments.
            values = self.collect_values(prep.init_values)
        finally:
            if executor is not None:
                executor.close()
            for fn in reversed(cleanup):
                fn()
            self._run = None
            # An aborted superstep may leave half-delivered broadcasts
            # behind; every run ends with clean mailboxes.
            self.channel.clear_all()
            # Close the run span — and, when a fault aborted a
            # superstep mid-phase, every span still open above it.
            ebuf.close_to(0)

        decoded = [s.decoded_cache.stats for s in servers]
        result = RunResult(
            values=values,
            supersteps=reports,
            converged=converged,
            executor=runtime_name,
            executor_requested=requested,
            decoded_cache_hits=sum(st.hits for st in decoded),
            decoded_cache_misses=sum(st.misses for st in decoded),
            prefetch_depth=cfg.prefetch_depth,
            selective=cfg.selective_scheduling,
            vertex_store=cfg.vertex_store,
            filters_built=self.filters_built,
        )
        for part in reversed(attached):
            part.end_run(prep, result)
        return result

    def _participants(self, resume: bool) -> tuple:
        """The subsystems taking part in this run (DESIGN.md §5o) —
        none on a default-config run — in the order their ``begin_run``
        edits the :class:`_RunPrep`: the evolving graph (it corrects the
        graph metadata and seeds an incremental run), checkpoint resume
        (it overrides that seed: a resumed run is past the incremental
        seed superstep), the tuner (it signs and plans the run the other
        two left)."""
        cfg = self.config
        parts = []
        if self.delta is not None:
            parts.append(self.delta)
        if resume or cfg.checkpoint_every is not None:
            parts.append(Checkpointer(self, resume))
        if cfg.tune or self.tuning_plan is not None:
            parts.append(TunedRun(self))
        return tuple(parts)

    def _begin_run(self, program, graph_for_init, attached) -> "_RunPrep":
        """What a run starts from: the graph metadata out of DFS, what
        the participants make of it, then the initial values."""
        # Graph-shaped metadata for ``init_values`` (no edge access).
        in_degrees, out_degrees = self.spe.load_degrees(self.manifest)
        graph = SimpleNamespace(
            num_vertices=self.manifest.num_vertices,
            num_edges=self.manifest.num_edges,
            in_degrees=in_degrees,
            out_degrees=out_degrees,
        )
        prep = _RunPrep(
            program=program,
            knobs=KnobSettings.of(self.config),
        )
        for part in attached:
            part.begin_run(prep, graph)
        scratch = program.init_values(graph_for_init or graph).astype(
            np.float64, copy=True
        )
        if scratch.size != graph.num_vertices:
            raise ValueError("program init_values size mismatch with manifest")
        if program.uses_out_degree:
            prep.degrees = graph.out_degrees
        if not program.uses_edge_weight:
            # The sweep evaluates edge_message per vertex, not per edge.
            check_elementwise_in_source(program, scratch, prep.degrees)
        # ... and apply / value_changed per run of tiles, not per tile.
        check_elementwise_in_target(program, scratch)
        if program.apply_folds:
            # ... and may gather only its frontier's out-edges.
            active = check_fold(program, graph_for_init or graph, scratch)
            prep.fold_degrees = graph.out_degrees
            prep.fold_edges = int(graph.num_edges)
            if prep.init_values is None:
                prep.first_frontier = active
        if prep.init_values is None:
            prep.init_values = scratch
        return prep

    def _build_stores(self, init_values, degrees, shared: bool, cleanup: list) -> None:
        """Give every server its vertex store for this run.

        Under AA that is one store every server views: the N logical
        replicas are bitwise identical after every barrier, so they are
        one physical array, and each server is still charged a full
        replica (Eq. 2).  Under OD each server gets its own subset.
        Where the arrays live is picked once per run: the heap (no
        allocator), shared-memory segments when handlers run in forked
        workers (``shared``), or — semi-external-memory mode —
        file-backed maps under the cluster tempdir (MAP_SHARED, so they
        serve every executor, process included).  The allocator goes on
        ``cleanup`` *before* the stores, so LIFO teardown drops the
        stores' views first, memory last.
        """
        cfg = self.config
        allocator = None
        if cfg.vertex_store == "mmap":
            allocator = BackingStore(root=self.cluster.root)
        elif shared:
            allocator = SharedAllocator()
        if allocator is not None:
            cleanup.append(allocator.release)
        replica = None
        if cfg.replication_policy == "aa":
            replica = AllInAllStore(init_values, degrees, allocator)
            cleanup.append(replica.release)
        for server in self.cluster.servers:
            store = replica
            if store is None:
                # On-Demand: only this server's tile sources ∪ targets
                # (the store takes the union of what it is handed).
                local = np.concatenate(
                    self._server_sources[server.server_id]
                    + [self._server_target_ids[server.server_id]]
                )
                store = OnDemandStore(init_values, degrees, local, allocator)
                cleanup.append(store.release)
            server.state["store"] = store
            vertex_bytes, message_bytes = store.memory_bytes()
            server.counters.set_memory("vertex", vertex_bytes)
            # Incoming-update buffer (the message array of §III-C.1).
            server.counters.set_memory("messages", message_bytes)

    def _account_superstep(
        self, prep, superstep: int, t0: float, before, schedule, steps
    ) -> "_SuperstepDone":
        """One finished superstep's accounting: per-server deltas →
        modeled cost → report, and the next frontier."""
        servers = self.cluster.servers
        # Per-server update sets are sorted and disjoint (each server
        # owns disjoint target ranges), so the next superstep's frontier
        # is sorted-unique by construction.
        updated = merge_sorted_unique([st.ids for st in steps])
        step_deltas = [
            before[server.server_id].delta(server) for server in servers
        ]
        step_cost = self.cost_model.superstep_time(step_deltas)
        # Per-superstep hit ratio: delta hits over delta lookups.
        hits = []
        for server in servers:
            if server.cache is None:
                continue
            snap = before[server.server_id]
            dl = server.cache.stats.lookups - snap.cache_lookups
            dh = server.cache.stats.hits - snap.cache_hits
            if dl:
                hits.append(dh / dl)
        report = SuperstepReport(
            superstep=superstep,
            updated_vertices=sum(st.ids.size for st in steps),
            tiles_processed=sum(st.tiles_processed for st in steps),
            tiles_skipped=sum(st.tiles_skipped for st in steps),
            net_bytes=sum(d.net_sent for d in step_deltas),
            disk_read_bytes=sum(
                d.disk_read + d.disk_read_random for d in step_deltas
            ),
            cache_hit_ratio=float(np.mean(hits)) if hits else 0.0,
            message_modes=[
                st.payload.mode for st in steps if st.payload is not None
            ],
            modeled=step_cost,
            wall_s=time.perf_counter() - t0,
        )
        self._obs_wall.observe(report.wall_s)
        if any(st.sparse for st in steps):
            self._metrics.counter(
                "repro_gather_sparse",
                "server supersteps that gathered their frontier's edges alone",
            ).labels().inc(sum(st.sparse for st in steps))
        if any(st.index_built for st in steps):
            self._metrics.counter(
                "repro_edge_index_builds", "slab edge indexes built for sparse gathers"
            ).labels().inc(sum(st.index_built for st in steps))
        for server, step in zip(servers, steps):
            if step.prefetch_total > 0:
                self._obs_prefetch.labels(server=server.server_id).set(
                    step.prefetch_ready / step.prefetch_total
                )
        return _SuperstepDone(report, step_deltas, before, schedule, updated)

    def respawn_server(self, server_id: int) -> int:
        """Rebuild a crashed server's local tile store from DFS.

        A crash loses the server's memory *and* local disk.  The
        in-memory vertex store is rebuilt by the next :meth:`run` (from
        init values or a checkpoint); this re-fetches the server's
        assigned tile blobs out of the DFS onto its local disk, charges
        the traffic as ``recovery_read``, and cold-starts its caches.
        Returns the bytes re-fetched.
        """
        if not self._tiles_fetched:
            return 0  # nothing assigned yet; setup() will fetch
        server = self.cluster.servers[server_id]
        refetched = 0
        for tile_id, name, _ in self._assignments[server_id]:
            blob = self.cluster.dfs.read(
                self.manifest.tile_path(tile_id), prefer_datanode=server_id
            )
            server.store_blob(name, blob)
            refetched += len(blob)
        server.counters.recovery_read += refetched
        # Memory contents died with the server: caches restart cold.
        if server.cache is not None:
            server.attach_cache(
                capacity_bytes=server.cache.capacity_bytes,
                mode=server.cache.mode,
            )
        slab = server.decoded_cache.slab
        server.attach_decoded_cache(TileSlab(slab.names, slab.shapes, slab.target_ids))
        return refetched

    # ------------------------------------------------------------------
    # Evolving graphs (repro.delta)
    # ------------------------------------------------------------------
    @property
    def mutation_log(self):
        """The evolving graph's append-only mutation log (None on a
        frozen-graph engine)."""
        return self.delta.log if self.delta is not None else None

    def tile_home(self, tile_id: int):
        """(server, index in its assignment, current blob name) of a tile."""
        server_id, index = self._tile_home[tile_id]
        name = self._assignments[server_id][index][1]
        return self.cluster.servers[server_id], index, name

    def apply_mutations(self, ops=None, *, log=None) -> dict:
        """Append a mutation batch (``ops``: mutation dicts; or ``log=``:
        a complete external log to adopt) and compact it into per-tile
        overlays, between runs; returns the batch report.  See
        :meth:`repro.delta.attach.EvolvingGraph.apply`."""
        if not self.config.mutations:
            raise ValueError(
                "mutations are disabled; construct the engine with "
                "MPEConfig(mutations=True)"
            )
        self.setup()
        return self.delta.apply(ops, log)

    def retile(self, composed: dict, renamed: dict) -> None:
        """Follow a mutation batch: ``composed`` maps every tile whose
        content changed to the tile it now decodes to, ``renamed`` those
        whose blob was rewritten to its ``(local name, size)``.

        A tile that kept its blob is what its next load would compose
        from that blob, so it goes into the decoded cache as is: the
        hit path meters the load exactly as a parse would, and the batch
        composes each changed tile once.  A rewritten blob is parsed
        when first loaded, like any other."""
        # Per server: assignment index -> (blob name, composed tile) of
        # every tile whose shape may have changed — its slab's new slots.
        reshaped: dict[int, dict[int, tuple[str, Tile]]] = {}
        if composed:
            self._source_index = None  # rebuilt by the next push
        for tile_id, tile in composed.items():
            server, idx, name = self.tile_home(tile_id)
            # Refresh parent-side schedule state from the composed tile
            # so the next run's pruning sees the mutated source sets
            # (an inserted edge's source must be probe-visible).
            self._summaries[tile_id] = TileSourceSummary.from_tile(tile)
            self._heads.refresh(self._summaries[tile_id])
            # ... and the next run's On-Demand store must hold it.
            if self.config.replication_policy == "od":
                self._server_sources[server.server_id][idx] = tile.source_vertices
            if tile_id in self._blooms:
                self._blooms[tile_id] = tile.build_bloom_filter(
                    BLOOM_FALSE_POSITIVE_RATE
                )
            dcache = server.decoded_cache
            if tile_id in renamed:
                dcache.invalidate(name)
                name, nbytes = renamed[tile_id]
                self._assignments[server.server_id][idx] = (tile_id, name, nbytes)
            else:
                dcache.put(name, tile, self._assignments[server.server_id][idx][2])
            reshaped.setdefault(server.server_id, {})[idx] = (name, tile)
        for server_id, changes in reshaped.items():
            dcache = self.cluster.servers[server_id].decoded_cache
            dcache.slab = dcache.slab.relaid(changes)

    # ------------------------------------------------------------------
    # Process runtime (repro.runtime.process + repro.runtime.shm)
    # ------------------------------------------------------------------
    def _resolve_runtime(self, ebuf) -> tuple[str, int | None, str | None]:
        """Resolve this run's executor: ``(name, width, requested)``.

        ``REPRO_EXECUTOR`` (CI's forcing flag) overrides the config.  A
        ``process`` request on a platform without fork or POSIX shared
        memory runs ``serial`` instead — a counted, reported event (an
        ``executor_fallback`` instant on the engine lane, the
        ``repro_executor_fallbacks`` counter), and ``requested`` names
        what was asked for; it is ``None`` whenever that is what runs.
        """
        cfg = self.config
        name = os.environ.get("REPRO_EXECUTOR", "").strip() or cfg.executor
        if name not in knob_row(MPEConfig, "executor").choices:
            raise ValueError(
                f"unknown executor {name!r} (from REPRO_EXECUTOR or config)"
            )
        requested = None
        if name == "process" and not process_runtime_available():
            requested, name = name, "serial"
            ebuf.instant("executor_fallback", "run", requested=requested, ran=name)
            self._metrics.counter(
                "repro_executor_fallbacks",
                "runs that could not use the requested executor",
            ).labels().inc()
        width = {
            "serial": None,
            "parallel": cfg.num_threads,
            "process": cfg.num_workers,
        }[name]
        return name, width, requested

    def _ensure_blooms(self, superstep: int | None = None) -> None:
        """Build every tile's bloom filter from the fetched blobs, once
        (host plumbing: ``disk.peek`` is unmetered) — the one build
        site.

        :meth:`_resolve_schedule` calls this right before the first
        real probe, so an engine whose schedule never routes a decision
        through a filter (selective scheduling on, the default) never
        pays for one; :meth:`apply_mutations` refreshes only filters
        that exist.  Parent-side only, like the schedule that probes
        them; the build is a counted, traced event.
        """
        if self.filters_built is not None:
            return
        for server in self.cluster.servers:
            for tile_id, name, _nbytes in self._assignments[server.server_id]:
                tile = self._tile_parser(server.disk.peek(name))
                self._blooms[tile_id] = tile.build_bloom_filter(
                    BLOOM_FALSE_POSITIVE_RATE
                )
        self.filters_built = {
            "superstep": superstep,
            "tiles": len(self._blooms),
            "bytes": sum(bf.nbytes for bf in self._blooms.values()),
        }
        self._lane("engine").instant(
            "filters_built", "schedule", **self.filters_built
        )
        self._metrics.counter(
            "repro_filters_built",
            "tile bloom filters built, lazily, before the first probe",
        ).labels().inc(len(self._blooms))

    def _ensure_source_index(self, superstep: int) -> SourceTileIndex:
        """The vertex -> tile index a small frontier is pushed through,
        built from the source summaries the first time a schedule
        pushes (after a mutation batch: the first time since) — a
        counted, traced event, like :meth:`_ensure_blooms`.  PageRank's
        frontiers never push, so its engines never build one."""
        index = self._source_index
        if index is None:
            index = self._source_index = SourceTileIndex(
                self._summaries, self.manifest.num_vertices
            )
            self._lane("engine").instant(
                "source_index_built",
                "schedule",
                superstep=superstep,
                tiles=index.num_tiles,
                bytes=index.nbytes,
            )
            self._metrics.counter(
                "repro_source_index_builds",
                "vertex -> tile indexes built for pushed frontiers",
            ).labels().inc()
        return index

    # ------------------------------------------------------------------
    # The superstep's tile schedule (§III-C.4 bloom skip; GraphMP's
    # selective scheduling via repro.runtime.active)
    # ------------------------------------------------------------------
    def _resolve_schedule(
        self,
        superstep: int,
        prev_updated,
        num_vertices: int,
        forced: frozenset = frozenset(),
    ) -> "list[_ServerSchedule]":
        """Decide, once per superstep and parent-side, which tiles each
        server sweeps and which it skips — the only place the pruning
        rule is written down.  Tile by tile, in assignment order:

        1. A ``forced`` tile (the incremental seed superstep's
           deletion/reset targets, which must re-gather even though no
           updated vertex sources them) runs.
        2. Else, when the exact verdict exists — selective scheduling
           on, a previous update set (an incremental run seeds its
           dirty ids as superstep 0's), and not every vertex updated —
           the tile is skipped as ``"bitmap"`` iff its source summary
           misses the active bitmap.  A frontier of at most V/8
           vertices (:func:`~repro.runtime.active.pushes`) is pushed:
           the OR of its rows in the vertex -> tile index
           (:meth:`_ensure_source_index`) names every tile it reaches.
           A larger one is pulled: one batched probe of every
           tile's first sources (:class:`~repro.runtime.active.SourceHeads`)
           answers for most tiles, and the summary's own test is taken
           only where that cannot tell.  A survivor runs *unprobed*: it
           has an updated source, and its filter was built from the
           same ``source_vertices`` with no false negatives, so the
           filter could only agree.
        3. Else, when filtering is on and there is an update set
           (selective off, or the dense supersteps where only empty
           tiles can be dropped), the bloom filter decides: skipped as
           ``"bloom"`` iff it proves no updated source.  When *every*
           vertex updated, a filter — no false negatives — says "might
           intersect" exactly when something was inserted, i.e. when
           the tile's source summary is non-empty, so the summary
           answers and no filter is needed.  Otherwise the filters are
           built if this is the first real probe
           (:meth:`_ensure_blooms`) and the update set is hashed once
           for all of them.
        4. Else the tile runs (scratch superstep 0, resume with no
           set, both prunes off).

        Every server's entry also carries the superstep's gather
        frontier (:meth:`_gather_frontier`): ``None``, or the ids whose
        out-edges are all its sweep gathers.

        The result is plain data, so the sweeps of every executor, the
        tuner's working set and the fault pass's first-load
        coordinate are decision-identical by construction.
        """
        bitmap = verdicts = might_intersect = None
        if prev_updated is not None:
            if self.config.selective_scheduling:
                bitmap = ActiveBitmap.seed_from_ids(prev_updated, num_vertices)
                if bitmap.dense:
                    bitmap = None
                elif pushes(bitmap.count, num_vertices):
                    verdicts = self._ensure_source_index(superstep).probe(bitmap)
                    self._metrics.counter(
                        "repro_schedule_push",
                        "supersteps whose frontier was pushed to its tiles",
                    ).labels().inc()
                else:
                    verdicts = self._heads.probe(bitmap)
            if bitmap is None and self._knobs.use_bloom:
                if prev_updated.size == num_vertices:

                    def might_intersect(tile_id):
                        return self._summaries[tile_id].sources.size > 0

                else:
                    self._ensure_blooms(superstep)
                    hashed = hash_keys(prev_updated)

                    def might_intersect(tile_id):
                        return self._blooms[tile_id].might_intersect(hashed)

        frontier = self._gather_frontier(prev_updated, forced)
        schedule = []
        for tiles in self._assignments:
            run, skipped = [], []
            for tile in tiles:
                tile_id = tile[0]
                if tile_id in forced:
                    run.append(tile)
                elif bitmap is not None:
                    verdict = verdicts[tile_id]
                    if verdict is None:
                        verdict = self._summaries[tile_id].intersects(bitmap)
                    if verdict:
                        run.append(tile)
                    else:
                        skipped.append((tile_id, "bitmap"))
                elif might_intersect is None or might_intersect(tile_id):
                    run.append(tile)
                else:
                    skipped.append((tile_id, "bloom"))
            schedule.append(_ServerSchedule(tuple(run), tuple(skipped), frontier))
        return schedule

    def _gather_frontier(self, prev_updated, forced) -> np.ndarray | None:
        """The sorted ids whose out-edges are all this superstep's
        sweeps must gather — ``None``: every edge of every scheduled
        tile.  Only a folding program (``VertexProgram.apply_folds``)
        ever gathers sparsely, never with a tile forced (an incremental
        seed superstep's reset and deletion targets re-gather whole),
        and only when its frontier sources at most E / GATHER_DIVISOR of
        the run's edges (:func:`~repro.runtime.active.gathers_sparse`,
        over the run's degrees, mutations included).  A scratch run's
        superstep 0 has no update set: its frontier is the initially
        active vertices (SSSP's and BFS's source)."""
        prep = self._run
        if prep is None or prep.fold_degrees is None or forced:
            return None
        frontier = prev_updated if prev_updated is not None else prep.first_frontier
        if frontier is None or not gathers_sparse(
            int(prep.fold_degrees[frontier].sum()), prep.fold_edges
        ):
            return None
        return frontier

    def _edge_index(self, server, slab):
        """``(index, built)``: the server's slab's edge index, built
        when the slab has none (a traced event) — ``None`` while a slot
        is empty."""
        index = slab.edge_index
        if index is not None:
            return index, False
        t0 = time.perf_counter()
        index = slab.build_edge_index(self.manifest.num_vertices)
        if index is not None:
            server.trace.instant(
                "edge_index_built",
                "compute",
                server=server.server_id,
                bytes=index.nbytes,
                ms=round((time.perf_counter() - t0) * 1e3, 3),
            )
        return index, index is not None

    def _process_child_init(self) -> None:
        """Runs once in each forked worker: detach parent-only machinery.

        All fault decisions are fired in the parent (the injector's
        one-shot fired-set must stay authoritative across pool
        lifetimes), and mailboxes / DFS belong to the parent; a worker
        touching either would double-fire or double-meter.
        """
        self.injector = None
        self.channel.fault_injector = None
        self.cluster.dfs.fault_injector = None
        # From here on the phase handler reports each server's state
        # back to the parent as a ServerMirror.
        self._forked = True
        if self.tracer is not None:
            # The fork copied whatever the parent had already recorded;
            # without this clear the first per-phase drain would ship
            # those pre-fork events back as duplicates.
            self.tracer.clear_events()

    def _resync_parent_caches(self) -> None:
        """Rebuild parent-side cache *contents* and slabs as the pool
        winds down: workers die with the run, and a later run — a
        supervised retry, or the next program on this cluster — must
        start from exactly the state a single-process run would have
        left (stats and gauges were absorbed every phase), and the next
        pool inherits filled slabs: each replays its worker's sweeps
        (:meth:`TileSlab.replay`) over ``peek``-ed tiles, silently."""
        join = not self._run.program.uses_edge_weight
        for server, sweeps in zip(self.cluster.servers, self._worker_sweeps):
            server.restore_mirrored_content(self._tile_parser)
            dcache = server.decoded_cache
            for run, sparse in sweeps:
                named = [(name, dcache.peek(name)[0]) for _t, name, _n in run]
                dcache.slab.replay(named, sparse, join, self.manifest.num_vertices)
        self._worker_sweeps = []

    # ------------------------------------------------------------------
    # One superstep phase, under every executor
    # ------------------------------------------------------------------
    def _dispatch(self, executor, tag: str, payloads: list) -> list:
        """Run one phase of :meth:`_phase_handler` for every server and
        return the handler results in server-id order.

        The only place the engine talks to its transport, and the only
        place compute-phase faults fire, the same under every executor.
        Crashes and disk errors fire before the dispatch, in server
        order; an aborting fault at server k leaves servers k and later
        without a payload and is raised after the join, so the servers
        a serial sweep reaches are the ones that sweep.  Straggler
        charges fire after the join, in server order.  An AA apply
        dispatch ships each received record as ``(sender, nbytes)``:
        every sender writes its own update into the one replica, so a
        receiver needs only what it is charged for.  An OD apply ships
        the records themselves — by shared segment around a forking
        executor.  Each result's :class:`~repro.cluster.server.ServerMirror`
        is absorbed — in server-id order, so per-buffer trace sequences
        are the ones a serial run records — and its sweep noted for
        :meth:`_resync_parent_caches`.  In-process handlers return no
        mirror: the server they ran on *is* the parent's.
        """
        staged = fault = None
        if tag == "apply" and self.config.replication_policy == "aa":
            payloads = [
                [(src, record.nbytes) for src, record in inbox]
                for inbox in payloads
            ]
        elif tag == "apply":
            staged = StagedInboxes(payloads, shared=executor.forks)
            payloads = staged.handles
        elif self.injector is not None:
            fault = self.injector.fire_compute(
                self.cluster.servers, [sched for _s, sched, _k in payloads]
            )
            if fault is not None:
                payloads = payloads[: fault.server] + [None] * (
                    len(payloads) - fault.server
                )
        try:
            returned = executor.run_phase(tag, payloads)
        finally:
            if staged is not None:
                staged.release()
        results = []
        for server, payload, (result, mirror) in zip(
            self.cluster.servers, payloads, returned
        ):
            if mirror is not None:
                server.absorb_mirror(mirror)
            if mirror is not None and tag == "compute":
                sid = server.server_id
                if result.payload is not None:
                    result.ids = result.payload.select(self._server_target_ids[sid])
                sweep = (payload[1].run, result.sparse)
                if sweep not in self._worker_sweeps[sid][-1:]:
                    self._worker_sweeps[sid].append(sweep)
            if tag == "compute" and result is not None and self.injector is not None:
                self.injector.after_compute(server, result.edges)
            results.append(result)
        if fault is not None:
            raise fault
        return results

    def _phase_handler(self, tag: str, server_id: int, payload):
        """One server's share of one phase — the same call under every
        executor, in the parent or in the forked worker owning the
        server.  Returns ``(result, mirror)``: the phase's staged output
        and, from a forked worker only, the server's
        :class:`~repro.cluster.server.ServerMirror`.

        ``compute`` takes ``(superstep, sched, knobs)``: it puts the
        superstep's knobs into force for this server — a cache-mode
        switch is metered here, after the superstep's counter snapshot,
        so its charge lands in this superstep's delta — sweeps the
        schedule, and keeps the server's own update for its apply.
        ``apply`` takes the server's inbox: ``(sender, nbytes)`` pairs
        under AA, a staged-inbox handle under OD.  A ``None`` payload
        (a server an aborting fault cut off) does nothing.
        """
        if payload is None:
            return None, None
        server = self.cluster.servers[server_id]
        since = CounterSnapshot.capture(server) if self._forked else None
        if tag == "compute":
            superstep, sched, knobs = payload
            self._knobs = knobs
            if knobs.cache_mode is not None:
                server.switch_cache_mode(knobs.cache_mode)
            result = self._compute_server_step(
                self._run.program, server, superstep, sched
            )
            self._own_updates[server_id] = (result.ids, result.vals)
            if self._forked:
                # Values stay here, for this server's apply: the parent
                # reads the record and counts, selects the frontier ids
                # from the record's positions and, under AA (values go by
                # the shared replica), reads no record's values.
                record = result.payload
                if record is not None and self.config.replication_policy == "aa":
                    record = replace(record, values=record.values[:0])
                result = replace(
                    result,
                    ids=result.ids if record is None else result.ids[:0],
                    vals=np.zeros(0, dtype=np.float64),
                    payload=record,
                )
        elif tag == "apply":
            if self.config.replication_policy == "od":
                payload = self._inboxes.resolve(payload)
            result = self._apply_server_step(
                server, self._own_updates.pop(server_id), payload
            )
        else:
            raise ValueError(f"unknown phase {tag!r}")
        mirror = server.export_mirror(since) if since is not None else None
        return result, mirror

    # ------------------------------------------------------------------
    # Per-server superstep work (called by _phase_handler)
    # ------------------------------------------------------------------
    def _compute_server_step(
        self,
        program: VertexProgram,
        server,
        superstep: int,
        sched: "_ServerSchedule",
    ) -> "_ServerStep":
        """One server's tile sweep: gather/apply + staged broadcast.

        Touches only this server's counters / cache / disk / store plus
        read-only shared structures, so executor threads never contend.
        The staged broadcast record is returned (not delivered) — the
        caller flushes all records after the join, in server-id order.

        ``sched`` is this server's entry of :meth:`_resolve_schedule`:
        the sweep accounts the skipped tiles and decides nothing itself
        — a skipped tile costs the pipeline zero I/O.  It meters every
        scheduled tile, in order, into the slab, then computes: one
        :func:`_sweep_sparse` over the slab when the gather frontier has
        an edge index, else one :func:`_sweep_run` per run of
        consecutive swept slots.
        """
        trace = server.trace
        # span() unwinds with close_to: an error aborting the sweep
        # mid-tile must not leave spans open for the next attempt.
        with trace.span("compute", "phase", superstep=superstep):
            knobs = self._knobs
            store = server.state["store"]
            # §IV-A's message slot: a program that reads no edge weight
            # sends one message per source vertex, so it is computed once
            # over the resident vertices and gathered per edge; weighted
            # programs evaluate per edge.  Values only change at the
            # barrier, so the slot holds for the whole superstep (the
            # shared AA replica builds it once for every server).
            slot = None
            if sched.run and not program.uses_edge_weight:
                slot = store.message_slot(program, superstep)
            # Slab position of every tile swept, in sweep order: its
            # edge count is the slab's shape.
            swept: list[int] = []
            slab = server.decoded_cache.slab
            # Pending overlays' (bytes, edits) by tile id; empty unless
            # mutations are.
            overlay_charges = self._run.overlay_charges
            server.counters.tiles_skipped += len(sched.skipped)
            for tile_id, reason in sched.skipped:
                trace.instant(
                    "tile_skip", "schedule", tile=tile_id, reason=reason
                )

            def charge(stretch):
                """What a stretch of scheduled tiles costs beyond its
                lookups, charged once for the stretch."""
                counters = server.counters
                if overlay_charges:
                    # Overlay composition work: charged per *scheduled*
                    # overlaid tile, whether or not the decoded cache
                    # served the composed object — like the edge-cache
                    # metering, the simulated cost is schedule-driven and
                    # therefore executor-invariant.
                    for tile_id, _name, _nbytes in stretch:
                        if tile_id in overlay_charges:
                            overlay_bytes, edits = overlay_charges[tile_id]
                            counters.delta_bytes += overlay_bytes
                            counters.delta_edges += edits
                # One tile's worth of scratch at a time (§III-B's
                # streaming): the peak is the largest tile's.
                scratch = max(nbytes for _t, _n, nbytes in stretch)
                counters.add_memory("scratch", scratch)
                counters.add_memory("scratch", -scratch)

            names = [item[1] for item in sched.run]
            prefetcher = feed = None
            if knobs.prefetch_depth > 0 and sched.run:
                from repro.runtime.prefetch import TilePrefetcher

                # Background threads speculate ahead (read-only, unmetered);
                # the walk commits each dequeue through the same metered
                # path as the sequential sweep, in the same order — every
                # tile takes it: nothing is metered as held.
                prefetcher = TilePrefetcher(
                    server,
                    sched.run,
                    self._tile_parser,
                    depth=knobs.prefetch_depth,
                    io_threads=knobs.io_threads,
                    name_of=lambda item: item[1],
                    io_trace=server.prefetch_trace,
                    wait_trace=trace,
                )
                feed = iter(prefetcher)

            # The metering walk: every scheduled tile, in sweep order.
            # From where the walk stands, the longest stretch of tiles
            # this server holds is metered in one step; the next tile
            # that is not held takes the one metered tile load.
            try:
                at = 0
                while at < len(names):
                    k = server.held_stretch(names, at) if feed is None else 0
                    if k:
                        held = names[at : at + k]
                        with trace.span("tile", "compute", tiles=k):
                            tiles = server.load_held(held)
                            charge(sched.run[at : at + k])
                        swept.extend(map(slab.slot, held, tiles))
                        at += k
                        continue
                    item, hint = sched.run[at], None
                    if feed is not None:
                        item, hint, _ready = next(feed)
                    with trace.span("tile", "compute", tile=item[0]):
                        tile = server.load_tile(item[1], self._tile_parser, hint)
                        charge((item,))
                    swept.append(slab.slot(item[1], tile))
                    at += 1
            finally:
                if prefetcher is not None:
                    prefetcher.close()
            tiles_processed = len(swept)
            prefetch_ready = prefetcher.served_ready if prefetcher else 0
            prefetch_total = prefetcher.dequeues if prefetcher else 0

            # Then the kernels, over the slab the walk filled.
            index, built = None, False
            if sched.frontier is not None and swept:
                index, built = self._edge_index(server, slab)
            if index is not None:
                with trace.span(
                    "gather-apply", "compute", tiles=len(swept), sparse=True
                ):
                    parts = [_sweep_sparse(program, slab, index, sched.frontier, store, slot)]
            else:
                # A program that reads edge values sweeps tile by tile:
                # joining the tiles' values measured slower and larger
                # than the per-tile calls it saves (DESIGN §5n).
                parts = []
                for run in slab.runs(swept, join=not program.uses_edge_weight):
                    with trace.span("gather-apply", "compute", tiles=len(run.tiles)):
                        parts.append(_sweep_run(program, run, store, slot))

            # Charge compute as the LPT makespan of this server's
            # indivisible tiles over its T workers (§III-C.3's
            # OpenMP parallelism, honestly accounting stragglers).
            edges_charged = int(
                round(
                    effective_parallel_volume(
                        slab.shapes[swept, 1],
                        self.cluster.spec.workers_per_server,
                    )
                )
            )
            server.counters.edges_processed += edges_charged

            # Per-run parts cover ascending disjoint target ranges and a
            # server's tile list is ascending (_check_static_layout), so
            # the concatenation is already sorted — in global ids and in
            # positions of the server's target index alike.
            parts = [part for part in parts if part[0].size]
            if parts:
                ids, vals, local_ids = map(np.concatenate, zip(*parts))
            else:
                ids = local_ids = np.zeros(0, dtype=np.int64)
                vals = np.zeros(0, dtype=np.float64)

            # Stage this server's updated-value broadcast: its record of
            # (position, value) pairs in the target index receivers
            # share, and the length of the dense or sparse wire message
            # that would carry them — sized, not built.
            payload = None
            if len(self.cluster.servers) > 1:
                with trace.span("encode", "comm", updated=int(ids.size)):
                    forced = {
                        "dense": DENSE,
                        "sparse": SPARSE,
                        "hybrid": None,
                    }[knobs.comm_mode]
                    payload = stage_update(
                        local_ids,
                        vals,
                        self._server_target_ids[server.server_id].size,
                        codec_name=knobs.message_codec,
                        mode=forced,
                    )
                    if knobs.message_codec != "raw":
                        server.counters.add_compressed(
                            knobs.message_codec, payload.nbytes
                        )
            return _ServerStep(
                ids=ids,
                vals=vals,
                payload=payload,
                tiles_processed=tiles_processed,
                tiles_skipped=len(sched.skipped),
                edges=edges_charged,
                prefetch_ready=prefetch_ready,
                prefetch_total=prefetch_total,
                sparse=index is not None,
                index_built=built,
            )

    # The one decode callback every metered tile load shares — the
    # sequential sweep, the pipeline's speculation, and its dequeue
    # commit all parse through this.
    _TILE_PARSER = staticmethod(Tile.from_bytes)

    def _apply_server_step(
        self,
        server,
        own_update: tuple[np.ndarray, np.ndarray],
        inbox: list[tuple],
    ) -> None:
        """One server's barrier work: apply own + received updates.

        ``inbox`` is the drained mailbox.  Under AA it is ``(sender id,
        nbytes)`` pairs: the replica is shared, and each sender's own
        apply writes its update there, so a receiver writes nothing it
        received.  Under OD it is ``(sender id, record)`` pairs, and
        each record lands in this server's store with its own
        ``store.write`` — sender target sets are disjoint
        (:meth:`_check_static_layout`), so the write order cannot
        matter.  Nothing is decoded, and every receiver is still charged
        the decompress of the wire bytes it received (per-receiver NIC
        work, §IV-C).
        """
        with server.trace.span("apply", "phase", inbox=len(inbox)):
            # The superstep's effective knobs: all senders encoded with
            # the same per-superstep codec (parent-resolved; the compute
            # handler put them into force wherever this runs).
            codec = self._knobs.message_codec
            store = server.state["store"]
            if own_update[0].size:
                store.write(*own_update)
            for src, received in inbox:
                nbytes = received
                if store.policy == "od":
                    store.write(
                        received.select(self._server_target_ids[src]),
                        received.values,
                    )
                    nbytes = received.nbytes
                if codec != "raw":
                    server.counters.add_decompressed(codec, nbytes)

    def collect_values(self, init_values) -> np.ndarray:
        """Globally consistent value array after a barrier.

        Under AA any server holds everything; under OD each target
        vertex lives on exactly the server whose tiles own it, so the
        owned ranges are stitched together over ``init_values``.
        """
        servers = self.cluster.servers
        if self.config.replication_policy == "aa":
            return servers[0].state["store"].full_values().copy()
        final = init_values.copy()
        for server in servers:
            targets = self._server_target_ids[server.server_id]
            if targets.size:
                final[targets] = server.state["store"].gather_values(targets)
        return final


class _ServerSchedule(NamedTuple):
    """One server's resolved tile schedule for one superstep, both
    halves in assignment order (see :meth:`MPE._resolve_schedule`).
    Plain picklable data: it is what a compute dispatch ships."""

    # Tiles to sweep: the server's (tile_id, blob_name, nbytes) entries.
    run: tuple
    # Tiles pruned: (tile_id, "bitmap" | "bloom").
    skipped: tuple
    # The superstep's gather frontier (MPE._gather_frontier): sorted ids
    # whose out-edges are all a folding program gathers; None: every
    # edge of every tile in ``run``.
    frontier: np.ndarray | None = None


@dataclass
class _ServerStep:
    """One server's staged compute-phase output (pre-barrier)."""

    ids: np.ndarray
    vals: np.ndarray
    payload: UpdatePayload | None
    tiles_processed: int
    tiles_skipped: int
    # The compute volume charged (edges_processed): what a straggler's
    # delay is scaled by.
    edges: int
    # Pipeline occupancy: dequeues served without stalling / total
    # dequeues (both 0 when the pipeline is off).  Host-side telemetry
    # only — never part of the bitwise-compared results.
    prefetch_ready: int = 0
    prefetch_total: int = 0
    # Whether the sweep gathered its frontier's edges alone, and built
    # its slab's edge index to do so.
    sparse: bool = False
    index_built: bool = False


class _SuperstepDone(NamedTuple):
    """A finished superstep, as :meth:`MPE._account_superstep` leaves it
    for the run loop and the participants' ``end_superstep``."""

    report: SuperstepReport
    # Per-server counter deltas over the superstep, and the snapshots
    # (server id -> CounterSnapshot) they were taken against.
    deltas: list
    before: dict
    schedule: "list[_ServerSchedule]"
    # Sorted unique ids updated this superstep: the next frontier.
    updated: np.ndarray


@dataclass
class _RunPrep:
    """What a run starts from and its superstep loop reads: built by
    :meth:`MPE._begin_run`, edited by each participant's ``begin_run``
    in turn (and its ``knobs`` by ``begin_superstep``).  Plain data, set
    before the process pool forks, so a forked handler reads the same
    record."""

    program: VertexProgram
    # The knobs in force: the configured ones unless switched.
    knobs: KnobSettings
    # Out-degrees when the program reads them.
    degrees: np.ndarray | None = None
    # Where the run starts (None: the program's initial values) ...
    init_values: np.ndarray | None = None
    # ... the first superstep to execute and the update set feeding its
    # schedule (checkpoint resume / incremental dirty set; else None).
    start_superstep: int = 0
    prev_updated: np.ndarray | None = None
    # Tiles exempt from pruning at superstep 0 (an incremental run's
    # deletion/reset targets).
    seed_tiles: frozenset = frozenset()
    # tile id -> (overlay bytes, overlay edits): what sweeping a tile
    # with a pending mutation overlay is charged.
    overlay_charges: dict = field(default_factory=dict)
    # A folding program's gather rule (MPE._gather_frontier): the run's
    # out-degrees and edge count, and a scratch run's superstep-0
    # frontier (its initially active ids).  None for other programs.
    fold_degrees: np.ndarray | None = None
    fold_edges: int = 0
    first_frontier: np.ndarray | None = None


def _sweep_run(
    program: VertexProgram,
    run: TileRun,
    store,
    slot: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised Gather + Apply over one run of tiles' targets.

    ``store`` is either replica policy's vertex store (see
    :mod:`repro.core.vertexstore`); ``slot`` is its ``message_slot`` for
    this superstep, or ``None`` for a program whose message reads the
    edge weight and is therefore evaluated per edge.  An additive
    program's slot is gathered and summed per target in one pass
    (:func:`gather_sum`), a min/max program's gathered and folded a
    bounded number of edges at a time (:func:`gather_fold`); a message
    evaluated per edge is reduced with ``reduceat``.  Returns (changed
    global ids, their new values, their positions in the server's target
    index), ascending as the run's targets are.
    """
    col = run.col
    if slot is not None:
        index, top = store.plane_index(col, run.col_max)
        if program.reduce_op == "add":
            accum = gather_sum(slot, index, top, run.plan)
        else:
            accum = gather_fold(slot, index, run.plan, program.reduce_op)
    else:
        out_deg = store.gather_out_degrees(col) if program.uses_out_degree else None
        contributions = program.edge_message(
            store.gather_values(col), out_deg, run.edge_values()
        )
        accum = segment_reduce(contributions, run.plan, program.reduce_op)
    ids, vals, changed = _apply_rows(program, accum, store, run.target_ids)
    return ids, vals, changed + run.first_row


def _sweep_sparse(
    program: VertexProgram,
    slab: TileSlab,
    index: EdgeIndex,
    frontier: np.ndarray,
    store,
    slot: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_sweep_run` over the out-edges of ``frontier`` alone — a
    folding program's gather (``VertexProgram.apply_folds``), over one
    server's whole slab.

    The edges' slab positions come from ``index`` (the slab's
    :class:`~repro.partition.tiles.EdgeIndex`), ascending; their
    messages from the slot, or, for a weighted program, evaluated per
    edge with the values of the tiles the edges sit in; one ``reduceat``
    reduces them per touched target row, and the apply covers those rows
    alone.  Every other row would fold in a message already folded into
    its old value — or the identity — and keep it.  Returns what
    :func:`_sweep_run` returns, for every row of the slab at once.
    """
    positions = index.positions(frontier)
    if not positions.size:
        none = np.zeros(0, dtype=np.int64)
        return none, np.zeros(0, dtype=np.float64), none
    sources = slab.sources(positions)
    if slot is not None:
        messages = store.gather_values(sources, slot)
    else:
        out_deg = store.gather_out_degrees(sources) if program.uses_out_degree else None
        messages = program.edge_message(
            store.gather_values(sources), out_deg, slab.edge_values_at(positions)
        )
    plan, rows = slab.touched(positions)
    accum = segment_reduce(messages, plan, program.reduce_op)
    ids, vals, changed = _apply_rows(program, accum, store, slab.target_ids[rows])
    return ids, vals, rows[changed]


def _apply_rows(
    program: VertexProgram, accum: np.ndarray, store, target_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both kernels' apply of ``accum`` over ``target_ids``: the changed
    targets' global ids, new values and indices into ``target_ids``."""
    old = store.gather_values(target_ids)
    new = program.apply(accum, old, target_ids)
    changed = np.flatnonzero(program.value_changed(new, old))
    return target_ids[changed], new[changed], changed
