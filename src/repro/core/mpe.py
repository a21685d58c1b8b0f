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

The tile is the unit of I/O, caching, skipping and metering; the unit of
*compute* is a run — a stretch of a server's scheduled tiles that are
consecutive in its assignment and live in its decoded-tile cache
(:class:`repro.partition.tiles.TileSlab`).  Every scheduled tile still
takes the one metered load, in sweep order; one pure-numpy kernel
(:func:`_sweep_run`: gather by index,
:func:`repro.utils.segments.segment_reduce`, vectorised apply) then
covers the whole run, so the Python interpreter appears once per run,
not once per tile.  What it gathers is the replica's message slot: a
program that reads no edge weight has its ``edge_message`` evaluated
once per resident vertex at the top of each server's sweep, not once
per edge in every tile.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from repro.apps.base import (
    VertexProgram,
    check_elementwise_in_source,
    check_elementwise_in_target,
)
from repro.cluster.cluster import Cluster
from repro.cluster.counters import CounterSnapshot
from repro.comm import Channel, decode_update, encode_update
from repro.comm.messages import DENSE, SPARSE
from repro.core.knobs import knob, knob_row, knob_rows
from repro.core.spe import SPE, TileManifest
from repro.core.vertexstore import AllInAllStore, OnDemandStore
from repro.delta.deltatiles import DeltaStore
from repro.delta.incremental import build_plan
from repro.delta.mutlog import MutationLog
from repro.metrics.cost import CostModel, CostSample, SuperstepCost
from repro.metrics.schedule import effective_parallel_volume
from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS, NULL_METRICS
from repro.obs.trace import NULL_BUFFER
from repro.partition.tiles import (
    Tile,
    TileRun,
    TileSlab,
    assign_tiles_balanced,
    assign_tiles_round_robin,
)
from repro.runtime import make_executor, process_runtime_available
from repro.runtime.active import ActiveBitmap, SourceHeads, TileSourceSummary
from repro.runtime.shm import (
    ArenaDisk,
    InboxResolver,
    SharedAllocator,
    SharedBlobArena,
    StagedInboxes,
)
from repro.storage.backing import BackingStore
from repro.storage.cache import cache_plan
from repro.storage.codecs import CODECS
from repro.tuning import KnobSettings, Tuner, TuningSample
from repro.utils.bloom import BloomFilter, hash_keys
from repro.utils.segments import (
    merge_sorted_unique,
    segment_reduce,
    sorted_unique,
)


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
        None, scope="setup",
        help="edge-cache budget per server, in bytes (None = unlimited: "
        "all idle RAM)",
    )
    cache_mode: int | None = knob(
        None, scope="setup", tunable=True,
        help="edge-cache mode 1-4 (None = auto-select from the capacity "
        "constraint, §IV-B)",
    )
    message_codec: str = knob(
        "snappylike", scope="setup", choices=tuple(CODECS), tunable=True,
        help="broadcast payload codec (default: Figure 8d's winner)",
    )
    comm_mode: str = knob(
        "hybrid", scope="setup", choices=("hybrid", "dense", "sparse"),
        tunable=True,
        help="broadcast representation; hybrid picks dense or sparse per "
        "message at §IV-C's 0.8 sparsity ratio",
    )
    use_bloom_filters: bool = knob(
        True, scope="setup", tunable=True,
        help="bloom-filter tile skipping, wherever the exact bitmap of "
        "selective scheduling does not decide",
    )
    bloom_false_positive_rate: float = knob(
        0.01, scope="setup",
        help="target false-positive rate of the per-tile filters",
    )
    replication_policy: str = knob(
        "aa", scope="setup", choices=("aa", "od"),
        help="vertex replication: All-in-All (§IV-A) or On-Demand",
    )
    tile_assignment: str = knob(
        "round_robin", scope="setup", choices=("round_robin", "balanced"),
        help="stage-two tile placement: round-robin (§III-C.1) or LPT over "
        "tile sizes (better stragglers on skew)",
    )
    # Metering is byte-identical either way (Server.load_tile).
    decoded_cache: bool = knob(
        True, scope="setup",
        help="keep decoded tiles live between supersteps instead of "
        "re-parsing each blob every superstep",
    )
    decoded_cache_entries: int | None = knob(
        None, scope="setup", min=1,
        help="LRU bound on live decoded tiles per server (None = all)",
    )
    # None keeps the engine frozen-graph and is a bitwise no-op: no
    # delta store exists, the tile parser is the plain
    # ``Tile.from_bytes``, and no delta counters ever move.
    mutations: bool | None = knob(
        None, scope="setup",
        help="evolving graphs (repro.delta): accept mutation batches and "
        "overlay them on the immutable base tiles at load time",
    )

    # --- run scope: a per-run choice (flag, JobSpec key, warm swap) ---
    # Strictly more skips than bloom alone (differing only on bloom
    # false positives); see MPE._resolve_schedule.
    selective_scheduling: bool = knob(
        True, scope="run", alias="selective",
        help="selective scheduling: skip tiles whose source vertices are "
        "all inactive (exact active-vertex bitmap; GraphMP)",
    )
    max_supersteps: int = knob(
        200, scope="run", min=1, help="superstep cap per run"
    )
    checkpoint_every: int | None = knob(
        None, scope="run", min=1,
        help="snapshot values into DFS every N supersteps (bounds "
        "re-executed work after a fault)",
    )
    # All three are bitwise-identical in results and metering.  The
    # REPRO_EXECUTOR environment variable (CI's forcing flag) overrides
    # this at run time.
    executor: str = knob(
        "serial", scope="run", choices=("serial", "parallel", "process"),
        help="host executor: serial sweep, GIL threads, or the "
        "shared-memory process pool",
    )
    num_threads: int | None = knob(
        None, scope="run", min=1,
        help="thread-pool width for --executor parallel (default: one "
        "per core)",
    )
    num_workers: int | None = knob(
        None, scope="run", min=1,
        help="process-pool width for --executor process (default: one "
        "per core, capped)",
    )
    # Results and metering are bitwise identical at every depth.  The
    # REPRO_PREFETCH environment variable (CI's forcing flag) overrides
    # the depth at run time.
    prefetch_depth: int = knob(
        0, scope="run", min=0, tunable=True,
        help="tile prefetch pipeline depth (0 = off): overlap the next "
        "tile's disk read + decompress + decode with compute",
    )
    io_threads: int = knob(
        1, scope="run", min=1, tunable=True,
        help="background I/O threads per server feeding the pipeline",
    )
    # "mmap" is GraphMP's semi-external-memory mode (file-backed memmaps
    # from repro.storage.backing): the N×|V| replicas stop being the
    # memory ceiling.  The segments are MAP_SHARED, so the process
    # executor and checkpoint/restore work unchanged; results and
    # metering are bitwise identical in both modes.
    vertex_store: str = knob(
        "mem", scope="run", choices=("mem", "mmap"),
        help="vertex replica backing: in-RAM arrays or file-backed "
        "memmaps (semi-external memory — scales past RAM)",
    )
    # Requires mutations=True and a prior completed run of the same
    # program on this engine (ValueError otherwise).  SSSP/WCC repair is
    # bitwise-equal to from-scratch on the mutated graph; PageRank
    # agrees to its convergence tolerance (DESIGN.md §5i).
    incremental: bool = knob(
        False, scope="run", warm_only=True,
        help="restart from the graph's previous fixed point, repairing "
        "only mutation-disturbed vertices (needs a prior completed run "
        "of the same algorithm)",
    )
    # Off is bitwise identical to an engine without the tuner.
    tune: bool = knob(
        False, scope="run",
        help="online autotuner: fit the cost model to the first "
        "supersteps, then switch codec/comm/cache/prefetch knobs mid-run "
        "at superstep boundaries (repro.tuning)",
    )

    def __post_init__(self) -> None:
        for row in knob_rows(type(self)):
            row.check(getattr(self, row.name))
        if self.incremental and not self.mutations:
            raise ValueError("incremental=True requires mutations=True")


@dataclass
class SuperstepReport:
    """Per-superstep measurements."""

    superstep: int
    updated_vertices: int
    tiles_processed: int
    tiles_skipped: int
    net_bytes: int
    disk_read_bytes: int
    cache_hit_ratio: float
    message_modes: list[int] = field(default_factory=list)
    modeled: SuperstepCost | None = None
    wall_s: float = 0.0


@dataclass
class RunResult:
    """Outcome of one vertex program execution."""

    values: np.ndarray
    supersteps: list[SuperstepReport]
    converged: bool
    # --- host-runtime telemetry (PR-1 knobs) --------------------------
    # The executor that ran, and — only when the platform could not run
    # the one asked for — the one that was requested.
    executor: str = "serial"
    executor_requested: str | None = None
    decoded_cache_hits: int = 0
    decoded_cache_misses: int = 0
    # Decode-once broadcast telemetry, counted from zero every run:
    # envelopes served from the per-superstep decode cache vs actually
    # decoded (hits + misses = envelopes received).
    payload_decode_hits: int = 0
    payload_decode_misses: int = 0
    # Effective tile-prefetch pipeline depth this run executed with
    # (0 = pipeline off; REPRO_PREFETCH overrides already applied).
    prefetch_depth: int = 0
    # Whether bitmap selective scheduling was active and which
    # vertex-store backing ran.
    selective: bool = False
    vertex_store: str = "mem"
    # The engine's one bloom-filter build ({superstep, tiles, bytes};
    # filters persist across warm runs) — None when no schedule has
    # probed a filter yet, which is every default-config run.
    filters_built: dict | None = None
    # Autotuner summary (fitted constants, residuals, decision trace)
    # when the run was tuned or consumed a scripted plan; None otherwise.
    tuning: dict | None = None
    # Evolving-graph summary (repro.delta): the delta store's state plus
    # — on incremental runs — the plan stats (dirty/reset/forced sizes).
    # None when the mutation subsystem is off.
    delta: dict | None = None

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    def runtime(self) -> dict:
        """Host-runtime telemetry (JSON-serialisable)."""
        fallback = (
            {"executor_requested": self.executor_requested}
            if self.executor_requested is not None
            else {}
        )
        return {
            "executor": self.executor,
            **fallback,
            "decoded_cache_hits": self.decoded_cache_hits,
            "decoded_cache_misses": self.decoded_cache_misses,
            "payload_decode_hits": self.payload_decode_hits,
            "payload_decode_misses": self.payload_decode_misses,
            "prefetch_depth": self.prefetch_depth,
            "selective": self.selective,
            "vertex_store": self.vertex_store,
        }

    def trace(self) -> list[dict]:
        """Per-superstep telemetry as plain dicts (JSON-serialisable)."""
        out = []
        for s in self.supersteps:
            row = {
                "superstep": s.superstep,
                "updated_vertices": s.updated_vertices,
                "tiles_processed": s.tiles_processed,
                "tiles_skipped": s.tiles_skipped,
                "net_bytes": s.net_bytes,
                "disk_read_bytes": s.disk_read_bytes,
                "cache_hit_ratio": round(s.cache_hit_ratio, 4),
                "message_modes": list(s.message_modes),
                "wall_s": round(s.wall_s, 6),
            }
            if s.modeled is not None:
                row["modeled_s"] = {
                    "disk": s.modeled.disk_s,
                    "network": s.modeled.network_s,
                    "decompress": s.modeled.decompress_s,
                    "compute": s.modeled.compute_s,
                    "sync": s.modeled.sync_s,
                    "fault": s.modeled.fault_s,
                    "probe": s.modeled.probe_s,
                    "delta": s.modeled.delta_s,
                    "total": s.modeled.total_s,
                    "overlap": s.modeled.overlap_s,
                }
            out.append(row)
        return out

    def save_trace(self, path: str) -> None:
        """Write the telemetry trace as JSON (per-superstep rows plus
        the host-runtime summary from :meth:`runtime`)."""
        import json

        out = {
            "converged": self.converged,
            "runtime": self.runtime(),
            "supersteps": self.trace(),
        }
        if self.tuning is not None:
            out["tuning"] = self.tuning
        if self.delta is not None:
            out["delta"] = self.delta
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)

    def total_net_bytes(self) -> int:
        return sum(s.net_bytes for s in self.supersteps)

    def total_disk_read(self) -> int:
        return sum(s.disk_read_bytes for s in self.supersteps)

    def avg_superstep_modeled_s(self, skip_first: bool = True) -> float:
        """The paper's metric: mean modeled time, first superstep excluded."""
        steps = self.supersteps[1:] if skip_first and len(self.supersteps) > 1 else self.supersteps
        vals = [s.modeled.total_s for s in steps if s.modeled]
        if not vals:  # zero supersteps, or none carried modeled costs
            return 0.0
        return float(np.mean(vals))

    def avg_superstep_overlap_s(self, skip_first: bool = True) -> float:
        """Overlap-aware sibling of :meth:`avg_superstep_modeled_s`:
        mean modeled time under the max(io, compute) pipelining rule."""
        steps = self.supersteps[1:] if skip_first and len(self.supersteps) > 1 else self.supersteps
        vals = [
            s.modeled.overlap_s
            for s in steps
            if s.modeled is not None and s.modeled.overlap_s is not None
        ]
        if not vals:
            return 0.0
        return float(np.mean(vals))


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
        # Optional repro.obs.trace.Tracer.  With None (the default) no
        # buffers exist: _wire_tracer hands every instrumentation site
        # the null buffer / null instrument instead.
        self.tracer = tracer
        # Effective prefetch knobs for the current run; re-resolved at
        # the top of run() (REPRO_PREFETCH override) *before* tracer
        # wiring and before the process pool forks, so workers inherit
        # the resolved values.
        self._prefetch_depth = self.config.prefetch_depth
        self._io_threads = self.config.io_threads
        # The tuner carrying fitted constants across runs (a warm
        # service engine reuses them job to job), an externally
        # installed scripted TuningPlan (tests/ablations — consulted
        # even with tuning off; never written by the tuner), and the
        # knobs currently in force.  ``_knobs`` is always concrete: an
        # untuned run holds the config's values for the whole run, so
        # every knob read below is tune-agnostic.
        self.tuner: Tuner | None = None
        self.tuning_plan = None
        self._knobs = self._base_knobs()
        # Per-tile exact source summaries (tile_id -> TileSourceSummary)
        # backing the bitmap prune; built at setup for every tile (a
        # warm engine's next job may switch selective scheduling on)
        # and refreshed by apply_mutations — as is their batched front,
        # the [P, 64] matrix of every tile's first sources.
        self._summaries: dict[int, TileSourceSummary] = {}
        self._heads: SourceHeads | None = None
        # --- evolving-graph state (repro.delta) ------------------------
        # The delta store (pending per-tile overlays + degree deltas)
        # and the engine-owned mutation log — both created at setup when
        # config.mutations is on, None otherwise.  ``_tile_parser`` is
        # the decode callback every metered tile load funnels through:
        # the plain Tile.from_bytes on frozen graphs, swapped for a
        # compose-overlay-on-parse closure when the mutation subsystem
        # is on (same object everywhere in one engine, so prefetch
        # speculation identity checks keep holding; forked workers
        # inherit the closure and the live overlay dict by address).
        self._delta: DeltaStore | None = None
        self.mutation_log: MutationLog | None = None
        # program name -> (converged values, delta-store watermark at
        # run end): what an incremental run restarts from.
        self._fixed_points: dict[str, tuple[np.ndarray, int]] = {}
        self._tile_parser = self._TILE_PARSER
        # Tiles force-scheduled (exempt from bitmap + bloom pruning) at
        # exactly one superstep of the current run — the incremental
        # seed superstep, where deletion/reset targets must re-gather
        # even though no "updated" vertex sources them.  Read by
        # _resolve_schedule only.
        self._forced_tiles: frozenset = frozenset()
        self._forced_superstep: int = -1
        self.spe = SPE(cluster.dfs)
        self._tiles_fetched = False
        # Per-server: list of (tile_id, blob_name, nbytes); the tiles'
        # bloom filters, empty until _ensure_blooms builds them all.
        self._assignments: list[list[tuple[int, str, int]]] = []
        self._blooms: dict[int, BloomFilter] = {}
        # The one filter build's record (superstep, tiles, bytes); None
        # while no schedule has routed a decision through a filter.
        self.filters_built: dict | None = None
        self._tile_nbytes_total = 0
        # Per-server sorted global ids of the targets its tiles own —
        # the shared static index behind range-dense broadcasts.
        self._server_target_ids: list[np.ndarray] = []
        # Installed by repro.faults.FaultInjector.attach(); None in
        # normal runs.
        self.injector = None
        # --- phase-handler state (see _phase_handler) ------------------
        # The program of the active run; each server's own (ids, vals)
        # update, left by its compute phase for its apply phase;
        # whether this process is a forked worker (set post-fork by
        # _process_child_init), in which case handler results carry a
        # ServerMirror for the parent; and the apply phase's inbox
        # resolver (its shared-segment attachment, in a worker).
        self._run_program: VertexProgram | None = None
        self._own_updates: dict[int, tuple] = {}
        self._forked = False
        self._inboxes = InboxResolver()
        # --- decode-once broadcast fan-out -----------------------------
        # Per-superstep content-keyed decode cache: payload bytes →
        # immutable UpdatePayload.  The first receiver decodes, every
        # later one reuses the result while still charging its own
        # decompress bytes.  The lock spans the whole get-or-decode so
        # thread-executor hit/miss counts stay deterministic.
        self._decode_cache: dict[bytes, object] = {}
        self._decode_lock = threading.Lock()
        self.payload_decode_hits = 0
        self.payload_decode_misses = 0

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
            self._prefetch_depth > 0
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
            if server.decoded_cache is not None:
                server.decoded_cache.trace = buf
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
        self._obs_decode_hits = metrics.counter(
            "repro_decode_cache_hits",
            "broadcast payloads served from the decode-once cache",
        ).labels()
        self._obs_decode_misses = metrics.counter(
            "repro_decode_cache_misses",
            "broadcast payloads actually decoded",
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
                if row.name == "mutations" and self._delta is None:
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
        if self.config.mutations and self._delta is None:
            # Evolving-graph plumbing exists from the first setup on:
            # the overlay store starts empty (composition is a no-op
            # until a batch lands) and the engine owns the append-only
            # mutation log batches are appended to.
            self._delta = DeltaStore(self.manifest)
            self.mutation_log = MutationLog(
                num_vertices=self.manifest.num_vertices
            )
            self._tile_parser = self._make_delta_parser()
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
            self._assignments[server_id].append((tile_id, name, len(blob)))
            per_server_bytes[server_id] += len(blob)
            tile = self._tile_parser(blob)
            self._summaries[tile_id] = TileSourceSummary.from_tile(tile)
            shapes[server_id].append(TileSlab.shape_of(tile))
            if self.config.replication_policy == "od":
                self._server_sources[server_id].append(tile.source_vertices)
        self._heads = SourceHeads(self._summaries)
        self._tile_nbytes_total = sum(per_server_bytes)
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
            if self.config.decoded_cache:
                # Unbounded, the decoded tiles' shadows live in one slab
                # (resident runs are swept as one); a bounded cache keeps
                # them per tile, so that its bound holds.
                entries = self.config.decoded_cache_entries
                slab = None
                if entries is None:
                    names = [name for _t, name, _n in self._assignments[server_id]]
                    targets = self._server_target_ids[server_id]
                    slab = TileSlab(names, shapes[server_id], targets)
                server.attach_decoded_cache(max_entries=entries, slab=slab)
        self._tiles_fetched = True

    def _check_static_layout(self) -> None:
        """The two facts about stage-two placement the superstep relies
        on, checked once instead of re-tested (and worked around) every
        superstep; both hold for ``round_robin`` and ``balanced``.

        * Each server's tile ids are strictly ascending, so its per-tile
          changed-id parts — ascending disjoint target ranges — arrive
          already sorted and the sweep concatenates them without a sort.
        * Every vertex has exactly one owning server, so all senders'
          updates land in one batched ``store.write`` per receiver: with
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
                "servers' target ids overlap: the batched apply scatter "
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
        from repro.core.checkpoint import write_checkpoint

        # Resolve the pipeline knobs first: tracer wiring keys off the
        # effective depth, and the process pool's forked workers inherit
        # these fields by value.
        self._prefetch_depth, self._io_threads = self._resolve_prefetch()
        # Host telemetry is per run: a warm engine's second job reports
        # its own decode counts, not the running total.
        self.payload_decode_hits = 0
        self.payload_decode_misses = 0
        self._knobs = self._base_knobs()
        ebuf = self._wire_tracer()
        # A previous attempt that aborted mid-superstep (supervised
        # recovery) may have left engine spans open; close them so
        # this attempt's run span is a sibling, not a child.
        ebuf.close_to(0)
        ebuf.begin("run", "run", program=program.name)
        self.setup()
        prep = self._begin_run(program, graph_for_init, resume)
        tuner, plan, tbuf = prep.tuner, prep.plan, prep.tbuf
        cfg = self.config
        servers = self.cluster.servers
        runtime_name, width, requested = self._resolve_runtime(ebuf)
        # Run-scoped shared-memory state (stores, blob arena) is torn
        # down LIFO in the finally below — on every path, including
        # injected faults and KeyboardInterrupt, so no SharedMemory
        # segment outlives the run.
        cleanup: list = []
        executor = None
        try:
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
            self._run_program = program
            if executor.forks:
                self._start_process_pool(executor, cleanup)
            else:
                executor.start(self._phase_handler, len(servers))

            for superstep in range(prep.start_superstep, cfg.max_supersteps):
                t0 = time.perf_counter()
                ebuf.begin("superstep", "superstep", superstep=superstep)
                if self.injector is not None:
                    self.injector.begin_superstep(superstep)
                before = {
                    s.server_id: CounterSnapshot.capture(s) for s in servers
                }
                # Consult the plan *after* the snapshots: the compute
                # handler puts a cache-mode switch into force on its
                # server's counters, and that charge must land inside
                # this superstep's deltas.
                if plan is not None:
                    self._apply_knobs(
                        self._superstep_knobs(superstep, tuner, plan),
                        superstep,
                        tbuf,
                    )
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
                # parent-side fault replay all read this record.
                schedule = self._resolve_schedule(
                    superstep, prev_updated, prep.num_vertices
                )
                steps = self._dispatch(
                    executor,
                    "compute",
                    [(superstep, sched, self._knobs) for sched in schedule],
                )
                ebuf.end()  # compute
                ebuf.begin("broadcast", "phase")
                for server, step in zip(servers, steps):
                    if step.prefetch_total > 0:
                        self._obs_prefetch.labels(
                            server=server.server_id
                        ).set(step.prefetch_ready / step.prefetch_total)
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
                # Also per-server-independent (own store, own mailbox,
                # own counters).  The parent drains each mailbox; every
                # handler applies its inbox plus the own update its
                # compute phase left behind, straight into its (possibly
                # shared) value arrays.
                for hits, misses in self._dispatch(
                    executor,
                    "apply",
                    [
                        [
                            (env.src, env.payload)
                            for env in self.channel.receive_all(s.server_id)
                        ]
                        for s in servers
                    ],
                ):
                    self.payload_decode_hits += hits
                    self.payload_decode_misses += misses
                ebuf.end()  # apply
                ebuf.begin("account", "phase")
                # Per-server update sets are sorted and disjoint (each
                # server owns disjoint target ranges), so the next
                # superstep's frontier is sorted-unique by construction.
                prev_updated = merge_sorted_unique([st.ids for st in steps])
                reports.append(
                    self._account_superstep(
                        prep, superstep, t0, before, schedule, steps
                    )
                )
                updated_count = reports[-1].updated_vertices
                ebuf.end()  # account
                if (
                    cfg.checkpoint_every is not None
                    and updated_count > 0
                    and (superstep + 1) % cfg.checkpoint_every == 0
                ):
                    with ebuf.span("checkpoint", "io", superstep=superstep):
                        write_checkpoint(
                            self.cluster.dfs,
                            self.manifest.name,
                            program.name,
                            superstep,
                            self._collect_values(cfg, servers, prep.init_values),
                            prev_updated,
                        )
                if updated_count == 0:
                    ebuf.instant("converged", "run", superstep=superstep)
                ebuf.end()  # superstep
                if updated_count == 0:
                    converged = True
                    break

            # Collect results while run-scoped shared stores are still
            # mapped; the finally unlinks their segments.
            values = self._collect_values(cfg, servers, prep.init_values)
            # Remember the fixed point incremental restarts repair from.
            # Converged runs only: a max_supersteps cutoff is not a
            # fixed point and repairing from it would freeze un-settled
            # vertices behind the selective prune.
            if self._delta is not None and converged:
                self._fixed_points[program.name] = (
                    values.copy(),
                    self._delta.watermark,
                )
        finally:
            if executor is not None:
                executor.close()
            for fn in reversed(cleanup):
                fn()
            self._run_program = None
            # Close the run span — and, when a fault aborted a
            # superstep mid-phase, every span still open above it.
            ebuf.close_to(0)

        decoded = [
            s.decoded_cache.stats for s in servers if s.decoded_cache is not None
        ]
        incremental_plan = prep.incremental_plan
        return RunResult(
            values=values,
            supersteps=reports,
            converged=converged,
            executor=runtime_name,
            executor_requested=requested,
            decoded_cache_hits=sum(st.hits for st in decoded),
            decoded_cache_misses=sum(st.misses for st in decoded),
            payload_decode_hits=self.payload_decode_hits,
            payload_decode_misses=self.payload_decode_misses,
            prefetch_depth=self._prefetch_depth,
            selective=cfg.selective_scheduling,
            vertex_store=cfg.vertex_store,
            filters_built=self.filters_built,
            tuning=(
                tuner.report()
                if tuner is not None
                else {"plan": plan.to_dict()} if plan is not None else None
            ),
            delta=(
                {
                    "incremental": incremental_plan is not None,
                    **(
                        incremental_plan.stats
                        if incremental_plan is not None
                        else {}
                    ),
                    **self._delta.summary(),
                }
                if self._delta is not None
                else None
            ),
        )

    def _begin_run(self, program, graph_for_init, resume: bool) -> "_RunPrep":
        """Everything a run decides before its first superstep: which
        plan it consults, the graph metadata and initial values, the
        incremental restart, checkpoint resume, and the forced tiles of
        the seed superstep."""
        from repro.core.checkpoint import checkpoint_path, latest_checkpoint

        # --- autotuning (repro.tuning) --------------------------------
        # An externally scripted plan wins (tests/ablations force known
        # switches); otherwise a tuned run builds/continues the tuner's
        # recorded plan.  Both are consulted only at superstep
        # boundaries, parent-side, so every executor and fault replay
        # consumes the identical decision trace.
        tuner: Tuner | None = None
        plan = self.tuning_plan
        if plan is None and self.config.tune:
            if self.tuner is None:
                self.tuner = Tuner()
            tuner = self.tuner
            plan = tuner.begin_run(
                self._tuning_signature(program), self._base_knobs()
            )
        # The tuning lane exists only for runs that consult a plan.
        tbuf = self._lane("tuning") if plan is not None else NULL_BUFFER
        tbuf.instant(
            "tuning_start",
            "tuning",
            mode="tuner" if tuner is not None else "scripted",
        )
        # A supervised retry may leave half-delivered broadcasts from an
        # aborted superstep behind; every run starts with clean mailboxes.
        self.channel.clear_all()
        cfg = self.config
        num_vertices = self.manifest.num_vertices
        in_degrees, out_degrees = self.spe.load_degrees(self.manifest)
        num_edges_now = self.manifest.num_edges
        if self._delta is not None:
            # Applied mutations shift degrees and |E|; every program
            # must see the mutated graph's metadata (PageRank divides
            # contributions by out-degree), for scratch runs over
            # overlaid tiles exactly as for incremental ones.
            in_degrees = (in_degrees + self._delta.in_deg_delta).astype(
                in_degrees.dtype
            )
            out_degrees = (out_degrees + self._delta.out_deg_delta).astype(
                out_degrees.dtype
            )
            num_edges_now += self._delta.edge_delta

        init_graph = graph_for_init or _ManifestGraphView(
            num_vertices, num_edges_now, in_degrees, out_degrees
        )
        init_values = program.init_values(init_graph).astype(np.float64, copy=True)
        if init_values.size != num_vertices:
            raise ValueError("program init_values size mismatch with manifest")
        degrees = out_degrees if program.uses_out_degree else None
        if not program.uses_edge_weight:
            # The sweep evaluates edge_message per vertex, not per edge.
            check_elementwise_in_source(program, init_values, degrees)
        # ... and apply / value_changed per run of tiles, not per tile.
        check_elementwise_in_target(program, init_values)

        # --- incremental restart (repro.delta) ------------------------
        # Derived deterministically from (previous fixed point, pending
        # mutations): a supervised fault retry recomputes the identical
        # plan because the fixed-point memory only advances at
        # successful run end.
        incremental_plan = None
        if cfg.incremental:
            if self._delta is None:  # config validation makes this dead
                raise ValueError("incremental=True requires mutations=True")
            fixed = self._fixed_points.get(program.name)
            if fixed is None:
                raise ValueError(
                    f"incremental run of {program.name!r} needs a previous "
                    "completed run of the same program on this engine"
                )
            prev_fp, fp_watermark = fixed
            composed_memo: dict[int, Tile] = {}

            def _load_composed(tile_id: int) -> Tile:
                if tile_id not in composed_memo:
                    composed_memo[tile_id] = self._composed_tile(tile_id)
                return composed_memo[tile_id]

            incremental_plan = build_plan(
                program,
                prev_fp,
                self._delta.since(fp_watermark),
                init_values=init_values,
                num_vertices=num_vertices,
                num_tiles=self.manifest.num_tiles,
                tile_of=self._delta.tile_of,
                load_tile=_load_composed,
            )
            del composed_memo
            init_values = incremental_plan.start_values.astype(
                np.float64, copy=True
            )
            stats = incremental_plan.stats
            self._lane("delta").instant(
                "incremental_plan",
                "delta",
                program=program.name,
                num_mutations=stats["num_mutations"],
                dirty_vertices=stats["dirty_vertices"],
                reset_vertices=stats["reset_vertices"],
                forced_tiles=stats["forced_tiles"],
            )
            self._metrics.gauge(
                "repro_delta_dirty_vertices",
                "dirty vertices seeding the incremental frontier",
            ).labels().set(stats["dirty_vertices"])

        start_superstep = 0
        # Vertices "updated" in the previous superstep — drives bloom
        # skipping.  Superstep 0 processes everything (initial load); a
        # resumed run continues with the checkpointed update set; an
        # incremental run seeds the mutation batch's dirty set so the
        # seed superstep prunes down to dirty-sourced + forced tiles.
        prev_updated: np.ndarray | None = None
        if resume:
            snapshot = latest_checkpoint(
                self.cluster.dfs, self.manifest.name, program.name
            )
            if snapshot is not None:
                if snapshot.values.size != num_vertices:
                    raise ValueError("checkpoint does not match this dataset")
                init_values = snapshot.values.copy()
                start_superstep = snapshot.superstep + 1
                prev_updated = snapshot.prev_updated
                # Restoring is DFS traffic: under AA every replica pulls
                # the snapshot down (recovery I/O, not algorithm I/O).
                ckpt_bytes = self.cluster.dfs.size(
                    checkpoint_path(
                        self.manifest.name, program.name, snapshot.superstep
                    )
                )
                for server in self.cluster.servers:
                    server.counters.recovery_read += ckpt_bytes

        # Forced tiles fire at the incremental seed superstep only; a
        # checkpointed resume (start_superstep > 0) is past the seed, so
        # nothing is forced.  Set before any executor forks.
        if incremental_plan is not None and start_superstep == 0:
            self._forced_tiles = incremental_plan.forced_tiles
            self._forced_superstep = 0
            prev_updated = incremental_plan.dirty_ids
        else:
            self._forced_tiles = frozenset()
            self._forced_superstep = -1
        return _RunPrep(
            tuner=tuner,
            plan=plan,
            tbuf=tbuf,
            num_vertices=num_vertices,
            degrees=degrees,
            init_values=init_values,
            incremental_plan=incremental_plan,
            start_superstep=start_superstep,
            prev_updated=prev_updated,
            cost_model=CostModel(self.cluster.spec),
        )

    def _build_stores(self, init_values, degrees, shared: bool, cleanup: list) -> None:
        """Give every server its vertex store for this run.

        Where the replica arrays live is picked once per run: the heap
        (no allocator), shared-memory segments when handlers run in
        forked workers (``shared``), or — semi-external-memory mode —
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
        # Shared-memory AA replicas view one read-only degree
        # segment — a host-side dedup; each store still *accounts* a
        # full per-replica copy (§IV-A).
        share_degrees = shared and cfg.vertex_store != "mmap"
        degree_donor = None
        for server in self.cluster.servers:
            if cfg.replication_policy == "aa":
                # All-in-All: full dense arrays on every server.
                store = AllInAllStore(
                    init_values, degrees, allocator, degree_donor
                )
                if share_degrees:
                    degree_donor = store
            else:
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
    ) -> SuperstepReport:
        """One finished superstep's accounting: per-server deltas →
        modeled cost → report → (tuned runs) the tuner's observation."""
        servers = self.cluster.servers
        step_deltas = [
            before[server.server_id].delta(server) for server in servers
        ]
        step_cost = prep.cost_model.superstep_time(step_deltas)
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
                st.payload[0] for st in steps if st.payload is not None
            ],
            modeled=step_cost,
            wall_s=time.perf_counter() - t0,
        )
        self._obs_wall.observe(report.wall_s)
        self._obs_decode_hits.set(self.payload_decode_hits)
        self._obs_decode_misses.set(self.payload_decode_misses)
        if prep.tuner is not None:
            self._observe_tuning(
                prep, superstep, step_deltas, before, step_cost, report, schedule
            )
        return report

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
        if server.decoded_cache is not None:
            slab = server.decoded_cache.slab
            server.attach_decoded_cache(
                max_entries=server.decoded_cache.max_entries,
                slab=slab.relaid({}) if slab is not None else None,
            )
        return refetched

    # ------------------------------------------------------------------
    # Evolving graphs (repro.delta)
    # ------------------------------------------------------------------
    def _make_delta_parser(self):
        """The overlay-composing tile parser.

        Keyed by the *parsed* tile's id — no blob-name plumbing — so
        every decode site (sweep, prefetch speculation, cache resync,
        summary/bloom backfill) composes identically.  The closure
        holds the live DeltaStore: forked workers inherit the overlay
        dict by address, and tiles without a pending overlay parse at
        exactly the base cost.
        """
        delta = self._delta
        base_parser = Tile.from_bytes

        def parse(data: bytes) -> Tile:
            tile = base_parser(data)
            overlay = delta.overlays.get(tile.tile_id)
            if overlay is None or overlay.is_empty:
                return tile
            return overlay.compose(tile)

        return parse

    def _tile_location(self, tile_id: int):
        """(server, index-in-assignment, blob_name) for a tile."""
        for server in self.cluster.servers:
            for idx, (tid, name, _nbytes) in enumerate(
                self._assignments[server.server_id]
            ):
                if tid == tile_id:
                    return server, idx, name
        raise KeyError(f"tile {tile_id} not assigned")

    def _base_tile(self, tile_id: int) -> Tile:
        """Decode a tile's current *base* blob (no overlay), unmetered."""
        server, _idx, name = self._tile_location(tile_id)
        return Tile.from_bytes(server.disk.peek(name))

    def _composed_tile(self, tile_id: int) -> Tile:
        """Decode a tile with its pending overlay applied, unmetered
        (host-side planning, like skip-set computation)."""
        server, _idx, name = self._tile_location(tile_id)
        return self._tile_parser(server.disk.peek(name))

    def apply_mutations(self, ops=None, *, log: MutationLog | None = None) -> dict:
        """Append a mutation batch and compact it into per-tile overlays.

        ``ops`` is an iterable of mutation dicts (``{"op", "src",
        "dst", "weight"?}``) appended to the engine's own log;
        alternatively ``log=`` adopts a complete external
        :class:`~repro.delta.mutlog.MutationLog` (the service's restart
        replay path).  Compaction is atomic — a batch that fails
        validation (e.g. deleting a non-existent edge) raises and
        leaves every overlay, degree delta, and the watermark
        untouched — and idempotent: rows at or below the store's
        watermark are skipped, so replaying a persisted log after
        restart re-applies only what is missing.

        Tiles whose pending overlay grows past ``merge_ratio`` × base
        edges are *merged*: the composed tile is rewritten as a new
        versioned blob (locally and in DFS, so crash respawns refetch
        the merged bytes) and the overlay is emptied.

        Must be called between runs (the overlay dict is frozen during
        a run: forked workers share it by address).  Returns a report
        dict with applied counts, overlay state, merges, and modeled
        compact/merge seconds.
        """
        if not self.config.mutations:
            raise ValueError(
                "mutations are disabled; construct the engine with "
                "MPEConfig(mutations=True)"
            )
        self.setup()
        if log is not None:
            if ops:
                raise ValueError("pass ops= or log=, not both")
            if log.last_id < self._delta.watermark:
                raise ValueError(
                    f"adopted log ends at id {log.last_id} but "
                    f"{self._delta.watermark} mutations are already applied"
                )
            self.mutation_log = log
        elif ops:
            self.mutation_log.extend(ops)
        pending = self.mutation_log.since(self._delta.watermark)
        num_inserts = sum(1 for m in pending if m.op == "insert")
        num_deletes = len(pending) - num_inserts

        result = self._delta.compact(pending, self._base_tile)

        if pending:
            # Every checkpoint written so far snapshots the *pre-batch*
            # graph; resuming any program from one after this point
            # would converge against stale values (observably wrong for
            # min-programs).  Mutations invalidate them all.
            for path in list(
                self.cluster.dfs.list_files(f"{self.manifest.name}/ckpt-")
            ):
                self.cluster.dfs.delete(path)

        spec = self.cluster.spec
        compact_bytes = 0
        # Per server: assignment index -> (blob name, composed tile) of
        # every tile whose shape may have changed — its slab's new slots.
        reshaped: dict[int, dict[int, tuple[str, Tile]]] = {}
        for tile_id in result.affected:
            server, idx, name = self._tile_location(tile_id)
            composed = result.composed[tile_id]
            reshaped.setdefault(server.server_id, {})[idx] = (name, composed)
            # Refresh parent-side schedule state from the composed tile
            # so the next run's pruning sees the mutated source sets
            # (an inserted edge's source must be probe-visible).
            self._summaries[tile_id] = TileSourceSummary.from_tile(composed)
            self._heads.refresh(self._summaries[tile_id])
            if tile_id in self._blooms:
                self._blooms[tile_id] = composed.build_bloom_filter(
                    self.config.bloom_false_positive_rate
                )
            if server.decoded_cache is not None:
                server.decoded_cache.invalidate(name)
            overlay = self._delta.overlays.get(tile_id)
            if overlay is not None and not overlay.is_empty:
                # Persisting the delta blob next to its base tile is
                # the batch's durable write.
                nb = overlay.nbytes()
                server.counters.disk_write += nb
                compact_bytes += nb

        merged_bytes = 0
        merges: list[dict] = []
        for tile_id in result.merged:
            server, idx, old_name = self._tile_location(tile_id)
            composed = result.composed[tile_id]
            generation = self._delta.finish_merge(tile_id)
            blob = composed.to_bytes()
            new_name = f"tile-{tile_id}-v{generation}"
            # DFS is the system of record: a crash respawn refetches
            # manifest.tile_path(tile_id), which must now hold the
            # merged bytes.  The local blob gets a *versioned* name so
            # stale cached/arena entries under the old name can never
            # serve the pre-merge tile.
            self.cluster.dfs.write(self.manifest.tile_path(tile_id), blob)
            server.store_blob(new_name, blob)
            if server.decoded_cache is not None:
                server.decoded_cache.invalidate(old_name)
            self._assignments[server.server_id][idx] = (
                tile_id,
                new_name,
                len(blob),
            )
            reshaped[server.server_id][idx] = (new_name, composed)
            merged_bytes += len(blob)
            merges.append(
                {
                    "tile": tile_id,
                    "generation": generation,
                    "nbytes": len(blob),
                }
            )
        if result.merged:
            self._tile_nbytes_total = sum(
                nbytes
                for per_server in self._assignments
                for _tid, _name, nbytes in per_server
            )
        for server_id, changes in reshaped.items():
            dcache = self.cluster.servers[server_id].decoded_cache
            if dcache is not None and dcache.slab is not None:
                dcache.slab = dcache.slab.relaid(changes)

        modeled_compact_s = (
            compact_bytes / spec.disk_write_bps
            + result.overlay_edges * spec.delta_edge_apply_s
        )
        modeled_merge_s = merged_bytes / spec.disk_write_bps
        report = {
            "applied": len(pending),
            "inserts": num_inserts,
            "deletes": num_deletes,
            "affected_tiles": len(result.affected),
            "merged": merges,
            "overlay_bytes": self._delta.total_overlay_bytes(),
            "overlay_edges": self._delta.total_overlay_edges,
            "watermark": self._delta.watermark,
            "modeled_compact_s": modeled_compact_s,
            "modeled_merge_s": modeled_merge_s,
        }
        if result.affected:
            dbuf = self._lane("delta")
            dbuf.instant(
                "mutate",
                "delta",
                applied=len(pending),
                inserts=num_inserts,
                deletes=num_deletes,
            )
            dbuf.instant(
                "compact",
                "delta",
                tiles=len(result.affected),
                overlay_bytes=result.overlay_bytes,
                overlay_edges=result.overlay_edges,
            )
            for m in merges:
                dbuf.instant(
                    "merge",
                    "delta",
                    tile=m["tile"],
                    generation=m["generation"],
                    nbytes=m["nbytes"],
                )
            self._metrics.gauge(
                "repro_delta_overlay_bytes",
                "pending overlay bytes across all tiles",
            ).labels().set(report["overlay_bytes"])
        return report

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

    def _resolve_prefetch(self) -> tuple[int, int]:
        """Resolve this run's prefetch depth and I/O thread count.

        ``REPRO_PREFETCH`` (CI's forcing flag) overrides the configured
        depth; the I/O thread count always comes from the config.
        """
        cfg = self.config
        raw = os.environ.get("REPRO_PREFETCH", "").strip()
        if not raw:
            return cfg.prefetch_depth, cfg.io_threads
        try:
            depth = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_PREFETCH must be an integer depth, got {raw!r}"
            ) from None
        if depth < 0:
            raise ValueError("REPRO_PREFETCH must be >= 0")
        return depth, cfg.io_threads

    # ------------------------------------------------------------------
    # Autotuning (repro.tuning)
    # ------------------------------------------------------------------
    def _base_knobs(self) -> KnobSettings:
        """The configured knob values as one concrete settings object —
        what every superstep of an untuned run executes, and the
        tuner's starting point."""
        cfg = self.config
        return KnobSettings(
            message_codec=cfg.message_codec,
            comm_mode=cfg.comm_mode,
            use_bloom=cfg.use_bloom_filters,
            prefetch_depth=self._prefetch_depth,
            io_threads=self._io_threads,
            cache_mode=None,
        )

    def _tuning_signature(self, program) -> tuple:
        """What makes two runs "the same run" to the tuner: identical
        signature → the recorded plan replays (fault retry, identical
        resubmission); different → new plan, constants kept."""
        return (
            self.manifest.name,
            program.name,
            self.config,
            self._prefetch_depth,
            self._io_threads,
        )

    def _superstep_knobs(self, superstep, tuner, plan) -> KnobSettings:
        """Resolve the knobs governing ``superstep`` (parent-side, the
        single decision point).  The tuner records as it decides;
        scripted plans answer from their sticky map.  A forced
        ``REPRO_PREFETCH`` depth pins the pipeline knobs — CI forces a
        depth precisely to exercise it, so decisions must not un-force
        it."""
        if tuner is not None:
            knobs = tuner.knobs_for(superstep)
        else:
            knobs = plan.knobs_for(superstep) or replace(
                self._knobs, cache_mode=None
            )
        if os.environ.get("REPRO_PREFETCH", "").strip():
            knobs = replace(
                knobs,
                prefetch_depth=self._prefetch_depth,
                io_threads=self._io_threads,
            )
        return knobs

    def _apply_knobs(self, knobs: KnobSettings, superstep, tbuf) -> None:
        """Put ``knobs`` into force for this superstep, parent-side:
        the switch is on the tuning lane and the compute dispatch ships
        ``self._knobs``.  What a knob changes *on a server* — the
        metered cache-mode switch — is the compute handler's work, on
        that server's counters."""
        switched = knobs != self._knobs or (
            knobs.cache_mode is not None
            and any(
                s.cache is not None and s.cache.mode != knobs.cache_mode
                for s in self.cluster.servers
            )
        )
        if switched:
            tbuf.instant(
                "knob_switch", "tuning", superstep=superstep, **asdict(knobs)
            )
        self._knobs = knobs

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
                    self.config.bloom_false_positive_rate
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

    def _observe_tuning(
        self, prep, superstep, step_deltas, before, step_cost, report, schedule
    ) -> None:
        """Feed one finished superstep to the tuner.

        The fit row follows the cost model's straggler attribution;
        the default (deterministic) observation is the modeled superstep
        seconds minus injected fault delay, so faults perturb neither
        the fit nor the decision trace.
        """
        tuner = prep.tuner
        knobs = self._knobs
        straggler = prep.cost_model.straggler_index(step_deltas)
        observed = (
            report.wall_s
            if tuner.config.time_source == "wall"
            else step_cost.total_s - step_cost.fault_s
        )
        cost = CostSample.from_deltas(step_deltas, observed, straggler)
        # Message-path codec bytes on the straggler: its total codec
        # volume minus the edge cache's share when cache and message
        # path share a codec.
        d = step_deltas[straggler]
        sserver = self.cluster.servers[straggler]
        mc = knobs.message_codec
        msg_bytes = d.decompressed.get(mc, 0) + d.compressed.get(mc, 0)
        cache = sserver.cache
        if cache is not None and cache.mode != 1 and cache.codec.name == mc:
            snap = before[sserver.server_id]
            msg_bytes -= (
                cache.stats.bytes_decompressed - snap.cache_bytes_decompressed
            )
        tuner.observe(
            TuningSample(
                superstep=superstep,
                knobs=knobs,
                cost=cost,
                msg_codec_bytes=max(0, int(msg_bytes)),
                updated=report.updated_vertices,
                num_vertices=prep.num_vertices,
                tiles_processed=report.tiles_processed,
                tiles_skipped=report.tiles_skipped,
                # Live working set for the cache decision: the blob
                # bytes the straggler's sweep was scheduled to serve.
                scheduled_bytes=sum(
                    nbytes for _tid, _name, nbytes in schedule[straggler].run
                ),
                miss_bytes=int(d.disk_read_random),
                cache_mode=cache.mode if cache is not None else 1,
                cache_capacity=(
                    cache.capacity_bytes if cache is not None else 0
                ),
                cache_used=int(sserver.counters.mem_cache),
                hit_ratio=report.cache_hit_ratio,
            )
        )
        if tuner.fit_superstep == superstep:
            prep.tbuf.instant(
                "fit",
                "tuning",
                superstep=superstep,
                num_samples=len(tuner.samples),
            )

    # ------------------------------------------------------------------
    # The superstep's tile schedule (§III-C.4 bloom skip; GraphMP's
    # selective scheduling via repro.runtime.active)
    # ------------------------------------------------------------------
    def _resolve_schedule(
        self, superstep: int, prev_updated, num_vertices: int
    ) -> "list[_ServerSchedule]":
        """Decide, once per superstep and parent-side, which tiles each
        server sweeps and which it skips — the only place the pruning
        rule is written down.  Tile by tile, in assignment order:

        1. A forced tile (the incremental seed superstep's
           deletion/reset targets) runs.
        2. Else, when the exact verdict exists — selective scheduling
           on, a previous update set (an incremental run seeds its
           dirty ids as superstep 0's), and not every vertex updated —
           the tile is skipped as ``"bitmap"`` iff its source summary
           misses the active bitmap.  One batched probe of every
           tile's first sources (:class:`~repro.runtime.active.SourceHeads`)
           answers for most tiles; the summary's own test is taken only
           where that cannot tell.  A survivor runs *unprobed*: it
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

        The result is plain data, so the sweeps of every executor, the
        tuner's working set and the fault replay's first-load
        coordinate are decision-identical by construction.
        """
        forced = (
            self._forced_tiles
            if superstep == self._forced_superstep
            else frozenset()
        )
        bitmap = heads = might_intersect = None
        if prev_updated is not None:
            if self.config.selective_scheduling:
                bitmap = ActiveBitmap.seed_from_ids(prev_updated, num_vertices)
                if bitmap.dense:
                    bitmap = None
                else:
                    heads = self._heads.probe(bitmap)
            if bitmap is None and self._knobs.use_bloom:
                if prev_updated.size == num_vertices:

                    def might_intersect(tile_id):
                        return self._summaries[tile_id].sources.size > 0

                else:
                    self._ensure_blooms(superstep)
                    hashed = hash_keys(prev_updated)

                    def might_intersect(tile_id):
                        return self._blooms[tile_id].might_intersect(hashed)

        schedule = []
        for tiles in self._assignments:
            run, skipped = [], []
            for tile in tiles:
                tile_id = tile[0]
                if tile_id in forced:
                    run.append(tile)
                elif bitmap is not None:
                    verdict = heads[tile_id]
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
            schedule.append(_ServerSchedule(tuple(run), tuple(skipped)))
        return schedule

    def _start_process_pool(self, executor, cleanup: list) -> None:
        """Stage shared-memory state and fork the worker pool.

        Everything big becomes shared *before* the fork — the vertex
        stores already are (:meth:`_build_stores`), and here all tile
        blobs (one read-only arena fronting each server's disk with
        unchanged metering) join them.  Per-phase dispatch then ships
        only plain data down and the handler's result plus a
        :class:`~repro.cluster.server.ServerMirror` back.  Teardown
        actions are pushed onto ``cleanup`` (run LIFO by ``run``'s
        finally).
        """
        servers = self.cluster.servers

        # Tile blobs: one shared read-only arena; every server's disk is
        # fronted by an arena view with byte-identical metering, so
        # worker tile loads touch shared pages instead of per-process
        # file reads.  When a long-lived owner (the service engine) has
        # already fronted every disk with an ArenaDisk, its warm arena
        # is inherited as-is: no per-run blob copy, and the segments —
        # owned by the engine, not this run — survive the teardown.
        if not all(isinstance(s.disk, ArenaDisk) for s in servers):

            def _blob_items():
                for server in servers:
                    for _tid, name, _nbytes in self._assignments[
                        server.server_id
                    ]:
                        if server.disk.exists(name):
                            yield name, server.disk.peek(name)

            arena = SharedBlobArena(_blob_items())
            swapped = []
            for server in servers:
                swapped.append((server, server.disk))
                server.disk = ArenaDisk(server.disk, arena)

            def _restore_disks() -> None:
                for server, original in swapped:
                    disk = server.disk
                    if isinstance(disk, ArenaDisk):
                        disk.restore()
                    server.disk = original
                arena.release()

            cleanup.append(_restore_disks)

        # Cache contents live in the workers while the pool runs; the
        # parent's copies are rebuilt at teardown (runs first — LIFO —
        # while the arena still fronts the disks).
        cleanup.append(self._resync_parent_caches)
        executor.start(
            self._phase_handler,
            len(servers),
            child_init=self._process_child_init,
        )

    def _process_child_init(self) -> None:
        """Runs once in each forked worker: detach parent-only machinery.

        All fault decisions are resolved in the parent (the injector's
        one-shot fired-set must stay authoritative across pool
        lifetimes), and mailboxes / DFS belong to the parent; a worker
        touching either would double-fire or double-meter.
        """
        self.injector = None
        for server in self.cluster.servers:
            server.fault_injector = None
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

    def _resolve_compute_faults(self, payloads) -> None:
        """Fire compute-phase fault decisions in the parent, in serial
        sweep order, before dispatching ``payloads`` to forked workers.

        Crash and disk-error points are replayed against the same
        (superstep, server, first-loaded-blob) coordinates the serial
        sweep would present — the first load is the head of the
        server's run list; a crash therefore aborts the superstep
        before any worker computes, with vertex state untouched — the
        same post-abort state as every other executor ("fail before
        mutate").
        """
        from repro.faults.schedule import DISK_ERROR

        injector = self.injector
        disk_events = [
            e for e in injector.schedule.events if e.kind == DISK_ERROR
        ]
        for server, (superstep, sched, _knobs) in zip(
            self.cluster.servers, payloads
        ):
            injector.on_compute(server)
            if sched.run and any(
                e.matches(superstep, server.server_id) for e in disk_events
            ):
                injector.on_tile_load(server, sched.run[0][1])

    def _resync_parent_caches(self) -> None:
        """Rebuild parent-side cache *contents* as the pool winds down:
        workers die with the run, and a later run — a supervised retry,
        or the next program on this cluster — must start from exactly
        the cache state a single-process run would have left (stats and
        gauges were absorbed every phase).  Keeps cross-run metering
        executor-independent."""
        for server in self.cluster.servers:
            server.restore_mirrored_content(self._tile_parser)

    # ------------------------------------------------------------------
    # One superstep phase, under every executor
    # ------------------------------------------------------------------
    def _dispatch(self, executor, tag: str, payloads: list) -> list:
        """Run one phase of :meth:`_phase_handler` for every server and
        return the handler results in server-id order.

        The only place the engine talks to its transport.  Around a
        forking executor it also does the parent-side work a forked
        handler cannot: fault decisions are fired before a compute
        dispatch (the injector never forks), an apply dispatch's inboxes
        travel by shared segment, and each result's
        :class:`~repro.cluster.server.ServerMirror` is absorbed — in
        server-id order, so per-buffer trace sequences are the ones a
        serial run records.  In-process handlers return no mirror: the
        server they ran on *is* the parent's.
        """
        staged = None
        if tag == "apply":
            staged = StagedInboxes(payloads, shared=executor.forks)
            payloads = staged.handles
        elif executor.forks and self.injector is not None:
            self._resolve_compute_faults(payloads)
        try:
            returned = executor.run_phase(tag, payloads)
        finally:
            if staged is not None:
                staged.release()
        results = []
        for server, (result, mirror) in zip(self.cluster.servers, returned):
            if mirror is not None:
                server.absorb_mirror(mirror)
                if tag == "compute" and self.injector is not None:
                    # Straggler charges: an in-process sweep fires these
                    # at its end; here the volumes came back in the
                    # mirror.
                    self.injector.after_compute(
                        server, mirror.volumes.edges_processed
                    )
            results.append(result)
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
        ``apply`` takes the server's staged inbox.
        """
        server = self.cluster.servers[server_id]
        since = CounterSnapshot.capture(server) if self._forked else None
        if tag == "compute":
            superstep, sched, knobs = payload
            # One decode-once generation per superstep attempt: nothing
            # decodes during compute, so every handler opening the
            # superstep empties the cache — retries re-decode (payload
            # content may differ) and the cache never outlives the
            # broadcast it serves.
            self._decode_cache.clear()
            self._knobs = knobs
            if knobs.cache_mode is not None:
                server.switch_cache_mode(knobs.cache_mode)
            result = self._compute_server_step(
                self._run_program, server, superstep, sched
            )
            self._own_updates[server_id] = (result.ids, result.vals)
            if self._forked:
                # The values stay here, for this server's apply; the
                # parent reads ids, payload and counts, so they are not
                # pickled back with every superstep.
                result = replace(result, vals=np.zeros(0, dtype=np.float64))
        elif tag == "apply":
            result = self._apply_server_step(
                server,
                self._own_updates.pop(server_id),
                self._inboxes.resolve(payload),
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
        The encoded broadcast payload is returned (not delivered) — the
        caller flushes all payloads after the join, in server-id order.

        ``sched`` is this server's entry of :meth:`_resolve_schedule`:
        the sweep accounts the skipped tiles and streams the run list,
        deciding nothing itself — a skipped tile costs the pipeline
        zero I/O.
        """
        trace = server.trace
        # span() unwinds with close_to: an injected fault aborting the
        # sweep mid-tile must not leave spans open for the next attempt.
        with trace.span("compute", "phase", superstep=superstep):
            knobs = self._knobs
            if self.injector is not None:
                self.injector.on_compute(server)
            store = server.state["store"]
            # §IV-A's message slot: a program that reads no edge weight
            # sends one message per source vertex, so it is computed once
            # over the resident vertices and gathered per edge; weighted
            # programs evaluate per edge.  Values only change at the
            # barrier, so the slot holds for the whole sweep, and a
            # retried sweep rebuilds it.
            slot = None
            if sched.run and not program.uses_edge_weight:
                slot = store.message_slot(program)
            changed_ids_parts: list[np.ndarray] = []
            changed_vals_parts: list[np.ndarray] = []
            tile_edge_counts: list[int] = []
            server.counters.tiles_skipped += len(sched.skipped)
            for tile_id, reason in sched.skipped:
                trace.instant(
                    "tile_skip", "schedule", tile=tile_id, reason=reason
                )

            def metered(scheduled):
                """The metering pass: every scheduled tile, in sweep
                order, through the one metered load — what a tile costs
                is charged here, tile by tile, whatever run it is then
                computed in.  Yields ``(blob name, tile)``."""
                for (tile_id, blob_name, nbytes), prefetched in scheduled:
                    with trace.span("tile", "compute", tile=tile_id):
                        tile = self._load_decoded_tile(server, blob_name, prefetched)
                        if self._delta is not None:
                            # Overlay composition work: charged per *scheduled*
                            # overlaid tile, whether or not the decoded cache
                            # served the composed object — like the edge-cache
                            # metering, the simulated cost is schedule-driven
                            # and therefore executor-invariant.
                            overlay = self._delta.overlays.get(tile_id)
                            if overlay is not None and not overlay.is_empty:
                                server.counters.delta_bytes += overlay.nbytes()
                                server.counters.delta_edges += overlay.num_ops
                        # One tile's worth of scratch at a time (§III-B's
                        # streaming): the peak is the largest tile's.
                        with trace.span("gather-apply", "compute", tile=tile_id):
                            server.counters.add_memory("scratch", nbytes)
                            server.counters.add_memory("scratch", -nbytes)
                        tile_edge_counts.append(tile.num_edges)
                    yield blob_name, tile

            prefetcher = None
            scheduled = ((item, None) for item in sched.run)
            if knobs.prefetch_depth > 0 and sched.run:
                from repro.runtime.prefetch import TilePrefetcher

                # Background threads speculate ahead (read-only, unmetered);
                # the metering pass commits each dequeue through the same
                # metered path as the sequential sweep, in the same order —
                # the fault injector keeps firing inside the metered load,
                # i.e. in deterministic serial sweep order.
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
                scheduled = ((item, hint) for item, hint, _ready in prefetcher)
            try:
                # Edge values live in the tiles, not in the slab: a program
                # that reads them sweeps tile by tile.
                for run in server.tile_runs(
                    metered(scheduled), join=not program.uses_edge_weight
                ):
                    ids, vals = _sweep_run(program, run, store, slot)
                    if ids.size:
                        changed_ids_parts.append(ids)
                        changed_vals_parts.append(vals)
            finally:
                if prefetcher is not None:
                    prefetcher.close()
            tiles_processed = len(tile_edge_counts)
            prefetch_ready = prefetcher.served_ready if prefetcher else 0
            prefetch_total = prefetcher.dequeues if prefetcher else 0

            # Charge compute as the LPT makespan of this server's
            # indivisible tiles over its T workers (§III-C.3's
            # OpenMP parallelism, honestly accounting stragglers).
            edges_charged = int(
                round(
                    effective_parallel_volume(
                        tile_edge_counts,
                        self.cluster.spec.workers_per_server,
                    )
                )
            )
            server.counters.edges_processed += edges_charged
            if self.injector is not None:
                self.injector.after_compute(server, edges_charged)

            # Per-tile parts cover ascending disjoint target ranges and a
            # server's tile list is ascending (_check_static_layout), so
            # the concatenation is already sorted.
            if changed_ids_parts:
                ids = np.concatenate(changed_ids_parts)
                vals = np.concatenate(changed_vals_parts)
            else:
                ids = np.zeros(0, dtype=np.int64)
                vals = np.zeros(0, dtype=np.float64)

            # Stage this server's updated-value broadcast: dense form
            # covers only the targets its tiles own (receivers share the
            # static target index), sparse form ships local (index, value)
            # pairs.
            payload = None
            if len(self.cluster.servers) > 1:
                with trace.span("encode", "comm", updated=int(ids.size)):
                    own_targets = self._server_target_ids[server.server_id]
                    # gather_values fancy-indexes into a fresh array — safe to
                    # scatter into directly (the seed's extra .copy() doubled
                    # the allocation for nothing).
                    staged = store.gather_values(own_targets)
                    local_ids = np.searchsorted(own_targets, ids)
                    staged[local_ids] = vals
                    forced = {
                        "dense": DENSE,
                        "sparse": SPARSE,
                        "hybrid": None,
                    }[knobs.comm_mode]
                    payload = encode_update(
                        staged,
                        local_ids,
                        codec_name=knobs.message_codec,
                        mode=forced,
                    )
                    if knobs.message_codec != "raw":
                        server.counters.add_compressed(
                            knobs.message_codec, len(payload)
                        )
            return _ServerStep(
                ids=ids,
                vals=vals,
                payload=payload,
                tiles_processed=tiles_processed,
                tiles_skipped=len(sched.skipped),
                prefetch_ready=prefetch_ready,
                prefetch_total=prefetch_total,
            )

    # The one decode callback every metered tile load shares — the
    # sequential sweep, the pipeline's speculation, and its dequeue
    # commit all parse through this.
    _TILE_PARSER = staticmethod(Tile.from_bytes)

    def _load_decoded_tile(self, server, blob_name: str, prefetched=None):
        """The single metered tile-load path (satellite of the prefetch
        PR): cache/disk accounting, fault injection, and decode all
        funnel through ``Server.load_tile`` with the shared parser."""
        return server.load_tile(blob_name, self._tile_parser, prefetched)

    def _apply_server_step(
        self,
        server,
        own_update: tuple[np.ndarray, np.ndarray],
        inbox: list[tuple[int, bytes]],
    ) -> tuple[int, int]:
        """One server's barrier work: apply own + received updates.

        ``inbox`` is the drained mailbox as ``(sender id, payload
        bytes)`` pairs.  Returns the decode-once ``(hits, misses)`` this
        receiver saw (host telemetry the parent totals after the join).

        Each distinct payload is decoded once per superstep
        (:meth:`_decode_payload`) while every receiver still charges its
        own decompress bytes — the modeled cost is per-receiver NIC
        work, §IV-C — and everything lands in one batched scatter:
        sender target sets are disjoint (:meth:`_check_static_layout`),
        so the write order cannot matter.
        """
        with server.trace.span("apply", "phase", inbox=len(inbox)):
            # The superstep's effective knobs: all senders encoded with
            # the same per-superstep codec (parent-resolved; the compute
            # handler put them into force wherever this runs).
            codec = self._knobs.message_codec
            id_parts, val_parts = [own_update[0]], [own_update[1]]
            hits = 0
            for src, payload_bytes in inbox:
                payload, hit = self._decode_payload(server, src, payload_bytes)
                hits += hit
                id_parts.append(self._server_target_ids[src][payload.ids])
                val_parts.append(payload.values)
                if codec != "raw":
                    server.counters.add_decompressed(codec, len(payload_bytes))
            server.state["store"].write(
                np.concatenate(id_parts), np.concatenate(val_parts)
            )
        return hits, len(inbox) - hits

    def _decode_payload(self, server, src: int, payload_bytes: bytes):
        """Decode-once lookup for one received broadcast payload.

        Content-keyed (bytes hash by value): the first receiver of a
        payload decodes it and caches the immutable result for the rest
        of the superstep; later receivers reuse it.  The lock spans the
        whole get-or-decode so the thread executor's miss count equals
        the number of distinct payloads exactly.  Emits a
        ``payload_decode`` span on the server's trace buffer either way
        — ``cache="miss"`` covers the decode, ``cache="hit"`` is empty —
        so span trees do not encode which server happened to decode a
        payload first (under the process executor that depends on how
        servers map to workers).  Returns ``(payload, hit)``.
        """
        with self._decode_lock:
            payload = self._decode_cache.get(payload_bytes)
            hit = payload is not None
            with server.trace.span(
                "payload_decode",
                "comm",
                src=src,
                nbytes=len(payload_bytes),
                cache="hit" if hit else "miss",
            ):
                if not hit:
                    payload = decode_update(payload_bytes)
            if not hit:
                self._decode_cache[payload_bytes] = payload
        return payload, hit

    def _collect_values(self, cfg, servers, init_values) -> np.ndarray:
        """Globally consistent value array after a barrier.

        Under AA any server holds everything; under OD each target
        vertex lives on exactly the server whose tiles own it, so the
        owned ranges are stitched together.
        """
        if cfg.replication_policy == "aa":
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


@dataclass
class _ServerStep:
    """One server's staged compute-phase output (pre-barrier)."""

    ids: np.ndarray
    vals: np.ndarray
    payload: bytes | None
    tiles_processed: int
    tiles_skipped: int
    # Pipeline occupancy: dequeues served without stalling / total
    # dequeues (both 0 when the pipeline is off).  Host-side telemetry
    # only — never part of the bitwise-compared results.
    prefetch_ready: int = 0
    prefetch_total: int = 0


class _RunPrep(NamedTuple):
    """What :meth:`MPE._begin_run` decided before the first superstep."""

    # The plan consulted at superstep boundaries (None: fixed knobs),
    # the tuner recording it (None: scripted or no plan) and the tuning
    # lane's buffer.
    tuner: Tuner | None
    plan: object
    tbuf: object
    num_vertices: int
    # Out-degrees when the program reads them.
    degrees: np.ndarray | None
    init_values: np.ndarray
    incremental_plan: object
    # First superstep to execute and the update set feeding its
    # schedule (checkpoint resume / incremental dirty set; else None).
    start_superstep: int
    prev_updated: np.ndarray | None
    cost_model: CostModel


def _sweep_run(
    program: VertexProgram,
    run: TileRun,
    store,
    slot: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Gather + Apply over one run of tiles' targets.

    ``store`` is either replica policy's vertex store (see
    :mod:`repro.core.vertexstore`); ``slot`` is its ``message_slot`` for
    this superstep, or ``None`` for a program whose message reads the
    edge weight and is therefore evaluated per edge.  Returns (changed
    global ids, their new values), ascending as the run's targets are.
    """
    col = run.col
    if slot is not None:
        contributions = store.gather_values(col, slot)
    else:
        out_deg = store.gather_out_degrees(col) if program.uses_out_degree else None
        contributions = program.edge_message(
            store.gather_values(col), out_deg, run.edge_values()
        )
    accum = segment_reduce(contributions, run.plan, program.reduce_op)
    old = store.gather_values(run.target_ids)
    new = program.apply(accum, old, run.target_ids)
    changed = np.flatnonzero(program.value_changed(new, old))
    return run.target_ids[changed], new[changed]


class _ManifestGraphView:
    """Graph-shaped metadata view for ``init_values`` (no edge access)."""

    def __init__(self, num_vertices, num_edges, in_degrees, out_degrees) -> None:
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.in_degrees = in_degrees
        self.out_degrees = out_degrees
