"""The four ledger workloads: what they run, how they are measured.

Each workload is one point in (cache regime × |V|/|E| × executor ×
read-only/evolving); ``BENCHMARK.json`` records why each was chosen.
Sizes are for a 2-core sandbox.  ``--smoke`` swaps in tiny graphs and
keeps every code path and check (its timings are not comparable).

Measurement happens in a child interpreter (``worker.py``) that
receives the generated graph and nothing else; :func:`generate` is the
load generator and runs in ``run.py``'s process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import resource
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spans import Patches, SpanRecorder

# Fresh builds behind one setup_s median: at least this many, and more
# while they fit the budget (a service registration takes a third of a
# second and is the noisiest set-up; the run workloads' builds take
# over a second each and stop at the floor).
SETUP_REPEATS = 5
SETUP_BUDGET_S = 4.0
# Floor under the time-budgeted repeat and round loops.
MIN_REPEATS = 3
# Traced units of work: fixed, so the per-unit counts repeat exactly,
# and more than one, so trace.overhead_share is a median, not a sample.
TRACED_RUNS = 3
TRACED_ROUNDS = 4
SERVICE_ALGORITHMS = ("sssp_incremental", "pagerank", "bfs", "degree")


# ----------------------------------------------------------------------
# Definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    num_servers: int
    generate: Callable  # (seed, smoke) -> Graph
    # Run workloads only (the service workload drives an Engine).
    program: Callable | None = None  # graph -> VertexProgram
    max_supersteps: int | None = None
    executor: str = "serial"  # the headline executor
    cache_share: float | None = None  # edge-cache cap / mean per-server tile bytes
    compare_executors: bool = False
    compare_prefetch: bool = False
    reference_rtol: float = 0.0  # 0 = bitwise

    @property
    def is_service(self) -> bool:
        return self.program is None


def _pr_cached_graph(seed: int, smoke: bool):
    from repro.graph import chung_lu_graph

    # The uk2014-s bench-tier profile (repro.graph.datasets).
    nv, ne = (1_500, 40_000) if smoke else (78_800, 4_759_520)
    return chung_lu_graph(
        nv, ne, in_exponent=1.8, out_exponent=3.5, max_in_fraction=0.005,
        seed=seed, name="pr-cached",
    )


def _sssp_spill_graph(seed: int, smoke: bool):
    from repro.graph import rmat_graph_streamed

    scale, factor = (11, 8.0) if smoke else (17, 20.0)
    return rmat_graph_streamed(
        scale=scale, edge_factor=factor, weighted=True, seed=seed, name="sssp-spill"
    )


def _pr_fanout_graph(seed: int, smoke: bool):
    from repro.graph import erdos_renyi_graph

    nv, ne = (2_000, 8_000) if smoke else (300_000, 1_200_000)
    return erdos_renyi_graph(nv, ne, seed=seed, name="pr-fanout")


def _service_graph(seed: int, smoke: bool):
    from repro.graph import rmat_graph

    scale = 10 if smoke else 14
    return rmat_graph(
        scale=scale, edge_factor=16, weighted=True, seed=seed, name="service-evolve"
    )


def _pagerank(graph):
    from repro.apps import PageRank

    # tolerance=0: every superstep is a full one, so the superstep count
    # (and the work) does not depend on the seed.
    return PageRank(tolerance=0.0)


def _sssp(graph):
    from repro.apps import SSSP

    return SSSP(source=hub(graph))


def hub(graph) -> int:
    """The max-out-degree vertex (SSSP / BFS source)."""
    return int(np.argmax(graph.out_degrees))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pr-cached-n4", 4, _pr_cached_graph, _pagerank,
            max_supersteps=12, reference_rtol=1e-9,
        ),
        Workload(
            "sssp-spill-n4", 4, _sssp_spill_graph, _sssp,
            # A hair under 1/4: at exactly 1/4 each server sits on the
            # boundary between cache modes 3 and 4 (§IV-B's S/γ <= C with
            # γ = 4) and the seed decides which side it falls on.
            cache_share=0.24, compare_prefetch=True,
        ),
        Workload(
            "pr-fanout-n9", 9, _pr_fanout_graph, _pagerank,
            max_supersteps=8, executor="process", compare_executors=True,
            reference_rtol=1e-9,
        ),
        Workload("service-evolve-n4", 4, _service_graph),
    )
}


# ----------------------------------------------------------------------
# Measurement plumbing
# ----------------------------------------------------------------------
class Trial:
    """Rows, counts, checks and operation tallies of one invocation."""

    def __init__(
        self, workload: Workload, seed: int, width: int, traced: bool, smoke: bool
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.width = width
        self.setup_repeats = 2 if smoke else SETUP_REPEATS
        self.setup_budget_s = 0.0 if smoke else SETUP_BUDGET_S
        self.min_repeats = 2 if smoke else MIN_REPEATS
        # Smoke keeps the fixed-length programs short; SSSP (no cap)
        # still runs to convergence.
        cap = workload.max_supersteps
        self.max_supersteps = min(cap, 3) if cap and smoke else cap
        self.rows: list[dict] = []
        self.counts: dict[str, float] = {"runtime.workers": width}
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.recorder = SpanRecorder() if traced else None

    def row(self, kind: str, timed, **extra) -> dict:
        """``timed`` is a :class:`Timed` (wall + host factor) or plain
        wall seconds."""
        if isinstance(timed, Timed):
            extra = {"host": timed.host, **extra}
            timed = timed.wall_s
        row = {"kind": kind, "wall_s": timed, "traced": False, **extra}
        self.rows.append(row)
        return row

    def op(self, ok: bool = True) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        self.op(bool(ok))

    def span(self, name: str, traced: bool = True):
        return self.recorder.span(name) if traced else contextlib.nullcontext()


class Timed:
    """A timed region bracketed by host-speed calibration samples.

    The sandbox's speed drifts by ±12 % over tens of seconds (a pure
    ``zlib.compress`` loop shows it with nothing else running), which no
    number of repeats inside one invocation averages out.  So every
    end-to-end sample carries ``host``: the median of a fixed zlib
    kernel timed right before and right after it, over the kernel's
    nominal time.  ``stats.Ledger`` divides the wall by it.  The kernel
    is stdlib code over a constant buffer — nothing under test can move
    it.
    """

    # Seconds the kernel takes on the reference sandbox when quiet; a
    # constant, so normalised walls stay in familiar seconds.
    NOMINAL_S = 0.0225
    _BUFFER = np.random.default_rng(0).integers(0, 50, 1_000_000, dtype=np.uint8).tobytes()

    @classmethod
    def _kernel(cls) -> float:
        t0 = time.perf_counter()
        zlib.compress(cls._BUFFER, 3)
        return time.perf_counter() - t0

    def __enter__(self) -> "Timed":
        self._samples = [self._kernel(), self._kernel()]
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self._samples += [self._kernel(), self._kernel()]
        self.host = float(np.median(self._samples)) / self.NOMINAL_S


def peak_rss_mb() -> float:
    """This interpreter's resident-set high-water mark.

    ``VmHWM`` rather than ``ru_maxrss``: across ``exec`` the kernel
    carries the *spawning* process's high-water mark into the child's
    ``ru_maxrss``, so a child of a parent that just generated a large
    graph would report the parent's peak.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh(graph):
    """The input of one timed set-up, untimed itself: a new Graph over
    the same arrays (nothing a previous build cached on the object
    survives) and a flushed page cache — a build writes its tiles to
    disk, and the kernel throttles writers while the dirty pages of the
    previous build are pending, which tripled ``dfs.write`` at random."""
    from repro.graph.graph import Graph

    os.sync()
    return Graph(graph.num_vertices, graph.src, graph.dst, graph.weights, graph.name)


def _until(seconds: float, floor: int):
    """Yield repeat indices until ``seconds`` elapsed, at least ``floor``."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < floor or time.perf_counter() < deadline:
        yield i
        i += 1


def scheduled_sweeps(steps) -> float:
    """Full-sweep equivalents of a run: per superstep, the share of the
    tiles that was scheduled (tiles hold equal edge counts by
    construction).  ``|E|`` times this is the edges the run gathered to
    within a tile; it equals the superstep count when nothing is
    skipped, and — unlike the superstep count — barely moves when a
    seed adds one nearly-empty closing superstep."""
    total = 0.0
    for processed, skipped in steps:
        if processed + skipped:
            total += processed / (processed + skipped)
    return total


def _leak_check(trial: Trial) -> None:
    from repro.runtime.shm import outstanding_segments

    leaked = outstanding_segments()
    trial.check("no leaked shared-memory segment", not leaked, ", ".join(leaked))


def measure(
    workload: Workload, graph, seed: int, seconds: float, width: int,
    trace: bool, smoke: bool = False,
) -> Trial:
    """Run one workload; ``trace`` selects the per-layer invocation."""
    trial = Trial(workload, seed, width, traced=trace, smoke=smoke)
    if workload.is_service:
        (_service_layers if trace else _service_end_to_end)(trial, graph, seconds)
    else:
        (_run_layers if trace else _run_end_to_end)(trial, graph, seconds)
    _leak_check(trial)
    return trial


# ----------------------------------------------------------------------
# Run workloads (ClusterBuild + MPE)
# ----------------------------------------------------------------------
def _build(trial: Trial, graph):
    """graph-in-memory → engine ready: SPE.preprocess + MPE.setup."""
    graph = _fresh(graph)
    with Timed() as timed:
        build, mpe = _build_engine(trial, graph)
    trial.op()
    return build, mpe, timed


def _build_engine(trial: Trial, graph):
    from repro.core import MPEConfig
    from repro.core.facade import ClusterBuild

    wl = trial.workload
    build = ClusterBuild(num_servers=wl.num_servers)
    manifest = build.load(graph)
    capacity = None
    if wl.cache_share is not None:
        per_server = build.spe.total_tile_bytes(manifest) / wl.num_servers
        capacity = int(wl.cache_share * per_server)
        trial.counts["tile_bytes_per_server"] = per_server
        trial.counts["cache_capacity_bytes"] = capacity
    config = MPEConfig(
        executor=wl.executor,
        num_workers=trial.width,
        num_threads=trial.width,
        cache_capacity_bytes=capacity,
        **({"max_supersteps": trial.max_supersteps} if trial.max_supersteps else {}),
    )
    mpe = build.mpe(graph.name, config=config)
    mpe.setup()
    return build, mpe


def _cumulative(mpe) -> dict:
    """Cluster-wide cache totals (they accumulate across runs)."""
    totals = dict.fromkeys(
        ("cache_hits", "cache_misses", "cache_rejected", "cache_in",
         "decoded_hits", "decoded_misses"), 0
    )
    for server in mpe.cluster.servers:
        edge, decoded = server.cache.stats, server.decoded_cache.stats
        totals["cache_hits"] += edge.hits
        totals["cache_misses"] += edge.misses
        totals["cache_rejected"] += edge.rejected
        totals["cache_in"] += edge.bytes_compressed_in
        totals["decoded_hits"] += decoded.hits
        totals["decoded_misses"] += decoded.misses
    return totals


def _run(
    trial: Trial, mpe, program, kind: str = "run", span: str | None = None, **extra
) -> tuple[dict, object]:
    """One ``MPE.run``: its row, with the run's deterministic counts.
    ``span`` names the benchmark-side span of a traced run."""
    before = _cumulative(mpe)
    gc.collect()  # every repeat starts from the same collector state
    try:
        with Timed() as timed, trial.span(span, span is not None):
            result = mpe.run(program)
    except Exception:
        trial.op(False)
        raise
    trial.op()
    d = {k: v - before[k] for k, v in _cumulative(mpe).items()}
    steps = result.supersteps
    lookups = d["cache_hits"] + d["cache_misses"]
    decoded = d["decoded_hits"] + d["decoded_misses"]
    scheduled = sum(s.tiles_processed + s.tiles_skipped for s in steps)
    modes = [m for s in steps for m in s.message_modes]
    from repro.comm.messages import SPARSE

    counts = {
        "mpe.supersteps": result.num_supersteps,
        "cache.hit_ratio": d["cache_hits"] / lookups if lookups else 0.0,
        "cache.rejected": d["cache_rejected"],
        "cache.compressed_in_bytes": d["cache_in"],
        "disk.read_bytes": result.total_disk_read(),
        "decoded_cache.hit_ratio": d["decoded_hits"] / decoded if decoded else 0.0,
        "sched.skip_share": (
            sum(s.tiles_skipped for s in steps) / scheduled if scheduled else 0.0
        ),
        "messages.sparse_share": (
            sum(m == SPARSE for m in modes) / len(modes) if modes else 0.0
        ),
        "channel.net_bytes": result.total_net_bytes(),
        "cost.modeled_job_s": sum(s.modeled.total_s for s in steps),
    }
    cfg = mpe.config
    row = trial.row(
        kind,
        timed,
        executor=result.executor,
        width=trial.width if result.executor != "serial" else 1,
        prefetch=cfg.prefetch_depth,
        supersteps=result.num_supersteps,
        edges_scheduled=mpe.manifest.num_edges
        * scheduled_sweeps((s.tiles_processed, s.tiles_skipped) for s in steps),
        headline=result.executor == trial.workload.executor and not cfg.prefetch_depth,
        counts=counts,
        traced=span is not None,
        **extra,
    )
    return row, result


def _repeat(trial: Trial, mpe, program, seconds: float) -> object:
    """Timed warm repeats on one engine; every count must repeat."""
    rows, result = [], None
    for _ in _until(seconds, trial.min_repeats):
        row, result = _run(trial, mpe, program)
        rows.append(row)
    same = all(r["counts"] == rows[0]["counts"] for r in rows)
    trial.check(
        f"counts identical across {len(rows)} {rows[0]['executor']} repeats", same
    )
    return result


def _reference_check(trial: Trial, graph, program, values) -> None:
    from repro.apps import reference_solution

    wl = trial.workload
    t0 = time.perf_counter()
    expected, _ = reference_solution(
        program, graph, max_supersteps=trial.max_supersteps or 1000
    )
    trial.row("reference", time.perf_counter() - t0)
    if wl.reference_rtol:
        ok = bool(np.allclose(values, expected, rtol=wl.reference_rtol, atol=0.0))
        how = f"rtol={wl.reference_rtol:g}"
    else:
        ok = bool(np.array_equal(values, expected))
        how = "bitwise"
    trial.check(f"values match reference_solution ({how})", ok)


def _reconfigure(build, mpe, **changes):
    """The cached engine under a changed run-scoped config (ClusterBuild's
    public swap; set-up state stays warm)."""
    config = dataclasses.replace(mpe.config, **changes)
    return build.mpe(mpe.manifest.name, config=config)


def _run_end_to_end(trial: Trial, graph, seconds: float) -> None:
    wl = trial.workload
    program = wl.program(graph)
    build = None
    try:
        for _ in _until(trial.setup_budget_s, trial.setup_repeats):
            if build is not None:
                build.close()
            build, mpe, wall = _build(trial, graph)
            trial.row("setup", wall)
        # The first run fills the edge cache and the decoded-tile cache;
        # it is the discarded warm-up.
        _run(trial, mpe, program, kind="first_run")
        result = _repeat(trial, mpe, program, seconds)
        trial.counts["peak_rss_mb"] = peak_rss_mb()
        trial.counts.update(trial.rows[-1]["counts"])
        _reference_check(trial, graph, program, result.values)
    finally:
        if build is not None:
            build.close()


def _run_layers(trial: Trial, graph, seconds: float) -> None:
    wl = trial.workload
    program = wl.program(graph)
    # Untraced: the cold first run, the baseline the traced run is
    # compared with, and the executor / prefetch alternatives.
    variants = [{}]
    if wl.compare_executors:
        variants = [{"executor": ex} for ex in ("process", "serial", "parallel")]
    if wl.compare_prefetch:
        variants.append({"prefetch_depth": 2, "io_threads": 1})
    build, mpe, wall = _build(trial, graph)
    try:
        trial.row("setup", wall)
        _run(trial, mpe, program, kind="first_run")
        values = []
        for changes in variants:
            engine = _reconfigure(build, mpe, **changes)
            values.append(_repeat(trial, engine, program, seconds / len(variants)).values)
        trial.check(
            "values bitwise-equal across executors and prefetch",
            all(np.array_equal(v, values[0]) for v in values[1:]),
        )
    finally:
        build.close()

    # Traced: a fresh build and one warm run under the spans, serial.
    with contextlib.ExitStack() as stack:
        patches = stack.enter_context(Patches(trial.recorder))
        with trial.span("bench.setup"):
            build, mpe, wall = _build(trial, graph)
        stack.callback(build.close)
        trial.row("setup", wall, traced=True)
        mpe = _reconfigure(build, mpe, executor="serial")
        _run(trial, mpe, program, kind="first_run", span="bench.warmup")
        for _ in range(TRACED_RUNS):
            row, result = _run(trial, mpe, program, span="bench.traced")
        trial.counts.update(row["counts"])
        patches.uninstall()
        if wl.executor == "process":
            # Parent-side process-executor spans only: forked workers
            # run unwrapped code.
            with Patches(trial.recorder, only=("process.", "shm.")):
                mpe = _reconfigure(build, mpe, executor="process")
                _run(trial, mpe, program, span="bench.process")
        _reference_check(trial, graph, program, result.values)


# ----------------------------------------------------------------------
# The service workload (Engine, closed loop, one client)
# ----------------------------------------------------------------------
class _Client:
    """One closed-loop client of one Engine: submit → run_next."""

    def __init__(self, trial: Trial, graph) -> None:
        from repro.service import Engine

        self.trial = trial
        self.graph = graph
        self.source = hub(graph)
        self.state_dir = tempfile.mkdtemp(prefix="ledger-state-")
        self.inserted = 0
        graph = _fresh(graph)
        with Timed() as self.setup:
            self.engine = Engine(
                num_servers=trial.workload.num_servers, state_dir=self.state_dir
            )
            self.name = self.engine.register_graph(graph)
        trial.op()

    def close(self) -> None:
        self.engine.shutdown()
        shutil.rmtree(self.state_dir, ignore_errors=True)

    def job(self, algorithm: str, traced: bool = False, **extra):
        from repro.service import JobSpec

        spec = {
            "sssp": dict(algorithm="sssp", params={"source": self.source}),
            "sssp_incremental": dict(
                algorithm="sssp", params={"source": self.source}, incremental=True
            ),
            # Capped below where any seed converges (>= 20 supersteps), so
            # every round's PageRank is the same amount of work.
            "pagerank": dict(
                algorithm="pagerank", params={"tolerance": 1e-6}, max_supersteps=16
            ),
            "bfs": dict(algorithm="bfs", params={"source": self.source}),
            "degree": dict(algorithm="degree"),
        }[algorithm]
        trial = self.trial
        with trial.span("bench.job", traced):
            t0 = time.perf_counter()
            record = self.engine.submit(JobSpec(graph=self.name, **spec))
            self.engine.run_next()
            wall = time.perf_counter() - t0
        if record.status != "done":
            trial.check(f"job {algorithm}", False, f"{record.status}: {record.reason}")
            return None
        trial.op()
        result = record.result
        sweeps = scheduled_sweeps(
            (s["tiles_processed"], s["tiles_skipped"]) for s in result.supersteps
        )
        trial.row(
            "job", wall, algorithm=algorithm, supersteps=result.num_supersteps,
            traced=traced,
            edges_scheduled=(self.graph.num_edges + self.inserted) * sweeps, **extra,
        )
        return result

    def warm_up(self, traced: bool = False) -> None:
        # Incremental jobs need a prior fixed point of the same program.
        self.job("sssp", traced, loop=False)
        self.job("pagerank", traced, loop=False)

    def round(self, number: int, traced: bool = False):
        """mutate (insert 0.1 % |E|) → incremental SSSP → PageRank → BFS
        → degree; returns the incremental SSSP result."""
        from repro.delta import random_mutations

        trial = self.trial
        ops = random_mutations(
            self.graph, max(1, self.graph.num_edges // 1000), 0,
            seed=trial.seed * 100_003 + number,
        )
        first_row = len(trial.rows)
        with Timed() as timed, trial.span("bench.traced", traced):
            t0 = time.perf_counter()
            report = self.engine.mutate(self.name, ops)
            trial.row(
                "mutate", time.perf_counter() - t0, traced=traced, round=number,
                affected_tiles=report["affected_tiles"],
            )
            trial.op(report["applied"] == len(ops))
            self.inserted += report["applied"]
            results = [
                self.job(alg, traced, loop=True, round=number)
                for alg in SERVICE_ALGORITHMS
            ]
        jobs = [r for r in trial.rows[first_row:] if r["kind"] == "job"]
        trial.row(
            "round", timed, traced=traced, round=number, headline=True, jobs=len(jobs),
            edges_scheduled=sum(r["edges_scheduled"] for r in jobs),
        )
        return results[0]

    def check_incremental(self, incremental) -> None:
        scratch = self.job("sssp", loop=False)
        ok = (
            incremental is not None
            and scratch is not None
            and np.array_equal(incremental.values, scratch.values)
        )
        self.trial.check(
            "last incremental SSSP bitwise-equal to a from-scratch SSSP job", ok
        )


def _service_loop(client: _Client, seconds: float):
    client.warm_up()
    last = None
    for number in _until(seconds, client.trial.min_repeats):
        last = client.round(number)
    return last


def _service_end_to_end(trial: Trial, graph, seconds: float) -> None:
    client = None
    try:
        for _ in _until(trial.setup_budget_s, trial.setup_repeats):
            if client is not None:
                client.close()
            client = _Client(trial, graph)
            trial.row("setup", client.setup)
        last = _service_loop(client, seconds)
        trial.counts["peak_rss_mb"] = peak_rss_mb()
        client.check_incremental(last)
    finally:
        if client is not None:
            client.close()


def _service_layers(trial: Trial, graph, seconds: float) -> None:
    client = _Client(trial, graph)
    try:
        trial.row("setup", client.setup)
        _service_loop(client, seconds)
    finally:
        client.close()
    with Patches(trial.recorder):
        with trial.span("bench.setup"):
            client = _Client(trial, graph)
        try:
            trial.row("setup", client.setup, traced=True)
            client.warm_up(traced=True)
            for number in range(TRACED_ROUNDS):
                last = client.round(number, traced=True)
            client.check_incremental(last)
        finally:
            client.close()
    traced = [r for r in trial.rows if r["traced"]]
    trial.counts["delta.affected_tiles"] = (
        sum(r["affected_tiles"] for r in traced if r["kind"] == "mutate") / TRACED_ROUNDS
    )
    trial.counts["delta.incremental_supersteps"] = (
        sum(
            r["supersteps"] for r in traced
            if r["kind"] == "job" and r.get("algorithm") == "sssp_incremental"
        )
        / TRACED_ROUNDS
    )
