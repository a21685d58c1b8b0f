"""Every number the ledger reports, computed over the trial table.

One workload invocation leaves three things behind: ``rows`` (one per
set-up, timed repeat, job, mutate call or round, each with its wall),
``counts`` (deterministic counters read off the engine) and — for a
traced invocation — the span table.  :class:`Ledger` derives every
metric in ``BENCHMARK.json`` from them, lazily and memoised (the
fuzzbench ``ExperimentResults`` shape), so ``run.py``, ``compare.py``
and a later reader of a stored ``--out`` file all get the same numbers
from the same table.
"""

from __future__ import annotations

import statistics
from functools import cached_property

from spans import SpanTable

# Percentiles the tail rule may report, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

# Per-layer metrics that are deterministic counts: they must repeat
# exactly between two runs of the same code, seed and worker width.
EXACT_COUNTS = frozenset(
    {
        "mpe.edges_gathered",
        "mpe.supersteps",
        "server.load_tile_calls",
        "cache.hit_ratio",
        "cache.rejected",
        "cache.compressed_in_bytes",
        "disk.read_bytes",
        "decoded_cache.hit_ratio",
        "sched.skip_share",
        "messages.decode_calls",
        "messages.sparse_share",
        "channel.messages",
        "channel.net_bytes",
        "delta.affected_tiles",
        "delta.incremental_supersteps",
        "cost.modeled_job_s",
    }
)

# metric -> span names whose *self* seconds it sums.
SETUP_LAYERS = {
    "spe.preprocess_s": ("spe.preprocess",),
    "dfs.write_s": ("dfs.write",),
    "dfs.read_s": ("dfs.read",),
    "mpe.setup_s": ("mpe.setup",),
    "tiles.setup_parse_s": ("tiles.parse",),
    "bloom.build_s": ("bloom.build",),
    "active.summary_build_s": ("active.summary_build",),
    "service.register_s": ("service.register",),
}
RUN_LAYERS = {
    "vertexstore.gather_s": ("vertexstore.gather",),
    "vertexstore.write_s": ("vertexstore.write",),
    "apps.edge_message_s": ("apps.edge_message",),
    "apps.apply_s": ("apps.apply",),
    "segments.reduce_s": ("segments.reduce",),
    "segments.merge_s": ("segments.merge",),
    "server.load_tile_s": ("server.load_tile",),
    "cache.lookup_s": ("cache.get", "cache.put", "cache.touch", "cache.load"),
    "codecs.compress_s": ("codecs.compress",),
    "codecs.decompress_s": ("codecs.decompress",),
    "disk.read_s": ("disk.read",),
    "tiles.run_parse_s": ("tiles.parse",),
    "active.seed_s": ("active.seed",),
    "active.probe_s": ("active.probe",),
    "bloom.hash_s": ("bloom.hash",),
    "bloom.probe_s": ("bloom.probe",),
    "messages.encode_s": ("messages.encode",),
    "messages.decode_s": ("messages.decode",),
    "channel.send_s": ("channel.send",),
    "cost.account_s": ("cost.account",),
    "mpe.run_other_s": ("mpe.run",),
    "service.submit_s": ("service.submit",),
    "delta.mutate_s": ("service.mutate", "mpe.apply_mutations"),
    "delta.compact_s": ("delta.compact",),
    "delta.compose_s": ("delta.compose",),
}
# metric -> (span name, "calls" | "work") counted under the traced root.
RUN_SPAN_COUNTS = {
    "server.load_tile_calls": ("server.load_tile", "calls"),
    "messages.decode_calls": ("messages.decode", "calls"),
    "channel.messages": ("channel.send", "calls"),
    "mpe.edges_gathered": ("apps.edge_message", "work"),
}
PROCESS_LAYERS = {
    "process.start_s": "process.start",
    "process.phase_s": "process.phase",
    "shm.stage_s": "shm.stage",
}


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def summary(values) -> dict:
    """Median, quartiles and n of a sample (quartiles need n >= 2)."""
    xs = [float(v) for v in values]
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None}
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def spread(values) -> float | None:
    """Inter-quartile distance as a share of the median."""
    s = summary(values)
    if "q1" not in s or not s["median"]:
        return None
    return (s["q3"] - s["q1"]) / abs(s["median"])


def tail_percentile(values) -> tuple[float, float] | None:
    """The highest ladder percentile with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, and its value —
    ``None`` when even the median lacks them (n < 20)."""
    n = len(values)
    best = None
    for p in PERCENTILE_LADDER:
        # (100 - p) first: n * (1 - p / 100) loses the boundary case to
        # rounding (100 * (1 - 0.9) < 10).
        if n * (100.0 - p) >= 100.0 * MIN_SAMPLES_BEYOND - 1e-6:
            best = p
    return None if best is None else (best, percentile(values, best))


def nominal_s(row: dict) -> float:
    """A timed row's wall at the host's nominal speed: divided by the
    host factor sampled around it (``workloads.Timed``)."""
    return row["wall_s"] / row.get("host", 1.0)


def median(values) -> float | None:
    xs = list(values)
    return float(statistics.median(xs)) if xs else None


class Ledger:
    """One workload invocation's trial table and the metrics over it.

    A metric that does not apply to the workload is absent from
    :attr:`end_to_end` / :attr:`per_layer` — never a zero.
    """

    def __init__(self, rows, counts=None, spans=None) -> None:
        self.rows = list(rows)
        self.counts = dict(counts or {})
        self._spans = spans
        self._roots: dict[str, tuple[dict, float, int]] = {}

    @classmethod
    def from_trial(cls, trial: dict) -> "Ledger":
        """Over one invocation's stored trial (``worker.py``'s output)."""
        return cls(trial["rows"], trial["counts"], trial["spans"])

    # -- the table -----------------------------------------------------
    def select(self, kind: str, **where) -> list[dict]:
        return [
            r
            for r in self.rows
            if r["kind"] == kind and all(r.get(k) == v for k, v in where.items())
        ]

    def walls(self, kind: str, **where) -> list[float]:
        return [r["wall_s"] for r in self.select(kind, **where)]

    @cached_property
    def is_service(self) -> bool:
        return bool(self.select("round"))

    @cached_property
    def units(self) -> list[dict]:
        """The workload's unit of work, untraced: a warm ``MPE.run`` of
        the headline executor, or one mutate→jobs round of the service
        loop.  ``run_s`` and ``edges_per_s`` share these samples."""
        kind = "round" if self.is_service else "run"
        return self.select(kind, headline=True, traced=False)

    # -- end to end ----------------------------------------------------
    @cached_property
    def end_to_end(self) -> dict[str, float]:
        """Timings here are walls at the host's *nominal* speed: each
        sample is divided by its ``host`` factor (``workloads.Timed``).
        Everything per-layer stays raw wall."""
        out: dict[str, float] = {}
        setups = self.select("setup", traced=False)
        if setups:
            out["setup_s"] = median(nominal_s(r) for r in setups)
        if self.units:
            out["run_s"] = median(nominal_s(r) for r in self.units)
            out["edges_per_s"] = median(
                r["edges_scheduled"] / nominal_s(r) for r in self.units
            )
        if "peak_rss_mb" in self.counts:
            out["peak_rss_mb"] = float(self.counts["peak_rss_mb"])
        return out

    # -- per layer -----------------------------------------------------
    @cached_property
    def spans(self) -> SpanTable | None:
        return SpanTable(self._spans) if self._spans else None

    def _root_layers(self, root: str) -> tuple[dict, float, int]:
        """(layers under the ``root`` spans, their wall, how many)."""
        if root not in self._roots:
            ids = self.spans.ids(root)
            self._roots[root] = (
                (
                    self.spans.layers(self.spans.under(ids)),
                    float(self.spans.dur[ids].sum()),
                    int(ids.size),
                )
                if ids.size
                else ({}, 0.0, 0)
            )
        return self._roots[root]

    @cached_property
    def traced_layers(self) -> dict[str, dict]:
        """Every span name under the traced unit(s) of work — the table
        whose self seconds sum to the traced wall exactly."""
        return self._root_layers("bench.traced")[0] if self.spans else {}

    @cached_property
    def per_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        if self.spans is not None:
            out.update(self._span_metrics())
        out.update(self._runtime_metrics())
        if self.is_service:
            out.update(self._service_metrics())
        for name in EXACT_COUNTS | {"runtime.workers"}:
            if name in self.counts:
                out[name] = float(self.counts[name])
        return out

    def _span_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}

        def self_s(layers, names) -> float:
            return sum(layers[n]["self_s"] for n in names if n in layers)

        setup, _, builds = self._root_layers("bench.setup")
        for metric, names in SETUP_LAYERS.items():
            if any(n in setup for n in names):
                out[metric] = self_s(setup, names) / builds
        # The service traces several rounds; its rows are per round so
        # they stay comparable with run_s.
        traced, _, units = self._root_layers("bench.traced")
        if units:
            for metric, names in RUN_LAYERS.items():
                if any(n in traced for n in names):
                    out[metric] = self_s(traced, names) / units
            for metric, (name, field) in RUN_SPAN_COUNTS.items():
                if name in traced:
                    out[metric] = traced[name][field] / units
            run = traced.get("mpe.run")
            if run:
                out["mpe.attributed_share"] = 1.0 - run["self_s"] / run["total_s"]
            base = median(nominal_s(r) for r in self.trace_baseline)
            if base:
                out["trace.overhead_share"] = (
                    median(nominal_s(r) for r in self.traced_units) / base - 1.0
                )
            overheads = self._job_overheads()
            if overheads:
                out["service.overhead_p50_s"] = median(overheads)
        proc, _, _ = self._root_layers("bench.process")
        for metric, name in PROCESS_LAYERS.items():
            if name in proc:
                out[metric] = proc[name]["total_s"]
        return out

    def _job_overheads(self) -> list[float]:
        """Per traced job: its latency minus the ``MPE.run`` inside it."""
        sp = self.spans
        jobs = sp.ids("bench.job")
        inner = dict.fromkeys(jobs.tolist(), 0.0)
        for run in sp.ids("mpe.run").tolist():
            p = int(sp.parent[run])
            while p >= 0 and p not in inner:
                p = int(sp.parent[p])
            if p >= 0:
                inner[p] += float(sp.dur[run])
        return [float(sp.dur[j]) - inner[j] for j in inner]

    @cached_property
    def traced_units(self) -> list[dict]:
        """The rows of the units of work that ran under ``bench.traced``."""
        if self.is_service:
            return self.select("round", traced=True)
        return self.select("run", executor="serial", traced=True)

    @cached_property
    def trace_baseline(self) -> list[dict]:
        """Untraced units of work the traced ones are compared with: same
        executor (serial), and for the service the same round numbers."""
        if self.is_service:
            traced_rounds = {r["round"] for r in self.traced_units}
            return [r for r in self.units if r["round"] in traced_rounds]
        return self.select("run", executor="serial", traced=False, prefetch=0)

    def _runtime_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        run_s = median(r["wall_s"] for r in self.units)
        first = self.walls("first_run")
        if first:
            out["mpe.first_run_s"] = first[0]
        ref = self.walls("reference")
        if ref:
            out["reference.run_s"] = ref[0]
            if run_s:
                out["mpe.overhead_vs_reference"] = run_s / ref[0]
        modeled = self.counts.get("cost.modeled_job_s")
        if modeled and run_s:
            out["cost.wall_over_modeled"] = run_s / modeled
        by_executor = {
            ex: median(self.walls("run", executor=ex, traced=False, prefetch=0))
            for ex in ("serial", "parallel", "process")
        }
        # Executor comparisons exist only where all three were run, and
        # a speed-up only where the pool is wider than one worker.
        if all(by_executor.values()):
            out["runtime.serial_run_s"] = by_executor["serial"]
            out["runtime.thread_run_s"] = by_executor["parallel"]
            if self.counts.get("runtime.workers", 1) >= 2:
                out["runtime.process_speedup"] = (
                    by_executor["serial"] / by_executor["process"]
                )
                out["runtime.thread_speedup"] = (
                    by_executor["serial"] / by_executor["parallel"]
                )
        prefetch = median(
            r["wall_s"] for r in self.select("run", traced=False) if r.get("prefetch")
        )
        if prefetch and by_executor["serial"]:
            out["prefetch.run_s"] = prefetch
            out["prefetch.speedup"] = by_executor["serial"] / prefetch
        return out

    def _service_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        jobs = self.select("job", traced=False, loop=True)
        if jobs:
            busy = sum(r["wall_s"] for r in self.units)
            out["jobs_per_s"] = len(jobs) / busy
            lat = [r["wall_s"] for r in jobs]
            out["job_latency_p50_s"] = percentile(lat, 50)
            out["job_latency_p90_s"] = percentile(lat, 90)
            for alg in sorted({r["algorithm"] for r in jobs}):
                out[f"service.latency_p50_s.{alg}"] = median(
                    r["wall_s"] for r in jobs if r["algorithm"] == alg
                )
        mutates = self.walls("mutate", traced=False)
        if mutates:
            out["mutate_latency_p50_s"] = median(mutates)
        return out

    @cached_property
    def job_latency_tail(self) -> tuple[float, float, int] | None:
        """(percentile, value, n) the tail rule supports for job
        latency — what a reader may quote instead of a bare p90."""
        lat = self.walls("job", traced=False, loop=True)
        tail = tail_percentile(lat)
        return None if tail is None else (*tail, len(lat))
