"""Observability subsystem tests (``repro.obs``).

The two invariants that make tracing trustworthy:

* **Determinism** — the span *tree* (names/categories/nesting, never
  timestamps) is identical across the serial, thread, and process
  executors, because nesting comes from begin/end order and worker-side
  buffers are merged parent-side in server-id order.
* **No-op path** — a traced run changes nothing observable: vertex
  values, counters, and modeled costs are bitwise identical with
  tracing on, off, and across executors.

Plus the exporters (Chrome trace JSON, Prometheus text, superstep
JSONL, run reports) round-trip, and ``CounterSnapshot`` — the struct
worker deltas ride home in — merges correctly at its edges.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro.apps import PageRank
from repro.cluster import Cluster, ClusterSpec
from repro.cluster.counters import Counters, CounterSnapshot
from repro.core import MPE, MPEConfig, SPE
from repro.graph import chung_lu_graph
from repro.metrics import CostModel
from repro.obs.export import (
    parse_prometheus_text,
    to_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_prometheus,
    write_superstep_jsonl,
)
from repro.obs.metrics import MetricsRegistry, bridge_cluster
from repro.obs.report import (
    REPORT_SCHEMA,
    build_run_report,
    format_run_report,
    load_run_report,
    save_run_report,
)
from repro.obs.trace import NULL_BUFFER, TraceBuffer, Tracer
from repro.runtime import ProcessExecutor, process_runtime_available

NUM_SERVERS = 4

EXECUTORS = ["serial", "parallel"] + (
    ["process"] if process_runtime_available() else []
)


@pytest.fixture(scope="module")
def skewed():
    return chung_lu_graph(150, 1200, seed=71, name="obs-g")


def _run(graph, executor, tracer=None, max_supersteps=6, probe=None, **cfg_kw):
    """One PageRank run; returns (result, modeled_s, agg_counters).
    ``probe(cluster, result)`` runs before the cluster is torn down."""
    cluster = Cluster(ClusterSpec(num_servers=NUM_SERVERS))
    try:
        spe = SPE(cluster.dfs)
        tile_edges = max(1, graph.num_edges // (3 * NUM_SERVERS))
        manifest = spe.preprocess(graph, tile_edges, name=graph.name)
        mpe = MPE(
            cluster,
            manifest,
            MPEConfig(
                executor=executor,
                num_workers=2,
                max_supersteps=max_supersteps,
                **cfg_kw,
            ),
            tracer=tracer,
        )
        result = mpe.run(PageRank())
        if probe is not None:
            probe(cluster, result)
        modeled = CostModel(cluster.spec).superstep_time(
            [s.counters for s in cluster.servers]
        ).total_s
        agg = cluster.aggregate_counters()
        return result, modeled, agg
    finally:
        cluster.close()


class TestTraceBuffer:
    def test_nesting_and_depth(self):
        buf = TraceBuffer(0, "t")
        assert buf.depth == 0
        buf.begin("outer")
        buf.begin("inner", "io")
        assert buf.depth == 2
        buf.end()
        buf.end()
        assert buf.depth == 0
        kinds = [e[0] for e in buf.events()]
        assert kinds == ["B", "B", "E", "E"]

    def test_span_context_manager_closes_on_error(self):
        buf = TraceBuffer(0, "t")
        with pytest.raises(ValueError):
            with buf.span("body"):
                raise ValueError("boom")
        assert buf.depth == 0

    def test_close_to_unwinds_to_depth(self):
        buf = TraceBuffer(0, "t")
        buf.begin("run")
        buf.begin("superstep")
        buf.begin("phase")
        buf.close_to(1)
        assert buf.depth == 1
        buf.close_to(0)
        assert buf.depth == 0

    def test_ring_buffer_drops_oldest_and_counts(self):
        buf = TraceBuffer(0, "t", max_events=4)
        for i in range(10):
            buf.instant(f"i{i}")
        assert len(buf) == 4
        assert buf.dropped == 6
        names = [e[1] for e in buf.events()]
        assert names == ["i6", "i7", "i8", "i9"]

    def test_drain_then_extend_reassembles(self):
        src = TraceBuffer(1, "worker")
        src.begin("compute")
        src.instant("tile_skip", "schedule")
        src.end()
        shipped = src.drain()
        assert src.events() == [] and src.depth == 0
        dst = TraceBuffer(1, "parent-mirror")
        dst.extend(shipped)
        assert [e[0] for e in dst.events()] == ["B", "I", "E"]


class TestTraceDeterminism:
    def test_span_trees_identical_across_executors(self, skewed):
        """The acceptance criterion: every executor produces the same
        span tree (and instant counts) for the same run."""
        trees, counts, values = {}, {}, {}
        for executor in EXECUTORS:
            tracer = Tracer()
            result, _, _ = _run(skewed, executor, tracer=tracer)
            trees[executor] = tracer.span_trees()
            counts[executor] = tracer.instant_counts()
            values[executor] = result.values
        reference = trees["serial"]
        for executor in EXECUTORS[1:]:
            assert trees[executor] == reference, (
                f"span tree diverged under executor={executor!r}"
            )
            assert counts[executor] == counts["serial"]
            assert np.array_equal(values[executor], values["serial"])

    def test_expected_span_names_present(self, skewed):
        tracer = Tracer()
        _run(skewed, "serial", tracer=tracer, max_supersteps=40)

        def names(nodes, acc):
            for node in nodes:
                acc.add(node.name)
                names(node.children, acc)
            return acc

        engine = names(tracer.span_trees()["engine"], set())
        assert {"run", "superstep", "compute", "broadcast", "sync",
                "apply", "account"} <= engine
        server = names(tracer.span_trees()["server-0"], set())
        assert {"compute", "tile", "load", "gather-apply"} <= server
        assert tracer.instant_counts().get("converged", 0) == 1

    def test_fault_instants_recorded(self, skewed):
        """Injected faults surface as instants; the *span* tree (faults
        excluded — the documented determinism exception) still matches
        a clean run's."""
        from repro.faults import CRASH, FaultEvent, FaultSchedule, Supervisor

        clean_tracer = Tracer()
        _run(skewed, "serial", tracer=clean_tracer)

        tracer = Tracer()
        cluster = Cluster(ClusterSpec(num_servers=NUM_SERVERS))
        try:
            spe = SPE(cluster.dfs)
            tile_edges = max(1, skewed.num_edges // (3 * NUM_SERVERS))
            manifest = spe.preprocess(skewed, tile_edges, name=skewed.name)
            mpe = MPE(
                cluster,
                manifest,
                MPEConfig(checkpoint_every=2, max_supersteps=6),
                tracer=tracer,
            )
            schedule = FaultSchedule(
                [FaultEvent(CRASH, superstep=2, server=1)]
            )
            _, report = Supervisor(mpe, schedule=schedule).run(PageRank())
        finally:
            cluster.close()
        assert report.restarts == 1
        counts = tracer.instant_counts()
        assert counts.get("fault-crash", 0) >= 1


def _story(cluster, result):
    """Everything a traced run must leave bitwise alone."""
    return {
        "values": result.values.tobytes(),
        "counters": [s.counters.snapshot() for s in cluster.servers],
        "cache": [dataclasses.asdict(s.cache.stats) for s in cluster.servers],
        "modeled": [s.modeled for s in result.supersteps],
    }


def _tree_digest(tracer) -> str:
    """sha256 over the span trees (names, cats, nesting, instants)."""
    trees = tracer.span_trees()
    shape = [
        (label, [node.as_tuple() for node in trees[label]])
        for label in sorted(trees)
    ]
    return hashlib.sha256(repr(shape).encode()).hexdigest()


class TestNullBuffer:
    """Tracing off is the same code recording into ``NULL_BUFFER``."""

    def test_surface_matches_trace_buffer(self):
        for name in ("begin", "end", "instant", "complete", "span",
                     "close_to", "extend", "drain"):
            assert callable(getattr(TraceBuffer, name))
            assert callable(getattr(NULL_BUFFER, name))
        NULL_BUFFER.begin("a", "b", x=1)
        NULL_BUFFER.instant("a", "b", x=1)
        NULL_BUFFER.complete("a", "b", 0.0, 1.0, x=1)
        NULL_BUFFER.extend([("B", "a", "b", 0.0, None)])
        NULL_BUFFER.end()
        NULL_BUFFER.close_to(0)
        assert NULL_BUFFER.depth == 0
        assert NULL_BUFFER.drain() == ()
        with pytest.raises(ValueError):
            with NULL_BUFFER.span("body", "phase", x=1):
                with NULL_BUFFER.span("inner"):
                    raise ValueError("boom")

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_untraced_run_records_and_ships_nothing(
        self, skewed, executor, monkeypatch
    ):
        shipped = []
        run_phase = ProcessExecutor.run_phase

        def spying_run_phase(self, tag, payloads):
            results = run_phase(self, tag, payloads)
            shipped.extend((tag, r) for r in results)
            return results

        monkeypatch.setattr(ProcessExecutor, "run_phase", spying_run_phase)

        effective = []

        def probe(cluster, result):
            # REPRO_EXECUTOR (CI's forcing flag) may override the config.
            effective.append(result.executor)
            assert cluster.dfs.trace is NULL_BUFFER
            for server in cluster.servers:
                assert server.trace is NULL_BUFFER
                assert server.prefetch_trace is NULL_BUFFER
                assert server.cache.trace is NULL_BUFFER

        _run(skewed, executor, probe=probe, prefetch_depth=1)
        assert bool(shipped) == (effective == ["process"])
        for _tag, (_result, mirror) in shipped:
            assert mirror.trace == () and mirror.prefetch_trace == ()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_tracing_is_bitwise_invisible(self, skewed, executor):
        """values / Counters / CacheStats / modeled costs identical
        traced vs not, under every executor."""
        stories = []
        for tracer in (None, Tracer()):
            _run(
                skewed,
                executor,
                tracer=tracer,
                probe=lambda cluster, result: stories.append(
                    _story(cluster, result)
                ),
            )
        assert stories[0] == stories[1]

    def test_untraced_run_after_traced_run_is_clean(self, skewed):
        """Wiring happens per run: dropping the tracer from a cluster
        that was traced puts the null buffer back on every hook."""
        cluster = Cluster(ClusterSpec(num_servers=2))
        try:
            manifest = SPE(cluster.dfs).preprocess(
                skewed, max(1, skewed.num_edges // 6), name=skewed.name
            )
            tracer = Tracer()
            MPE(cluster, manifest, MPEConfig(max_supersteps=2), tracer=tracer).run(
                PageRank()
            )
            recorded = tracer.total_events
            assert recorded > 0
            MPE(cluster, manifest, MPEConfig(max_supersteps=2)).run(PageRank())
            assert tracer.total_events == recorded
            assert all(s.trace is NULL_BUFFER for s in cluster.servers)
            assert cluster.dfs.trace is NULL_BUFFER
        finally:
            cluster.close()

    @pytest.mark.skipif(
        bool(os.environ.get("REPRO_EXECUTOR", "").strip()),
        reason="a forcing flag changes which spans a run emits",
    )
    def test_serial_span_tree_is_the_recorded_one(self, skewed):
        """The traced tree of this module's reference run, pinned as a
        digest recorded at commit 1215c28 (before the traced/untraced
        paths were folded).  With test_span_trees_identical_across_
        executors this pins all three executors.  An intended change to
        span names, categories or nesting re-records it."""
        tracer = Tracer()
        _run(skewed, "serial", tracer=tracer)
        assert _tree_digest(tracer) == SERIAL_TREE_DIGEST


# Re-recorded when broadcasts stopped decoding: the tree recorded at
# 1215c28 with its ``payload_decode`` spans removed, nothing else moved.
# Re-recorded when held stretches began to be metered as one: over the
# four server lanes, superstep 0's 12 ``tile`` > ``load`` spans stay, the
# 60 later tiles' spans become 20 ``tile`` spans (one per held stretch,
# no ``load``), and ``gather-apply`` moved from under each ``tile`` (72)
# to around each computed run, under ``compute`` (24).  Nothing else
# moved.
SERIAL_TREE_DIGEST = (
    "923983e6a5861cdd7749fb53255dccca11126bf57a74c24076031328d6aab336"
)


class TestPrefetchObservability:
    """The tile prefetch pipeline's trace artifacts: per-server prefetch
    buffers of ``tile_prefetch`` complete-events, ``prefetch_wait``
    spans on the compute thread, and the occupancy gauge."""

    def test_prefetch_buffers_and_spans(self, skewed):
        tracer = Tracer()
        _run(skewed, "serial", tracer=tracer, prefetch_depth=2)
        labels = {b.label for b in tracer.buffers()}
        assert {
            f"server-{i}-prefetch" for i in range(NUM_SERVERS)
        } <= labels
        completes = sum(
            1
            for b in tracer.buffers()
            for kind, name, *_ in b.events()
            if kind == "C" and name == "tile_prefetch"
        )
        waits = sum(
            1
            for b in tracer.buffers()
            for kind, name, *_ in b.events()
            if kind == "B" and name == "prefetch_wait"
        )
        # Every dequeued tile produced exactly one of each.
        assert completes > 0 and completes == waits
        gauge_text = tracer.metrics.to_text()
        assert "repro_prefetch_occupancy" in gauge_text

    def test_depth_zero_traces_unchanged(self, skewed):
        """Prefetch off: no prefetch buffers, no prefetch span names —
        the seed trace shape survives byte for byte."""
        tracer = Tracer()
        _run(skewed, "serial", tracer=tracer, prefetch_depth=0)
        assert not any("prefetch" in b.label for b in tracer.buffers())
        for buf in tracer.buffers():
            for _kind, name, *_ in buf.events():
                assert name not in ("tile_prefetch", "prefetch_wait")

    def test_prefetch_trees_identical_across_executors(self, skewed):
        """With one I/O thread the prefetch event order is deterministic,
        so full span trees (prefetch buffers included) must agree across
        executors exactly like the seed trace contract."""
        trees, values = {}, {}
        for executor in EXECUTORS:
            tracer = Tracer()
            result, _, _ = _run(
                skewed, executor, tracer=tracer,
                prefetch_depth=2, io_threads=1,
            )
            trees[executor] = tracer.span_trees()
            values[executor] = result.values
        for executor in EXECUTORS[1:]:
            assert trees[executor] == trees["serial"], executor
            assert np.array_equal(values[executor], values["serial"])

    def test_complete_events_export_as_x_phase(self, skewed, tmp_path):
        from repro.obs.export import to_chrome_trace, validate_chrome_trace

        tracer = Tracer()
        _run(skewed, "serial", tracer=tracer, prefetch_depth=2)
        trace = to_chrome_trace(tracer)
        assert validate_chrome_trace(trace) == []
        prefetch_events = [
            e for e in trace["traceEvents"]
            if e.get("name") == "tile_prefetch"
        ]
        assert prefetch_events
        for event in prefetch_events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert "blob" in event.get("args", {})

    def test_complete_primitive_is_depth_neutral(self):
        buf = TraceBuffer(7, "io")
        buf.begin("outer")
        buf.complete("tile_prefetch", "prefetch", 1.0, 1.5, blob="t0")
        assert buf.depth == 1  # complete() never touches nesting
        buf.end()
        kinds = [e[0] for e in buf.events()]
        assert kinds == ["B", "C", "E"]
        _, name, cat, ts, args = buf.events()[1]
        assert (name, cat, ts) == ("tile_prefetch", "prefetch", 1.0)
        assert args["dur_s"] == 0.5 and args["blob"] == "t0"


class TestExporters:
    def test_chrome_trace_roundtrip(self, skewed, tmp_path):
        tracer = Tracer()
        _run(skewed, "serial", tracer=tracer)
        doc = to_chrome_trace(tracer, metadata={"program": "pagerank"})
        assert validate_chrome_trace(doc) == []
        phases = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert phases and all("dur" in e for e in phases)
        assert doc["otherData"]["program"] == "pagerank"

        path = str(tmp_path / "trace.json")
        write_chrome_trace(tracer, path, metadata={"program": "pagerank"})
        assert validate_chrome_trace_file(path) == []
        with open(path) as fh:
            assert json.load(fh)["traceEvents"]

    @pytest.mark.skipif(
        not process_runtime_available(),
        reason="platform lacks fork + POSIX shared memory",
    )
    def test_process_trace_carries_both_decode_outcomes(self, skewed):
        """Shared-inbox delivery of records: the exported process trace
        validates, every server applied its inbox, and no span decodes
        a broadcast."""
        tracer = Tracer()
        _run(skewed, "process", tracer=tracer)
        doc = to_chrome_trace(tracer)
        assert validate_chrome_trace(doc) == []
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "apply" in names and "encode" in names
        assert "payload_decode" not in names

    def test_chrome_trace_flags_unbalanced(self):
        tracer = Tracer()
        tracer.engine().begin("run")
        doc = to_chrome_trace(tracer)
        unclosed = [e for e in doc["traceEvents"] if e.get("ph") == "B"]
        assert len(unclosed) == 1

    def test_prometheus_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter(
            "repro_widgets_total", "widgets", labelnames=("kind",)
        ).labels(kind="a").inc(3)
        registry.gauge("repro_depth", "depth").labels().set(2.5)
        hist = registry.histogram(
            "repro_sizes_bytes", "sizes", buckets=(10.0, 100.0)
        ).labels()
        for v in (5, 50, 500):
            hist.observe(v)

        path = str(tmp_path / "metrics.prom")
        write_prometheus(registry, path)
        parsed = parse_prometheus_text(open(path).read())
        # Sample keys are (sample_name, sorted (label, value) pairs).
        assert parsed["repro_widgets_total"]["samples"][
            ("repro_widgets_total", (("kind", "a"),))
        ] == 3.0
        assert parsed["repro_depth"]["samples"][("repro_depth", ())] == 2.5
        hist_samples = parsed["repro_sizes_bytes"]["samples"]
        assert hist_samples[("repro_sizes_bytes_count", ())] == 3.0
        assert hist_samples[("repro_sizes_bytes_sum", ())] == 555.0
        # Cumulative buckets: le="100" includes the le="10" observations.
        buckets = {
            dict(labels)["le"]: value
            for (name, labels), value in hist_samples.items()
            if name == "repro_sizes_bytes_bucket"
        }
        assert buckets == {"10": 1.0, "100": 2.0, "+Inf": 3.0}

    def test_bridge_cluster_idempotent(self, skewed):
        cluster = Cluster(ClusterSpec(num_servers=2))
        try:
            registry = MetricsRegistry()
            bridge_cluster(registry, cluster)
            once = registry.to_text()
            bridge_cluster(registry, cluster)
            assert registry.to_text() == once
        finally:
            cluster.close()

    def test_superstep_jsonl(self, skewed, tmp_path):
        result, _, _ = _run(skewed, "serial")
        path = str(tmp_path / "timeline.jsonl")
        rows = write_superstep_jsonl(result, path)
        lines = [json.loads(line) for line in open(path)]
        # One row per superstep plus the trailing summary row.
        assert rows == len(lines) == len(result.supersteps) + 1
        assert all(row["type"] == "superstep" for row in lines[:-1])
        assert all("net_bytes" in row for row in lines[:-1])
        assert lines[-1]["type"] == "summary"
        assert lines[-1]["num_supersteps"] == len(result.supersteps)


class TestRunReport:
    def test_build_save_load_format(self, skewed, tmp_path):
        cluster = Cluster(ClusterSpec(num_servers=NUM_SERVERS))
        try:
            spe = SPE(cluster.dfs)
            manifest = spe.preprocess(
                skewed, max(1, skewed.num_edges // 12), name=skewed.name
            )
            mpe = MPE(cluster, manifest, MPEConfig(max_supersteps=5))
            result = mpe.run(PageRank())
            report = build_run_report(
                result,
                cluster,
                dataset=skewed.name,
                program="pagerank",
                num_servers=NUM_SERVERS,
            )
            metrics_text = bridge_cluster(MetricsRegistry(), cluster).to_text()
        finally:
            cluster.close()
        assert report["schema"] == REPORT_SCHEMA
        # The cache section carries the §IV-B stats plus the admission
        # shortcut's host-telemetry count (0 here: the default cache
        # holds every tile, so no insert is ever rejected).
        assert set(report["cache"]) == {str(i) for i in range(NUM_SERVERS)}
        assert all(
            row["compress_skipped"] == 0 and row["rejected"] == 0
            for row in report["cache"].values()
        )
        assert "repro_cache_compress_skipped" in metrics_text
        assert len(report["supersteps"]) == result.num_supersteps
        path = str(tmp_path / "report.json")
        save_run_report(report, path)
        assert load_run_report(path) == report
        table = format_run_report(report)
        assert "load" in table and "gather-apply" in table
        assert "broadcast" in table and "sync" in table
        assert "cache: mode=" in table and "compress_skipped=0" in table
        # The runtime line spells out a platform fallback, and only that.
        assert "(requested" not in table
        report["runtime"]["executor_requested"] = "process"
        fallback = format_run_report(report)
        assert f"executor={result.executor} (requested process)" in fallback
        assert "executor_requested=" not in fallback


class _FakeServer:
    def __init__(self):
        self.counters = Counters()
        self.cache = None


class TestCounterSnapshot:
    def test_delta_counts_only_post_snapshot_work(self):
        server = _FakeServer()
        server.counters.net_sent = 100
        snap = CounterSnapshot.capture(server)
        server.counters.net_sent += 40
        server.counters.edges_processed += 7
        delta = snap.delta(server)
        assert delta.net_sent == 40
        assert delta.edges_processed == 7
        assert delta.disk_read == 0

    def test_delta_returns_every_volume_field(self):
        """Each additive field of ``Counters`` — everything but the
        memory gauges — comes back in the delta, so a forked worker's
        charge to any of them reaches the parent."""
        server = _FakeServer()
        snap = CounterSnapshot.capture(server)
        volumes = [
            f.name
            for f in dataclasses.fields(Counters)
            if not f.name.startswith("mem_")
            and f.name not in ("decompressed", "compressed")
        ]
        assert len(volumes) == 15
        for bump, name in enumerate(volumes, start=1):
            setattr(server.counters, name, bump)
        delta = snap.delta(server)
        assert {n: getattr(delta, n) for n in volumes} == {
            n: bump for bump, n in enumerate(volumes, start=1)
        }
        assert delta.mem_current == 0 and delta.mem_peak == 0

    def test_delta_codec_appearing_after_snapshot(self):
        server = _FakeServer()
        server.counters.add_decompressed("delta", 10)
        snap = CounterSnapshot.capture(server)
        server.counters.add_decompressed("delta", 5)
        server.counters.add_decompressed("rle", 3)  # new codec post-snap
        delta = snap.delta(server)
        assert delta.decompressed == {"delta": 5, "rle": 3}

    def test_delta_omits_unchanged_codecs(self):
        server = _FakeServer()
        server.counters.add_compressed("delta", 10)
        snap = CounterSnapshot.capture(server)
        delta = snap.delta(server)
        assert delta.compressed == {}

    def test_add_volumes_folds_delta_to_direct_totals(self):
        """Parent + shipped delta must equal having done the work
        in-process — the process executor's merge invariant."""
        direct = _FakeServer()
        split = _FakeServer()
        for server in (direct, split):
            server.counters.net_recv = 11
            server.counters.add_decompressed("delta", 4)
        snap = CounterSnapshot.capture(split)

        def work(c):
            c.net_recv += 9
            c.disk_read += 100
            c.fault_delay_s += 0.5
            c.add_decompressed("delta", 6)
        work(direct.counters)
        work(split.counters)

        parent = _FakeServer()
        parent.counters.net_recv = 11
        parent.counters.add_decompressed("delta", 4)
        parent.counters.add_volumes(snap.delta(split))
        for field in ("net_recv", "disk_read", "fault_delay_s"):
            assert getattr(parent.counters, field) == getattr(
                direct.counters, field
            )
        assert parent.counters.decompressed == direct.counters.decompressed

    def test_capture_without_cache_reports_zero(self):
        snap = CounterSnapshot.capture(_FakeServer())
        assert snap.cache_hits == 0 and snap.cache_lookups == 0
