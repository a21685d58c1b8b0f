"""Tests for the online autotuner (``repro.tuning``).

The contract under test:

* **Value preservation** — every knob the tuner touches (message codec,
  comm mode, bloom filtering, prefetch depth, cache mode) is a lossless
  re-encoding of the same updates, so tuned, scripted, and fixed-config
  runs all produce bitwise identical vertex values.
* **tune=off is inert** — with tuning off the run is bitwise identical
  (values, counters, modeled costs) to one on a build that never heard
  of the tuner, and ``RunResult.tuning`` is ``None``.
* **Deterministic decision trace** — the tuner fits and decides from
  modeled (metered-volume) time, so the decision trace is a pure
  function of (dataset, program, config): identical across serial /
  thread / process executors and replayed verbatim under a fault
  schedule.
* **Mid-run switches are boundary-clean** — a scripted switch at
  superstep *k* produces the same values as running the post-switch
  configuration from the start, on every executor and under faults.
* **Warm reuse** — fitted constants live on the engine: a later run
  with a different signature skips the exploration window entirely.
"""

import dataclasses
import json

import pytest

from repro.analysis.experiments import run_graphh
from repro.apps import SSSP, PageRank
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.graph import chung_lu_graph
from repro.metrics.cost import CostSample, fit_cost_constants
from repro.obs.report import build_run_report, load_run_report, save_run_report
from repro.runtime import process_runtime_available
from repro.runtime.prefetch import recommend_depth
from repro.storage.cache import EdgeCache, cache_plan, select_cache_mode
from repro.storage.codecs import CACHE_MODES, get_codec
from repro.storage.disk import LocalDisk
from repro.tuning import KnobSettings, Tuner, TuningPlan
from tests.contract import PLAN, Case, check, restarts, run

N_SERVERS = 3
SUPERSTEPS = 12

EXECUTORS = ["serial", "parallel"] + (
    ["process"] if process_runtime_available() else []
)


@pytest.fixture(scope="module")
def graph():
    return chung_lu_graph(260, 2600, seed=23, name="tuning-g")


def _build(graph, cfg):
    cluster = Cluster(ClusterSpec(num_servers=N_SERVERS))
    spe = SPE(cluster.dfs)
    manifest = spe.preprocess(
        graph, max(1, graph.num_edges // (12 * N_SERVERS)), name=graph.name
    )
    return MPE(cluster, manifest, cfg), cluster


def _story(result, cluster):
    """Everything that must agree bitwise between two runs."""
    return {
        "values": result.values.tobytes(),
        "supersteps": result.num_supersteps,
        "counters": [s.counters.snapshot() for s in cluster.servers],
        "cache": [
            dataclasses.asdict(s.cache.stats)
            for s in cluster.servers
            if s.cache is not None
        ],
        "modeled": [
            round(s.modeled.total_s, 12)
            for s in result.supersteps
            if s.modeled
        ],
        "tuning": json.dumps(result.tuning, sort_keys=True),
    }


def _run(graph, cfg, program=None, plan=None, max_supersteps=SUPERSTEPS):
    mpe, cluster = _build(
        graph, dataclasses.replace(cfg, max_supersteps=max_supersteps)
    )
    if plan is not None:
        mpe.tuning_plan = plan
    result = mpe.run(program or PageRank())
    story = _story(result, cluster)
    cluster.close()
    return result, story


# ----------------------------------------------------------------------
# cache_plan: the factored-out §IV-B capacity math
# ----------------------------------------------------------------------
class TestCachePlan:
    def test_none_capacity_means_everything_fits_raw(self):
        assert cache_plan(5000, None) == (5000, 1)
        # Degenerate empty server still gets a positive capacity.
        assert cache_plan(0, None) == (1, 1)

    def test_explicit_mode_is_passed_through(self):
        assert cache_plan(5000, 10, mode=4) == (10, 4)

    def test_matches_selection_rule(self):
        for total in (1000, 10_000, 100_000):
            for capacity in (100, 1000, 5000, 100_000):
                capacity_out, mode = cache_plan(total, capacity)
                assert capacity_out == capacity
                assert mode == select_cache_mode(total, capacity)

    def test_switch_mode_reencodes_and_meters(self, tmp_path):
        disk = LocalDisk(tmp_path)
        cache = EdgeCache(capacity_bytes=1 << 20, mode=2)
        blobs = {f"t{i}": bytes([i % 7] * 512) for i in range(5)}
        for key, data in blobs.items():
            disk.write(key, data)
            assert cache.put(key, disk)
        raw = cache.switch_mode(3, disk)
        assert raw == sum(len(b) for b in blobs.values())
        assert cache.mode == 3
        assert cache.used_bytes == sum(
            len(cache.codec.compress(b)) for b in blobs.values()
        )
        for key, data in blobs.items():
            assert cache.get(key) == len(data)
        # Same-mode switch is a free no-op.
        assert cache.switch_mode(3, disk) == 0

    def test_server_switch_charges_old_codec(self, graph):
        mpe, cluster = _build(
            graph, MPEConfig(cache_mode=2, max_supersteps=3)
        )
        mpe.run(PageRank())  # populate the edge caches
        server = cluster.servers[0]
        baseline = dict(server.counters.decompressed)
        raw = server.switch_cache_mode(4)
        assert raw > 0
        charged = (
            server.counters.decompressed.get("snappylike", 0)
            - baseline.get("snappylike", 0)
        )
        assert charged == raw
        assert server.counters.mem_cache == server.cache.used_bytes
        cluster.close()


# ----------------------------------------------------------------------
# Fitting: least squares recovers planted constants
# ----------------------------------------------------------------------
class TestFitRecovery:
    DISK_BW = 200e6
    CODEC_MBPS = 400.0
    EDGE_RATE = 2e7
    NET_BW = 1.0e9
    SYNC_S = 0.05

    def _sample(self, i: int) -> CostSample:
        disk = 1_000_000 * (i + 1)
        codec = 600_000 * (i + 2)
        edges = 400_000 * (i % 3 + 1)
        net = 2_000_000 * (i + 1)
        observed = (
            self.SYNC_S
            + disk / self.DISK_BW
            + codec / (self.CODEC_MBPS * 1024 * 1024)
            + edges / self.EDGE_RATE
            + net / self.NET_BW
        )
        return CostSample(
            disk_bytes=disk,
            codec_bytes={"snappylike": codec},
            edges=edges,
            net_bytes=net,
            observed_s=observed,
        )

    def test_predictions_match_observations(self):
        samples = [self._sample(i) for i in range(6)]
        fit = fit_cost_constants(samples)
        for s in samples:
            assert fit.predict(s) == pytest.approx(s.observed_s, rel=1e-6)
        for row in fit.residuals(samples):
            assert abs(row["residual_s"]) < 1e-6

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            fit_cost_constants([self._sample(0)])

    def test_report_dict_is_json_safe(self):
        fit = fit_cost_constants([self._sample(i) for i in range(4)])
        json.dumps(fit.to_dict())  # np.float64 leakage would raise


# ----------------------------------------------------------------------
# Knob/plan plumbing
# ----------------------------------------------------------------------
class TestKnobPlumbing:
    def test_knob_tuple_round_trip(self):
        knobs = KnobSettings(
            message_codec="zlib1",
            comm_mode="dense",
            use_bloom=False,
            prefetch_depth=2,
            io_threads=2,
            cache_mode=3,
        )
        # KnobSettings serialises through ``dataclasses`` alone; the
        # tuple is what TuningPlan.trace() fingerprints.
        assert dataclasses.astuple(knobs) == ("zlib1", "dense", False, 2, 2, 3)
        assert KnobSettings(*dataclasses.astuple(knobs)) == knobs
        assert dataclasses.asdict(knobs)["cache_mode"] == 3

    def test_scripted_plan_is_sticky(self):
        plan = TuningPlan.scripted(
            {3: KnobSettings(message_codec="zlib1")},
            base=KnobSettings(),
        )
        assert plan.knobs_for(0) is None  # pre-switch: run the base
        assert plan.knobs_for(3).message_codec == "zlib1"
        assert plan.knobs_for(7).message_codec == "zlib1"  # holds
        assert plan.switches() == [3]

    def test_recommend_depth(self):
        # Nothing to hide -> pipeline off.
        assert recommend_depth(0.0, 1.0, 1.0) == (0, 1)
        assert recommend_depth(1.0, 0.0, 1.0) == (0, 1)
        # Balanced I/O and compute -> full depth; wider I/O when
        # I/O-bound.
        assert recommend_depth(0.4, 0.6, 1.0) == (2, 1)
        assert recommend_depth(0.6, 0.4, 1.0) == (2, 2)
        assert recommend_depth(0.5, 0.5, 1.0, max_depth=0) == (0, 1)


# ----------------------------------------------------------------------
# tune=off is inert
# ----------------------------------------------------------------------
class TestTuneOff:
    def test_off_is_bitwise_inert(self):
        check(Case(knobs=(("tune", False),)))
        assert run(Case())["metered"]["tuning"] is None


# ----------------------------------------------------------------------
# Tuned runs: values preserved, trace deterministic across executors
# ----------------------------------------------------------------------
class TestTunedDeterminism:
    @pytest.fixture(scope="class")
    def tuned_serial(self, graph):
        return _run(graph, MPEConfig(tune=True))

    def test_values_match_untuned(self):
        check(Case(knobs=(("tune", True),)))

    def test_explores_fits_and_decides(self, tuned_serial):
        tuning = tuned_serial[0].tuning
        phases = [
            d["phase"] for d in tuning["plan"]["decisions"]
        ]
        assert "explore" in phases and "decide" in phases
        assert tuning["fit_superstep"] is not None
        assert tuning["constants"]["num_samples"] >= 2
        # The rotation rated every codec directly.
        rated = set(tuning["constants"]["codec_mbps"])
        assert rated.issuperset(set(CACHE_MODES) - {"raw"})

    @pytest.mark.parametrize("executor", EXECUTORS[1:])
    def test_identical_across_executors(self, executor):
        check(Case(executor=executor, width=2, context=(("tune", True),)))

    def test_working_set_is_what_the_straggler_loaded(
        self, graph, monkeypatch
    ):
        """The tuner's working set is read off the resolved schedule;
        it must equal the blob bytes the straggler's sweep really pulled
        through ``Server.load_tile`` that superstep — skips included."""
        from repro.cluster.server import Server
        from repro.metrics.cost import CostModel

        # The load counter below lives in this process.
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        loaded = [[0] * N_SERVERS]
        stragglers = []
        original_load = Server.load_tile
        original_index = CostModel.straggler_index

        def load_tile(self, name, *args, **kwargs):
            loaded[-1][self.server_id] += len(self.disk.peek(name))
            return original_load(self, name, *args, **kwargs)

        def straggler_index(self, per_server):
            # Called once per tuned superstep, after its sweeps.
            stragglers.append(original_index(self, per_server))
            loaded.append([0] * N_SERVERS)
            return stragglers[-1]

        monkeypatch.setattr(Server, "load_tile", load_tile)
        monkeypatch.setattr(CostModel, "straggler_index", straggler_index)
        mpe, cluster = _build(
            graph, MPEConfig(tune=True, executor="serial", max_supersteps=40)
        )
        try:
            result = mpe.run(SSSP(source=1))
            samples = [
                mpe.tuner.samples[k] for k in sorted(mpe.tuner.samples)
            ]
        finally:
            cluster.close()
        assert len(samples) == len(stragglers) == result.num_supersteps
        assert sum(s.tiles_skipped for s in samples) > 0
        for sample, straggler, per_server in zip(samples, stragglers, loaded):
            assert sample.scheduled_bytes == per_server[straggler], (
                sample.superstep
            )


# ----------------------------------------------------------------------
# Scripted mid-run switches: boundary-clean on every executor
# ----------------------------------------------------------------------
class TestScriptedSwitch:
    """A scripted switch of cache mode, codec, representation and the
    prefetch pipeline at superstep boundaries moves no value — the run
    under it is the one without it, bit for bit — on every executor and
    under faults (``tests/contract.py``'s "plan" participant)."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_switch_equals_config_throughout(self, executor):
        check(Case(executor=executor, width=2, participant="plan"))

    def test_cache_mode_switch_preserves_values(self):
        check(Case(program="sssp", participant="plan"))

    def test_switch_under_faults_replays(self):
        """A crash after the last switch resumes before it: the retry
        replays that switch verbatim."""
        case = Case(participant="plan", fault=19)
        check(case)
        (kind, superstep, resume), *_ = restarts(case)
        assert kind == "crash" and resume <= max(PLAN) < superstep


# ----------------------------------------------------------------------
# Tuned runs under faults: the decision trace survives replay
# ----------------------------------------------------------------------
class TestTunedUnderFaults:
    def test_trace_and_values_match_fault_free(self):
        """A crash's recovery replays the recorded decisions verbatim;
        the values are the fault-free run's."""
        case = Case(context=(("tune", True),), fault=266)
        check(case)
        assert restarts(case) == [("crash", 2, 2)]
        tuning = run(case)["metered"]["tuning"]
        assert tuning and tuning == run(dataclasses.replace(case, fault=None))["metered"]["tuning"]


# ----------------------------------------------------------------------
# Warm reuse: fitted constants persist, exploration is skipped
# ----------------------------------------------------------------------
class TestWarmReuse:
    def test_second_program_skips_exploration(self, graph):
        mpe, cluster = _build(
            graph, MPEConfig(tune=True, max_supersteps=SUPERSTEPS)
        )
        first = mpe.run(PageRank())
        phases1 = [d["phase"] for d in first.tuning["plan"]["decisions"]]
        assert "explore" in phases1

        second = mpe.run(SSSP(source=1))
        phases2 = [d["phase"] for d in second.tuning["plan"]["decisions"]]
        assert "explore" not in phases2
        assert second.tuning["constants"] is not None
        cluster.close()

    def test_service_engine_reuses_constants(self, graph):
        from repro.service import Engine, JobSpec

        eng = Engine(num_servers=2, share_tiles=False)
        try:
            eng.register_graph(graph, name="tune-g")
            r1 = eng.submit(
                JobSpec(graph="tune-g", algorithm="pagerank", tune=True)
            )
            assert eng.run_next() is r1 and r1.result is not None
            phases1 = [
                d["phase"]
                for d in r1.result.tuning["plan"]["decisions"]
            ]
            assert "explore" in phases1

            r2 = eng.submit(
                JobSpec(
                    graph="tune-g",
                    algorithm="sssp",
                    params={"source": 1},
                    tune=True,
                )
            )
            assert eng.run_next() is r2 and r2.result is not None
            phases2 = [
                d["phase"]
                for d in r2.result.tuning["plan"]["decisions"]
            ]
            assert "explore" not in phases2

            # An untuned job on the same warm engine stays untouched.
            r3 = eng.submit(JobSpec(graph="tune-g", algorithm="pagerank"))
            assert eng.run_next() is r3
            assert r3.result.tuning is None
        finally:
            eng.shutdown()


# ----------------------------------------------------------------------
# Observability: tuning lane + report section
# ----------------------------------------------------------------------
class TestObservability:
    def test_trace_has_tuning_lane(self, graph, tmp_path):
        from repro.obs.export import (
            validate_chrome_trace_file,
            write_chrome_trace,
        )
        from repro.obs.trace import TUNING_TID, Tracer

        tracer = Tracer()
        result, cluster = run_graphh(
            graph,
            PageRank(),
            N_SERVERS,
            config=MPEConfig(tune=True),
            max_supersteps=SUPERSTEPS,
            tracer=tracer,
        )
        cluster.close()
        path = str(tmp_path / "tuned.trace.json")
        write_chrome_trace(tracer, path)
        assert validate_chrome_trace_file(path) == []
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        lane = [e for e in events if e.get("tid") == TUNING_TID]
        names = {e["name"] for e in lane}
        assert "tuning_start" in names and "fit" in names
        assert result.tuning is not None

    def test_report_renders_tuning_section(self, graph):
        from repro.obs.report import build_run_report, format_run_report

        result, cluster = run_graphh(
            graph,
            PageRank(),
            N_SERVERS,
            config=MPEConfig(tune=True),
            max_supersteps=SUPERSTEPS,
        )
        report = build_run_report(
            result,
            cluster,
            dataset="tuning-g",
            program="pagerank",
            extra={"tuning": result.tuning},
        )
        cluster.close()
        text = format_run_report(report)
        assert "tuning:" in text
        assert "fitted @ step" in text
        assert "switches at:" in text

    def test_saved_run_report_includes_tuning(self, graph, tmp_path):
        result, _story = _run(graph, MPEConfig(tune=True))
        path = str(tmp_path / "run.json")
        save_run_report(
            build_run_report(result, extra={"tuning": result.tuning}), path
        )
        doc = load_run_report(path)
        assert doc["tuning"]["plan"]["decisions"]


# ----------------------------------------------------------------------
# Tuner unit behaviour
# ----------------------------------------------------------------------
class TestTunerLifecycle:
    def test_same_signature_replays_recorded_plan(self):
        tuner = Tuner()
        base = KnobSettings()
        plan = tuner.begin_run(("g", "p", "cfg"), base)
        knobs0 = tuner.knobs_for(0)
        assert knobs0 == base
        again = tuner.begin_run(("g", "p", "cfg"), base)
        assert again is plan
        assert tuner.knobs_for(0) == knobs0

    def test_new_signature_resets_plan_keeps_constants(self):
        tuner = Tuner()
        base = KnobSettings()
        tuner.begin_run(("g", "p", "cfg"), base)
        tuner.constants = fit_cost_constants(
            [
                CostSample(1000, {"snappylike": 100}, 10, 50, 0.06),
                CostSample(2000, {"snappylike": 200}, 20, 100, 0.07),
                CostSample(4000, {"snappylike": 400}, 40, 200, 0.09),
            ]
        )
        plan2 = tuner.begin_run(("g", "q", "cfg"), base)
        assert plan2.decisions == []
        assert tuner.constants is not None
        # With constants in hand there is no rotation to run.
        assert tuner._rotation == []

    def test_knobs_for_requires_begin_run(self):
        with pytest.raises(RuntimeError):
            Tuner().knobs_for(0)
