"""Tests for selective scheduling + semi-external-memory vertex stores.

The GraphMP-port invariants:

* **Bitwise identity** — selective scheduling and the mmap vertex store
  are pure I/O optimisations: values, counters, modeled costs, and
  per-superstep skip counts must be bit-for-bit identical with the
  features on or off, under every executor and prefetch depth.  (The
  sweeps pin the bloom filter at a near-zero false-positive rate so the
  approximate prune makes the same decisions as the exact one — with
  the default rate the bitmap legitimately skips *more* tiles, which is
  the point of the feature, but then skip counters differ by design.)
* **One schedule** — ``MPE._resolve_schedule`` reproduces the old
  three-copy pruning rule tile for tile (differential test, oracle in
  this file), and no tile is probed more than once per superstep: with
  the bitmap on no filter is probed with hashed keys at all.
* **Fault-schedule stability** — the schedule is resolved parent-side
  before dispatch, so chaos schedules converge alike whether the prune
  is on or off.
* **SEM durability** — mmap-backed replica arrays survive
  checkpoint/resume and fork-sharing into the process executor.
"""

import contextlib
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.mpe as mpe_module
from repro.analysis.experiments import run_graphh
from repro.apps import SSSP, PageRank
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.graph import Graph, chung_lu_graph
from repro.runtime import process_runtime_available
from repro.runtime.active import ActiveBitmap, TileSourceSummary
from repro.storage.backing import BackingStore
from repro.utils.bloom import BloomFilter, HashedKeys, hash_keys
from tests.contract import Case, check, recovery, run

needs_process = pytest.mark.skipif(
    not process_runtime_available(),
    reason="platform lacks fork + POSIX shared memory",
)

# Near-zero false-positive rate: the bloom prune becomes effectively
# exact, so bitmap and bloom agree on every skip and the tiles_skipped
# counters stay comparable across the on/off sweep.
EXACT_BLOOM = 1e-6


@contextlib.contextmanager
def _exact_bloom():
    """Filters built inside the block use :data:`EXACT_BLOOM`.  They are
    built in the parent process, so this holds under every executor."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpe_module, "BLOOM_FALSE_POSITIVE_RATE", EXACT_BLOOM)
        yield


@pytest.fixture(scope="module")
def skewed():
    return chung_lu_graph(250, 2500, seed=95, name="selective-g")


def _run(graph, cfg, program=None, **kw):
    result, cluster = run_graphh(
        graph, program or SSSP(source=1), 3, config=cfg, **kw
    )
    telemetry = {
        "counters": [s.counters.snapshot() for s in cluster.servers],
        "modeled": [s.modeled for s in result.supersteps],
        "net": [s.net_bytes for s in result.supersteps],
        "disk": [s.disk_read_bytes for s in result.supersteps],
        "skipped": [s.tiles_skipped for s in result.supersteps],
        "processed": [s.tiles_processed for s in result.supersteps],
    }
    cluster.close()
    return result, telemetry


def _engine(graph, tile_edges, tracer=None, num_servers=3, **cfg):
    """A set-up engine over ``graph`` (3 servers unless told otherwise);
    the caller closes the cluster."""
    cluster = Cluster(ClusterSpec(num_servers=num_servers))
    manifest = SPE(cluster.dfs).preprocess(graph, tile_edges, name=graph.name)
    mpe = MPE(cluster, manifest, MPEConfig(**cfg), tracer=tracer)
    mpe.setup()
    return mpe, cluster


def _assert_identical(a, b):
    ra, ta = a
    rb, tb = b
    assert np.array_equal(ra.values, rb.values)
    assert len(ra.supersteps) == len(rb.supersteps)
    for key in ("modeled", "net", "disk", "skipped", "processed"):
        assert ta[key] == tb[key], key
    assert ta["counters"] == tb["counters"]


# ----------------------------------------------------------------------
# The core invariant: bitwise identity across every axis
# ----------------------------------------------------------------------
class TestBitwiseIdentity:
    @pytest.fixture(scope="class")
    def baseline(self, skewed):
        with _exact_bloom():
            return _run(
                skewed, MPEConfig(selective_scheduling=False), max_supersteps=14
            )

    @pytest.mark.parametrize("prefetch", [0, 2])
    @pytest.mark.parametrize("store", ["mem", "mmap"])
    @pytest.mark.parametrize("executor", ["serial", "parallel", "process"])
    def test_sweep(self, executor, store, prefetch):
        if executor == "process" and not process_runtime_available():
            pytest.skip("platform lacks fork + POSIX shared memory")
        knobs = (("vertex_store", store), ("prefetch_depth", prefetch))
        check(Case(program="sssp", knobs=knobs, executor=executor, width=2))

    def test_off_and_on_skip_the_same_tiles_at_exact_bloom(
        self, skewed, baseline
    ):
        """With an effectively exact bloom, the bitmap changes nothing —
        including the per-superstep skip counts themselves."""
        assert sum(baseline[1]["skipped"]) > 0  # the sweep is non-trivial
        with _exact_bloom():
            on = _run(skewed, MPEConfig(), max_supersteps=14)
        _assert_identical(baseline, on)

    def test_bitmap_skips_at_least_as_much_as_bloom(self, skewed):
        """At the default (approximate) rate the exact prune is a
        superset of the bloom prune: false positives get skipped too."""
        bloom_only = _run(
            skewed,
            MPEConfig(selective_scheduling=False),
            max_supersteps=14,
        )
        both = _run(
            skewed,
            MPEConfig(selective_scheduling=True),
            max_supersteps=14,
        )
        assert np.array_equal(bloom_only[0].values, both[0].values)
        assert sum(both[1]["skipped"]) >= sum(bloom_only[1]["skipped"])


# ----------------------------------------------------------------------
# One schedule: _resolve_schedule against the rule it replaced
# ----------------------------------------------------------------------
def _old_rule(mpe, superstep, prev_updated, num_vertices, forced=frozenset()):
    """The pruning rule as the sweep, the tuner and the fault replay
    each used to spell it — kept here, and only here, as the oracle.

    Bitmap verdicts first (one skip set per server, or none when
    selective is off / there is no update set / every vertex updated),
    then tile by tile: forced → run; in the skip set → ``"bitmap"``;
    hashed update set and the filter misses → ``"bloom"``; else run.
    Every bitmap survivor *is* probed against its filter.

    The oracle builds its own filter per tile from the engine's current
    source summary (refreshed by ``apply_mutations``), so it does not
    depend on when — or whether — the engine chose to build one; "every
    vertex updated" is the filter's insert count, as the old
    all-keys sentinel answered it.
    """

    def tile_filter(tile_id):
        sources = mpe._summaries[tile_id].sources
        bf = BloomFilter(max(1, sources.size), mpe_module.BLOOM_FALSE_POSITIVE_RATE)
        bf.add_many(sources)
        return bf

    skip_sets = None
    if mpe.config.selective_scheduling and prev_updated is not None:
        bitmap = ActiveBitmap.seed_from_ids(prev_updated, num_vertices)
        if not bitmap.dense:
            skip_sets = [
                frozenset(
                    tile_id
                    for tile_id, _name, _nbytes in tiles
                    if tile_id not in forced
                    and not mpe._summaries[tile_id].intersects(bitmap)
                )
                for tiles in mpe._assignments
            ]
    prev_hashed = None
    probing = mpe._knobs.use_bloom and prev_updated is not None
    if probing and prev_updated.size != num_vertices:
        prev_hashed = hash_keys(prev_updated)
    out = []
    for server_id, tiles in enumerate(mpe._assignments):
        skips = skip_sets[server_id] if skip_sets is not None else None
        run, skipped = [], []
        for tile in tiles:
            tile_id = tile[0]
            if tile_id not in forced:
                if skips is not None and tile_id in skips:
                    skipped.append((tile_id, "bitmap"))
                    continue
                if probing and not (
                    tile_filter(tile_id).might_intersect(prev_hashed)
                    if prev_hashed is not None
                    else tile_filter(tile_id).approx_items > 0
                ):
                    skipped.append((tile_id, "bloom"))
                    continue
            run.append(tile)
        out.append((tuple(run), tuple(skipped)))
    return out


def _frontiers(n):
    rng = np.random.default_rng(5)
    everyone = np.arange(n, dtype=np.int64)
    return {
        "none": None,
        "empty": np.zeros(0, dtype=np.int64),
        "sparse": np.sort(rng.choice(n, size=5, replace=False)).astype(np.int64),
        "all-but-one": np.delete(everyone, n // 2),
        "dense": everyone,
    }


@pytest.fixture(scope="module")
def tail_heavy():
    """In-edges only into the first 40 vertices: with one-edge tiles the
    trailing 20 vertices form a tile with no edges at all."""
    rng = np.random.default_rng(3)
    edges = np.stack(
        [rng.integers(0, 60, size=300), rng.integers(0, 40, size=300)], axis=1
    )
    return Graph.from_edges(edges, num_vertices=60, name="tail-heavy-g")


class TestScheduleDifferential:
    """At the engine's 1 % filter rate, not EXACT_BLOOM: false positives
    are where a re-ordered rule would show."""

    def _compare(self, mpe, seen, seed_tiles=frozenset()):
        """``seed_tiles`` are forced the way ``MPE.run`` forces a run's:
        at superstep 0 only."""
        n = mpe.manifest.num_vertices
        for label, frontier in _frontiers(n).items():
            for superstep in (0, 1):
                forced = seed_tiles if superstep == 0 else frozenset()
                got = mpe._resolve_schedule(superstep, frontier, n, forced)
                want = _old_rule(mpe, superstep, frontier, n, forced)
                assert [(s.run, s.skipped) for s in got] == want, (
                    label,
                    superstep,
                )
                for sched in got:
                    seen.update(reason for _tile, reason in sched.skipped)

    @pytest.mark.parametrize("use_bloom", [True, False])
    @pytest.mark.parametrize("selective", [True, False])
    def test_matches_the_old_rule(self, skewed, tail_heavy, selective, use_bloom):
        seen = set()
        for graph, tile_edges in (
            (skewed, max(1, skewed.num_edges // 24)),
            (tail_heavy, 1),
        ):
            mpe, cluster = _engine(
                graph,
                tile_edges,
                selective_scheduling=selective,
                use_bloom_filters=use_bloom,
            )
            try:
                self._compare(mpe, seen)
                seed_tiles = frozenset(range(0, mpe.manifest.num_tiles, 3))
                self._compare(mpe, seen, seed_tiles)
                forced_run = {
                    tile[0]
                    for sched in mpe._resolve_schedule(
                        0,
                        np.zeros(0, dtype=np.int64),
                        mpe.manifest.num_vertices,
                        seed_tiles,
                    )
                    for tile in sched.run
                }
                if selective or use_bloom:
                    assert forced_run == set(seed_tiles)
            finally:
                cluster.close()
        expected = set()
        if selective:
            expected.add("bitmap")
        if use_bloom:
            expected.add("bloom")  # at least the empty tile, when dense
        assert seen == expected

    def test_empty_tile_is_dropped_by_its_filter_when_dense(self, tail_heavy):
        mpe, cluster = _engine(tail_heavy, 1)
        try:
            n = mpe.manifest.num_vertices
            empty = [
                tile_id
                for tile_id, summary in mpe._summaries.items()
                if summary.sources.size == 0
            ]
            assert empty
            dense = mpe._resolve_schedule(1, np.arange(n, dtype=np.int64), n)
            assert sorted(
                entry for sched in dense for entry in sched.skipped
            ) == [(tile_id, "bloom") for tile_id in sorted(empty)]
        finally:
            cluster.close()

    @pytest.mark.parametrize("selective", [True, False])
    def test_inserted_source_is_visible_after_mutation(self, skewed, selective):
        mpe, cluster = _engine(
            skewed,
            max(1, skewed.num_edges // 24),
            selective_scheduling=selective,
            mutations=True,
        )
        try:
            n = mpe.manifest.num_vertices
            tile_id = 0
            dst = int(mpe.manifest.splitter[tile_id])
            src = next(
                v
                for v in range(n)
                if v not in set(mpe._summaries[tile_id].sources.tolist())
            )
            frontier = np.array([src], dtype=np.int64)

            def runs_tile():
                schedule = mpe._resolve_schedule(1, frontier, n)
                return any(
                    tile[0] == tile_id for sched in schedule for tile in sched.run
                )

            before = runs_tile()  # only a false positive could say yes
            mpe.apply_mutations([{"op": "insert", "src": src, "dst": dst}])
            assert runs_tile()
            assert not (selective and before)
            seen = set()
            self._compare(mpe, seen)
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# No tile is probed twice — and under the bitmap, not with keys at all
# ----------------------------------------------------------------------
class TestNoDoubleProbe:
    @pytest.fixture
    def probes(self, monkeypatch):
        """Every ``might_intersect`` call as (superstep, filter, keys)
        and every ``hash_keys`` call, attributed to the superstep whose
        schedule was being resolved when it happened."""
        import repro.core.mpe as mpe_mod

        log = {"superstep": None, "probes": [], "hashes": []}
        original_probe = BloomFilter.might_intersect
        original_resolve = MPE._resolve_schedule

        def probing(self, keys):
            log["probes"].append((log["superstep"], id(self), keys))
            return original_probe(self, keys)

        def hashing(keys):
            log["hashes"].append(log["superstep"])
            return hash_keys(keys)

        def resolving(self, superstep, *args):
            log["superstep"] = superstep
            return original_resolve(self, superstep, *args)

        monkeypatch.setattr(BloomFilter, "might_intersect", probing)
        monkeypatch.setattr(mpe_mod, "hash_keys", hashing)
        monkeypatch.setattr(MPE, "_resolve_schedule", resolving)
        return log

    def test_bitmap_run_never_probes_with_keys(self, skewed, probes):
        _result, telemetry = _run(skewed, MPEConfig(), max_supersteps=14)
        assert sum(telemetry["skipped"]) > 0
        assert probes["hashes"] == []
        assert not any(
            isinstance(keys, (HashedKeys, np.ndarray))
            for _superstep, _filter, keys in probes["probes"]
        )

    def _assert_once_per_tile(self, probes, num_tiles):
        per_superstep = {}
        for superstep, filter_id, _keys in probes["probes"]:
            per_superstep.setdefault(superstep, []).append(filter_id)
        assert per_superstep
        for superstep, filters in per_superstep.items():
            assert len(filters) == num_tiles, superstep
            assert len(set(filters)) == num_tiles, superstep
        return per_superstep

    def test_bloom_run_probes_each_tile_once_per_superstep(self, skewed, probes):
        """One probe per tile per superstep with an update set — not one
        per consumer: the tuner's working set and the sweep share it."""
        result, telemetry = _run(
            skewed,
            MPEConfig(selective_scheduling=False, tune=True),
            max_supersteps=14,
        )
        num_tiles = telemetry["processed"][0]
        per_superstep = self._assert_once_per_tile(probes, num_tiles)
        # Superstep 0 has no update set; the tuner may switch filtering
        # off later, but never probe a superstep twice.
        assert 0 not in per_superstep
        assert 1 in per_superstep
        # Sparse supersteps hash the update set exactly once each.
        assert len(probes["hashes"]) == len(set(probes["hashes"]))
        assert set(probes["hashes"]) <= set(per_superstep)

    @needs_process
    def test_fault_replay_shares_the_probe(self, skewed, probes):
        from repro.faults import DISK_ERROR, FaultEvent, FaultSchedule, Supervisor

        mpe, cluster = _engine(
            skewed,
            max(1, skewed.num_edges // 9),
            selective_scheduling=False,
            executor="process",
            num_workers=2,
            max_supersteps=14,
        )
        try:
            schedule = FaultSchedule(
                [FaultEvent(DISK_ERROR, superstep=6, server=0, retries=2)]
            )
            result, report = Supervisor(mpe, schedule=schedule).run(
                SSSP(source=1)
            )
            assert report.faults_injected == 1 and report.restarts == 0
            per_superstep = self._assert_once_per_tile(
                probes, mpe.manifest.num_tiles
            )
            assert sorted(per_superstep) == list(
                range(1, result.num_supersteps)
            )
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Filters are built when a decision routes through one — and only then
# ----------------------------------------------------------------------
def _filter_run(graph, program, prebuilt, plan=None, **cfg):
    """One traced 3-server run; ``prebuilt`` calls ``_ensure_blooms()``
    before it (the eager engine the lazy one must be identical to).
    Returns what the comparison reads plus the engine's build record."""
    from repro.obs import Tracer
    from repro.obs.trace import INSTANT

    tracer = Tracer()
    mpe, cluster = _engine(
        graph,
        max(1, graph.num_edges // 24),
        tracer=tracer,
        max_supersteps=14,
        **cfg,
    )
    try:
        if prebuilt:
            mpe._ensure_blooms()
        if plan is not None:
            mpe.tuning_plan = plan(mpe)
        result = mpe.run(program)
        story = {
            "values": result.values.tobytes(),
            "steps": [
                (
                    s.tiles_processed,
                    s.tiles_skipped,
                    s.modeled.total_s,
                    s.net_bytes,
                    s.disk_read_bytes,
                )
                for s in result.supersteps
            ],
            "skips": {
                buf.label: [
                    (args["tile"], args["reason"])
                    for kind, name, _cat, _ts, args in buf.events()
                    if kind == INSTANT and name == "tile_skip"
                ]
                for buf in tracer.buffers()
            },
        }
        return story, result, mpe, tracer
    finally:
        cluster.close()


def _first_probed_superstep(result, num_vertices, start=1):
    """The first superstep >= ``start`` whose update set (the previous
    superstep's) is neither absent nor all-vertices; None if none."""
    for report in result.supersteps[start - 1 : -1]:
        if 0 < report.updated_vertices != num_vertices:
            return report.superstep + 1
    return None


_PROGRAMS = pytest.mark.parametrize(
    "make", [lambda: SSSP(source=1), PageRank], ids=["sssp", "pr"]
)
_SERIAL_AND_PROCESS = pytest.mark.parametrize(
    "executor",
    [
        dict(executor="serial"),
        pytest.param(
            dict(executor="process", num_workers=2), marks=needs_process
        ),
    ],
    ids=["serial", "process2"],
)


class TestLazyFilters:
    def test_default_config_never_builds(self, skewed):
        mpe, cluster = _engine(
            skewed, max(1, skewed.num_edges // 24), mutations=True
        )
        try:
            assert mpe.run(PageRank()).filters_built is None
            mpe.apply_mutations([{"op": "insert", "src": 3, "dst": 7}])
            result = mpe.run(SSSP(source=1))
            assert sum(s.tiles_skipped for s in result.supersteps) > 0
            assert mpe._blooms == {} and result.filters_built is None
        finally:
            cluster.close()

    @_SERIAL_AND_PROCESS
    @_PROGRAMS
    def test_selective_off_builds_at_the_first_real_probe(
        self, skewed, make, executor
    ):
        cfg = dict(selective_scheduling=False, **executor)
        lazy, result, mpe, tracer = _filter_run(skewed, make(), False, **cfg)
        eager, _result, _mpe, _tracer = _filter_run(skewed, make(), True, **cfg)
        assert lazy == eager
        k = _first_probed_superstep(result, mpe.manifest.num_vertices)
        built = tracer.instant_counts().get("filters_built", 0)
        if k is None:  # every update set was all-vertices: nothing to probe
            assert mpe._blooms == {} and built == 0
            assert result.filters_built is None
        else:
            num_tiles = mpe.manifest.num_tiles
            assert len(mpe._blooms) == num_tiles and built == 1
            assert result.filters_built == {
                "superstep": k,
                "tiles": num_tiles,
                "bytes": sum(bf.nbytes for bf in mpe._blooms.values()),
            }
            assert (
                f"repro_filters_built {num_tiles}" in tracer.metrics.to_text()
            )
        if isinstance(make(), SSSP):
            assert k == 1 and sum(s[1] for s in lazy["steps"]) > 0

    @_SERIAL_AND_PROCESS
    def test_scripted_switch_builds_at_the_switch(self, skewed, executor):
        from repro.tuning import KnobSettings, TuningPlan

        def plan(mpe):
            base = KnobSettings.of(mpe.config)
            return TuningPlan.scripted(
                {3: dataclasses.replace(base, use_bloom=True)}, base=base
            )

        cfg = dict(
            selective_scheduling=False, use_bloom_filters=False, **executor
        )
        lazy, result, mpe, _t = _filter_run(
            skewed, SSSP(source=1), False, plan, **cfg
        )
        eager, _r, _m, _t = _filter_run(
            skewed, SSSP(source=1), True, plan, **cfg
        )
        assert lazy == eager
        assert [s[1] for s in lazy["steps"][:3]] == [0, 0, 0]
        assert sum(s[1] for s in lazy["steps"][3:]) > 0
        assert result.filters_built["superstep"] == _first_probed_superstep(
            result, mpe.manifest.num_vertices, start=3
        ) == 3

    def test_report_says_when(self, skewed):
        from repro.obs.report import build_run_report, format_run_report

        _s, off, _m, _t = _filter_run(
            skewed, SSSP(source=1), False, selective_scheduling=False
        )
        _s, on, _m, _t = _filter_run(skewed, SSSP(source=1), False)
        built = off.filters_built
        assert (
            f"filters: built at superstep 1 ({built['tiles']} tiles, "
            f"{built['bytes'] / 1024:.1f} KB)"
            in format_run_report(build_run_report(off))
        )
        assert "filters: never built" in format_run_report(build_run_report(on))


class TestWarmLoopNeverResorts:
    """A warm run's superstep loop establishes no sorted set it was
    handed: ``np.unique`` (15-35x slower than sort + mask on numpy >=
    2.3) is not called at all."""

    @pytest.mark.parametrize("policy", ["aa", "od"])
    @_PROGRAMS
    def test_second_run_without_np_unique(
        self, skewed, monkeypatch, make, policy
    ):
        mpe, cluster = _engine(
            skewed,
            max(1, skewed.num_edges // 24),
            num_servers=4,
            executor="serial",
            replication_policy=policy,
            max_supersteps=14,
        )
        try:
            first = mpe.run(make())

            def no_unique(*_args, **_kw):
                raise AssertionError("np.unique on the warm superstep path")

            monkeypatch.setattr(np, "unique", no_unique)
            second = mpe.run(make())
        finally:
            cluster.close()
        assert np.array_equal(first.values, second.values)
        assert [s.modeled for s in first.supersteps[1:]] == [
            s.modeled for s in second.supersteps[1:]
        ]


# ----------------------------------------------------------------------
# Chaos determinism: faults at skipped-tile supersteps
# ----------------------------------------------------------------------
class TestChaosWithSkips:
    def _supervised(self, graph, selective):
        from repro.faults import DISK_ERROR, FaultEvent, FaultSchedule, Supervisor

        cluster = Cluster(ClusterSpec(num_servers=3))
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(
            graph, max(1, graph.num_edges // 9), name=graph.name
        )
        cfg = MPEConfig(
            selective_scheduling=selective,
            checkpoint_every=2,
            max_supersteps=60,
        )
        mpe = MPE(cluster, manifest, cfg)
        # SSSP's late supersteps have sparse frontiers, so superstep 6
        # skips tiles on this graph; the injected read error must land
        # on a *surviving* tile at the same instant either way.
        schedule = FaultSchedule(
            [FaultEvent(DISK_ERROR, superstep=6, server=0, retries=2)]
        )
        with _exact_bloom():
            result, report = Supervisor(mpe, schedule=schedule).run(SSSP(source=1))
        skipped = [s.tiles_skipped for s in result.supersteps]
        values = result.values.copy()
        cluster.close()
        return values, report, skipped

    def test_fault_replay_identical_with_selective(self, skewed):
        off_values, off_report, off_skips = self._supervised(skewed, False)
        on_values, on_report, on_skips = self._supervised(skewed, True)
        assert np.array_equal(off_values, on_values)
        assert off_report.to_dict() == on_report.to_dict()
        assert off_skips == on_skips
        assert sum(on_skips[6:]) > 0  # the fault landed amid real skips

    def test_fault_replay_identical_with_mmap(self):
        """A seeded schedule whose disk errors land in SSSP's sparse
        late frontiers, where tiles are skipped."""
        case = Case(program="sssp", knobs=(("vertex_store", "mmap"),), fault=38)
        check(case)
        assert recovery(case)["fault_retries"] == 5
        assert sum(r["tiles_skipped"] for r in run(case)["metered"]["reports"][5:]) > 0


# ----------------------------------------------------------------------
# SEM durability: mmap stores across checkpoint/resume and fork
# ----------------------------------------------------------------------
class TestMmapStore:
    def _mpe(self, cluster, graph, **cfg):
        spe = SPE(cluster.dfs)
        if not cluster.dfs.exists(f"{graph.name}/meta"):
            spe.preprocess(graph, max(1, graph.num_edges // 9), name=graph.name)
        manifest = spe.load_manifest(graph.name)
        return MPE(cluster, manifest, MPEConfig(vertex_store="mmap", **cfg))

    def test_checkpoint_resume_under_mmap(self, skewed):
        with Cluster(ClusterSpec(num_servers=3)) as cluster:
            full = self._mpe(
                cluster, skewed, checkpoint_every=2, max_supersteps=300
            ).run(PageRank())
            assert full.converged
        with Cluster(ClusterSpec(num_servers=3)) as cluster:
            self._mpe(
                cluster, skewed, checkpoint_every=2, max_supersteps=6
            ).run(PageRank())
            resumed = self._mpe(
                cluster, skewed, checkpoint_every=2, max_supersteps=300
            ).run(PageRank(), resume=True)
        assert resumed.converged
        assert np.array_equal(full.values, resumed.values)

    @needs_process
    def test_mmap_shared_across_fork(self, skewed):
        """MAP_SHARED file backing makes the replica arrays visible to
        forked workers without the shm copy path."""
        serial = _run(
            skewed,
            MPEConfig(vertex_store="mmap", executor="serial"),
            program=PageRank(),
        )
        process = _run(
            skewed,
            MPEConfig(vertex_store="mmap", executor="process", num_workers=2),
            program=PageRank(),
        )
        _assert_identical(serial, process)

    def test_backing_files_cleaned_up(self, skewed):
        cluster = Cluster(ClusterSpec(num_servers=2))
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(
            skewed, max(1, skewed.num_edges // 6), name=skewed.name
        )
        mpe = MPE(cluster, manifest, MPEConfig(vertex_store="mmap"))
        mpe.run(SSSP(source=1))
        # The run tears its BackingStore down on exit; nothing mmap-ish
        # may survive under the cluster root.
        leftovers = [
            name
            for root, _dirs, files in os.walk(cluster.root)
            for name in files
            if name.startswith("vstore-")
        ]
        assert leftovers == []
        cluster.close()

    def test_backing_store_lifecycle(self, tmp_path):
        store = BackingStore(root=str(tmp_path))
        arr = store.create(np.arange(5, dtype=np.float64))
        assert np.array_equal(np.asarray(arr), np.arange(5, dtype=np.float64))
        arr[2] = 99.0
        assert store.used_bytes() == 5 * 8
        store.release()
        store.release()  # idempotent
        with pytest.raises(RuntimeError):
            store.create(np.zeros(3))

    def test_config_rejects_unknown_store(self):
        with pytest.raises(ValueError, match="vertex_store"):
            MPEConfig(vertex_store="tape")


# ----------------------------------------------------------------------
# Knobs: facade plumbing and per-run config on a warm engine
# ----------------------------------------------------------------------
class TestSelectiveKnobs:
    def test_config_flip_on_a_warm_engine(self, skewed):
        """A warm engine set up with both prunes off (the service's
        per-job ``selective`` override) prunes as soon as the config
        says so: summaries exist from setup, whatever it was built with."""
        mpe, cluster = _engine(
            skewed,
            max(1, skewed.num_edges // 9),
            selective_scheduling=False,
            use_bloom_filters=False,
            max_supersteps=14,
        )
        try:
            off = mpe.run(SSSP(source=1))
            assert off.runtime()["selective"] is False
            assert sum(s.tiles_skipped for s in off.supersteps) == 0
            mpe.config = dataclasses.replace(
                mpe.config, selective_scheduling=True
            )
            on = mpe.run(SSSP(source=1))
            assert on.runtime()["selective"] is True
            assert sum(s.tiles_skipped for s in on.supersteps) > 0
            assert np.array_equal(off.values, on.values)
        finally:
            cluster.close()

    def test_facade_kwargs(self, skewed):
        from repro.core import GraphH

        with GraphH(num_servers=2, selective=False, vertex_store="mmap") as gh:
            gh.load_graph(skewed, name="facade-sel")
            result = gh.run(SSSP(source=1))
        assert result.runtime()["selective"] is False
        assert result.runtime()["vertex_store"] == "mmap"


# ----------------------------------------------------------------------
# The primitives: ActiveBitmap and TileSourceSummary
# ----------------------------------------------------------------------
class TestActivePrimitives:
    def test_bitmap_range_and_membership(self):
        bm = ActiveBitmap(np.array([3, 17, 40], dtype=np.int64), 64)
        assert not bm.dense
        assert bm.count == 3
        assert bm.any_in_range(0, 3)
        assert bm.any_in_range(18, 40)
        assert not bm.any_in_range(4, 16)
        assert not bm.any_in_range(41, 63)
        assert bm.any_of(np.array([2, 17], dtype=np.int64))
        assert not bm.any_of(np.array([2, 16], dtype=np.int64))

    def test_dense_bitmap(self):
        bm = ActiveBitmap(np.arange(8, dtype=np.int64), 8)
        assert bm.dense

    def test_summary_intersects(self):
        summary = TileSourceSummary(0, np.array([10, 15, 20], dtype=np.int64))
        assert (summary.src_lo, summary.src_hi) == (10, 20)
        hit = ActiveBitmap(np.array([15], dtype=np.int64), 32)
        in_range_miss = ActiveBitmap(np.array([12], dtype=np.int64), 32)
        out_of_range = ActiveBitmap(np.array([25], dtype=np.int64), 32)
        assert summary.intersects(hit)
        assert not summary.intersects(in_range_miss)  # range hits, set misses
        assert not summary.intersects(out_of_range)

    def test_empty_summary_never_intersects(self):
        summary = TileSourceSummary(1, np.zeros(0, dtype=np.int64))
        assert (summary.src_lo, summary.src_hi) == (0, -1)
        assert not summary.intersects(
            ActiveBitmap(np.array([0], dtype=np.int64), 4)
        )

    def test_seed_from_ids_sorts_and_dedups(self):
        bm = ActiveBitmap.seed_from_ids([9, 2, 2, 40, 9], 64)
        assert np.array_equal(bm.updated, np.array([2, 9, 40], dtype=np.int64))
        assert bm.num_vertices == 64
        assert bm.count == 3
        assert bm.any_of(np.array([9], dtype=np.int64))
        assert not bm.any_of(np.array([10], dtype=np.int64))

    def test_seed_from_ids_accepts_empty_and_arrays(self):
        empty = ActiveBitmap.seed_from_ids([], 16)
        assert empty.count == 0
        assert not empty.any_in_range(0, 15)
        from_arr = ActiveBitmap.seed_from_ids(
            np.array([5, 1], dtype=np.int64), 16
        )
        assert np.array_equal(from_arr.updated, np.array([1, 5], dtype=np.int64))

    def test_seed_from_ids_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ActiveBitmap.seed_from_ids([3, 64], 64)
        with pytest.raises(ValueError):
            ActiveBitmap.seed_from_ids([-1], 64)

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 63), max_size=150), st.randoms())
    def test_seed_from_ids_is_order_and_duplicate_blind(self, ids, rnd):
        """The checked fast path (sorted-unique in) and the re-sorting
        fallback (anything else) build the same bitmap."""
        canonical = ActiveBitmap.seed_from_ids(sorted(set(ids)), 64)
        shuffled = ids + ids[: len(ids) // 2]
        rnd.shuffle(shuffled)
        bm = ActiveBitmap.seed_from_ids(shuffled, 64)
        assert np.array_equal(bm.updated, canonical.updated)
        assert bm.updated.dtype == np.int64
        assert bm.dense == canonical.dense == (len(set(ids)) == 64)
        probe = np.arange(0, 64, 3, dtype=np.int64)
        assert bm.any_of(probe) == canonical.any_of(probe)
        for lo, hi in ((0, 63), (5, 9), (40, 40)):
            assert bm.any_in_range(lo, hi) == canonical.any_in_range(lo, hi)

    def test_seed_from_ids_checks_instead_of_sorting(self, monkeypatch):
        """A sorted-unique frontier — what the superstep loop hands in —
        reaches the constructor without a sort."""
        import repro.runtime.active as active_mod

        def no_sort(*_args, **_kw):
            raise AssertionError("sorted-unique input was re-sorted")

        monkeypatch.setattr(active_mod, "sorted_unique", no_sort)
        ids = np.array([2, 9, 40], dtype=np.int64)
        assert np.array_equal(ActiveBitmap.seed_from_ids(ids, 64).updated, ids)
        assert ActiveBitmap.seed_from_ids(np.arange(64), 64).dense
        assert ActiveBitmap.seed_from_ids([], 64).count == 0
        with pytest.raises(AssertionError):
            ActiveBitmap.seed_from_ids([9, 2], 64)
        with pytest.raises(AssertionError):
            ActiveBitmap.seed_from_ids([2, 2], 64)

    @pytest.mark.parametrize("bad", [[-1, 3, 7], [3, 7, 64]])
    def test_seed_from_ids_rejects_alike_on_both_branches(self, bad):
        with pytest.raises(ValueError) as in_order:
            ActiveBitmap.seed_from_ids(bad, 64)
        with pytest.raises(ValueError) as out_of_order:
            ActiveBitmap.seed_from_ids(bad[::-1] + bad, 64)
        assert str(in_order.value) == str(out_of_order.value)
        assert f"[{min(bad)}, {max(bad)}]" in str(in_order.value)

    def test_seed_from_ids_flattens_2d(self):
        bm = ActiveBitmap.seed_from_ids(np.array([[9, 2], [2, 40]]), 64)
        assert np.array_equal(bm.updated, np.array([2, 9, 40], dtype=np.int64))
        in_order = ActiveBitmap.seed_from_ids(np.array([[2, 9], [40, 41]]), 64)
        assert in_order.updated.ndim == 1 and in_order.count == 4

    def test_union(self):
        a = ActiveBitmap.seed_from_ids([1, 5], 32)
        b = ActiveBitmap.seed_from_ids([5, 9], 32)
        u = a.union(b)
        assert np.array_equal(u.updated, np.array([1, 5, 9], dtype=np.int64))
        assert u.num_vertices == 32
        # union with an empty bitmap is the identity set
        e = ActiveBitmap.seed_from_ids([], 32)
        assert np.array_equal(a.union(e).updated, a.updated)

    def test_union_rejects_mismatched_domains(self):
        a = ActiveBitmap.seed_from_ids([1], 32)
        b = ActiveBitmap.seed_from_ids([1], 16)
        with pytest.raises(ValueError):
            a.union(b)


# ----------------------------------------------------------------------
# Scale: the 10⁷-edge convergence smoke (slow; run explicitly or in CI)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestScaleSmoke:
    def test_ten_million_edges_converge_under_mmap_selective(self):
        from repro.graph import rmat_graph_streamed

        graph = rmat_graph_streamed(
            scale=19, edge_factor=20, seed=42, weighted=True
        )
        assert graph.num_edges >= 10_000_000
        source = int(np.argmax(graph.out_degrees))
        cfg = MPEConfig(
            selective_scheduling=True,
            vertex_store="mmap",
            cache_capacity_bytes=1 << 20,
        )
        result, cluster = run_graphh(
            graph, SSSP(source=source), 4, config=cfg, max_supersteps=60
        )
        skips = [s.tiles_skipped for s in result.supersteps]
        total = skips[-1] + result.supersteps[-1].tiles_processed
        cluster.close()
        assert result.converged
        assert result.runtime()["vertex_store"] == "mmap"
        # The sparse late frontier prunes at least half the schedule.
        assert skips[-1] >= 0.5 * total
