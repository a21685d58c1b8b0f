"""Self-tests of the ledger harness (not part of tier-1's ``testpaths``).

    python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
for path in (str(LEDGER), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from spans import Patches, SpanRecorder, SpanTable  # noqa: E402


class FakeClock:
    """Advances only when told to, so durations are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_with_nesting():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    leaf = rec.wrap("leaf", lambda: clock.tick(2.0))

    def middle():
        clock.tick(1.0)
        leaf()
        leaf()
        clock.tick(0.5)

    middle = rec.wrap("middle", middle)
    with rec.span("root"):
        clock.tick(3.0)
        middle()
    table = SpanTable(rec.table())
    layers = table.layers()
    assert layers["root"] == {"calls": 1, "total_s": 8.5, "self_s": 3.0, "work": 0}
    assert layers["middle"]["self_s"] == 1.5 and layers["middle"]["total_s"] == 5.5
    assert layers["leaf"]["self_s"] == 4.0 and layers["leaf"]["calls"] == 2
    # Self seconds under a root sum to the root's wall exactly.
    under = table.layers(table.under(table.ids("root")))
    assert sum(v["self_s"] for v in under.values()) == 8.5
    # ...and a subtree excludes its ancestors.
    assert set(table.layers(table.under(table.ids("middle")))) == {"middle", "leaf"}


def test_exception_closes_every_open_span():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def boom():
        rec.begin("left-open")  # opened by hand, never ended
        clock.tick(1.0)
        raise RuntimeError("boom")

    wrapped = rec.wrap("boom", boom)
    with pytest.raises(RuntimeError):
        with rec.span("root"):
            wrapped()
    assert rec._stack == []
    table = SpanTable(rec.table())
    assert (table.end >= table.start).all()
    layers = table.layers()
    assert layers["boom"]["total_s"] == 1.0 and layers["left-open"]["total_s"] == 1.0
    # A span recorded after the failure is a fresh root, not a child.
    with rec.span("after"):
        pass
    assert rec.parents[-1] == -1


def test_reentrant_wrapper():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def countdown(n):
        clock.tick(1.0)
        if n:
            wrapped(n - 1)

    wrapped = rec.wrap("countdown", countdown)
    wrapped(3)
    table = SpanTable(rec.table())
    assert table.parent.tolist() == [-1, 0, 1, 2]
    layer = table.layers()["countdown"]
    assert layer["calls"] == 4 and layer["self_s"] == 4.0
    assert table.dur[0] == 4.0  # the outermost call's wall


def test_other_threads_are_not_recorded():
    import threading

    rec = SpanRecorder()
    wrapped = rec.wrap("w", lambda: 7)
    out = []
    t = threading.Thread(target=lambda: out.append(wrapped()))
    t.start()
    t.join(timeout=10)
    assert out == [7] and len(rec) == 0
    assert wrapped() == 7 and len(rec) == 1


def test_work_units_are_recorded():
    rec = SpanRecorder(FakeClock())
    wrapped = rec.wrap("w", lambda xs: None, work=lambda args: len(args[0]))
    wrapped([1, 2, 3])
    assert SpanTable(rec.table()).layers()["w"]["work"] == 3


# ----------------------------------------------------------------------
# Patches
# ----------------------------------------------------------------------
def test_patches_are_fully_restored():
    patches = Patches(SpanRecorder())
    patches.install()
    installed = list(patches.undo)
    assert len(installed) >= 40
    for owner, attr, original in installed:
        assert vars(owner)[attr] is not original, (owner, attr)
    with pytest.raises(RuntimeError):
        patches.install()
    patches.uninstall()
    for owner, attr, original in installed:
        assert vars(owner)[attr] is original, (owner, attr)
    assert patches.undo == []


def test_function_patch_reaches_by_name_imports():
    import repro.core.mpe as mpe
    import repro.utils.segments as segments

    original = segments.segment_reduce
    with Patches(SpanRecorder()):
        assert mpe.segment_reduce is segments.segment_reduce is not original
        assert mpe.segment_reduce.__wrapped__ is original
    assert mpe.segment_reduce is segments.segment_reduce is original


def test_tile_parser_is_rebound_for_new_engines():
    from repro.core.mpe import MPE
    from repro.partition.tiles import Tile

    before = vars(MPE)["_TILE_PARSER"]
    rec = SpanRecorder()
    with Patches(rec):
        import numpy as np

        tile = Tile(0, 0, 1, 1, np.zeros(2, np.int64), np.zeros(0, np.uint32), None)
        MPE._TILE_PARSER(tile.to_bytes())
    assert rec.names == ["tiles.parse"]
    assert vars(MPE)["_TILE_PARSER"] is before


def test_only_limits_the_install():
    patches = Patches(SpanRecorder(), only=("process.", "shm."))
    with patches:
        names = {owner.__name__ for owner, _, _ in patches.undo}
    assert names == {"ProcessExecutor", "SharedArray"}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_percentile_rule(n, expected):
    tail = stats.tail_percentile(list(range(n)))
    assert (tail and tail[0]) == expected


def test_percentile_and_spread():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert stats.percentile(xs, 50) == 3.0
    assert stats.percentile(xs, 90) == pytest.approx(4.6)
    assert stats.summary(xs) == {"n": 5, "median": 3.0, "q1": 1.5, "q3": 4.5}
    assert stats.spread(xs) == 1.0
    assert stats.spread([1.0]) is None


def _row(kind, wall, **extra):
    return {"kind": kind, "wall_s": wall, "traced": False, **extra}


def test_ledger_omits_what_does_not_apply():
    rows = [_row("setup", 2.0), _row("setup", 4.0), _row("setup", 3.0)] + [
        _row("run", w, headline=True, executor="serial", prefetch=0, edges_scheduled=100.0)
        for w in (1.0, 2.0, 4.0)
    ]
    ledger = stats.Ledger(rows, {"peak_rss_mb": 10})
    assert ledger.end_to_end == {
        "setup_s": 3.0, "run_s": 2.0, "edges_per_s": 50.0, "peak_rss_mb": 10.0,
    }
    # No service rows, one executor, no spans: none of those metrics.
    assert ledger.per_layer == {}
    assert not ledger.is_service


def test_end_to_end_timings_are_at_nominal_host_speed():
    # A host running at half speed (factor 2) doubles the raw wall.
    rows = [_row("setup", 6.0, host=2.0)] + [
        _row("run", 4.0, host=2.0, headline=True, executor="serial", prefetch=0,
             edges_scheduled=100.0)
    ]
    ledger = stats.Ledger(rows)
    assert ledger.end_to_end == {"setup_s": 3.0, "run_s": 2.0, "edges_per_s": 50.0}


def test_timed_brackets_the_region_with_calibration():
    from workloads import Timed

    with Timed() as timed:
        pass
    assert timed.wall_s >= 0.0 and 0.1 < timed.host < 10.0
    assert len(timed._samples) == 4


def test_speedups_need_a_pool_wider_than_one():
    rows = [
        _row("run", w, headline=ex == "process", executor=ex, prefetch=0, edges_scheduled=1.0)
        for ex, w in (("serial", 4.0), ("parallel", 5.0), ("process", 2.0))
    ]
    wide = stats.Ledger(rows, {"runtime.workers": 2}).per_layer
    assert wide["runtime.process_speedup"] == 2.0 and wide["runtime.thread_speedup"] == 0.8
    narrow = stats.Ledger(rows, {"runtime.workers": 1}).per_layer
    assert "runtime.process_speedup" not in narrow
    assert narrow["runtime.serial_run_s"] == 4.0


def test_every_derivable_metric_is_declared():
    defs = run.definitions()
    declared = {d["name"] for d in defs["per_layer"]}
    derivable = (
        set(stats.SETUP_LAYERS) | set(stats.RUN_LAYERS) | set(stats.RUN_SPAN_COUNTS)
        | set(stats.PROCESS_LAYERS) | stats.EXACT_COUNTS
    )
    assert derivable <= declared, derivable - declared
    assert {d["name"] for d in defs["end_to_end"]} == {
        "setup_s", "run_s", "edges_per_s", "peak_rss_mb",
    }
    assert [w["name"] for w in defs["workloads"]] == list(run.WORKLOADS)


def test_worse_by_follows_the_direction():
    assert compare.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert compare.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)


# ----------------------------------------------------------------------
# Launch
# ----------------------------------------------------------------------
def test_env_scrub(monkeypatch, tmp_path):
    for name in ("REPRO_EXECUTOR", "REPRO_PREFETCH", "REPRO_SELECTIVE", "REPRO_TUNE",
                 "REPRO_COMM_FASTPATH", "REPRO_TIER"):
        monkeypatch.setenv(name, "1")
    monkeypatch.setenv("LEDGER_KEEP", "yes")
    env = run.hermetic_env(tmp_path)
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["LEDGER_KEEP"] == "yes"
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert env["TMPDIR"] == str(tmp_path)


def test_worker_width_never_exceeds_the_host():
    assert 1 <= run.worker_width() <= min(run.nproc(), 4)


def test_contract_invocation_smoke():
    """One real (tiny) traced invocation: the last line is the contract's
    JSON object and carries every per-layer metric."""
    proc = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", "sssp-spill-n4",
         "--seed", "3", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = [d["name"] for d in run.definitions()["per_layer"]]
    assert list(result["metrics"]) == declared
    assert result["metrics"]["codecs.compress_s"]["value"] > 0
    assert result["metrics"]["mpe.attributed_share"]["value"] > 0.5
    # Not a service workload: the service layers spent nothing.
    assert result["metrics"]["service.submit_s"]["value"] == 0.0
    assert not (ROOT / ".ledger_work").exists()
