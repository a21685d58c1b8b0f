#!/usr/bin/env python3
"""The wall-clock ledger: one benchmark, four workloads.

    python3 benchmarks/ledger/run.py                     # every workload, both invocations
    python3 benchmarks/ledger/run.py --workload W --seed S [--out trials.json]
    python3 benchmarks/ledger/run.py --sets 2            # same code twice, then compare
    python3 benchmarks/ledger/run.py --smoke             # tiny graphs, seconds, not comparable
    python3 benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0|1

The last form is the contract ``BENCHMARK.json`` describes: one
invocation, whose last stdout line is one JSON object.  ``--trace 0``
measures the end-to-end metrics with no span installed; ``--trace 1``
is the per-layer invocation (untraced alternatives plus one traced run).

This process is the load generator: it makes the graph from ``--seed``
and hands it to a fresh interpreter (``worker.py``) whose environment
has every ``REPRO_*`` variable scrubbed, so no engine override leaks in
and ``peak_rss_mb`` is the engine's, not the generator's.  Everything
is written under ``.ledger_work/`` in the checkout and removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
sys.path.insert(0, str(LEDGER))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
from stats import Ledger, median, summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A child that runs longer than this is killed (the contract allows an
# invocation 180 s).
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 0.2


def definitions() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


def worker_width() -> int:
    """Pool width of the thread and process executors: never wider
    than the host."""
    return min(nproc(), 4)


def hermetic_env(workdir: Path) -> dict:
    """The child's environment: no ``REPRO_*`` override, the engine on
    the path, temp files inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_meta() -> dict:
    return {
        "git_hash": git_hash(),
        "host": platform.node(),
        "nproc": nproc(),
        "width": worker_width(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def generate(workload, seed: int, smoke: bool, path: Path) -> float:
    """The load generator: graph from seed, saved for the child.
    Returns the generation time (informational, never part of setup_s)."""
    t0 = time.perf_counter()
    graph = workload.generate(seed, smoke)
    gen_s = time.perf_counter() - t0
    arrays = {
        "num_vertices": graph.num_vertices, "src": graph.src, "dst": graph.dst,
        "name": graph.name,
    }
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return gen_s


def invoke(name: str, seed: int, seconds: float, trace: int, smoke: bool, meta: dict) -> dict:
    """One workload, one invocation kind, one fresh interpreter."""
    workdir = ROOT / ".ledger_work" / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        graph_path, out_path = workdir / "graph.npz", workdir / "trial.json"
        gen_s = generate(WORKLOADS[name], seed, smoke, graph_path)
        cmd = [
            sys.executable, str(LEDGER / "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--width", str(meta["width"]), "--graph", str(graph_path),
            "--out", str(out_path),
        ]
        if smoke:
            cmd.append("--smoke")
        proc = subprocess.Popen(cmd, env=hermetic_env(workdir), cwd=ROOT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"{name}: worker exceeded {CHILD_TIMEOUT_S} s")
        if code != 0:
            raise SystemExit(f"{name}: worker exited with code {code}")
        with open(out_path) as fh:
            trial = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other invocation is live
        except OSError:
            pass
    stamp = {"workload": name, "seed": seed, "trace": trace, "smoke": smoke, **meta}
    trial["rows"] = [{**stamp, **row} for row in trial["rows"]]
    trial["rows"].append({**stamp, "kind": "gen", "wall_s": gen_s, "traced": False})
    return trial


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_trial(name: str, trace: int, trial: dict, ledger: Ledger, defs: dict) -> None:
    kind = "per_layer" if trace else "end_to_end"
    values = ledger.per_layer if trace else ledger.end_to_end
    print(f"\n== {name} · {'per-layer (--trace 1)' if trace else 'end-to-end (--trace 0)'}")
    for d in defs[kind]:
        if d["name"] in values:
            print(f"  {d['name']:38s} {_fmt(values[d['name']]):>14s} {d['unit']}")
        elif d["name"].endswith("_speedup") and "runtime.serial_run_s" in values:
            print(f"  {d['name']:38s} {'not measurable':>14s} (pool width 1)")
    if not trace:
        units = summary(r["wall_s"] for r in ledger.units)
        print(
            f"  run_s samples: n={units['n']} q1={_fmt(units['q1'])} "
            f"q3={_fmt(units['q3'])} — n is too small for a tail percentile"
        )
        setups = summary(ledger.walls("setup"))
        print(f"  setup_s samples: n={setups['n']} q1={_fmt(setups['q1'])} q3={_fmt(setups['q3'])}")
        print(
            "  timings above are at nominal host speed; raw: run "
            f"{_fmt(median(r['wall_s'] for r in ledger.units))} s, host factor "
            f"{_fmt(median(r['host'] for r in ledger.units))}"
        )
    else:
        tail = ledger.job_latency_tail
        if tail:
            print(
                f"  job latency: n={tail[2]}, highest percentile with >=10 samples "
                f"beyond it is p{tail[0]:g} = {_fmt(tail[1])} s"
            )
        layers = ledger.traced_layers
        total = sum(v["self_s"] for v in layers.values())
        if total:
            print("  self seconds under the traced unit of work (they sum to its wall):")
            for span, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
                print(
                    f"    {span:24s} {v['self_s']:9.4f} s {v['self_s'] / total:6.1%}"
                    f"  calls={v['calls']}"
                )
    print(f"  gen_s (informational)                  {_fmt(ledger.walls('gen')[0]):>14s} s")
    if "cache_capacity_bytes" in ledger.counts:
        print(
            f"  raw tile bytes per server {ledger.counts['tile_bytes_per_server']:.0f}, "
            f"edge-cache capacity per server {ledger.counts['cache_capacity_bytes']:.0f}"
        )
    failed_share = trial["failed"] / max(1, trial["attempted"])
    print(f"  failed_share {failed_share:g} ({trial['failed']} of {trial['attempted']} operations)")
    for check in trial["checks"]:
        if not check["ok"]:
            print(f"  FAILED check: {check['name']} {check['detail']}")


def contract_line(trace: int, trial: dict, ledger: Ledger, defs: dict) -> str:
    """The last stdout line of a contract invocation."""
    if trace:
        # A layer this workload never enters spent 0 s and counted 0.
        values = {d["name"]: ledger.per_layer.get(d["name"], 0.0) for d in defs["per_layer"]}
    else:
        values = {d["name"]: ledger.end_to_end[d["name"]] for d in defs["end_to_end"]}
    units = {d["name"]: d["unit"] for d in defs["per_layer" if trace else "end_to_end"]}
    return json.dumps(
        {
            "correct": trial["failed"] == 0,
            "attempted": trial["attempted"],
            "failed": trial["failed"],
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
        }
    )


def run_set(names, seed: int, seconds: float, smoke: bool, meta: dict, defs: dict) -> dict:
    """Every selected workload, both invocation kinds."""
    out = {}
    for name in names:
        out[name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            trial = invoke(name, seed, seconds, trace, smoke, meta)
            print_trial(name, trace, trial, Ledger.from_trial(trial), defs)
            out[name][key] = trial
    return out


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no engine source under {ROOT / 'src'}: nothing to measure", file=sys.stderr)
        return 2
    defs = definitions()
    names = [w["name"] for w in defs["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measuring time per invocation (default {defs['run_seconds']})")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="contract mode: one invocation, last line is its JSON result")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2),
                    help="2: run everything twice on the same code and compare")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny graphs, same code paths and checks; timings not comparable")
    ap.add_argument("--out", help="write every trial row and span table here")
    args = ap.parse_args(argv)
    if args.trace is not None and args.workload is None:
        ap.error("--trace needs --workload")
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else float(defs["run_seconds"])
    )
    meta = host_meta()
    print(
        f"ledger: git {meta['git_hash'][:12]} host {meta['host']} nproc {meta['nproc']} "
        f"worker width {meta['width']} python {meta['python']} numpy {meta['numpy']} "
        f"seed {args.seed} seconds {seconds:g}"
        + (" SMOKE (timings not comparable)" if args.smoke else "")
    )

    if args.trace is not None:
        trial = invoke(args.workload, args.seed, seconds, args.trace, args.smoke, meta)
        ledger = Ledger.from_trial(trial)
        print_trial(args.workload, args.trace, trial, ledger, defs)
        if args.out:
            _write(args.out, meta, [{args.workload: {
                "per_layer" if args.trace else "end_to_end": trial}}])
        print(contract_line(args.trace, trial, ledger, defs))
        return 0 if trial["failed"] == 0 else 1

    selected = [args.workload] if args.workload else names
    sets = [
        run_set(selected, args.seed, seconds, args.smoke, meta, defs)
        for _ in range(args.sets)
    ]
    ok = all(
        trial["failed"] == 0
        for one in sets for kinds in one.values() for trial in kinds.values()
    )
    if args.sets == 2:
        lines, within, identical = compare.compare(sets[0], sets[1], defs)
        print("\n" + "\n".join(lines))
        # Smoke timings are not comparable; its counts still are.
        ok = ok and identical and (within or args.smoke)
    if args.out:
        _write(args.out, meta, sets)
    print("\nledger: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def _write(path: str, meta: dict, sets: list) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, "sets": sets}, fh)
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
