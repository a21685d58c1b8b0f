#!/usr/bin/env python
"""Exact gate: fresh bench runs vs the committed ``BENCH_*.json``.

Re-runs the JSON-emitting benches (``bench_faults.py``,
``bench_incremental.py``, ``bench_scale.py``, ``bench_tuning.py``) at
the *baseline's own tier* and compares row by row.  Their fields —
re-executed supersteps, recovery bytes, checkpoint counts/bytes,
restarts, skipped-tile counts, metered disk bytes, the modeled job
seconds, and the autotuner's oracle gap / decision counts — are
executor- and host-invariant, so they must match the baseline
*exactly*.  Any drift is a correctness regression, whatever its sign,
and so is a baseline row the fresh run no longer produces.  Wall-clock
performance is the ledger's job (``BENCHMARK.json``,
``benchmarks/ledger/``), not this script's.

Usage::

    PYTHONPATH=src python benchmarks/check_regress.py               # all four
    PYTHONPATH=src python benchmarks/check_regress.py --benchmark faults
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from _common import REPO_ROOT

BENCH_DIR = Path(__file__).resolve().parent

# benchmark name → (baseline file, bench script, row-match keys).
BENCHMARKS = {
    "faults": ("BENCH_faults.json", "bench_faults.py", ("checkpoint_every",)),
    "incremental": ("BENCH_incremental.json", "bench_incremental.py", ("config",)),
    "scale": ("BENCH_scale.json", "bench_scale.py", ("config",)),
    "tuning": ("BENCH_tuning.json", "bench_tuning.py", ("config",)),
}

# The gated fields, compared wherever a baseline row carries them (absent
# fields are skipped, so the four benches share the list).
_EXACT_KEYS = (
    "restarts",
    "reexecuted_supersteps",
    "resume_superstep",
    "recovery_read_bytes",
    "checkpoint_files",
    "checkpoint_bytes",
    "tiles_skipped",
    "disk_read_bytes",
    "modeled_job_s",
    "converged",
    "tuner_modeled_s",
    "oracle_modeled_s",
    "oracle_config",
    "gap_vs_oracle",
    "num_switches",
    "dirty_vertices",
    "reset_vertices",
    "forced_tiles",
    "inc_supersteps",
    "scratch_supersteps",
    "inc_modeled_s",
    "scratch_modeled_s",
    "supersteps",
)


def _run_fresh(script: str, out_path: str, tier: str) -> dict:
    argv = [sys.executable, str(BENCH_DIR / script), "--tier", tier, "--out", out_path]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"fresh bench run failed ({script}):\n"
            f"{proc.stderr.strip() or proc.stdout.strip()}"
        )
    with open(out_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _index(rows: list[dict], keys: tuple[str, ...]) -> dict[tuple, dict]:
    return {tuple(row.get(k) for k in keys): row for row in rows}


def compare(name: str, baseline: dict, fresh: dict) -> tuple[list[str], list[str]]:
    """Compare one benchmark's reports → (failures, notes)."""
    keys = BENCHMARKS[name][2]
    failures: list[str] = []
    notes: list[str] = []
    base_rows = _index(baseline.get("results", []), keys)
    fresh_rows = _index(fresh.get("results", []), keys)

    for key, base in sorted(base_rows.items(), key=lambda kv: str(kv[0])):
        label = f"{name} {dict(zip(keys, key))}"
        row = fresh_rows.get(key)
        if row is None:
            failures.append(f"FAIL {label}: baseline row missing from the fresh run")
            continue
        present = [field for field in _EXACT_KEYS if field in base]
        mismatched = [field for field in present if base[field] != row.get(field)]
        for field in mismatched:
            failures.append(
                f"FAIL {label}: {field} changed "
                f"{base[field]!r} -> {row.get(field)!r} (must match exactly)"
            )
        if not mismatched:
            notes.append(f"OK   {label}: all {len(present)} metrics match exactly")

    for key in fresh_rows:
        if key not in base_rows:
            notes.append(
                f"NOTE {name} {dict(zip(keys, key))}: fresh-only row "
                "(no baseline to compare)"
            )
    return failures, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmark",
        action="append",
        choices=sorted(BENCHMARKS),
        default=None,
        help="which benches to check (default: every baseline present)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=str(REPO_ROOT),
        help="directory holding the committed BENCH_*.json files",
    )
    args = parser.parse_args()

    selected = args.benchmark or sorted(BENCHMARKS)
    all_failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="check-regress-") as tmp:
        for name in selected:
            baseline_file, script, _keys = BENCHMARKS[name]
            baseline_path = Path(args.baseline_dir) / baseline_file
            if not baseline_path.exists():
                print(f"SKIP {name}: no baseline at {baseline_path}")
                continue
            with open(baseline_path, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
            tier = baseline.get("tier", "bench")
            print(f"== {name}: fresh {tier}-tier run vs {baseline_file} ==")
            fresh = _run_fresh(script, str(Path(tmp) / f"{name}.json"), tier)
            failures, notes = compare(name, baseline, fresh)
            for line in notes + failures:
                print(f"  {line}")
            all_failures.extend(failures)

    if all_failures:
        print(
            f"{len(all_failures)} regression(s) against committed baselines",
            file=sys.stderr,
        )
        return 1
    print("no regressions against committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
