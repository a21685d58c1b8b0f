#!/usr/bin/env python
"""Regression gate: fresh bench runs vs the committed ``BENCH_*.json``.

Re-runs the JSON-emitting benches (``bench_hotpath.py``, its
``--sweep`` mode, ``bench_faults.py``,
``bench_incremental.py``, ``bench_prefetch.py``, ``bench_scale.py``,
``bench_service.py``, ``bench_tuning.py``) at the *baseline's own
tier* and compares row by row:

* **Wall-clock rows** (hotpath / procpool): fail when a fresh row's
  ``supersteps_per_s`` is more than ``--threshold`` (default 25%)
  slower than the committed baseline.  A row is only compared when its
  recorded host metadata — executor kind, worker width, effective
  parallelism — matches the baseline's, so a 1-core container never
  "regresses" against a multi-core recording (or vice versa); mismatched
  rows are reported as skipped, not failed.
* **Deterministic rows** (faults, incremental, scale, tuning):
  re-executed
  supersteps, recovery bytes, checkpoint counts/bytes, restarts,
  skipped-tile counts, metered disk bytes, the modeled job seconds,
  and the autotuner's oracle gap / decision counts are executor- and
  host-invariant, so they must match the baseline *exactly*.  Any
  drift is a correctness regression, whatever its sign.
* **Mixed rows**: a wall-clock row that also carries executor-invariant
  fields (``supersteps``, ``disk_read_bytes`` ...) has those gated to
  strict equality *before* the host-metadata check — a drift there
  fails even on a host whose wall numbers are not comparable.

``--report-only`` prints the same comparison but always exits 0 — CI's
mode on shared runners, where wall-clock noise is expected; the table
in the job log is the artifact.  ``--repeats N`` re-runs each
wall-clock bench N times and compares the *median* rate per row,
damping scheduler noise on loaded machines (deterministic benches run
once — repetition cannot change an exact field).

Usage::

    PYTHONPATH=src python benchmarks/check_regress.py               # gate
    PYTHONPATH=src python benchmarks/check_regress.py --report-only # CI
    PYTHONPATH=src python benchmarks/check_regress.py --benchmark faults
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from _common import REPO_ROOT

BENCH_DIR = Path(__file__).resolve().parent

# benchmark name → (baseline file, bench script argv, row-match keys,
# deterministic compare?[, wall-clock rate key]).  The rate key defaults
# to "supersteps_per_s"; benches measuring a different throughput (the
# service bench's jobs/sec) name theirs in a fifth element.
BENCHMARKS = {
    "hotpath": (
        "BENCH_hotpath.json",
        ["bench_hotpath.py"],
        ("config", "num_servers"),
        False,
    ),
    "incremental": (
        "BENCH_incremental.json",
        ["bench_incremental.py"],
        ("config",),
        True,
    ),
    "procpool": (
        "BENCH_procpool.json",
        ["bench_hotpath.py", "--sweep"],
        ("config", "num_servers"),
        False,
    ),
    "faults": (
        "BENCH_faults.json",
        ["bench_faults.py"],
        ("checkpoint_every",),
        True,
    ),
    "prefetch": (
        "BENCH_prefetch.json",
        ["bench_prefetch.py"],
        ("config", "num_servers"),
        False,
    ),
    "scale": (
        "BENCH_scale.json",
        ["bench_scale.py"],
        ("config",),
        True,
    ),
    "service": (
        "BENCH_service.json",
        ["bench_service.py"],
        ("config",),
        False,
        "jobs_per_s",
    ),
    "tuning": (
        "BENCH_tuning.json",
        ["bench_tuning.py"],
        ("config",),
        True,
    ),
}


def _entry(name: str) -> tuple:
    """A BENCHMARKS entry normalised to five elements."""
    entry = BENCHMARKS[name]
    return entry if len(entry) == 5 else (*entry, "supersteps_per_s")

# Host metadata that must agree before a wall-clock comparison means
# anything (the 1-core tolerance of the satellite spec).
_META_KEYS = ("executor", "worker_width", "effective_parallelism")

# Executor-invariant fields compared exactly wherever a baseline row
# carries them — for deterministic benches that is the whole row; for
# wall-clock benches with invariant side-fields the exact gate runs
# before, and independently of, the host-metadata check.  Absent fields
# are skipped, so faults/scale rows share the list.
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


def _run_fresh(script_args: list[str], out_path: str, tier: str) -> dict:
    argv = [
        sys.executable,
        str(BENCH_DIR / script_args[0]),
        *script_args[1:],
        "--tier",
        tier,
        "--out",
        out_path,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"fresh bench run failed ({' '.join(script_args)}):\n"
            f"{proc.stderr.strip() or proc.stdout.strip()}"
        )
    with open(out_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _index(rows: list[dict], keys: tuple[str, ...]) -> dict[tuple, dict]:
    return {tuple(row.get(k) for k in keys): row for row in rows}


def _median_merge(
    reports: list[dict], keys: tuple[str, ...], rate_key: str
) -> dict:
    """Fold repeated fresh runs into one report whose per-row rate is
    the median across runs (all other fields come from the first run —
    exact fields are identical across repeats by construction, and any
    drift there is exactly what the strict gate should catch)."""
    if len(reports) == 1:
        return reports[0]
    merged = json.loads(json.dumps(reports[0]))  # deep copy
    indexed = [_index(rep.get("results", []), keys) for rep in reports[1:]]
    for row in merged.get("results", []):
        key = tuple(row.get(k) for k in keys)
        samples = [row.get(rate_key)]
        samples += [
            other[key].get(rate_key) for other in indexed if key in other
        ]
        samples = [s for s in samples if s]
        if samples:
            row[rate_key] = statistics.median(samples)
    return merged


def compare(
    name: str, baseline: dict, fresh: dict, threshold: float
) -> tuple[list[str], list[str]]:
    """Compare one benchmark's reports → (failures, notes)."""
    _file, _argv, keys, deterministic, rate_key = _entry(name)
    failures: list[str] = []
    notes: list[str] = []
    base_rows = _index(baseline.get("results", []), keys)
    fresh_rows = _index(fresh.get("results", []), keys)

    for key, base in sorted(base_rows.items(), key=lambda kv: str(kv[0])):
        label = f"{name} {dict(zip(keys, key))}"
        row = fresh_rows.get(key)
        if row is None:
            notes.append(f"SKIP {label}: no fresh row (config unavailable here)")
            continue
        # Exact fields first: executor- and host-invariant, so they are
        # gated on every bench, before (and regardless of) the host
        # metadata that only wall-clock comparisons care about.
        present = [field for field in _EXACT_KEYS if field in base]
        mismatched = [
            field for field in present if base[field] != row.get(field)
        ]
        for field in mismatched:
            failures.append(
                f"FAIL {label}: {field} changed "
                f"{base[field]!r} -> {row.get(field)!r} "
                "(deterministic metric; must match exactly)"
            )
        if deterministic:
            if not mismatched:
                notes.append(
                    f"OK   {label}: all {len(present)} deterministic "
                    "metrics match exactly"
                )
            continue
        if present and not mismatched:
            notes.append(
                f"OK   {label}: {len(present)} exact metric(s) match"
            )
        meta_base = tuple(base.get(k) for k in _META_KEYS)
        meta_fresh = tuple(row.get(k) for k in _META_KEYS)
        if meta_base != meta_fresh:
            notes.append(
                f"SKIP {label}: host metadata differs "
                f"(baseline {meta_base} vs fresh {meta_fresh}) — "
                "wall-clock not comparable"
            )
            continue
        base_rate = base.get(rate_key) or 0.0
        fresh_rate = row.get(rate_key) or 0.0
        if not base_rate or not fresh_rate:
            notes.append(f"SKIP {label}: missing {rate_key}")
            continue
        ratio = fresh_rate / base_rate
        verdict = (
            f"{label}: {fresh_rate:.1f} vs {base_rate:.1f} "
            f"{rate_key} ({ratio:.2f}x)"
        )
        if ratio < 1.0 - threshold:
            failures.append(f"FAIL {verdict} — slower than the {threshold:.0%} gate")
        else:
            notes.append(f"OK   {verdict}")

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
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown for wall-clock rows (default 0.25)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="fresh runs per wall-clock bench; the per-row rate compared "
        "is the median across runs (deterministic benches always run once)",
    )
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="print the comparison but always exit 0 (CI on noisy runners)",
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
            baseline_file, script_args, keys, det, rate_key = _entry(name)
            baseline_path = Path(args.baseline_dir) / baseline_file
            if not baseline_path.exists():
                print(f"SKIP {name}: no baseline at {baseline_path}")
                continue
            with open(baseline_path, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
            tier = baseline.get("tier", "bench")
            repeats = 1 if det else max(1, args.repeats)
            runs = "" if repeats == 1 else f" (median of {repeats} runs)"
            print(
                f"== {name}: fresh {tier}-tier run vs {baseline_file}{runs} =="
            )
            fresh = _median_merge(
                [
                    _run_fresh(
                        script_args, str(Path(tmp) / f"{name}-{i}.json"), tier
                    )
                    for i in range(repeats)
                ],
                keys,
                rate_key,
            )
            failures, notes = compare(name, baseline, fresh, args.threshold)
            for line in notes:
                print(f"  {line}")
            for line in failures:
                print(f"  {line}")
            all_failures.extend(failures)

    if all_failures:
        print(
            f"{len(all_failures)} regression(s) against committed baselines",
            file=sys.stderr,
        )
        if args.report_only:
            print("(--report-only: exiting 0 anyway)", file=sys.stderr)
            return 0
        return 1
    print("no regressions against committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
