"""Shared plumbing for the benchmark scripts.

Every ``BENCH_*.json``-emitting bench used to hand-roll the same report
skeleton (host metadata, generation timestamp, sorted-key JSON writer);
this module is that boilerplate, written once.  The report shape is
load-bearing: ``benchmarks/check_regress.py`` matches a fresh run's
``results`` rows to the committed baseline's by their ``config`` (or
``checkpoint_every``) key.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def base_report(
    benchmark: str,
    *,
    dataset: str,
    tier: str,
    program: str,
    **extra,
) -> dict:
    """The common report skeleton (empty ``results`` list included)."""
    report = {
        "benchmark": benchmark,
        "dataset": dataset,
        "tier": tier,
        "program": program,
        "host": {"cpu_count": os.cpu_count()},
        "generated_unix": time.time(),
        "results": [],
    }
    report.update(extra)
    return report


def write_report(report: dict, path) -> None:
    """Write a report as deterministic JSON (sorted keys, trailing
    newline) and confirm on stdout."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
