#!/usr/bin/env python3
"""Compare two sets of ledger runs, metric by metric.

    python3 benchmarks/ledger/compare.py a.json b.json
    python3 benchmarks/ledger/compare.py both.json      # a file written with --sets 2

``a`` is the base (the parent commit, or the first of two same-code
sets), ``b`` the candidate.  Per workload × end-to-end metric it prints
both medians, how much worse ``b`` is as a share of ``a`` (negative =
better) and the metric's bound from ``BENCHMARK.json``, flagging any
pair outside the bound; the deterministic per-layer counts must be
identical.  Exit code 1 when anything is flagged.

Numbers are recomputed from the stored trial rows (``stats.Ledger``),
not read from a stored summary.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import EXACT_COUNTS, Ledger  # noqa: E402


def worse_by(base: float, cand: float, better: str) -> float:
    """How much worse ``cand`` is than ``base``, as a share of ``base``."""
    change = (cand - base) / abs(base)
    return change if better == "lower" else -change


def compare(set_a: dict, set_b: dict, defs: dict) -> tuple[list[str], bool, bool]:
    """(report lines, every pair within its bound?, every deterministic
    count identical?)."""
    lines = [
        f"{'workload':20s} {'metric':14s} {'a':>12s} {'b':>12s} "
        f"{'b worse by':>11s} {'bound':>7s}"
    ]
    within = identical = True
    for name in set_a:
        if name not in set_b:
            continue
        a, b = set_a[name], set_b[name]
        if "end_to_end" in a and "end_to_end" in b:
            va, vb = Ledger.from_trial(a["end_to_end"]).end_to_end, Ledger.from_trial(b["end_to_end"]).end_to_end
            for d in defs["end_to_end"]:
                if d["name"] not in va or d["name"] not in vb:
                    continue
                worse = worse_by(va[d["name"]], vb[d["name"]], d["better"])
                flag = worse > d["bound"]
                within = within and not flag
                lines.append(
                    f"{name:20s} {d['name']:14s} {va[d['name']]:12.6g} "
                    f"{vb[d['name']]:12.6g} {worse:+11.2%} {d['bound']:7.0%}"
                    + ("  OUTSIDE BOUND" if flag else "")
                )
        if "per_layer" in a and "per_layer" in b:
            la, lb = Ledger.from_trial(a["per_layer"]).per_layer, Ledger.from_trial(b["per_layer"]).per_layer
            differing = sorted(
                k for k in EXACT_COUNTS if la.get(k) != lb.get(k)
            )
            identical = identical and not differing
            lines.append(
                f"{name:20s} deterministic counts: "
                + (f"DIFFER: {', '.join(differing)}" if differing else "identical")
            )
    return lines, within, identical


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    stores = []
    for path in argv:
        with open(path) as fh:
            stores.append(json.load(fh))
    sets = [s for store in stores for s in store["sets"]]
    if len(sets) != 2:
        print(f"need exactly two sets, found {len(sets)}")
        return 2
    with open(Path(__file__).resolve().parents[2] / "BENCHMARK.json") as fh:
        defs = json.load(fh)
    lines, within, identical = compare(sets[0], sets[1], defs)
    print("\n".join(lines))
    return 0 if within and identical else 1


if __name__ == "__main__":
    sys.exit(main())
