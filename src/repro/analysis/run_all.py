"""Regenerate EXPERIMENTS.md: ``python -m repro.analysis.run_all [tier] [out]``.

Runs every experiment in :data:`repro.analysis.ALL_EXPERIMENTS` and
writes a paper-vs-measured record per table/figure.  ``tier`` defaults
to ``test`` (seconds per experiment); pass ``bench`` for the larger
analogs.  Extra arguments select specific experiments, e.g.::

    python -m repro.analysis.run_all test out.md fig9 fig10

The file is written either way; the exit status is 1 when any section
checked a claim that came out VIOLATED, and each such line is printed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.analysis.experiments import ALL_EXPERIMENTS
from repro.graph.datasets import tier_divisor


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    tier = args[0] if args else "test"
    out_path = Path(args[1]) if len(args) > 1 else Path("EXPERIMENTS.md")
    selected = args[2:] if len(args) > 2 else list(ALL_EXPERIMENTS)
    unknown = [name for name in selected if name not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {list(ALL_EXPERIMENTS)}")
        return 2
    divisor = tier_divisor(tier)

    sections = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated by `python -m repro.analysis.run_all "
        f"{tier}`.  Datasets are scaled analogs at 1/{divisor} of the "
        "paper's sizes (see DESIGN.md §2); modeled times and memory are "
        "reported at paper scale by rescaling metered volumes with the "
        "testbed constants of Figure 1's caption.  Absolute numbers are "
        "estimates from a calibrated cost model; the *shape* claims "
        "(who wins, by what factor, where crossovers fall) are the "
        "reproduction targets and each section records whether they "
        "hold.",
        "",
        "Big-graph rows live in `BENCH_scale.json` (DESIGN.md §5f, "
        "`benchmarks/bench_scale.py`): a streamed 10⁷-edge R-MAT "
        "analog run as weighted SSSP under a spilling edge cache, one "
        "row per scheduling config (dense / bloom / selective / "
        "selective-mmap), each recording graph size, skipped-tile "
        "counts and profile, metered disk bytes, and the modeled "
        "disk/decompress/probe split.",
        "",
    ]
    violated = []
    for exp_id in selected:
        fn = ALL_EXPERIMENTS[exp_id]
        print(f"[run_all] {exp_id} ...", flush=True)
        t0 = time.perf_counter()
        result = fn(tier)
        elapsed = time.perf_counter() - t0
        sections.append(f"## {result.experiment_id} — {result.title}")
        sections.append("")
        sections.append("```")
        sections.append(result.render())
        sections.append("```")
        sections.append(f"_(regenerated in {elapsed:.1f}s at tier `{tier}`)_")
        sections.append("")
        violated.extend(f"{exp_id}: {line}" for line in result.violated)
        print(f"[run_all] {exp_id} done in {elapsed:.1f}s", flush=True)
    out_path.write_text("\n".join(sections))
    print(f"[run_all] wrote {out_path}")
    for line in violated:
        print(f"[run_all] {line}")
    return 1 if violated else 0


if __name__ == "__main__":
    raise SystemExit(main())
