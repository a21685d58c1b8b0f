"""One workload in one fresh interpreter (spawned by ``run.py``).

Loads the generated graph, measures, and writes the trial — rows,
counts, checks and (traced invocations) the span table — as JSON.
Nothing is printed: ``run.py`` owns the report.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def load_graph(path: str):
    from repro.graph.graph import Graph

    with np.load(path) as data:
        weights = data["weights"] if "weights" in data.files else None
        return Graph(
            int(data["num_vertices"]), data["src"], data["dst"], weights,
            name=str(data["name"]),
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--width", type=int, required=True)
    ap.add_argument("--graph", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS, measure

    trial = measure(
        WORKLOADS[args.workload],
        load_graph(args.graph),
        seed=args.seed,
        seconds=args.seconds,
        width=args.width,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    out = {
        "rows": trial.rows,
        "counts": trial.counts,
        "checks": trial.checks,
        "attempted": trial.attempted,
        "failed": trial.failed,
        "spans": trial.recorder.table() if trial.recorder else None,
    }
    with open(args.out, "w") as fh:
        # Engine counters may be numpy scalars.
        json.dump(out, fh, default=lambda o: o.item())
    return 0


if __name__ == "__main__":
    sys.exit(main())
