"""Baseline distributed graph engines the paper compares against (§II).

Executable reimplementations sharing the simulated cluster, counters,
and vertex-program contract with GraphH, so every Figure 1/9/10
comparison runs all systems on identical inputs and validates identical
answers.  Every engine runs the one superstep loop of
:class:`repro.baselines.bsp.BSPEngine` — senders, apply, change
detection, cost and report are written once — and supplies only its
partitioning, staging, Table III memory accounting and gather:

* :class:`PregelEngine` — the Pregel model (Algorithm 1): hash edge-cut,
  in-memory out-adjacency, sender-side message combining.  Presets
  configure it as **Pregel+** or (with JVM-ish overhead factors)
  **Giraph**.
* :class:`GraphDEngine` — out-of-core Pregel: identical dataflow but the
  adjacency streams from local disk every superstep and messages spill
  through disk at the sender (§II-B.1, Table III).
* :class:`GASEngine` — the GAS model (Algorithm 2) over a vertex-cut:
  local partial gathers, partial-accumulator traffic to masters, value
  sync back to mirrors.  Presets: **PowerGraph** (greedy cut),
  **PowerLyra** (hybrid cut), **GraphX** (overhead factors).
* :class:`ChaosEngine` — edge-centric streaming GAS (Algorithm 3):
  scatter/gather/apply over streaming partitions on shared
  network-attached storage.

``SYSTEM_PRESETS`` maps the paper's system names onto configured engine
factories.
"""

from repro.baselines.pregel import GraphDEngine, PregelEngine
from repro.baselines.gas import GASEngine
from repro.baselines.chaos import ChaosEngine
from repro.baselines.gridgraph import GridGraphEngine
from repro.baselines.presets import SYSTEM_PRESETS, SystemPreset, make_engine

__all__ = [
    "PregelEngine",
    "GraphDEngine",
    "GASEngine",
    "ChaosEngine",
    "GridGraphEngine",
    "SYSTEM_PRESETS",
    "SystemPreset",
    "make_engine",
]
