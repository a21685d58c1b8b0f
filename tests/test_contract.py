"""Each knob row's declared contract and each fast path's reference,
checked by one seeded matrix.

``tests/contract.py`` holds the harness: the fingerprint split by level,
the reference rows, the sampler, the check.  Here:

* every row declares a contract, and a row without one fails at import;
* the tier-1 set — :data:`SEED`'s two cases per knob row, each reference
  row under every executor, the prefetch pipeline under every executor,
  the bloom row where it shows — the :data:`PINNED` cases and,
  ``slow``-marked, a wide set;
* the declarations are tight: a row declared weaker than
  ``identical``, raised one level, is broken by a tier-1 case, a
  known-divergent pair fails, and each fast path, broken, fails a
  forced case of its row — so the harness can fail at all.
"""

import dataclasses
import functools

import numpy as np
import pytest

import repro.core.mpe as mpe_module
from repro.cluster.server import Server
from repro.core.knobs import CONTRACTS, knob
from repro.partition.tiles import TileSlab
from repro.runtime.active import SourceTileIndex
from tests import contract as harness
from tests.contract import EXECUTORS, REFERENCES, ROWS, Case, check, mismatches, sample

SEED = 20
SMALL = (
    # The knob rows draw the three programs they drew before BFS and max
    # label propagation joined, so the tier-1 cases keep their ids.
    sample(SEED, 2 * len(ROWS), programs=("pagerank", "sssp", "wcc"))
    + sample(SEED, len(EXECUTORS) * len(REFERENCES), rows=tuple(REFERENCES))
    + [
        Case(program="sssp", knobs=(("prefetch_depth", 2),), executor=e, width=2)
        for e in EXECUTORS
    ]
    # The exact bitmap decides every skip while selective scheduling is
    # on (the default), so the bloom row only shows with it off.
    + [Case(knobs=(("use_bloom_filters", False),), context=(("selective_scheduling", False),))]
)
WIDE = sample(SEED + 1, 12 * len(ROWS)) + sample(
    SEED + 1, 4 * len(EXECUTORS) * len(REFERENCES), rows=tuple(REFERENCES)
)
# Named points, one check each: warm service jobs, mutations on without
# a batch, the thread and process transports, the prefetch pipeline, the
# mmap store under it, the tuner and scripted switches.
COMMS = ("dense", "sparse", "hybrid")
PINNED = [c for c in [
    *(Case(executor=e, width=2, service=True) for e in EXECUTORS),
    Case(program="sssp", service=True),
    Case(program="sssp", knobs=(("mutations", True),)),
    *(Case(program=p, executor="parallel", width=4) for p in ("pagerank", "sssp")),
    Case(program="wcc", executor="parallel"),
    Case(executor="parallel", width=2,
         context=(("tile_assignment", "balanced"), ("replication_policy", "od"))),
    *(Case(executor="process", width=2,
           context=(("replication_policy", policy), ("comm_mode", comm)))
      for policy in ("aa", "od") for comm in COMMS),
    *(Case(program=p, executor="process", width=2) for p in ("wcc", "sssp")),
    *(Case(knobs=(("prefetch_depth", d),), context=(("comm_mode", comm),))
      for d in (1, 4) for comm in COMMS),
    *(Case(knobs=(("prefetch_depth", d), ("io_threads", 2)), executor=e, width=2)
      for e in ("parallel", "process") for d in (1, 4)),
    Case(program="wcc", knobs=(("prefetch_depth", 2),)),
    *(Case(program="sssp", knobs=(("vertex_store", store), ("prefetch_depth", d)),
           executor=e, width=2)
      for e in ("serial", "parallel", "process") for store in ("mem", "mmap") for d in (0, 2)),
    Case(knobs=(("tune", True),)),
    *(Case(executor=e, width=2, context=(("tune", True),)) for e in EXECUTORS[1:]),
    *(Case(executor=e, width=2, participant="plan") for e in EXECUTORS),
    Case(program="sssp", participant="plan"),
] if c.executor in EXECUTORS]


def test_every_row_declares_a_contract():
    assert {row.contract for row in ROWS.values()} <= set(CONTRACTS)


@pytest.mark.parametrize("contract", [None, "bitwise"])
def test_a_row_without_a_contract_fails_at_import(contract):
    row = dict(scope="run", help="h") | ({"contract": contract} if contract else {})
    with pytest.raises(ValueError, match="contract must be one of"):

        @dataclasses.dataclass(frozen=True)
        class _Config:
            x: int = knob(0, **row)


def test_small_set_covers_every_row_and_the_pipeline_under_every_executor():
    assert {name for c in SMALL for name, _ in c.knobs} | {"executor"} == set(ROWS)
    assert {
        c.executor for c in SMALL if dict(c.knobs).get("prefetch_depth", 0) > 0
    } == set(EXECUTORS)
    assert {(c.forced, c.executor) for c in SMALL if c.forced} == {
        (name, e) for name in REFERENCES for e in EXECUTORS
    }


@pytest.mark.parametrize("case", SMALL, ids=str)
def test_small(case):
    check(case)


@pytest.mark.parametrize("case", PINNED, ids=str)
def test_pinned(case):
    check(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", WIDE, ids=str)
def test_wide(case):
    check(case)


@pytest.mark.parametrize(
    "name", [n for n, row in ROWS.items() if row.contract != "identical"]
)
def test_raised_one_level_the_row_is_broken(name, monkeypatch):
    """A row no sampled value can break at the next stronger level is
    declared too loosely."""
    row = ROWS[name]
    raised = CONTRACTS[CONTRACTS.index(row.contract) - 1]
    monkeypatch.setitem(ROWS, name, row._replace(contract=raised))
    found = [
        m
        for case in SMALL
        for m in mismatches(case)
        if f"differs at level {raised}" in m
    ]
    assert found and all(f"{name}=" in m for m in found)


def test_a_known_divergent_pair_fails():
    """A codec change moves the broadcast bytes: checked at
    ``identical`` it must fail."""
    case = Case(program="sssp", knobs=(("message_codec", "zlib1"),))
    assert any("metered[" in m for m in mismatches(case, "identical"))


# ----------------------------------------------------------------------
# Each fast path, broken as a regression would break it, fails its row
# ----------------------------------------------------------------------
_held_stretch, _sweep_sparse = Server.held_stretch, mpe_module._sweep_sparse


def _held_one_more(server, names, start):
    k = _held_stretch(server, names, start)
    return k + 1 if k and start + k < len(names) else k


def _last_position_dropped(program, slab, index, frontier, store, slot):
    return _sweep_sparse(program, slab, index, frontier[:-1], store, slot)


def _one_tile_short(slab, positions, join=True):
    """Each joined stretch computed without its last tile.  (Joined
    across a schedule gap instead, a run recomputes skipped tiles whose
    sources did not change — the same values: only the gapped schedule's
    run lengths in ``tests/test_run_sweep.py`` see it.)"""
    first = last = None
    for pos in [*positions, None]:
        if join and first is not None and pos == last + 1:
            last = pos
            continue
        if first is not None:
            yield slab.run(first, max(first, last - 1))
        first = last = pos


def _word_zero(index, summaries, num_vertices):
    """Every tile's bit in word 0: past 64 tiles, pushes miss."""
    index.num_tiles = len(summaries)
    index._rows = np.zeros((num_vertices, -(-index.num_tiles // 64)), dtype=np.uint64)
    for summary in summaries.values():
        index._rows[summary.sources, 0] |= np.uint64(1 << summary.tile_id % 64)


BROKEN = {
    "runs-of-one": (TileSlab, "runs", _one_tile_short),
    "per-tile-meter": (Server, "held_stretch", _held_one_more),
    "full-gather": (mpe_module, "_sweep_sparse", _last_position_dropped),
    "pulled-schedule": (SourceTileIndex, "__init__", _word_zero),
}


def _failures(case) -> list[str]:
    """``mismatches(case)``, or the error its runs raise (which fails
    :func:`check` as surely): the held meter's lie is a ``KeyError``."""
    try:
        return mismatches(case)
    except (KeyError, RuntimeError) as exc:
        return [f"{case}: raised {exc!r}"]


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_a_broken_fast_path_fails_a_forced_case_of_its_row(name, monkeypatch):
    # Runs of the broken engine, cached apart from the suite's.
    monkeypatch.setattr(harness, "run", functools.cache(harness.run.__wrapped__))
    monkeypatch.setattr(*BROKEN[name])
    assert any(_failures(case) for case in SMALL if case.forced == name)
