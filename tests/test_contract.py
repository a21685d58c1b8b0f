"""Each knob row's declared contract, checked by one seeded matrix.

``tests/contract.py`` holds the harness: the fingerprint split by level,
the sampler, the check.  Here:

* every row declares a contract, and a row without one fails at import;
* the tier-1 set — :data:`SEED`'s two cases per row, the prefetch
  pipeline under every executor, the bloom row where it shows — and,
  ``slow``-marked, a wide set;
* the declarations are tight: a row declared weaker than
  ``identical``, raised one level, is broken by a tier-1 case, and a
  known-divergent pair fails — so the harness can fail at all.
"""

import dataclasses

import pytest

from repro.core.knobs import CONTRACTS, knob
from tests.contract import EXECUTORS, ROWS, Case, check, mismatches, sample

SEED = 20
SMALL = (
    sample(SEED, 2 * len(ROWS))
    + [
        Case(program="sssp", knobs=(("prefetch_depth", 2),), executor=e, width=2)
        for e in EXECUTORS
    ]
    # The exact bitmap decides every skip while selective scheduling is
    # on (the default), so the bloom row only shows with it off.
    + [Case(knobs=(("use_bloom_filters", False),), context=(("selective_scheduling", False),))]
)
WIDE = sample(SEED + 1, 12 * len(ROWS))


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


@pytest.mark.parametrize("case", SMALL, ids=str)
def test_small(case):
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
