"""EXPERIMENTS.md is what the code regenerates, and every claim in it holds.

Each section's ``ExperimentResult.render()`` at tier ``test`` must equal,
character for character, the fenced block under its ``## <id> — ``
heading, and must check no claim that comes out VIOLATED.  ``fig1a`` and
``table3`` run in the default suite — between them all seven compared
systems' memory rows and the Table III volumes; every other section runs
under ``-m slow``.  ``table5``'s MB/s columns are wall clock, so its
render is not compared; a ``slow`` test checks its verdicts alone.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.experiments import ALL_EXPERIMENTS

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

FAST = ("fig1a", "table3")
WALL_CLOCK = ("table5",)
SLOW = tuple(e for e in ALL_EXPERIMENTS if e not in FAST + WALL_CLOCK)


def committed_block(experiment_id: str) -> str:
    match = re.search(
        rf"^## {re.escape(experiment_id)} — .*?\n```\n(.*?)\n```\n",
        EXPERIMENTS_MD.read_text(),
        flags=re.M | re.S,
    )
    assert match, f"EXPERIMENTS.md has no fenced section for {experiment_id}"
    return match.group(1)


@pytest.mark.parametrize(
    "experiment_id",
    [*FAST, *(pytest.param(e, marks=pytest.mark.slow) for e in SLOW)],
)
def test_section_regenerates_unchanged(experiment_id):
    result = ALL_EXPERIMENTS[experiment_id]("test")
    assert result.violated == []
    assert result.render() == committed_block(experiment_id), (
        f"{experiment_id} no longer matches EXPERIMENTS.md; regenerate it with "
        f"`python -m repro.analysis.run_all test EXPERIMENTS.new.md {experiment_id}`"
    )


@pytest.mark.slow
def test_wall_clock_section_claims_hold():
    (experiment_id,) = WALL_CLOCK
    result = ALL_EXPERIMENTS[experiment_id]("test")
    assert result.violated == []
    assert sum("HOLDS" in o for o in result.observations) == 4  # one per graph


def test_committed_file_claims_no_violation():
    violated = [line for line in EXPERIMENTS_MD.read_text().splitlines() if "VIOLATED" in line]
    assert violated == []
