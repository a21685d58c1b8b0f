"""EXPERIMENTS.md is what the code regenerates.

Each section's ``ExperimentResult.render()`` at tier ``test`` must equal,
character for character, the fenced block under its ``## <id> — ``
heading.  ``fig1a`` and ``table3`` run in the default suite — between
them all seven compared systems' memory rows and the Table III volumes;
every other section runs under ``-m slow``.  ``table5`` is left out: its
MB/s columns are wall clock.
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
    rendered = ALL_EXPERIMENTS[experiment_id]("test").render()
    assert rendered == committed_block(experiment_id), (
        f"{experiment_id} no longer matches EXPERIMENTS.md; regenerate it with "
        f"`python -m repro.analysis.run_all test EXPERIMENTS.new.md {experiment_id}`"
    )
