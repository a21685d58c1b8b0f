"""Shared benchmark configuration.

``REPRO_TIER`` selects the dataset scale: ``test`` (default, seconds per
benchmark) or ``bench`` (the larger analogs; minutes).  The paper's
tables and figures are not benchmarks: ``python -m repro.analysis.run_all``
regenerates them and checks their claims.
"""

import os

import pytest


@pytest.fixture(scope="session")
def tier() -> str:
    return os.environ.get("REPRO_TIER", "test")
