"""The exact gate over the host-invariant bench baselines.

``benchmarks/check_regress.py`` is a script, not a package module, so it
is imported by path (with ``benchmarks/`` on ``sys.path`` for its
``_common`` import).
"""

import copy
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def check_regress():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location(
            "check_regress", BENCH_DIR / "check_regress.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


BASELINE = {
    "results": [
        {"config": "full", "supersteps": 12, "disk_read_bytes": 4096, "tiles_skipped": 0},
        {"config": "selective", "supersteps": 12, "disk_read_bytes": 1024, "tiles_skipped": 30},
    ]
}


def test_identical_rows_pass(check_regress):
    failures, notes = check_regress.compare("scale", BASELINE, copy.deepcopy(BASELINE))
    assert failures == []
    assert len(notes) == 2 and all(n.startswith("OK") for n in notes)


def test_drifted_field_fails_naming_it(check_regress):
    fresh = copy.deepcopy(BASELINE)
    fresh["results"][1]["disk_read_bytes"] = 1025
    failures, _ = check_regress.compare("scale", BASELINE, fresh)
    assert len(failures) == 1
    assert "selective" in failures[0] and "disk_read_bytes" in failures[0]


def test_vanished_baseline_row_fails(check_regress):
    fresh = copy.deepcopy(BASELINE)
    del fresh["results"][1]
    failures, _ = check_regress.compare("scale", BASELINE, fresh)
    assert len(failures) == 1 and "selective" in failures[0]


def test_fresh_only_row_is_a_note(check_regress):
    fresh = copy.deepcopy(BASELINE)
    fresh["results"].append({"config": "new", "supersteps": 3})
    failures, notes = check_regress.compare("scale", BASELINE, fresh)
    assert failures == []
    assert any(n.startswith("NOTE") and "new" in n for n in notes)
