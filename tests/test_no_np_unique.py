"""``np.unique`` / ``np.union1d`` stay out of the engine's paths (15-35x
slower than ``repro.utils.segments.sorted_unique`` on numpy >= 2.3).
Ruff's TID251 says the same in CI; this runs where ruff is not installed."""

import pathlib
import re

ENGINE = "core runtime partition utils delta cluster comm storage".split()


def test_engine_paths_do_not_call_np_unique():
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    banned = re.compile(r"\b(np|numpy)\.(unique|union1d)\(")
    hits = [
        f"{path.relative_to(root)}:{n}"
        for package in ENGINE
        for path in sorted((root / package).rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []
