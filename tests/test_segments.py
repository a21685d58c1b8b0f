"""Tests for the vectorised segment reduction helper."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import segments
from repro.utils.segments import (
    SegmentPlan,
    gather_fold,
    gather_sum,
    merge_sorted_unique,
    segment_reduce,
    sorted_unique,
)


class TestSegmentReduce:
    def test_add_basic(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        indptr = np.array([0, 2, 4])
        assert segment_reduce(vals, indptr, "add").tolist() == [3.0, 7.0]

    def test_min_basic(self):
        vals = np.array([5.0, 2.0, 9.0])
        indptr = np.array([0, 2, 3])
        assert segment_reduce(vals, indptr, "min").tolist() == [2.0, 9.0]

    def test_max_basic(self):
        vals = np.array([5.0, 2.0, 9.0])
        indptr = np.array([0, 2, 3])
        assert segment_reduce(vals, indptr, "max").tolist() == [5.0, 9.0]

    def test_empty_segment_gets_identity(self):
        """The reduceat pitfall: empty rows must yield the identity."""
        vals = np.array([1.0, 2.0])
        indptr = np.array([0, 0, 2, 2])
        assert segment_reduce(vals, indptr, "add").tolist() == [0.0, 3.0, 0.0]
        out = segment_reduce(vals, indptr, "min")
        assert out[0] == np.inf and out[1] == 1.0 and out[2] == np.inf

    def test_leading_and_trailing_empty(self):
        vals = np.array([7.0])
        indptr = np.array([0, 0, 0, 1, 1])
        assert segment_reduce(vals, indptr, "add").tolist() == [0.0, 0.0, 7.0, 0.0]

    def test_all_empty(self):
        out = segment_reduce(np.zeros(0), np.array([0, 0, 0]), "min")
        assert out.tolist() == [np.inf, np.inf]

    def test_no_rows(self):
        assert segment_reduce(np.zeros(0), np.array([0]), "add").size == 0

    def test_custom_identity(self):
        out = segment_reduce(np.zeros(0), np.array([0, 0]), "add", identity=-1.0)
        assert out.tolist() == [-1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            segment_reduce(np.zeros(2), np.array([0, 1]), "add")  # length mismatch
        with pytest.raises(ValueError):
            segment_reduce(np.zeros(2), np.array([0, 2]), "median")
        with pytest.raises(ValueError):
            segment_reduce(np.zeros(2), np.array([1, 2]), "add")  # bad start
        with pytest.raises(ValueError):
            segment_reduce(np.zeros(2), np.array([0, 2, 1]), "add")  # decreasing

    @settings(max_examples=50)
    @given(
        lengths=st.lists(st.integers(0, 6), min_size=1, max_size=30),
        op=st.sampled_from(["add", "min", "max"]),
        data=st.data(),
    )
    def test_matches_python_loop(self, lengths, op, data):
        total = sum(lengths)
        vals = np.array(
            data.draw(
                st.lists(
                    st.floats(-100, 100, allow_nan=False),
                    min_size=total,
                    max_size=total,
                )
            ),
            dtype=np.float64,
        )
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        result = segment_reduce(vals, indptr, op)
        # A prebuilt plan is the same reduction, bit for bit.
        planned = segment_reduce(vals, SegmentPlan(indptr), op)
        assert planned.tobytes() == result.tobytes()
        py_op = {"add": sum, "min": min, "max": max}[op]
        identity = {"add": 0.0, "min": np.inf, "max": -np.inf}[op]
        for i, ln in enumerate(lengths):
            seg = vals[indptr[i] : indptr[i + 1]].tolist()
            expected = py_op(seg) if seg else identity
            assert result[i] == pytest.approx(expected)


class TestSegmentPlan:
    def test_plan_holds_what_the_row_pointer_decides(self):
        plan = SegmentPlan(np.array([0, 0, 2, 2, 5], dtype=np.uint32))
        assert (plan.n_rows, plan.n_values) == (4, 5)
        assert plan.nonempty.tolist() == [False, True, False, True]
        assert plan.starts.tolist() == [0, 2]
        assert plan.starts.dtype == np.int64

    def test_plan_validates_once_at_build(self):
        for bad in ([], [1, 2], [0, 2, 1]):
            with pytest.raises(ValueError):
                SegmentPlan(np.array(bad, dtype=np.int64))

    def test_reduce_checks_values_against_the_plan(self):
        plan = SegmentPlan(np.array([0, 1, 3]))
        with pytest.raises(ValueError, match="values length 2"):
            segment_reduce(np.zeros(2), plan, "add")
        empty = SegmentPlan(np.array([0, 0, 0]))
        assert segment_reduce(np.zeros(0), empty, "min").tolist() == [np.inf, np.inf]


def left_to_right(plane, col, indptr):
    """Each row's terms ``plane[col[e]]`` added one by one, in edge
    order, as Python floats (IEEE doubles); 0.0 for an empty row."""
    out = []
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        terms = [float(plane[c]) for c in col[lo:hi]]
        total = terms[0] if terms else 0.0
        for term in terms[1:]:
            total += term
        out.append(total)
    return np.array(out, dtype=np.float64)


class TestGatherSum:
    """The additive programs' fused gather-reduce: one CSR mat-vec per
    call, each row summed left to right however the calls split it."""

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 6), max_size=30),
        seed=st.integers(0, 2**16),
        chunk=st.sampled_from([1, 2, 3, 5, 1 << 16]),
    )
    def test_equals_a_left_to_right_loop_bitwise(self, lengths, seed, chunk):
        rng = np.random.default_rng(seed)
        indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        col = rng.integers(0, 20, int(indptr[-1])).astype(np.int64)
        plane = rng.random(20) * 10.0 ** rng.integers(-8, 8, 20)  # no cancellation
        top = int(col.max()) if col.size else -1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(segments, "CHUNK_EDGES", chunk)  # rows straddle calls
            got = gather_sum(plane, col, top, SegmentPlan(indptr))
        assert got.tobytes() == left_to_right(plane, col, indptr).tobytes()
        pairwise = segment_reduce(plane[col], indptr, "add")
        np.testing.assert_allclose(got, pairwise, rtol=1e-12, atol=1e-300)

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 6), max_size=30),
        seed=st.integers(0, 2**16),
        chunks=st.lists(st.sampled_from([1, 2, 3, 5, 1 << 16]), min_size=2, max_size=4),
    )
    def test_a_plan_reused_across_calls_stays_left_to_right(self, lengths, seed, chunks):
        """One plan summed over again — new planes, the call size
        changed between calls — matches the loop bit for bit each time;
        its cut into calls is derived once per size and then reused."""
        rng = np.random.default_rng(seed)
        indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        col = rng.integers(0, 20, int(indptr[-1])).astype(np.int64)
        top = int(col.max()) if col.size else -1
        plan = SegmentPlan(indptr)
        for chunk in chunks + chunks:
            plane = rng.random(20) * 10.0 ** rng.integers(-8, 8, 20)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(segments, "CHUNK_EDGES", chunk)
                got = gather_sum(plane, col, top, plan)
            assert got.tobytes() == left_to_right(plane, col, indptr).tobytes()
        assert plan.chunks(chunks[-1]) is plan.chunks(chunks[-1])
        total = int(indptr[-1])
        bounds = [(lo, hi) for lo, hi, *_ in plan.chunks(3)]
        assert bounds == [(lo, min(lo + 3, total)) for lo in range(0, total, 3)]

    def test_a_read_past_the_plane_is_refused(self):
        plan = SegmentPlan(np.array([0, 2, 3]))
        col = np.array([0, 4, 1])
        assert gather_sum(np.ones(5), col, 4, plan).tolist() == [2.0, 1.0]
        with pytest.raises(IndexError, match="out of bounds"):
            gather_sum(np.ones(4), col, 4, plan)
        with pytest.raises(ValueError, match="index length 2"):
            gather_sum(np.ones(5), col[:2], 4, plan)

    def test_empty_rows_read_zero(self):
        plan = SegmentPlan(np.array([0, 0, 2, 2]))
        out = gather_sum(np.array([1.5, 2.0]), np.array([1, 0]), 1, plan)
        assert out.tolist() == [0.0, 3.5, 0.0]
        assert gather_sum(np.ones(1), np.zeros(0), -1, SegmentPlan([0, 0])).tolist() == [0.0]


    def test_a_pagerank_run_does_not_import_scipy_sparse(self):
        """The kernel's extension is loaded on its own: ``scipy.sparse``
        would cost every process ~22 MB and a quarter second."""
        src = str(Path(__file__).parent.parent / "src")
        code = (
            "import sys\n"
            "from repro.apps import PageRank\n"
            "from repro.cluster import Cluster, ClusterSpec\n"
            "from repro.core import MPE, SPE, MPEConfig\n"
            "from repro.graph import chung_lu_graph\n"
            "g = chung_lu_graph(200, 1600, seed=1)\n"
            "with Cluster(ClusterSpec(num_servers=2)) as cluster:\n"
            "    manifest = SPE(cluster.dfs).preprocess(g, 100, name='g')\n"
            "    MPE(cluster, manifest, MPEConfig(executor='serial')).run(PageRank())\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("REPRO_EXECUTOR", None)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "['scipy.sparse._sparsetools']"


class TestGatherFold:
    """The min/max programs' gather-reduce, in calls of a bounded number
    of edges: ``segment_reduce`` of the gathered plane, bit for bit,
    however the calls split the rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 6), max_size=30),
        seed=st.integers(0, 2**16),
        chunk=st.sampled_from([1, 2, 3, 5, 1 << 16]),
        op=st.sampled_from(["min", "max"]),
    )
    def test_equals_segment_reduce_bitwise(self, lengths, seed, chunk, op):
        rng = np.random.default_rng(seed)
        indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        col = rng.integers(0, 20, int(indptr[-1])).astype(np.int64)
        plane = rng.standard_normal(20)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(segments, "CHUNK_EDGES", chunk)  # rows straddle calls
            got = gather_fold(plane, col, SegmentPlan(indptr), op)
        assert got.tobytes() == segment_reduce(plane[col], indptr, op).tobytes()

    def test_a_bad_index_is_refused(self):
        plan = SegmentPlan(np.array([0, 2, 3]))
        col = np.array([0, 4, 1])
        assert gather_fold(np.arange(5.0), col, plan, "max").tolist() == [4.0, 1.0]
        with pytest.raises(IndexError):
            gather_fold(np.ones(4), col, plan, "min")
        with pytest.raises(ValueError, match="index length 2"):
            gather_fold(np.ones(5), col[:2], plan, "min")


class TestSortedUnique:
    """``sorted_unique`` is ``np.unique`` without numpy >= 2.3's slow
    path: same values, same dtype, same ravel of n-d input."""

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    @pytest.mark.parametrize(
        "values",
        [[], [7], [3, 3, 3, 3], [0, 1, 2, 5, 9], [[4, 1], [1, 0]]],
        ids=["empty", "singleton", "all-equal", "already-sorted", "2-d"],
    )
    def test_edge_cases(self, values, dtype):
        arr = np.array(values, dtype=dtype)
        out = sorted_unique(arr)
        expected = np.unique(arr)
        assert out.dtype == expected.dtype == dtype
        assert out.tolist() == expected.tolist()

    @settings(max_examples=80)
    @given(
        st.lists(st.integers(0, 2**32 - 1), max_size=200),
        st.sampled_from([np.uint32, np.int64]),
        st.sampled_from([None, "stable"]),
    )
    def test_matches_np_unique(self, values, dtype, kind):
        arr = np.array(values, dtype=dtype)
        out = sorted_unique(arr, kind=kind)
        expected = np.unique(arr)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)


class TestSortedMerge:
    """The barrier's union of the per-server update sets (sorted and
    disjoint): a mask read back when the union is dense, a stable sort
    of the concatenation otherwise."""

    def test_merge_basic(self):
        out = merge_sorted_unique(
            [np.array([1, 4, 9]), np.array([2, 4]), np.array([0, 9, 10])]
        )
        assert out.tolist() == [0, 1, 2, 4, 9, 10]
        assert out.dtype == np.int64

    def test_merge_empty_inputs(self):
        assert merge_sorted_unique([]).size == 0
        assert merge_sorted_unique([np.array([], dtype=np.int64)]).size == 0
        assert merge_sorted_unique(
            [np.array([], dtype=np.int64), np.array([5])]
        ).tolist() == [5]

    def test_single_part_copied(self):
        part = np.array([1, 2, 3])
        out = merge_sorted_unique([part])
        out[0] = 99
        assert part[0] == 1  # caller's array must not be aliased

    @settings(max_examples=60)
    @given(
        st.lists(
            st.lists(st.integers(0, 500), max_size=40).map(sorted),
            max_size=7,
        )
    )
    def test_matches_np_unique(self, parts):
        arrays = [np.array(p, dtype=np.int64) for p in parts]
        expected = (
            np.unique(np.concatenate(arrays))
            if any(a.size for a in arrays)
            else np.zeros(0, dtype=np.int64)
        )
        out = merge_sorted_unique(arrays)
        assert out.dtype == np.int64
        assert out.tolist() == expected.tolist()
        assert not any(np.shares_memory(out, a) for a in arrays)

    @staticmethod
    def _paths(monkeypatch):
        """Record which path each call takes (the mask path reads its
        mask back with ``np.flatnonzero``; the sort path never calls it)."""
        taken = []
        flatnonzero = np.flatnonzero

        def spy(a):
            taken.append("mask")
            return flatnonzero(a)

        monkeypatch.setattr(np, "flatnonzero", spy)
        return taken

    @settings(max_examples=60)
    @given(
        # Dense: ids drawn from 0..40, so up to 280 of them cover most
        # of the range; parts overlap, and some are empty.
        dense=st.lists(
            st.lists(st.integers(0, 40), max_size=40).map(sorted), max_size=7
        ),
        # Sparse: a few ids up to 10^6, the sort's side of the rule.
        sparse=st.lists(
            st.lists(st.integers(0, 10**6), max_size=20).map(sorted), max_size=7
        ),
    )
    def test_both_paths_match_np_unique(self, dense, sparse):
        for parts in (dense, sparse):
            arrays = [np.array(p, dtype=np.int64) for p in parts]
            every = np.concatenate(arrays) if arrays else np.zeros(0, np.int64)
            out = merge_sorted_unique(arrays)
            assert out.dtype == np.int64
            assert out.tolist() == np.unique(every).tolist()
            assert not any(np.shares_memory(out, a) for a in arrays)

    def test_the_rule_picks_the_path(self, monkeypatch):
        taken = self._paths(monkeypatch)
        empty = np.zeros(0, dtype=np.int64)
        # Dense, overlapping, with empty parts: more than half of 0..9.
        out = merge_sorted_unique(
            [np.array([0, 2, 4, 6]), empty, np.array([2, 3, 9]), empty]
        )
        assert out.tolist() == [0, 2, 3, 4, 6, 9] and taken == ["mask"]
        # Exactly half of 0..7 present: not dense, sorted.
        out = merge_sorted_unique([np.array([1, 7]), np.array([3, 5])])
        assert out.tolist() == [1, 3, 5, 7] and taken == ["mask"]
        # Dense but negative: sorted, never masked.
        out = merge_sorted_unique([np.array([-2, -1, 0]), np.array([-1, 1])])
        assert out.tolist() == [-2, -1, 0, 1] and taken == ["mask"]
        # Only empty parts.
        assert merge_sorted_unique([empty, empty]).tolist() == []
        assert taken == ["mask"]
