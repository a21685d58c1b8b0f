"""Tests for the LPT makespan model."""

import heapq

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.schedule import effective_parallel_volume, lpt_makespan


class TestLptMakespan:
    def test_single_worker_sums(self):
        assert lpt_makespan([3, 1, 2], 1) == 6.0

    def test_perfectly_divisible(self):
        assert lpt_makespan([1, 1, 1, 1], 4) == 1.0

    def test_one_giant_job_dominates(self):
        # A huge tile cannot be split across workers.
        assert lpt_makespan([100, 1, 1, 1], 4) == 100.0

    def test_classic_lpt_case(self):
        # Jobs 5,5,4,4,3,3 on 2 machines: LPT gives 12 (optimal).
        assert lpt_makespan([5, 5, 4, 4, 3, 3], 2) == 12.0

    def test_empty(self):
        assert lpt_makespan([], 4) == 0.0

    def test_more_workers_than_jobs(self):
        assert lpt_makespan([7, 3], 10) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            lpt_makespan([1], 0)
        with pytest.raises(ValueError):
            lpt_makespan([-1], 2)

    @given(
        jobs=st.lists(st.floats(0, 1000), max_size=40),
        workers=st.integers(1, 16),
    )
    def test_bounds_property(self, jobs, workers):
        """LPT is between the trivial lower bounds and the serial sum."""
        makespan = lpt_makespan(jobs, workers)
        total = sum(jobs)
        longest = max(jobs) if jobs else 0.0
        assert makespan >= max(total / workers, longest) - 1e-9
        assert makespan <= total + 1e-9
        # Graham's list-scheduling bound: <= total/m + (1 - 1/m)·longest.
        assert makespan <= total / workers + longest + 1e-6

    @given(
        jobs=st.lists(
            st.one_of(st.floats(0, 1e6), st.integers(0, 3).map(float)), max_size=60
        ),
        workers=st.integers(2, 30),  # one worker is a plain sum
    )
    def test_equals_the_heap_over_every_job(self, jobs, workers):
        """The reference: every job, largest first, onto the least
        loaded of ``workers`` idle machines — bit for bit."""
        loads = [0.0] * min(workers, len(jobs))
        heapq.heapify(loads)
        for job in sorted(jobs, reverse=True):
            heapq.heappush(loads, heapq.heappop(loads) + job)
        assert lpt_makespan(jobs, workers) == (max(loads) if loads else 0.0)

    def test_effective_volume(self):
        # 4 equal jobs on 4 workers: no inefficiency.
        assert effective_parallel_volume([2, 2, 2, 2], 4) == 8.0
        # One giant job on 4 workers: volume inflates 4x.
        assert effective_parallel_volume([8], 4) == 32.0
        assert effective_parallel_volume([], 4) == 0.0


class TestEngineIntegration:
    def test_single_giant_tile_not_parallelised(self):
        """A one-tile graph must model compute as serial work."""
        from repro.analysis.experiments import run_graphh
        from repro.apps import PageRank
        from repro.graph import chung_lu_graph

        g = chung_lu_graph(300, 6000, seed=130)
        one_tile, c1 = run_graphh(
            g, PageRank(), 1, max_supersteps=3, avg_tile_edges=10**9
        )
        many_tiles, c2 = run_graphh(
            g, PageRank(), 1, max_supersteps=3, avg_tile_edges=100
        )
        c1.close()
        c2.close()
        t_one = one_tile.supersteps[1].modeled.compute_s
        t_many = many_tiles.supersteps[1].modeled.compute_s
        workers = 24
        # One tile: ~serial.  Many tiles: ~|E|/T.
        assert t_one > t_many * workers * 0.5
