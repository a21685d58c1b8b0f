"""Tests for the mini map-reduce engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import MiniCluster


@pytest.fixture
def mc():
    return MiniCluster(num_partitions=4)


class TestNarrowOps:
    def test_parallelize_preserves_records(self, mc):
        ds = mc.parallelize(range(10))
        assert sorted(ds.collect()) == list(range(10))
        assert ds.count() == 10
        assert ds.num_partitions() == 4

    def test_map(self, mc):
        assert sorted(mc.parallelize([1, 2, 3]).map(lambda x: x * 2).collect()) == [
            2,
            4,
            6,
        ]

    def test_flat_map(self, mc):
        ds = mc.parallelize([1, 2]).flat_map(lambda x: [x] * x)
        assert sorted(ds.collect()) == [1, 2, 2]

    def test_filter(self, mc):
        ds = mc.parallelize(range(10)).filter(lambda x: x % 2 == 0)
        assert sorted(ds.collect()) == [0, 2, 4, 6, 8]

    def test_chained_ops_fuse(self, mc):
        ds = (
            mc.parallelize(range(100))
            .map(lambda x: x + 1)
            .filter(lambda x: x % 3 == 0)
            .map(lambda x: x * 10)
        )
        expected = [x * 10 for x in range(1, 101) if x % 3 == 0]
        assert sorted(ds.collect()) == sorted(expected)

    def test_laziness(self, mc):
        calls = []
        ds = mc.parallelize([1]).map(lambda x: calls.append(x) or x)
        assert calls == []  # nothing ran yet
        ds.collect()
        assert calls == [1]

    def test_map_partitions(self, mc):
        ds = mc.parallelize(range(8)).map_partitions(lambda p: [sum(p)])
        assert sum(ds.collect()) == 28

    def test_empty_dataset(self, mc):
        ds = mc.parallelize([])
        assert ds.collect() == []
        assert ds.count() == 0

    def test_transforms_do_not_mutate_parent(self, mc):
        base = mc.parallelize([1, 2, 3])
        base.map(lambda x: x * 100).collect()
        assert sorted(base.collect()) == [1, 2, 3]


class TestWideOps:
    def test_reduce_by_key(self, mc):
        pairs = [("a", 1), ("b", 2), ("a", 3), ("b", 4), ("c", 5)]
        result = dict(mc.parallelize(pairs).reduce_by_key(lambda a, b: a + b).collect())
        assert result == {"a": 4, "b": 6, "c": 5}

    def test_group_by_key(self, mc):
        pairs = [(1, "x"), (2, "y"), (1, "z")]
        result = dict(mc.parallelize(pairs).group_by_key().collect())
        assert sorted(result[1]) == ["x", "z"]
        assert result[2] == ["y"]

    def test_shuffle_requires_pairs(self, mc):
        with pytest.raises(TypeError):
            mc.parallelize([1, 2, 3]).reduce_by_key(lambda a, b: a + b).collect()

    def test_shuffle_metering(self, mc):
        mc.parallelize([("k", 1)] * 10).reduce_by_key(lambda a, b: a + b).collect()
        assert mc.shuffle_stats.shuffles == 1
        assert mc.shuffle_stats.records_moved == 10
        assert mc.shuffle_stats.approx_bytes_moved > 0

    def test_repartition(self, mc):
        ds = mc.parallelize(range(10)).repartition(2)
        assert ds.num_partitions() == 2
        assert sorted(ds.collect()) == list(range(10))

    def test_repartition_invalid(self, mc):
        with pytest.raises(ValueError):
            mc.parallelize([1]).repartition(0)

    def test_degree_counting_job(self, mc):
        """The exact shape of Algorithm 4's first map-reduce job."""
        edges = [(0, 1), (0, 2), (1, 2), (3, 0)]
        outdeg = dict(
            mc.parallelize(edges)
            .map(lambda e: (e[0], 1))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        assert outdeg == {0: 2, 1: 1, 3: 1}


class TestSetOps:
    def test_union(self, mc):
        a = mc.parallelize([1, 2])
        b = mc.parallelize([3, 4])
        assert sorted(a.union(b).collect()) == [1, 2, 3, 4]

    def test_union_rejects_foreign_cluster(self, mc):
        other = MiniCluster(num_partitions=2)
        with pytest.raises(ValueError):
            mc.parallelize([1]).union(other.parallelize([2]))

    def test_distinct(self, mc):
        ds = mc.parallelize([3, 1, 3, 2, 1, 1]).distinct()
        assert sorted(ds.collect()) == [1, 2, 3]

    def test_distinct_empty(self, mc):
        assert mc.parallelize([]).distinct().collect() == []


class TestTerminalOps:
    def test_reduce(self, mc):
        assert mc.parallelize(range(5)).reduce(lambda a, b: a + b) == 10

    def test_reduce_with_initial(self, mc):
        assert mc.parallelize(range(5)).reduce(lambda a, b: a + b, initial=100) == 110

    def test_sum(self, mc):
        assert mc.parallelize(range(5)).sum() == 10
        assert mc.parallelize([]).sum() == 0

    def test_invalid_cluster(self):
        with pytest.raises(ValueError):
            MiniCluster(num_partitions=0)


@settings(max_examples=30)
@given(
    st.lists(st.tuples(st.integers(0, 20), st.integers(-100, 100)), max_size=100),
    st.integers(1, 8),
)
def test_reduce_by_key_matches_python(pairs, parts):
    mc = MiniCluster(num_partitions=parts)
    result = dict(mc.parallelize(pairs).reduce_by_key(lambda a, b: a + b).collect())
    expected: dict[int, int] = {}
    for k, v in pairs:
        expected[k] = expected.get(k, 0) + v
    assert result == expected
