"""Phoenix++-style container behaviour and partitioning determinism."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapreduce import containers as containers_module
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.containers import (
    ArrayContainer,
    HashContainer,
    OneBucketContainer,
    stable_key_hash,
)
from tests.mapreduce.partition_oracle import partition_items


class TestStableKeyHash:
    @given(st.text(max_size=30))
    def test_string_hash_deterministic_and_nonnegative(self, key):
        assert stable_key_hash(key) == stable_key_hash(key)
        assert stable_key_hash(key) >= 0

    @given(st.integers(min_value=0, max_value=2**40))
    def test_int_hash_nonnegative(self, key):
        assert stable_key_hash(key) >= 0

    @given(st.tuples(st.integers(0, 100), st.integers(0, 100)))
    def test_tuple_hash_deterministic(self, key):
        assert stable_key_hash(key) == stable_key_hash(key)

    def test_distinct_strings_mostly_distinct(self):
        hashes = {stable_key_hash(f"word{i}") for i in range(1000)}
        assert len(hashes) > 990

    def test_bool_is_not_confused_with_int_path(self):
        assert stable_key_hash(True) == 1
        assert stable_key_hash(False) == 0


class TestHashContainer:
    def test_emit_and_fold(self):
        c = HashContainer(SumCombiner())
        c.emit("a", 1)
        c.emit("a", 2)
        c.emit("b", 5)
        assert dict(c.items()) == {"a": 3, "b": 5}
        assert len(c) == 2

    def test_partition_items_cover_everything_once(self):
        c = HashContainer(SumCombiner())
        for i in range(100):
            c.emit(f"k{i}", 1)
        seen = []
        for p in range(8):
            seen.extend(k for k, _ in partition_items(c, 8, p))
        assert sorted(seen) == sorted(f"k{i}" for i in range(100))

    def test_partition_out_of_range(self):
        c = HashContainer(SumCombiner())
        with pytest.raises(ValueError):
            c.partitions(0)


class TestArrayContainer:
    def test_dense_keys(self):
        c = ArrayContainer(SumCombiner(), 4)
        c.emit(0, 1.0)
        c.emit(3, 2.0)
        c.emit(0, 1.0)
        assert dict(c.items()) == {0: 2.0, 3: 2.0}
        assert len(c) == 2

    def test_rejects_out_of_range(self):
        c = ArrayContainer(SumCombiner(), 4)
        with pytest.raises(KeyError):
            c.emit(4, 1.0)

    def test_rejects_non_int_keys(self):
        c = ArrayContainer(SumCombiner(), 4)
        with pytest.raises(TypeError):
            c.emit("0", 1.0)
        with pytest.raises(TypeError):
            c.emit(True, 1.0)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            ArrayContainer(SumCombiner(), 0)


class TestOneBucketContainer:
    def test_single_accumulator(self):
        c = OneBucketContainer(SumCombiner())
        assert len(c) == 0
        c.emit("ignored", 2.0)
        c.emit("also-ignored", 3.0)
        items = list(c.items())
        assert len(items) == 1
        assert items[0][1] == 5.0
        assert len(c) == 1


#: Keys of every type the reduce partitions by.
KEYS = st.one_of(
    st.text(max_size=8),
    st.binary(max_size=8),
    st.integers(-(2**40), 2**40),
    st.booleans(),
    st.tuples(st.integers(0, 100), st.text(max_size=3)),
)


@st.composite
def filled_containers(draw):
    """A container of each kind with emitted (key, value) pairs."""
    kind = draw(st.sampled_from(["hash", "array", "one_bucket"]))
    values = st.integers(0, 9)
    if kind == "hash":
        container = HashContainer(SumCombiner())
        pairs = draw(st.lists(st.tuples(KEYS, values), max_size=40))
    elif kind == "array":
        size = draw(st.integers(1, 64))
        container = ArrayContainer(SumCombiner(), size)
        pairs = draw(
            st.lists(st.tuples(st.integers(0, size - 1), values), max_size=40)
        )
    else:
        container = OneBucketContainer(SumCombiner())
        pairs = draw(st.lists(st.tuples(KEYS, values), max_size=5))
    for key, value in pairs:
        container.emit(key, value)
    return container


class TestPartitions:
    @given(container=filled_containers(), num_partitions=st.integers(1, 300))
    def test_buckets_equal_the_oracle_slices_hashing_each_key_once(
        self, container, num_partitions
    ):
        expected = [
            list(partition_items(container, num_partitions, p))
            for p in range(num_partitions)
        ]
        hashed, depth = [], [0]

        def counting_hash(key):
            # A tuple key hashes its elements through the module global
            # too; count the outermost call only.
            if not depth[0]:
                hashed.append(key)
            depth[0] += 1
            try:
                return stable_key_hash(key)
            finally:
                depth[0] -= 1

        original = containers_module.stable_key_hash
        containers_module.stable_key_hash = counting_hash
        try:
            buckets = container.partitions(num_partitions)
        finally:
            containers_module.stable_key_hash = original
        assert all(buckets.values())
        assert [buckets.get(p, []) for p in range(num_partitions)] == expected
        assert hashed == [key for key, _ in container.items()]
