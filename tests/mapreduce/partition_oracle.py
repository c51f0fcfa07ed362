"""Reference reduce partitioning: one container walk per partition.

The reduce used to ask each container for one partition at a time,
walking the whole container and hashing every key again on each call.
``Container.partitions`` now buckets a container in one pass; this is
the per-partition walk it replaced, kept verbatim as the oracle
``tests/mapreduce/test_containers.py`` compares the buckets against.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Tuple

from repro.mapreduce.containers import Container, stable_key_hash


def partition_items(
    container: Container, num_partitions: int, partition: int
) -> Iterator[Tuple[Hashable, Any]]:
    """Yield the (key, accumulator) pairs that hash into *partition*."""
    if not 0 <= partition < num_partitions:
        raise ValueError(
            f"partition {partition} out of range [0, {num_partitions})"
        )
    for key, acc in container.items():
        if stable_key_hash(key) % num_partitions == partition:
            yield key, acc
