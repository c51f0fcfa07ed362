"""Phoenix++-style intermediate key-value containers.

Phoenix++'s central insight is that the right container for the
intermediate (key, value) state depends on the key space:

* :class:`HashContainer` -- unknown / unbounded keys (word count);
* :class:`ArrayContainer` -- dense integer keys in a known range
  (histogram bins, matrix cells);
* :class:`OneBucketContainer` -- a single logical key (linear regression's
  global sufficient statistics).

Each map worker owns one container; emission applies the combiner
immediately (map-side combining).  After the Map phase the engine hashes
each container's keys into reduce partitions once, and each Reduce task
merges the matching slice of every worker's container.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Tuple

from repro.mapreduce.combiners import Combiner


class Container:
    """Interface for per-worker intermediate key-value state."""

    def __init__(self, combiner: Combiner):
        self.combiner = combiner

    def emit(self, key: Hashable, value: Any) -> None:
        """Fold (key, value) into this container via the combiner."""
        raise NotImplementedError

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Iterate over (key, accumulator) pairs."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def partitions(
        self, num_partitions: int
    ) -> Dict[int, List[Tuple[Hashable, Any]]]:
        """The (key, accumulator) pairs of each non-empty reduce
        partition, by :func:`stable_key_hash`, each in container order:
        one pass over the container, one hash per key.

        Only partitions that receive a pair get a list, so a reduce over
        *n* workers holds no ``n x n`` grid of empty buckets.
        """
        if num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        buckets: Dict[int, List[Tuple[Hashable, Any]]] = {}
        for item in self.items():
            partition = stable_key_hash(item[0]) % num_partitions
            buckets.setdefault(partition, []).append(item)
        return buckets


def stable_key_hash(key: Hashable) -> int:
    """Deterministic, process-stable hash for partitioning keys.

    ``hash(str)`` is salted per process in Python, which would make reduce
    partitions (and hence the simulated traffic matrix) irreproducible, so
    strings and bytes are hashed explicitly.
    """
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, bytes):
        value = 2166136261
        for byte in key:
            value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
        return value
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, tuple):
        value = 1099511628211
        for element in key:
            value = (value * 31 + stable_key_hash(element)) & 0x7FFFFFFFFFFF
        return value
    return hash(key) & 0x7FFFFFFF


class HashContainer(Container):
    """Dictionary-backed container for unbounded key spaces."""

    def __init__(self, combiner: Combiner):
        super().__init__(combiner)
        self._data: Dict[Hashable, Any] = {}

    def emit(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data[key] = self.combiner.add(self._data[key], value)
        else:
            self._data[key] = self.combiner.add(self.combiner.identity(), value)

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        return iter(self._data.items())

    def __len__(self) -> int:
        return len(self._data)


class ArrayContainer(Container):
    """Fixed-size array container for dense integer keys in [0, size)."""

    def __init__(self, combiner: Combiner, size: int):
        super().__init__(combiner)
        if size <= 0:
            raise ValueError(f"ArrayContainer size must be > 0, got {size}")
        self.size = size
        self._data: List[Any] = [None] * size

    def emit(self, key: Hashable, value: Any) -> None:
        if not isinstance(key, int) or isinstance(key, bool):
            raise TypeError(f"ArrayContainer keys must be int, got {key!r}")
        if not 0 <= key < self.size:
            raise KeyError(f"key {key} out of range [0, {self.size})")
        if self._data[key] is None:
            self._data[key] = self.combiner.identity()
        self._data[key] = self.combiner.add(self._data[key], value)

    def items(self) -> Iterator[Tuple[int, Any]]:
        for key, acc in enumerate(self._data):
            if acc is not None:
                yield key, acc

    def __len__(self) -> int:
        return sum(1 for acc in self._data if acc is not None)


class OneBucketContainer(Container):
    """Single-key container for global-aggregate jobs (e.g. regression)."""

    _KEY = 0

    def __init__(self, combiner: Combiner):
        super().__init__(combiner)
        self._acc: Any = None

    def emit(self, key: Hashable, value: Any) -> None:
        if self._acc is None:
            self._acc = self.combiner.identity()
        self._acc = self.combiner.add(self._acc, value)

    def items(self) -> Iterator[Tuple[int, Any]]:
        if self._acc is not None:
            yield self._KEY, self._acc

    def __len__(self) -> int:
        return 0 if self._acc is None else 1
