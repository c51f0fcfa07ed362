"""Deterministic random-number management.

Every stochastic component in the library (dataset generators, simulated
annealing, small-world wiring) receives an explicit seed or an explicit
``numpy.random.Generator``.  Nothing reads global random state, so any
experiment is reproducible from its top-level seed alone.

Hot loops that draw one number at a time read the generator through
:class:`RawDraws`, which serves ``Generator.integers(n)`` and
``Generator.random()`` from chunks of the raw 64-bit stream.  It takes
a PCG64 generator only (what :func:`derive_rng` and
``numpy.random.default_rng`` build), returns the same values as those
calls would, and leaves the generator in the same state they would.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

_DEFAULT_SEED = 0xD5C2015  # stable library-wide default (DAC 2015)


def derive_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for *seed*.

    Accepts an ``int`` seed, an existing generator (returned unchanged), or
    ``None`` (library default seed, so results are stable run-to-run).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = _DEFAULT_SEED
    return np.random.default_rng(int(seed))


def spawn_seed(seed: int, *labels: str) -> int:
    """Derive a child seed from *seed* and a sequence of string *labels*.

    Uses a cryptographic hash so sibling components (e.g. per-benchmark
    dataset generators) get decorrelated streams while remaining fully
    deterministic.
    """
    digest = hashlib.sha256()
    digest.update(str(int(seed)).encode("utf-8"))
    for label in labels:
        digest.update(b"/")
        digest.update(label.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "little")


class RngMixin:
    """Mixin giving a class a lazily created private generator.

    Subclasses set ``self._seed`` (int or ``None``) in ``__init__`` and use
    ``self.rng`` everywhere.
    """

    _seed: Optional[int] = None
    _rng: Optional[np.random.Generator] = None

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = derive_rng(self._seed)
        return self._rng

    def reseed(self, seed: SeedLike) -> None:
        """Reset the private generator (used by tests to replay runs)."""
        self._rng = derive_rng(seed)


_UINT32_MASK = 0xFFFFFFFF
_UINT32_SPAN = 1 << 32
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53
#: Words per ``random_raw`` read: an annealer solve uses a few thousand.
_CHUNK_WORDS = 512


class RawDraws:
    """``Generator.integers(n)`` and ``Generator.random()`` read from a
    PCG64 generator's raw 64-bit stream, without a Generator call per
    draw.

    Contract, inside ``with RawDraws(rng) as draws:``

    * ``draws.below(n)`` returns exactly what ``rng.integers(n)`` would
      for ``1 <= n <= 2**32``: numpy's Lemire rejection on 32-bit halves,
      the low half of a word first and the high half kept for the next
      32-bit draw, as PCG64 buffers them;
    * ``draws.uniform()`` returns exactly what ``rng.random()`` would,
      ``(word >> 11) * 2**-53``; it reads a whole word and leaves the
      32-bit buffer alone;
    * any interleaving of the two gives the same values as the same
      interleaving of the Generator calls;
    * leaving the block -- normally or by an exception -- puts the
      generator exactly where those calls would have left it: the same
      PCG64 state, ``has_uint32`` and (stale or not) ``uinteger``.

    Nothing else may draw from *rng* inside the block.  Words are read
    ahead in chunks (``random_raw``); on exit the generator is set to
    its entry state advanced by the words actually used.  A generator
    over any other bit generator raises ``TypeError``.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(
                "RawDraws reads a PCG64 stream; got a generator over "
                f"{type(bit_generator).__name__}"
            )
        self._bit_generator = bit_generator

    def __enter__(self) -> "RawDraws":
        state = self._bit_generator.state
        self._entry = state
        self._has_half = bool(state["has_uint32"])
        self._half = int(state["uinteger"])
        self._read = 0
        self._words = iter(())
        self._next_word = self._words.__next__
        return self

    def __exit__(self, *exc_info) -> None:
        used = self._read - operator.length_hint(self._words)
        bit_generator = self._bit_generator
        bit_generator.state = self._entry
        bit_generator.advance(used)
        state = bit_generator.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bit_generator.state = state

    def _word(self) -> int:
        """The stream's next 64-bit word."""
        try:
            return self._next_word()
        except StopIteration:
            words = self._bit_generator.random_raw(_CHUNK_WORDS).tolist()
            self._read += len(words)
            self._words = iter(words)
            self._next_word = self._words.__next__
            return self._next_word()

    def _uint32(self) -> int:
        """PCG64's ``next_uint32``: the buffered high half if there is
        one, else the low half of a fresh word (buffering its high half)."""
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._word()
        self._half = word >> 32
        self._has_half = True
        return word & _UINT32_MASK

    def below(self, n: int) -> int:
        """``Generator.integers(n)``: uniform over ``[0, n)``."""
        n = operator.index(n)
        if not 1 <= n <= _UINT32_SPAN:
            raise ValueError(f"below(n) needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0  # numpy draws nothing for a one-value range
        value = self._uint32()
        if n == _UINT32_SPAN:
            return value
        product = value * n
        if product & _UINT32_MASK < n:
            threshold = (_UINT32_SPAN - n) % n
            while product & _UINT32_MASK < threshold:
                product = self._uint32() * n
        return product >> 32

    def uniform(self) -> float:
        """``Generator.random()``: uniform over ``[0, 1)``."""
        return (self._word() >> 11) * _DOUBLE_UNIT
