"""Reference victim choice: one Python pass over every queue length.

``StealingPolicy.choose_victim`` now finds the first longest non-thief
queue with ``max`` and ``list.index`` on a copy whose thief entry is
zeroed; this is the loop it replaced, kept verbatim as the oracle
``tests/mapreduce/test_scheduler_properties.py`` compares it against.
"""

from __future__ import annotations

from typing import Optional, Sequence


def choose_victim(thief: int, queue_lengths: Sequence[int]) -> Optional[int]:
    """The first longest non-empty queue other than *thief*'s, or ``None``."""
    best: Optional[int] = None
    best_len = 0
    for victim, length in enumerate(queue_lengths):
        if victim == thief:
            continue
        if length > best_len:
            best, best_len = victim, length
    return best
