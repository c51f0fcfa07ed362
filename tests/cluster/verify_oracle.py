"""Reference replay verification: both runs encoded, member by member.

``verify_replay`` once serialized each payload member of both runs and
compared the texts.  It now compares typed values and skips what both
runs share; this is the text comparison it replaced, kept verbatim (over
the serializer of that time, :func:`tests.cluster.record_oracle.
member_texts`) as the oracle ``tests/cluster/test_record.py`` checks it
against, verdict for verdict and message for message.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.record import ClusterRunResult
from tests.cluster.record_oracle import digest, member_texts


def verify_oracle(
    record: ClusterRunResult, replayed: ClusterRunResult
) -> Optional[str]:
    """``None`` when *replayed* reproduces *record* byte for byte, else a
    one-line description of the first divergence.

    The two sides are serialized one payload member at a time, in
    payload order, and the comparison stops at the first member that
    differs; only then are the digests computed, for the message.
    """
    fresh = member_texts(replayed)
    for key, text in member_texts(record):
        if next(fresh, None) != (key, text):
            return (
                f"replay diverged at {key!r}: digest "
                f"{digest(record)[:12]} != {digest(replayed)[:12]}"
            )
    if next(fresh, None) is not None:
        return "replay diverged (unlocated)"
    return None
