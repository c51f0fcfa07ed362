"""Packet classes and sizing.

The memory system exchanges MOESI directory traffic (paper Sec. 7:
MOESI_CMP_directory, 64-byte lines, 32-bit flits):

* **control** -- requests, acks, invalidations: header + address;
* **data** -- cache-line transfers: header + 64-byte payload;
* **kv** -- bulk intermediate key/value transfers during Reduce/Merge,
  sized by the byte volume being moved.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.utils.validation import check_positive

FLIT_BITS = 32
HEADER_FLITS = 1
CACHE_LINE_BYTES = 64


class PacketClass(enum.Enum):
    CONTROL = "control"
    DATA = "data"
    KV = "kv"


def packet_flits(packet_class: PacketClass, payload_bytes: float = 0.0) -> int:
    """Flit count of one packet of the given class."""
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
    if packet_class is PacketClass.CONTROL:
        # Header flit + 32-bit address flit.
        return HEADER_FLITS + 1
    if packet_class is PacketClass.DATA:
        return HEADER_FLITS + CACHE_LINE_BYTES * 8 // FLIT_BITS
    if packet_class is PacketClass.KV:
        payload_flits = math.ceil(payload_bytes * 8 / FLIT_BITS)
        return HEADER_FLITS + max(1, payload_flits)
    raise ValueError(f"unknown packet class {packet_class!r}")


def packet_bits(packet_class: PacketClass, payload_bytes: float = 0.0) -> int:
    return packet_flits(packet_class, payload_bytes) * FLIT_BITS


def control_bits() -> int:
    return packet_bits(PacketClass.CONTROL)


def data_bits() -> int:
    return packet_bits(PacketClass.DATA)


def kv_stream_bits(total_bytes, chunk_bytes: float = 256.0):
    """Total bits to stream *total_bytes* of key/value data in
    *chunk_bytes* packets (headers included): a float, or an array of
    them for an array of volumes."""
    check_positive("chunk_bytes", chunk_bytes)
    total = np.asarray(total_bytes, dtype=float)
    if (total < 0).any():
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    packets = np.ceil(total / chunk_bytes)
    bits = total * 8 + packets * (HEADER_FLITS * FLIT_BITS)
    return bits if total.ndim else float(bits)
