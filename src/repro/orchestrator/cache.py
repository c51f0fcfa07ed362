"""Content-addressed on-disk cache of study results.

Each cached unit is one JSON file named by the spec's
:meth:`~repro.orchestrator.spec.StudySpec.cache_key` (sharded by the
first two hex digits, git-object style), wrapping the full study
document produced by :func:`repro.core.serialization.study_to_dict`
together with the spec and schema version that produced it.

In the file, the document's large float arrays (:data:`PACKED_PATHS`:
the design's traffic matrix and utilization, and each result's per-core
vectors) are stored packed as ``{"dtype": "<f8", "shape": [...],
"data": <base64 of the little-endian bytes>}``: a 256-core traffic
matrix as nested JSON floats is most of the file and most of its parse
time.  Packing is exact, so a read rebuilds bit-identical arrays and the
study document -- and every digest over it -- is unchanged.

Writes are atomic (temp file + ``os.replace``), so an interrupted
campaign never leaves a half-written entry; a corrupt file, including a
packed member that does not decode exactly, reads as a miss and is
rewritten on the next run.  The key includes the schema version, so
files written under another version are never looked up; they stay on
disk until :meth:`StudyCache.clear`.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.core.experiment import AppStudy
from repro.core.serialization import study_from_dict, study_to_dict
from repro.orchestrator.spec import CACHE_SCHEMA_VERSION, StudySpec

#: Paths, in a study document, of the float arrays the cache file packs.
#: ``"*"`` matches every key of its mapping (each simulated configuration).
PACKED_PATHS = (
    ("design", "traffic"),
    ("design", "utilization"),
    ("results", "*", "busy_s"),
    ("results", "*", "committed_instructions"),
    ("results", "*", "worker_frequencies_hz"),
)

_PACKED_DTYPE = "<f8"


def _pack(values) -> Dict:
    array = np.asarray(values, dtype=_PACKED_DTYPE)
    return {
        "dtype": _PACKED_DTYPE,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _unpack(member) -> np.ndarray:
    """The writable native float64 array a packed member holds.

    Raises ``ValueError`` (or ``KeyError``/``TypeError`` for a member of
    the wrong shape) unless the member decodes exactly.
    """
    if not isinstance(member, dict) or member.get("dtype") != _PACKED_DTYPE:
        raise ValueError("not a packed float64 array")
    shape = member["shape"]
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise ValueError(f"bad packed shape {shape!r}")
    raw = base64.b64decode(member["data"], validate=True)
    # frombuffer and reshape raise unless the bytes fill *shape* exactly.
    return np.frombuffer(raw, dtype=_PACKED_DTYPE).reshape(shape).astype(np.float64)


def _replace(node: Dict, path: Sequence[str], convert: Callable) -> Dict:
    """A copy of mapping *node* with *convert* applied to the value at
    *path*; only the mappings along the path are copied."""
    head, rest = path[0], path[1:]
    out = dict(node)
    for key in (node if head == "*" else (head,)):
        if key in node:
            out[key] = (
                _replace(node[key], rest, convert) if rest else convert(node[key])
            )
    return out


def pack_document(document: Dict) -> Dict:
    """*document* as the cache file stores it: every :data:`PACKED_PATHS`
    array packed.  *document* itself is left unchanged."""
    for path in PACKED_PATHS:
        document = _replace(document, path, _pack)
    return document


def unpack_document(document: Dict) -> Dict:
    """The study document a cache file stores, arrays decoded.

    Raises ``ValueError``, ``KeyError`` or ``TypeError`` when a packed
    member does not decode exactly.
    """
    for path in PACKED_PATHS:
        document = _replace(document, path, _unpack)
    return document


class StudyCache:
    """Persistent spec -> study store rooted at *root*."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.schema_version = CACHE_SCHEMA_VERSION
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #

    def path_for(self, spec: StudySpec) -> Path:
        key = spec.cache_key(self.schema_version)
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, spec: StudySpec) -> bool:
        return self.load_document(spec) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))

    # ------------------------------------------------------------------ #

    def load_document(self, spec: StudySpec) -> Optional[Dict]:
        """The study document for *spec*, or ``None`` on a miss.

        Packed arrays come back as writable float64 ndarrays.
        Unreadable/corrupt entries, entries whose packed members do not
        decode exactly and entries written under a different schema
        version are treated as misses.
        """
        path = self.path_for(spec)
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(envelope, dict):
            return None
        if envelope.get("schema_version") != self.schema_version:
            return None
        document = envelope.get("study")
        if document is None:
            return None
        try:
            return unpack_document(document)
        except (KeyError, TypeError, ValueError):
            return None

    def get(self, spec: StudySpec) -> Optional[AppStudy]:
        """The cached study for *spec*, or ``None`` on a miss."""
        document = self.load_document(spec)
        if document is None:
            return None
        try:
            return study_from_dict(document)
        except (KeyError, TypeError, ValueError):
            return None

    def put_document(self, spec: StudySpec, document: Dict) -> Path:
        """Atomically persist a study document for *spec*.

        The file stores :func:`pack_document` of *document*; *document*
        itself is left unchanged.
        """
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "schema_version": self.schema_version,
            "key": spec.cache_key(self.schema_version),
            "spec": spec.to_dict(),
            "study": pack_document(document),
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # The one-shot dumps takes the C encoder; json.dump always
                # encodes in pure Python.  Same text either way.
                handle.write(json.dumps(envelope))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def put(self, spec: StudySpec, study: AppStudy) -> Path:
        """Serialize and persist a study for *spec*."""
        return self.put_document(spec, study_to_dict(study))

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("??/*.json"):
            path.unlink()
            removed += 1
        return removed
