"""Content-addressed on-disk cache of study results.

Each cached unit is one JSON file named by the spec's
:meth:`~repro.orchestrator.spec.StudySpec.cache_key` (sharded by the
first two hex digits, git-object style), wrapping the full study
document produced by :func:`repro.core.serialization.study_to_dict`
together with the spec and schema version that produced it.  Writes are
atomic (temp file + ``os.replace``), so an interrupted campaign never
leaves a half-written entry; corrupt or stale-schema files read as
misses and are rewritten on the next run.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.experiment import AppStudy
from repro.core.serialization import study_from_dict, study_to_dict
from repro.orchestrator.spec import CACHE_SCHEMA_VERSION, StudySpec


class StudyCache:
    """Persistent spec -> study store rooted at *root*."""

    def __init__(
        self,
        root: Union[str, Path],
        schema_version: int = CACHE_SCHEMA_VERSION,
    ):
        self.root = Path(root)
        self.schema_version = int(schema_version)
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
        """The raw study document for *spec*, or ``None`` on a miss.

        Unreadable/corrupt entries and entries written under a different
        schema version are treated as misses.
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
        return envelope.get("study")

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
        """Atomically persist a study document for *spec*."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "schema_version": self.schema_version,
            "key": spec.cache_key(self.schema_version),
            "spec": spec.to_dict(),
            "study": document,
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
