"""Reference ``to_builtin`` / ``canonical_json``.

These are the implementations :mod:`repro.utils.jsonutil` used before
``to_builtin`` learned to recognize builtin leaves and ``str`` keys by
exact type: one ``isinstance`` chain for every value and every key.
They are kept verbatim as oracles: ``tests/utils/test_jsonutil.py``
asserts the library's output equals theirs, type for type and byte for
byte, on arbitrary nested documents.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np


def to_builtin(value: Any) -> Any:
    """Recursively convert *value* to JSON-native builtin types.

    numpy scalars become their Python equivalents (``np.float64`` ->
    ``float``, ``np.int64``/``np.bool_`` -> ``int``/``bool``), numpy
    arrays become (nested) lists, tuples become lists, and dict keys are
    stringified the way ``json.dumps`` would.  Anything else is returned
    unchanged -- the encoder raises on genuinely non-serializable values,
    which is the correct failure mode for a schema bug.
    """
    if isinstance(value, dict):
        return {_builtin_key(k): to_builtin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_builtin(v) for v in value]
    if isinstance(value, np.ndarray):
        return to_builtin(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def _builtin_key(key: Any) -> Any:
    if isinstance(key, np.generic):
        key = key.item()
    if isinstance(key, (int, float)) and not isinstance(key, bool):
        return str(key)
    return key


def canonical_json(value: Any) -> str:
    """Encode *value* as canonical JSON text.

    Sorted keys, compact separators, no NaN/Infinity, builtins only (via
    :func:`to_builtin`).  The same logical document always produces the
    same bytes, so sha256 over the text is a stable content address and
    two replays can be compared with ``==``.
    """
    return json.dumps(
        to_builtin(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
