"""Canonical JSON: builtin-only payloads with a stable byte encoding.

Every persisted artifact that participates in hashing or byte-identical
replay (cluster arrival traces, run records, orchestrator manifests)
funnels through :func:`canonical_json`: keys sorted, no whitespace,
``NaN``/``Infinity`` rejected, and every value a builtin type.  numpy
scalars and arrays are converted by :func:`to_builtin` before encoding --
``json.dumps`` serializes ``np.float64`` on some platforms and raises on
others, and even where it works the repr can differ from the builtin
float's, which would silently split cache keys.

Loading goes the other way: :func:`load_json_object` and
:func:`read_member` turn a malformed file into one ``ValueError`` that
names the file and the member, never a bare key name or a traceback.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, TypeVar, Union

import numpy as np

T = TypeVar("T")

#: Exact types :func:`to_builtin` returns unchanged without further checks.
BUILTIN_LEAVES = frozenset((str, int, float, bool, type(None)))

_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
).encode


def to_builtin(value: Any) -> Any:
    """Recursively convert *value* to JSON-native builtin types.

    numpy scalars become their Python equivalents (``np.float64`` ->
    ``float``, ``np.int64``/``np.bool_`` -> ``int``/``bool``), numpy
    arrays become (nested) lists, tuples become lists, and dict keys are
    stringified the way ``json.dumps`` would.  Anything else is returned
    unchanged -- the encoder raises on genuinely non-serializable values,
    which is the correct failure mode for a schema bug.

    Builtin leaves and ``str`` keys -- nearly every value of a loaded or
    freshly built record -- are recognized by exact type first;
    subclasses (``np.float64``, ``IntEnum``) take the ``isinstance``
    path and convert exactly as before.
    """
    if type(value) in BUILTIN_LEAVES:
        return value
    if isinstance(value, dict):
        return {
            key if type(key) is str else _builtin_key(key): to_builtin(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [to_builtin(item) for item in value]
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
    return _encode(to_builtin(value))


def dump_builtin(value: Any) -> str:
    """:func:`canonical_json` of a value that is already builtin-only.

    For callers whose ``to_dict`` already ran :func:`to_builtin` (or
    builds builtins by construction): the text is the same, minus a
    second walk over the value.
    """
    return _encode(value)


def read_member(data: Dict, key: str, parse: Callable[[Any], T]) -> T:
    """``parse(data[key])`` for one member of a loaded JSON object.

    A missing member, or one of the wrong shape (a stray key, a number
    where a list belongs), would otherwise surface from deep inside
    *parse* as a bare ``KeyError``, a ``TypeError`` or an
    ``AttributeError``; it is raised as one ``ValueError`` naming
    *key*.  Validation ``ValueError`` messages gain the member name.
    """
    try:
        value = data[key]
    except KeyError:
        raise ValueError(f"member {key!r} is missing") from None
    with _malformed_as_value_error(f"member {key!r}"):
        return parse(value)


def load_json_object(
    path: Union[str, Path], parse: Callable[[Dict], T]
) -> T:
    """``parse(document)`` for the JSON object stored at *path*.

    Text that is not JSON, a document that is not an object, and a
    malformed member all raise one ``ValueError`` whose message starts
    with *path*.
    """
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    with _malformed_as_value_error(str(path)):
        if not isinstance(document, dict):
            raise ValueError(
                f"expected a JSON object, got {type(document).__name__}"
            )
        return parse(document)


@contextmanager
def _malformed_as_value_error(where: str) -> Iterator[None]:
    """Re-raise what malformed input raises while parsing as one
    ``ValueError`` whose message starts with *where*."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{where}: {type(exc).__name__}: {exc}") from exc
