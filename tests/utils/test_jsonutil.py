"""canonical_json / to_builtin: the byte-stability foundation."""

import json
import math
import re
from collections import OrderedDict
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.jsonutil import (
    canonical_json,
    dump_builtin,
    load_json_object,
    read_member,
    to_builtin,
)
from tests.utils import jsonutil_oracle as oracle


class TestToBuiltin:
    def test_numpy_scalars(self):
        assert type(to_builtin(np.int64(3))) is int
        assert type(to_builtin(np.int32(3))) is int
        assert type(to_builtin(np.float64(2.5))) is float
        assert type(to_builtin(np.float32(0.5))) is float
        assert type(to_builtin(np.bool_(True))) is bool

    def test_arrays_become_nested_lists(self):
        out = to_builtin(np.arange(6).reshape(2, 3))
        assert out == [[0, 1, 2], [3, 4, 5]]
        assert all(type(v) is int for row in out for v in row)

    def test_tuples_become_lists(self):
        assert to_builtin((1, (2, 3))) == [1, [2, 3]]

    def test_nested_dict(self):
        data = {"a": np.float64(1.5), "b": {"c": (np.int64(2),)}}
        out = to_builtin(data)
        assert out == {"a": 1.5, "b": {"c": [2]}}
        json.dumps(out)

    def test_numeric_keys_stringified(self):
        out = to_builtin({np.int64(3): "x", 4: "y", 2.5: "z"})
        assert out == {"3": "x", "4": "y", "2.5": "z"}

    def test_plain_values_pass_through(self):
        for value in (None, True, "s", 1, 1.5, []):
            assert to_builtin(value) == value


class TestCanonicalJson:
    def test_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_numpy_equals_builtin_encoding(self):
        # The whole point: a payload assembled from numpy must hash the
        # same as the equivalent builtin payload.
        a = canonical_json({"x": np.float64(0.05), "n": np.int64(7)})
        b = canonical_json({"x": 0.05, "n": 7})
        assert a == b

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})
        with pytest.raises(ValueError):
            canonical_json({"x": np.float64(math.inf)})

    def test_round_trip_is_stable(self):
        payload = {"jobs": [{"id": np.int64(1), "t": np.float64(2.5)}]}
        text = canonical_json(payload)
        assert canonical_json(json.loads(text)) == text


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    """A plain ``str`` subclass (not a numpy type)."""


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=5),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.text(max_size=5).map(np.str_),
    st.sampled_from(list(Level)),
    st.text(max_size=5).map(Label),
    st.lists(st.integers(-1000, 1000), max_size=4).map(np.array),
    st.lists(st.floats(width=32), min_size=4, max_size=4).map(
        lambda xs: np.array(xs, dtype=np.float32).reshape(2, 2)
    ),
)

_KEYS = st.one_of(
    st.text(max_size=4),
    st.integers(),
    st.floats(),
    st.integers(-100, 100).map(np.int64),
    st.booleans(),
    st.text(max_size=3).map(np.str_),
)

_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4).map(OrderedDict),
    ),
    max_leaves=24,
)


def _assert_strictly_equal(fast, reference):
    """Equal values of identical types all the way down (dict key order
    included; floats compared by repr, so NaN and -0.0 count)."""
    assert type(fast) is type(reference)
    if isinstance(reference, dict):
        assert len(fast) == len(reference)
        for (key, value), (ref_key, ref_value) in zip(
            fast.items(), reference.items()
        ):
            _assert_strictly_equal(key, ref_key)
            _assert_strictly_equal(value, ref_value)
    elif isinstance(reference, list):
        assert len(fast) == len(reference)
        for value, ref_value in zip(fast, reference):
            _assert_strictly_equal(value, ref_value)
    elif isinstance(reference, float):
        assert repr(fast) == repr(reference)
    else:
        assert fast == reference


def _outcome(encode, value):
    try:
        return encode(value)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


class TestAgainstReference:
    """The exact-type dispatch changes speed, never output."""

    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENTS)
    def test_to_builtin_matches_reference(self, document):
        _assert_strictly_equal(
            to_builtin(document), oracle.to_builtin(document)
        )

    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENTS)
    def test_canonical_json_matches_reference(self, document):
        # Equal bytes, or the same exception type (NaN, mixed bool/str
        # keys after stringification, ...).
        assert _outcome(canonical_json, document) == _outcome(
            oracle.canonical_json, document
        )

    @pytest.mark.parametrize(
        "document",
        [
            {"x": float("nan")},
            {True: 1, "a": 2},
            {np.float64(1.5): [np.float32(0.1), (Level.HIGH, Label("s"))]},
        ],
    )
    def test_edge_documents(self, document):
        _assert_strictly_equal(
            to_builtin(document), oracle.to_builtin(document)
        )
        assert _outcome(canonical_json, document) == _outcome(
            oracle.canonical_json, document
        )


class TestDumpBuiltin:
    def test_same_text_as_canonical_json_for_builtins(self):
        document = {"b": [1, 2.5, None], "a": {"z": True, "y": "s"}}
        assert dump_builtin(document) == canonical_json(document)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            dump_builtin({"x": float("nan")})


class TestLoading:
    def test_read_member_parses(self):
        assert read_member({"n": "3"}, "n", int) == 3

    def test_missing_member_named(self):
        with pytest.raises(ValueError, match="member 'jobs' is missing"):
            read_member({}, "jobs", list)

    @pytest.mark.parametrize(
        "value, parse, detail",
        [
            (5, list, "TypeError"),
            ({"a": 1}, lambda d: d["b"], "KeyError"),
            ([1], lambda rows: rows.keys(), "AttributeError"),
            ("x", int, "invalid literal"),
        ],
    )
    def test_malformed_member_named(self, value, parse, detail):
        with pytest.raises(ValueError, match=f"member 'm': .*{detail}"):
            read_member({"m": value}, "m", parse)

    def test_load_json_object_names_the_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"m": 5}')
        assert load_json_object(path, lambda d: d["m"]) == 5
        prefix = re.escape(f"{path}: ")
        with pytest.raises(ValueError, match=f"^{prefix}member 'm'"):
            load_json_object(path, lambda d: read_member(d, "m", list))
        with pytest.raises(ValueError, match=f"^{prefix}KeyError: 'q'"):
            load_json_object(path, lambda d: d["q"])

    @pytest.mark.parametrize(
        "text, detail",
        [("{x", "not valid JSON"), ("[1, 2]", "expected a JSON object")],
    )
    def test_load_json_object_rejects_non_objects(
        self, tmp_path, text, detail
    ):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=detail) as info:
            load_json_object(path, dict)
        assert str(info.value).startswith(f"{path}: ")
        assert "\n" not in str(info.value)
