"""``to_jsonable`` keeps its output: a property test against a frozen copy.

Every cache entry, cache key, stored record and served payload goes through
:func:`repro.utils.serialization.to_jsonable`, so its output is a byte-level
contract. ``frozen_to_jsonable`` below is the function as it was before its
plain-type fast path, kept verbatim; the tests require the current function
to return the same types, values, float bits and key order for any value,
and the same ``json.dumps`` text.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import json
import math
import struct
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.engine.cache as cache_module
from repro.engine import RunCache, cache_key
from repro.serve.submit import Submission
from repro.utils.serialization import dumps, to_jsonable


def frozen_to_jsonable(value: Any) -> Any:
    """The reference: ``to_jsonable`` before its fast path, unchanged."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: frozen_to_jsonable(getattr(value, field.name)) for field in dataclasses.fields(value)}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [frozen_to_jsonable(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): frozen_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [frozen_to_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    """A ``str`` subclass, returned as itself (not copied to a plain str)."""


class Colour(str, enum.Enum):
    RED = "red"


class Opaque:
    """Not JSON-like: stringified."""

    def __str__(self) -> str:
        return "opaque"


@dataclasses.dataclass
class Pair:
    first: Any
    second: Any


@dataclasses.dataclass(frozen=True)
class Frozen:
    label: str
    value: Any


def assert_same(new: Any, old: Any) -> None:
    """Type-exact structural equality: dict key order, float bits, NaN and all."""
    assert type(new) is type(old), (new, old)
    if isinstance(old, dict):
        assert list(new) == list(old)
        for key in old:
            assert_same(new[key], old[key])
    elif isinstance(old, list):
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert_same(a, b)
    elif isinstance(old, float):
        assert struct.pack("<d", new) == struct.pack("<d", old), (new, old)
    else:
        assert new == old, (new, old)


floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(max_size=6),
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    st.sampled_from(list(Level)),
    st.sampled_from(list(Colour)),
    st.text(max_size=4).map(Tag),
    st.just(Opaque()),
)
arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.int8, np.bool_]),
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3),
)
keys = st.one_of(
    st.text(max_size=5),
    st.integers(-5, 5),
    floats,
    st.booleans(),
    st.none(),
    st.integers(-5, 5).map(np.int64),
    st.sampled_from(list(Level)),
    st.text(max_size=3).map(Tag),
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=4).map(collections.OrderedDict),
        st.builds(Pair, children, children),
        st.builds(Frozen, st.text(max_size=3), children),
    )


values = st.recursive(st.one_of(scalars, arrays), containers, max_leaves=24)


class TestToJsonableKeepsItsOutput:
    @settings(max_examples=300, deadline=None)
    @given(values)
    def test_matches_the_frozen_function(self, value):
        old = frozen_to_jsonable(value)
        new = to_jsonable(value)
        assert_same(new, old)
        assert json.dumps(new) == json.dumps(old)
        assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [
            np.float64(0.1),  # subclasses float, converted to a plain float
            np.bool_(True),  # does not subclass bool
            Level.HIGH,
            Colour.RED,
            Tag("x"),
            {1: "a", None: "b", 2.5: "c", True: "d", np.int64(7): "e", Level.LOW: "f"},
            collections.OrderedDict([("b", 1), ("a", np.arange(3))]),
            [math.nan, math.inf, -math.inf, -0.0, np.float64("nan")],
            (1, [2, (3, {"k": np.float32(0.5)})]),
            Pair(np.arange(4).reshape(2, 2), Frozen("f", {"x": np.bool_(False)})),
            np.zeros((2, 0, 3)),
            Opaque(),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_named_cases(self, value):
        old = frozen_to_jsonable(value)
        assert_same(to_jsonable(value), old)
        assert dumps(value) == json.dumps(old, indent=2)

    def test_plain_values_are_returned_as_they_are(self):
        text, tag, number = "abc", Tag("t"), 2.5
        assert to_jsonable(text) is text and to_jsonable(tag) is tag and to_jsonable(number) is number

    def test_a_zero_dimensional_array_still_raises(self):
        with pytest.raises(TypeError):
            frozen_to_jsonable(np.array(1.0))
        with pytest.raises(TypeError):
            to_jsonable(np.array(1.0))


#: ``Submission.cache_key`` of fixed submissions. Keys fold in the package
#: version and ``CACHE_SCHEMA``, so these move with either, on purpose.
SUBMISSION_KEYS = [
    (
        {"kind": "scenario", "name": "crash", "quick": True, "seed": 0, "replicates": 4},
        "d507f289578ea8f25bcf0bb986935bfd62feaf48db1d6ca49bb05f580807974d",
    ),
    (
        {"kind": "experiment", "name": "E01", "quick": True, "seed": 0},
        "ae9b012575a1718636ad4e4513b29c1b40752a075bc6035dfa90995fc41f044a",
    ),
    (
        {"kind": "experiment", "name": "E05", "quick": True, "seed": 3, "overrides": {"rounds_grid": [20, 40]}},
        "0c68480670df5a20ac935b5d228edc3f10b98ec9699ca860f8d3f1d5071de6f5",
    ),
    (
        {"kind": "scenario", "name": "rewiring-torus", "seed": 11, "replicates": 9, "side": 20},
        "65f16f6bd617a7bc0701204e8df74d0c4d185b32731164e6a7fec564edaa9666",
    ),
]


class TestCacheKeysKeepTheirDigests:
    @pytest.mark.parametrize("payload, expected", SUBMISSION_KEYS, ids=lambda item: str(item)[:24])
    def test_submission_keys(self, tmp_path, monkeypatch, payload, expected):
        cache = RunCache(tmp_path)
        submission = Submission.from_payload(payload)
        assert submission.cache_key(cache) == expected
        monkeypatch.setattr(cache_module, "to_jsonable", frozen_to_jsonable)
        assert submission.cache_key(cache) == expected

    def test_numpy_components(self):
        key = cache_key(topology="torus2d", config={"side": np.int64(16), "rates": np.array([0.5, 0.25])}, seed=0)
        assert key == "00faebd58791ccd01ffe4267183b3c890a9aa35f6f7b077ce0131eb1c24d840e"
