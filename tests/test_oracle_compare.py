"""assert_same (tests/oracle_compare.py) rejects every pair of values whose
reprs differ, and names the first place they part."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_compare import assert_same


@dataclasses.dataclass(frozen=True)
class Pair:
    a: object
    b: object
    hidden: object = dataclasses.field(default=None, repr=False)


SUBNORMAL = 5e-324
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), SUBNORMAL, -SUBNORMAL,
                     2.2250738585072014e-308 / 2, 1.0, 1.0 + 2**-52]),
    st.floats(allow_nan=True, allow_infinity=True),
)
LEAVES = st.one_of(FLOATS, st.integers(-3, 3), st.text(max_size=3), st.none(),
                   st.booleans())
ARRAYS = st.lists(FLOATS, max_size=4).map(lambda xs: np.array(xs, dtype=float))


def nested(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.sampled_from("xyz"), inner, max_size=3),
            st.builds(Pair, inner, inner, inner),
        ),
        max_leaves=8,
    )


VALUES = nested(LEAVES)


def _raises(new, ref, **kwargs):
    try:
        assert_same(new, ref, "v", **kwargs)
    except AssertionError as exc:
        assert str(exc).startswith("v")
        return True
    return False


@settings(max_examples=400, deadline=None)
@given(new=VALUES, ref=VALUES)
def test_raises_exactly_when_reprs_differ(new, ref):
    assert _raises(new, ref) == (repr(new) != repr(ref))


@settings(max_examples=400, deadline=None)
@given(value=VALUES, data=st.data())
def test_raises_exactly_when_reprs_differ_after_one_change(value, data):
    """Near misses: the same structure with one leaf redrawn, or one
    sequence cut or grown by an item."""
    changed = data.draw(_changed(value))
    assert _raises(changed, value) == (repr(changed) != repr(value))
    assert _raises(value, changed) == (repr(changed) != repr(value))


def _changed(value):
    if isinstance(value, (list, tuple)) and value:
        k = len(value) - 1
        options = [
            _changed(value[k]).map(lambda v: type(value)([*value[:k], v])),
            st.just(type(value)(value[:k])),
            LEAVES.map(lambda v: type(value)([*value, v])),
        ]
        return st.one_of(options)
    if isinstance(value, dict) and value:
        key = next(iter(value))
        return _changed(value[key]).map(lambda v: {**value, key: v})
    if isinstance(value, Pair):
        return _changed(value.b).map(lambda v: dataclasses.replace(value, b=v))
    return LEAVES


@settings(max_examples=300, deadline=None)
@given(new=nested(st.one_of(LEAVES, ARRAYS)), ref=nested(st.one_of(LEAVES, ARRAYS)),
       exact=st.booleans())
def test_arrays_never_hide_a_repr_difference(new, ref, exact):
    if repr(new) != repr(ref):
        assert _raises(new, ref, exact=exact)


@settings(max_examples=300, deadline=None)
@given(new=ARRAYS, ref=ARRAYS)
def test_exact_arrays_compare_dtype_shape_and_bytes(new, ref):
    same = new.shape == ref.shape and new.tobytes() == ref.tobytes()
    assert _raises(new, ref, exact=True) == (not same)


@pytest.mark.parametrize(
    "new, ref, message",
    [
        ([1.0, Pair(2.0, -0.0)], [1.0, Pair(2.0, 0.0)], "v[1].b differs"),
        ({"x": (1, 2)}, {"x": (1, 2, 3)}, "v['x'] has 2 items, the reference 3"),
        ({"x": 1, "y": 2}, {"y": 2, "x": 1}, "v.keys()[0] differs"),
        ([1.0], [np.float64(1.0)], "v[0] differs"),
        (np.zeros((2, 2)), np.zeros(4), "v is float64 (2, 2), the reference float64 (4,)"),
        (np.array([1.0, np.nan]), np.array([1.0, 2.0]), "v[1] differs"),
    ],
)
def test_message_names_the_first_difference(new, ref, message):
    with pytest.raises(AssertionError, match="^" + re.escape(message)):
        assert_same(new, ref, "v")


def test_exact_names_the_element_whose_bytes_differ():
    new = np.zeros((2, 3))
    ref = new.copy()
    ref[1, 2] = -0.0
    assert_same(new, new.copy(), "v", exact=True)
    with pytest.raises(AssertionError, match=r"^v\[1\]\[2\] differs in its bytes"):
        assert_same(new, ref, "v", exact=True)
    # two NaNs with different payloads repr alike but differ in their bytes
    quiet = np.array([np.nan])
    payload = np.array([0x7FF8000000000001], dtype=np.int64).view(float)
    assert_same(quiet, payload, "v")
    with pytest.raises(AssertionError, match="bytes"):
        assert_same(quiet, payload, "v", exact=True)


def test_hidden_fields_are_not_compared():
    assert_same(Pair(1, 2, hidden=3), Pair(1, 2, hidden=4), "v")
