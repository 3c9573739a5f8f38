"""assert_same: compare a result with its oracle's and fail at the first
difference, naming where it lies.

An `assert repr(new) == repr(ref)` over a large record is slow to fail:
pytest's assertion rewriting diffs the two long strings. assert_same walks
the two values in step instead and raises a short AssertionError at the
first place they part.
"""

import dataclasses

import numpy as np

_SHOWN = 300  # characters of each side's repr that a message shows


def assert_same(new, ref, what="value", exact=False):
    """Raise AssertionError unless new and ref agree, naming the path of
    the first difference under what (say fits[17].coefficients[3]) and
    both values' reprs there.

    Dataclasses (their repr fields), dicts (keys in order), lists, tuples
    and numpy arrays of the same type are walked in step; anything else is
    compared by repr, which separates -0.0 from 0.0 and matches NaN with
    NaN. Arrays must agree in dtype and shape; their elements are compared
    by repr, or with exact by bytes. Whatever the walk finds, new and ref
    also need equal reprs, so this rejects every pair that
    `repr(new) == repr(ref)` rejects.
    """
    _walk(new, ref, what, exact)
    if repr(new) != repr(ref):
        _fail(what, new, ref)


def _fail(path, new, ref, note="differs"):
    raise AssertionError(
        f"{path} {note}\n  new: {_shown(new)}\n  ref: {_shown(ref)}"
    )


def _shown(value):
    text = repr(value)
    return text if len(text) <= _SHOWN else text[:_SHOWN] + f"... ({len(text)} chars)"


def _walk(new, ref, path, exact):
    if type(new) is not type(ref):
        if repr(new) != repr(ref):
            _fail(path, new, ref)
    elif isinstance(new, np.ndarray):
        _walk_array(new, ref, path, exact)
    elif dataclasses.is_dataclass(new) and not isinstance(new, type):
        for f in dataclasses.fields(new):
            if f.repr:
                _walk(getattr(new, f.name), getattr(ref, f.name), f"{path}.{f.name}", exact)
    elif type(new) is dict:
        _walk(list(new), list(ref), f"{path}.keys()", exact)
        for key in new:
            _walk(new[key], ref[key], f"{path}[{key!r}]", exact)
    elif type(new) in (list, tuple):
        for k, (a, b) in enumerate(zip(new, ref)):
            _walk(a, b, f"{path}[{k}]", exact)
        if len(new) != len(ref):
            _fail(path, new, ref, f"has {len(new)} items, the reference {len(ref)}")
    elif repr(new) != repr(ref):
        _fail(path, new, ref)


def _walk_array(new, ref, path, exact):
    if new.dtype != ref.dtype or new.shape != ref.shape:
        _fail(path, new, ref, f"is {new.dtype} {new.shape}, the reference {ref.dtype} {ref.shape}")
    if not exact:
        _walk(new.tolist(), ref.tolist(), path, exact)
        return
    if new.tobytes() == ref.tobytes():
        return
    width = new.dtype.itemsize
    a = np.frombuffer(new.tobytes(), np.uint8).reshape(-1, width)
    b = np.frombuffer(ref.tobytes(), np.uint8).reshape(-1, width)
    k = int(np.flatnonzero((a != b).any(axis=1))[0])
    at = np.unravel_index(k, new.shape)
    _fail(path + "".join(f"[{i}]" for i in at), new[at], ref[at], "differs in its bytes")
