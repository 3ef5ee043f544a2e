"""Strict readers for the JSON documents ccbound loads, and the rules of their sizes and tables.

``json`` gives integers, floats, bools, strings, None, lists and dicts; a
size must be an integer (a bool is not one) and a table must nest lists of
numbers, so that a typo fails instead of being truncated or coerced.
:func:`is_index` is the one integer test of sizes, counts and setting
indices, read or passed in code, and :func:`is_real` the one test of a real
number passed in code (a setting weight, a fraction, a Bloch component).
Every probability table (a correlation, a joint distribution, a stochastic
map), read from a file or built in code, passes :func:`probability_table`.
The value types hold :func:`read_only_copy` arrays and stay frozen through
copies with :func:`constructor_reduce` and :class:`FrozenDict`.
"""

import json
import numbers
from dataclasses import fields

import numpy as np

# the rounding slack of a probability table (how far its sums may be off 1)
# and of the slice's unit disc
ATOL = 1e-12


def json_document(path, error: type[Exception]):
    """The parsed JSON document at ``path``; invalid JSON raises ``error``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise error(f"invalid JSON in {path}: {exc}") from exc


def is_index(value) -> bool:
    """Whether ``value`` is a Python int or a numpy integer: not a bool, which
    numpy would read as a mask and Python as 0 or 1, nor a float.  The
    concrete types, not ``numbers.Integral``, keep the test cheap on the
    sweep's paths."""
    return type(value) is int or isinstance(value, np.integer)


def is_real(value) -> bool:
    """Whether ``value`` is a real number: a ``numbers.Real`` that is not a
    bool (np.bool_, a string and a complex number are not Reals).  A float
    skips the ABC test, which costs about 1 us on the sweep's paths."""
    return type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)


def json_int(value, name: str, error: type[Exception]) -> int:
    """``value`` if it is a JSON integer, else raise ``error``."""
    if not is_index(value):
        raise error(f"{name} must be a JSON integer, got {value!r}")
    return value


def json_table(value, name: str, error: type[Exception]) -> np.ndarray:
    """Nested lists of JSON numbers as a float array, else raise ``error``."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise error(f"{name} entries must be JSON numbers, got {item!r}")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise error(f"{name} is not a rectangular array of numbers: {exc}") from exc


def probability_table(values, sum_axes, error: type[Exception]) -> np.ndarray:
    """``values`` as a read-only float array of probabilities, else raise ``error``.

    Every entry must be >= 0 (so not NaN), and every sum over ``sum_axes``
    (None: all entries) must be 1 within ATOL, which an infinite entry fails.
    """
    arr = read_only_copy(values, float)
    # the ufunc reductions, not the array methods, whose Python wrappers cost
    # more than the work on tables this small; ``initial`` lets an empty
    # table pass the entry test and read a zero deviation over no sums
    if not np.minimum.reduce(arr, axis=None, initial=np.inf) >= 0.0:
        raise error(f"negative or NaN probability entry: min = {float(arr.min())!r}")
    worst = np.maximum.reduce(np.abs(np.add.reduce(arr, axis=sum_axes) - 1.0), axis=None, initial=0.0)
    if not worst <= ATOL:
        raise error(f"probabilities must sum to 1 within {ATOL}; worst deviation {float(worst)!r}")
    return arr


def read_only_copy(values, dtype=None):
    """A read-only array copy of ``values`` (None stays None): the value types
    hold these, so the caller's array stays theirs, and writeable."""
    if values is None:
        return None
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def constructor_reduce(obj):
    """A dataclass's ``__reduce__``: its class and field values, so that copies
    and unpickled objects are rebuilt, checked and frozen by the constructor."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


class FrozenDict(dict):
    """A dict that refuses every change after construction.

    It stays a ``dict``, so ``dataclasses.asdict`` rebuilds it from its
    items; copies and unpickled ones are rebuilt by the constructor too.
    """

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)
