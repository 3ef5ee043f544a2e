"""Strict readers for the JSON documents ccbound loads, and their sizes and tables.

``json`` gives integers, floats, bools, strings, None, lists and dicts; a
size must be an integer (a bool is not one) and a table must nest lists of
numbers, so that a typo fails instead of being truncated or coerced.
"""

import json

import numpy as np


def json_document(path, error: type[Exception]):
    """The parsed JSON document at ``path``; invalid JSON raises ``error``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise error(f"invalid JSON in {path}: {exc}") from exc


def json_int(value, name: str, error: type[Exception]) -> int:
    """``value`` if it is a JSON integer, else raise ``error``."""
    if isinstance(value, bool) or not isinstance(value, int):
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
