"""Hypothesis strategies for garbage-in tests of the record readers:
arbitrary JSON values, and valid records with a few values replaced,
deleted or added. Also the samples and link ids of the writers'
byte-identity tests."""
from __future__ import annotations

import copy
import math

from hypothesis import strategies as st

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12)

DELETE = "<delete>"


def json_paths(value, prefix=()):
    """Every path into a JSON value, and for each object one new key."""
    if isinstance(value, dict):
        yield prefix + ("extra",)
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def replaced(record, changes):
    """The record with the value at each path replaced, or the entry deleted
    for ``DELETE``; a path that an earlier change cut off is skipped."""
    record = copy.deepcopy(record)
    for path, value in changes:
        parent = record
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value == DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass
    return record


def changed_records(record):
    """``record`` with one to three values, at any depth, replaced by
    arbitrary JSON, deleted, or added under a new key."""
    change = st.tuples(st.sampled_from(list(json_paths(record))),
                       JSON_VALUES | st.integers(-10**12, 10**12)
                       | st.just(DELETE))
    return st.lists(change, min_size=1, max_size=3).map(
        lambda changes: replaced(record, changes))


# Numbers at the edges of the writers' integer table, "0" to "1023", and of
# the text each format gives a float: JSON keeps -0.0's sign, CSV prints 0.
EDGE_NUMBERS = [0.0, -0.0, 1023.0, 1024.0, 0.5, 1023.5, -1.0, -1023.0,
                2.0**53, 1e16, 1e300, 5e-324, math.inf, -math.inf, math.nan]

# Sample lists of two or more: mostly table integers, so that a whole list
# is often printed from the table, with edge numbers mixed in; or any floats.
SAMPLE_LISTS = (st.lists(st.integers(0, 1100).map(float)
                         | st.sampled_from(EDGE_NUMBERS), min_size=2, max_size=40)
                | st.lists(st.floats(), min_size=2, max_size=40))

LINK_IDS = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", 'q"u\\o"te', "n\u00f6n-ascii", "\u2603", "\U0001f4e1", "tab\tnul\x00"])
