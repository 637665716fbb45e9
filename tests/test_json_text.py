"""The CLI's JSON writer reproduces `json.dumps(sort_keys=True, indent=2)`.

`cli._json_parts` writes dicts, lists and [int, finite float] cells itself;
the comparison is on the exact text, so the cell fast path's guard must
send every other pair (an int, bool or np.float64 second item, a
non-finite float, a length other than 2) down json's own path.
"""
import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from stableseq.cli import _dump_json, _json_parts

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf, 0.1]),
)
INTS = st.one_of(st.integers(), st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64)))
# escapes: quote, backslash, control characters; non-ASCII from the BMP and beyond
TEXT = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "ü ", "😀", ""]))
SCALARS = st.one_of(
    st.none(), st.booleans(), INTS, FLOATS, TEXT, FLOATS.map(np.float64)
)
# pairs that look like cells; only [int, finite float] may take the fast path
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SECOND_ITEMS = [FINITE, FLOATS, INTS, st.booleans(), FLOATS.map(np.float64)]
CELL_LISTS = st.one_of(
    *(st.lists(st.tuples(INTS, second).map(list), max_size=5) for second in SECOND_ITEMS),
    st.lists(st.tuples(st.booleans(), FINITE).map(list), max_size=5),
    st.lists(st.lists(st.one_of(INTS, FINITE), max_size=3), max_size=5),
)
JSON_VALUES = st.recursive(
    st.one_of(SCALARS, CELL_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=30,
)


@given(JSON_VALUES)
def test_text_equals_json_dumps(obj):
    out = []
    _json_parts(obj, "", out)
    assert "".join(out) == json.dumps(obj, sort_keys=True, indent=2)


def test_dump_json_writes_the_text_and_a_newline(tmp_path):
    obj = {
        "frozen": [{"k": 2, "default": 0.0, "cells": [[1, 0.25], [2, -0.0], [2**70, 5e-324]]}],
        "tau": [1, 3],
        "stalled_at": None,
        "ratio": math.inf,
        "name": "é",
        "empty": [{}, []],
    }
    _dump_json(obj, tmp_path / "o.json")
    expect = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "o.json").read_bytes() == expect.encode("utf-8")
