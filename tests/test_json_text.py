"""The CLI's JSON writer reproduces `json.dumps(sort_keys=True, indent=2)`.

`cli._json_parts` writes dicts, lists and step functions itself, a
`PiecewiseDyadicFn` straight from its arrays (`write_json`) as the text of
its `to_dict()`;
the comparison is on the exact text, for any JSON value (cell-like pairs
included) and for checkpoints, drawn or written by the estimator.
"""
import json
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from stableseq.cli import _dump_json, _json_parts
from stableseq.estimator import EstimatorState, checkpoint_to_dict
from stableseq.partitions import _PIECE, PiecewiseDyadicFn, VariationBudget

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
# pairs that look like cells, which json's own path writes
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
    _json_parts(obj, "", out.append)
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


# -- step functions written from their arrays ------------------------------------

# cell values: finite, -0.0 and subnormal; keys up to 2^70 (object dtype past 2^62)
VALUES = st.one_of(FINITE, st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.0**-1060, 1e308]))
KEYS = st.one_of(st.integers(-8, 8), st.integers(-(2**70), 2**70))


@st.composite
def step_functions(draw, values=VALUES):
    k = draw(st.integers(0, 70))
    cells = [0] * draw(st.integers(0, 1)) if k == 0 else sorted(draw(st.sets(KEYS, max_size=6)))
    vals = draw(st.lists(values, min_size=len(cells), max_size=len(cells)))
    default = draw(st.sampled_from([0.0, -0.0, 0.5, 5e-324]))
    return PiecewiseDyadicFn(k, dict(zip(cells, vals)), default)


def _assert_checkpoint_text(path, state, stalled_at):
    chk = checkpoint_to_dict(state)
    chk["stalled_at"] = stalled_at
    _dump_json(chk, path)
    want = json.dumps(chk, sort_keys=True, indent=2, default=PiecewiseDyadicFn.to_dict)
    assert path.read_bytes() == (want + "\n").encode()


@given(st.lists(step_functions(), max_size=4), st.one_of(st.none(), st.integers(1, 99)))
def test_checkpoint_from_arrays_equals_json_dumps(tmp_path_factory, frozen, stalled_at):
    state = SimpleNamespace(
        budget=VariationBudget.affine(2.0, 0.1), consumed=100,
        tau=list(range(1, len(frozen) + 1)), frozen=frozen,
    )
    _assert_checkpoint_text(tmp_path_factory.mktemp("c") / "c.json", state, stalled_at)


@given(st.lists(st.tuples(st.floats(-2.0, 2.0), VALUES.filter(lambda v: abs(v) < 1e150)),
                min_size=1, max_size=60))
def test_estimator_checkpoint_equals_json_dumps(tmp_path_factory, pairs):
    state = EstimatorState(VariationBudget.const(0.5))
    state.ingest_many(*zip(*pairs))
    _assert_checkpoint_text(tmp_path_factory.mktemp("c") / "c.json", state, None)


@given(step_functions(values=FLOATS))
def test_non_finite_values_are_written_as_json_writes_them(fn):
    out = []
    _json_parts({"fn": fn}, "", out.append)
    assert "".join(out) == json.dumps({"fn": fn.to_dict()}, sort_keys=True, indent=2)


def test_more_cells_than_one_piece(tmp_path):
    # two full pieces and a partial one; keys past 2^62 and -0.0 among them
    js = list(range(-_PIECE, _PIECE + 3)) + [2**62, 2**70]
    vals = [(-0.0, 5e-324, 0.1 * j)[j % 3] for j in range(len(js))]
    frozen = [PiecewiseDyadicFn(3, dict(zip(js, vals))), PiecewiseDyadicFn(0, {0: -0.0})]
    state = SimpleNamespace(budget=VariationBudget.const(1.0), consumed=9, tau=[1, 2], frozen=frozen)
    assert len(frozen[0].cells) > 2 * _PIECE and frozen[0].cells.dtype == object
    _assert_checkpoint_text(tmp_path / "c.json", state, 9)
