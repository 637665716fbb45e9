"""Config fuzz: junk at any key path exits with a documented code.

Small base configs cover every key that `cli.py` reads (checked by
`test_bases_run_and_cover_every_key_read`).  The fuzz replaces the value at
one key path, at any depth and inside arrays too, by one junk value and runs
the subcommand in-process: the exit must be a theory outcome or a config
error, never a verification failure (1) or an internal error (70).
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stableseq
from stableseq import cli
from stableseq.cli import main

UNIT = {"atoms": [[0.5, 0.25]], "segments": [[0.0, 1.0, 0.75]]}
RAMP = {"kind": "piecewise_linear", "xs": [0.0, 1.0], "vs": [0.2, 0.8]}
H1 = {"kind": "dyadic", "fn": {"k": 1, "default": 0.0, "cells": [[1, 1.0], [2, 0.0]]}}
# an external estimator that answers 0.5 to every query
CONSTANT_EST = (
    "import sys\n"
    "lines = sys.stdin.read().splitlines()\n"
    "i = next(j for j, s in enumerate(lines) if s.startswith('QUERIES'))\n"
    "for q in lines[i + 1:]:\n"
    "    print(q, 0.5)\n"
)
JUNK = ["x", -1, 0, None, 1e308, [], {}, True, 2.5, -1e-300]
ALLOWED_EXITS = {0, 2, 3, 4, 5, 6}


def bases(d: Path) -> list[tuple[str, dict]]:
    seq, chk = str(d / "g" / "sequence.csv"), str(d / "e" / "checkpoint.json")
    return [
        ("generate", {"kind": "iid", "n": 64, "seed": 1, "distribution": UNIT, "regression": RAMP,
                      "noise": {"kind": "uniform", "delta": 0.1},
                      "diagnostic_checkpoints": [16, 64]}),
        ("generate", {"kind": "markov", "n": 64, "seed": 1, "states": [0.2, 0.8],
                      "transition": [[0.5, 0.5], [0.5, 0.5]], "regression": RAMP,
                      "noise": {"kind": "binary"}}),
        ("generate", {"kind": "mixture", "n": 64, "seed": 2, "components": [
            {"weight": 0.5, "distribution": UNIT, "regression": RAMP},
            {"weight": 0.5, "distribution": UNIT, "regression": H1}]}),
        ("generate", {"kind": "deterministic", "n": 64, "regression": H1}),
        ("generate", {"kind": "harmonic_approach", "n": 64}),
        ("estimate", {"sequence": seq,
                      "alpha": {"kind": "affine", "slope": 2.0, "intercept": 0.1},
                      "checkpoints": [16, 64], "horizon": 64, "stall_patience": 1000,
                      "require_resolution": 1,
                      "truth": {"distribution": UNIT, "regression": RAMP}}),
        ("adversary", {"phi": {"kind": "plugin", "depth_offset": 3, "max_depth": 8},
                       "n_blocks": 2, "horizon": 256, "block_budget": 256, "first_check": 16,
                       "quad_cells": 1024, "block_source": "vdc_shift",
                       "shift": 1.4142135623730951, "seed": 0}),
        ("adversary", {"phi": {"kind": "constant", "c": 0.5}, "n_blocks": 2, "horizon": 128,
                       "block_budget": 32, "block_source": "iid"}),
        ("adversary", {"phi": {"kind": "oracle", "max_index": 4}, "n_blocks": 2,
                       "horizon": 256, "block_budget": 64}),
        ("adversary", {"phi": "constant", "n_blocks": 2, "horizon": 64, "block_budget": 16}),
        ("adversary", {"phi": {"kind": "external", "cmd": [sys.executable, "-c", CONSTANT_EST],
                               "name": "half"},
                       "n_blocks": 2, "horizon": 64, "block_budget": 16, "quad_cells": 1024}),
        ("verify", {"sequence": seq, "report": chk}),
        ("verify", {"sequence": str(d / "a" / "sequence.csv"),
                    "report": str(d / "a" / "report.json")}),
        ("sweep", {"experiment": {"generator": {"kind": "deterministic", "n": 64,
                                                "regression": RAMP},
                                  "alpha": {"kind": "table", "values": [1.0, 2.0]},
                                  "checkpoints": [16, 64], "stall_patience": 1000},
                   "seeds": [1, 2]}),
    ]


def key_paths(node, prefix=()):
    """Every key path below node: dict keys and array indices, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for k, v in items:
        yield prefix + (k,)
        yield from key_paths(v, prefix + (k,))


def replaced(node, path, value):
    node = json.loads(json.dumps(node))
    parent = node
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return node


def run(tmp: Path, command: str, cfg: dict) -> int:
    (tmp / "fuzz.json").write_text(json.dumps(cfg))
    return main([command, "--config", str(tmp / "fuzz.json"), "--out", str(tmp / "out")])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for command, cfg, out in [
        ("generate", {"kind": "deterministic", "n": 64, "regression": H1}, "g"),
        ("estimate", {"sequence": str(d / "g" / "sequence.csv"),
                      "alpha": {"kind": "constant", "c": 2.0}}, "e"),
        ("adversary", {"phi": "plugin", "n_blocks": 2, "horizon": 256, "block_budget": 256}, "a"),
    ]:
        (d / f"{out}.json").write_text(json.dumps(cfg))
        assert main([command, "--config", str(d / f"{out}.json"), "--out", str(d / out)]) == 0
    return d


@pytest.fixture(scope="module")
def cases(workdir):
    return [
        (command, base, path)
        for command, base in bases(workdir)
        for path in key_paths(base)
    ]


def test_bases_run_and_cover_every_key_read(workdir, monkeypatch, capsys):
    read = set()
    get = cli._get

    def recording_get(cfg, key, kind, default=cli._REQUIRED, lo=None, at=""):
        if isinstance(key, str):
            read.add(at + key)
        return get(cfg, key, kind, default, lo, at)

    monkeypatch.setattr(cli, "_get", recording_get)
    given_paths = set()
    for command, base in bases(workdir):
        assert run(workdir, command, base) in ALLOWED_EXITS, (command, capsys.readouterr().err)
        given_paths.update(".".join(k for k in p if isinstance(k, str)) for p in key_paths(base))

    def generic(path):  # a generator key means the same at the top and in a sweep
        return re.sub(r"\[\d+\]", "", path).removeprefix("experiment.generator.")

    read = {generic(p) for p in read}
    assert read <= {generic(p) for p in given_paths}, sorted(read)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_junk_value_exits_with_a_documented_code(workdir, cases, data, capsys):
    command, base, path = data.draw(st.sampled_from(cases), label="case")
    junk = data.draw(st.sampled_from(JUNK), label="junk")
    rc = run(workdir, command, replaced(base, path, junk))
    assert rc in ALLOWED_EXITS, (command, path, junk, capsys.readouterr().err)


@pytest.mark.parametrize(
    "command,key,fd",
    [("estimate", "sequence", 0), ("verify", "report", 1), ("verify", "sequence", 0)],
)
def test_integer_path_exits_2_and_touches_no_fd(workdir, tmp_path, command, key, fd):
    """open() takes an int as a file descriptor: a path key must be a string."""
    seq, chk = str(workdir / "g" / "sequence.csv"), str(workdir / "e" / "checkpoint.json")
    cfg = {"sequence": seq, "alpha": {"kind": "constant", "c": 2.0}, "report": chk, key: fd}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    script = (
        "import os, sys\n"
        "from stableseq.cli import main\n"
        f"rc = main([{command!r}, '--config', {str(tmp_path / 'c.json')!r}, '--out', "
        f"{str(tmp_path / 'o')!r}])\n"
        "os.fstat(1)\n"  # raises once fd 1 is closed
        "print(rc, len(sys.stdin.read()))\n"
    )
    stdin = "i,x,y\n1,0.5,1.0\n"
    src = str(Path(stableseq.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", str(len(stdin))]
    assert "must be a string" in proc.stderr
