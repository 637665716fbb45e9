"""The benchmark's smoke runs reproduce its pinned artifact digests.

perfbench/digests.json pins the sha256 of every artifact each workload
writes.  The benchmark checks them only when it runs; this test runs each
workload's smoke-size stages through the CLI in-process and compares, so a
changed output byte fails tier-1.  perfbench/ is read, never written.
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from stableseq.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks the module up while it is built
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = load_workloads()
PINS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))["smoke"]


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_smoke_artifacts_match_pins(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)  # the configs name their files relative to the work directory
    stages = WORKLOADS.WORKLOADS[name].configs(WORKLOADS.DEFAULT_SEED, "smoke")
    for i, (stage, cfg) in enumerate(stages):
        path = Path(f"{i}-{stage}.json")
        path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
        assert main([stage, "--config", str(path), "--out", "."]) == 0, stage
        assert "FAIL" not in capsys.readouterr().out, stage
        digests = {
            art: hashlib.sha256(Path(art).read_bytes()).hexdigest()
            for art in WORKLOADS.STAGE_ARTIFACTS[stage]
        }
        assert digests == PINS[name][stage], stage
