"""The benchmark's runs reproduce its pinned artifact digests.

perfbench/digests.json pins the sha256 of every artifact each workload
writes.  The benchmark checks them only when it runs; these tests run each
workload's smoke-size stages and each one at its full size: stream-vdc
(2^16 pairs, frozen estimates to depth 16: about 3 s), stream-noisy (2^18
pairs, whose stability report evaluates mu and nu at up to 2^18 points:
about 2 s) and adversary-plugin (horizon 2^20, five blocks of 2^20 values
each: about 4 s), through the CLI in-process and compare, so a changed
output byte fails tier-1.  stream-vdc ignores the seed; the others run at
the pinned default seed.  perfbench/ is read, never written.
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
PINS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


def run_and_compare(profile: str, name: str) -> None:
    """Run the workload's stages in the work directory and compare every
    artifact with its pinned digest."""
    stages = WORKLOADS.WORKLOADS[name].configs(WORKLOADS.DEFAULT_SEED, profile)
    for i, (stage, cfg) in enumerate(stages):
        path = Path(f"{i}-{stage}.json")
        path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
        assert main([stage, "--config", str(path), "--out", "."]) == 0, stage
        digests = {
            art: hashlib.sha256(Path(art).read_bytes()).hexdigest()
            for art in WORKLOADS.STAGE_ARTIFACTS[stage]
        }
        assert digests == PINS[profile][name][stage], stage


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_smoke_artifacts_match_pins(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)  # the configs name their files relative to the work directory
    run_and_compare("smoke", name)
    assert "FAIL" not in capsys.readouterr().out


def test_full_stream_vdc_artifacts_match_pins(tmp_path, monkeypatch, capsys):
    assert not WORKLOADS.WORKLOADS["stream-vdc"].seeded
    monkeypatch.chdir(tmp_path)
    run_and_compare("full", "stream-vdc")
    assert "FAIL" not in capsys.readouterr().out


def test_full_stream_noisy_artifacts_match_pins(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_and_compare("full", "stream-noisy")
    assert "FAIL" not in capsys.readouterr().out


def test_full_adversary_plugin_artifacts_match_pins(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_and_compare("full", "adversary-plugin")
    assert "FAIL" not in capsys.readouterr().out
