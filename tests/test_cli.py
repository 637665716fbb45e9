import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stableseq
from stableseq import adversary as adv
from stableseq import cli
from stableseq.cli import main
from stableseq.measures import read_sequence_csv


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


UNIT_UNIFORM = {"atoms": [], "segments": [[0.0, 1.0, 1.0]]}
RAMP = {"kind": "piecewise_linear", "xs": [0.0, 1.0], "vs": [0.2, 0.8]}
H1_DYADIC = {"kind": "dyadic", "fn": {"k": 1, "default": 0.0, "cells": [[1, 1.0], [2, 0.0]]}}


class TestGenerate:
    def test_harmonic_flags(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"kind": "harmonic_approach", "n": 100})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        seq = read_sequence_csv(tmp_path / "o" / "sequence.csv")
        assert np.all(np.diff(seq.x) > 0) and np.all(seq.x < 0)  # ascending toward 0
        rep = json.loads((tmp_path / "o" / "stability_report.json").read_text())
        assert rep["flag"] is True

    def test_seed_determinism(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {"kind": "iid", "n": 128, "seed": 7, "distribution": UNIT_UNIFORM,
             "regression": RAMP, "noise": {"kind": "binary"}},
        )
        main(["generate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["generate", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "sequence.csv").read_bytes() == (
            tmp_path / "b" / "sequence.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "stability_report.json").read_bytes() == (
            tmp_path / "b" / "stability_report.json"
        ).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {"kind": "iid", "n": 64, "seed": 7, "distribution": UNIT_UNIFORM,
             "regression": RAMP, "noise": {"kind": "binary"}},
        )
        main(["generate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["generate", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "8"])
        assert (tmp_path / "a" / "sequence.csv").read_bytes() != (
            tmp_path / "b" / "sequence.csv"
        ).read_bytes()

    def test_missing_key_exit2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"kind": "iid"})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "'n'" in capsys.readouterr().err

    def test_generator_precondition_exit3(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {"kind": "iid", "n": 8, "seed": 1, "distribution": UNIT_UNIFORM,
             "regression": {"kind": "piecewise_linear", "xs": [0, 1], "vs": [-0.5, 0.5]},
             "noise": {"kind": "binary"}},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_non_integer_n_exit2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"kind": "harmonic_approach", "n": "ten"})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "'n'" in capsys.readouterr().err

    def test_non_integer_seed_exit2(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json", {"kind": "harmonic_approach", "n": 10, "seed": "x"}
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad,path",
        [
            ({"n": "10"}, "'n'"),
            ({"n": 2.5}, "'n'"),
            ({"n": True}, "'n'"),
            ({"n": 0}, "'n'"),
            ({"seed": 1.5}, "'seed'"),
            ({"noise": {"kind": "uniform", "delta": "x"}}, "'noise.delta'"),
            ({"distribution": 0}, "'distribution'"),
            ({"diagnostic_checkpoints": [8, 4]}, "'diagnostic_checkpoints'"),
        ],
        ids=["n-string", "n-float", "n-bool", "n-0", "seed-float", "delta-string",
             "distribution-0", "checkpoints-unordered"],
    )
    def test_bad_value_exit2_names_key_path(self, tmp_path, capsys, bad, path):
        cfg = {"kind": "iid", "n": 16, "seed": 7, "distribution": UNIT_UNIFORM,
               "regression": RAMP, "noise": {"kind": "binary"}}
        cfg = write_json(tmp_path / "c.json", {**cfg, **bad})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert path in capsys.readouterr().err

    def test_ragged_transition_exit3(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {"kind": "markov", "n": 8, "states": [0.2, 0.8],
             "transition": [[0.5, 0.5], [1.0]], "regression": RAMP},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_x_beyond_the_regression_cells_exit2(self, tmp_path):
        # an atom at 1e308 has no cell index at the dyadic regression's resolution
        cfg = write_json(
            tmp_path / "c.json",
            {"kind": "iid", "n": 8, "distribution": {"atoms": [[1e308, 1.0]]},
             "regression": H1_DYADIC},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_reducible_markov_exit3(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {"kind": "markov", "n": 8, "seed": 1, "states": [0.2, 0.8],
             "transition": [[1.0, 0.0], [0.0, 1.0]], "regression": RAMP},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


class TestEstimate:
    def _sequence(self, tmp_path, n=512):
        cfg = write_json(
            tmp_path / "g.json",
            {"kind": "deterministic", "n": n, "regression": H1_DYADIC},
        )
        main(["generate", "--config", cfg, "--out", str(tmp_path / "g")])
        return str(tmp_path / "g" / "sequence.csv")

    def test_curve_and_checkpoint(self, tmp_path):
        seq_csv = self._sequence(tmp_path)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0},
             "checkpoints": [128, 512],
             "truth": {"distribution": UNIT_UNIFORM, "regression": H1_DYADIC}},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
        chk = json.loads((tmp_path / "e" / "checkpoint.json").read_text())
        assert chk["tau"][0] == 1 and chk["stalled_at"] is None
        lines = (tmp_path / "e" / "curve.csv").read_text().splitlines()
        assert lines[0] == "n,kappa,error"
        assert len(lines) == 3
        meta = json.loads((tmp_path / "e" / "curve_meta.json").read_text())
        assert meta["alpha"] == {"kind": "constant", "c": 2.0}

    def test_slack_budget_records_sprint(self, tmp_path):
        seq_csv = self._sequence(tmp_path, n=64)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 1e6}},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
        chk = json.loads((tmp_path / "e" / "checkpoint.json").read_text())
        assert chk["tau"] == list(range(1, 65))

    def test_stall_exit4_with_partial_outputs(self, tmp_path):
        h4_cells = [[j, float(1 - (j - 1) % 2)] for j in range(1, 17)]
        gcfg = write_json(
            tmp_path / "g.json",
            {"kind": "deterministic", "n": 2000,
             "regression": {"kind": "dyadic", "fn": {"k": 4, "default": 0.0, "cells": h4_cells}}},
        )
        main(["generate", "--config", gcfg, "--out", str(tmp_path / "g")])
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": str(tmp_path / "g" / "sequence.csv"),
             "alpha": {"kind": "constant", "c": 2.0}, "stall_patience": 256,
             "checkpoints": [64]},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 4
        chk = json.loads((tmp_path / "e" / "checkpoint.json").read_text())
        assert chk["stalled_at"] is not None and chk["tau"]  # partial output intact

    def test_require_resolution_exit4(self, tmp_path):
        seq_csv = self._sequence(tmp_path, n=64)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0},
             "require_resolution": 30},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 4

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        seq_csv = self._sequence(tmp_path, n=256)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0}},
        )
        main(["estimate", "--config", cfg, "--out", str(tmp_path / "r1")])
        main(["estimate", "--config", cfg, "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "checkpoint.json").read_bytes() == (
            tmp_path / "r2" / "checkpoint.json"
        ).read_bytes()

    def test_checkpoint_below_one_exit2(self, tmp_path):
        seq_csv = self._sequence(tmp_path, n=8)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0},
             "checkpoints": [0, 2, 3],
             "truth": {"distribution": UNIT_UNIFORM, "regression": H1_DYADIC}},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 2

    def test_horizon_below_one_exit2(self, tmp_path):
        seq_csv = self._sequence(tmp_path, n=8)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0}, "horizon": 0},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 2
        cfg = write_json(
            tmp_path / "e2.json", {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0}}
        )
        argv = ["estimate", "--config", cfg, "--out", str(tmp_path / "e2"), "--horizon", "0"]
        assert main(argv) == 2

    def test_non_integer_horizon_exit2(self, tmp_path, capsys):
        seq_csv = self._sequence(tmp_path, n=8)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0}, "horizon": "abc"},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 2
        assert "'horizon'" in capsys.readouterr().err

    def test_non_integer_require_resolution_exit2(self, tmp_path, capsys):
        seq_csv = self._sequence(tmp_path, n=8)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0},
             "require_resolution": "x"},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 2
        assert "'require_resolution'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad,path",
        [({"checkpoints": [2.5]}, "'checkpoints[0]'"), ({"truth": 0}, "'truth'"),
         ({"stall_patience": "x"}, "'stall_patience'"), ({"alpha": []}, "'alpha'")],
        ids=["checkpoint-float", "truth-0", "patience-string", "alpha-array"],
    )
    def test_bad_value_exit2_names_key_path(self, tmp_path, capsys, bad, path):
        seq_csv = self._sequence(tmp_path, n=8)
        cfg = {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0}, **bad}
        cfg = write_json(tmp_path / "e.json", cfg)
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("patience,code", [(-5, 2), (-1, 2), (0, 4)])
    def test_negative_stall_patience_exit2(self, tmp_path, capsys, patience, code):
        seq_csv = self._sequence(tmp_path, n=64)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0},
             "stall_patience": patience},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == code
        assert ("'stall_patience' must be >= 0" in capsys.readouterr().err) == (code == 2)

    def _estimate_csv(self, tmp_path, text):
        (tmp_path / "s.csv").write_text(text)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": str(tmp_path / "s.csv"), "alpha": {"kind": "constant", "c": 2.0}},
        )
        return main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")])

    def test_x_too_large_to_locate_exit2(self, tmp_path):
        assert self._estimate_csv(tmp_path, "i,x,y\n1,1e300,0.5\n") == 2

    def test_label_out_of_bounds_exit2(self, tmp_path, capsys):
        assert self._estimate_csv(tmp_path, "i,x,y\n1,0.5,1e300\n") == 2
        assert "2^512" in capsys.readouterr().err

    def test_empty_csv_exit2(self, tmp_path, capsys):
        assert self._estimate_csv(tmp_path, "") == 2
        assert "empty" in capsys.readouterr().err

    def test_short_csv_row_exit2(self, tmp_path, capsys):
        assert self._estimate_csv(tmp_path, "i,x,y\n1,0.5,1\n2,0.25\n") == 2
        assert "line 3 has 2 columns" in capsys.readouterr().err

    def test_digit_separator_exit2(self, tmp_path, capsys):
        assert self._estimate_csv(tmp_path, "i,x,y\n1,0.5,1\n2,1_0,0.5\n") == 2
        assert "line 3" in capsys.readouterr().err

    def test_single_pair_input(self, tmp_path):
        seq_csv = self._sequence(tmp_path, n=1)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0},
             "checkpoints": [1],
             "truth": {"distribution": UNIT_UNIFORM, "regression": H1_DYADIC}},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
        lines = (tmp_path / "e" / "curve.csv").read_text().splitlines()
        assert lines[1].startswith("1,0,")  # depth-0 estimate = first label


    def test_error_beyond_the_double_range_exit2(self, tmp_path, capsys):
        # (estimate - 1e308)^2 overflows: no curve.csv holding nan
        seq_csv = self._sequence(tmp_path, n=8)
        huge = {"kind": "piecewise_linear", "xs": [0, 1], "vs": [1e308, 0.8]}
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0},
             "truth": {"distribution": UNIT_UNIFORM, "regression": huge}},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not (tmp_path / "e" / "curve.csv").exists()


class TestAdversary:
    def test_plugin_run_and_verify(self, tmp_path):
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": "plugin", "n_blocks": 3, "horizon": 1 << 13, "block_budget": 1 << 14},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["finite_prefix_witness"] is True
        assert report["oscillation_ok"] and report["spans_ok"]
        vcfg = write_json(
            tmp_path / "v.json",
            {"sequence": str(tmp_path / "a" / "sequence.csv"),
             "report": str(tmp_path / "a" / "report.json")},
        )
        assert main(["verify", "--config", vcfg]) == 0

    def test_external_procedure_report_prints_skips(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": "plugin", "n_blocks": 2, "horizon": 1 << 12, "block_budget": 1 << 13},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        report["phi"] = "external"  # no procedure to rebuild from this name
        vcfg = write_json(
            tmp_path / "v.json",
            {"sequence": str(tmp_path / "a" / "sequence.csv"),
             "report": write_json(tmp_path / "ext.json", report)},
        )
        capsys.readouterr()
        assert main(["verify", "--config", vcfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        skips = [line.split()[1] for line in lines if line.startswith("SKIP")]
        assert skips == ["block-l2-certificates", "pairwise-distances"]
        assert not any("l2-certificate" in line for line in lines if line.startswith("PASS"))
        # a tampered discrepancy still fails: the exit code comes from the checks that ran
        report["blocks"][0]["certificates"]["interval_discrepancy"] += 1.0
        write_json(tmp_path / "ext.json", report)
        assert main(["verify", "--config", vcfg]) == 1

    @pytest.mark.parametrize(
        "phi",
        [{"kind": "plugin", "depth_offset": 3},
         {"kind": "plugin", "depth_offset": 1, "max_depth": 3}],
        ids=["offset-3", "offset-1-max_depth-3"],
    )
    def test_non_default_plugin_report_verifies(self, tmp_path, phi):
        # verify must rebuild the procedure the report names, not the default
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": phi, "n_blocks": 2, "horizon": 16384, "block_budget": 4096},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        vcfg = write_json(
            tmp_path / "v.json",
            {"sequence": str(tmp_path / "a" / "sequence.csv"),
             "report": str(tmp_path / "a" / "report.json")},
        )
        assert main(["verify", "--config", vcfg]) == 0
        if "max_depth" in phi:  # the default max_depth would not reproduce this run
            assert report["phi"] == "plugin_histogram(offset=1, max_depth=3)"
            seq = read_sequence_csv(tmp_path / "a" / "sequence.csv")
            checks = adv.verify_adversary_report(report, seq, adv.PluginHistogramProcedure(1))
            assert not all(ok for _, ok, _ in checks)

    @pytest.mark.parametrize("max_depth", [23, 40, 60])
    def test_plugin_depth_beyond_bound_exit2(self, tmp_path, capsys, max_depth):
        # each fit would count into 2^max_depth + 1 cells at this offset
        phi = {"kind": "plugin", "depth_offset": -100, "max_depth": max_depth}
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": phi, "n_blocks": 2, "horizon": 256, "block_budget": 64},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
        assert "'phi.max_depth' must be <= 22" in capsys.readouterr().err

    def test_constant_phi_witness_exit5(self, tmp_path):
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": {"kind": "constant", "c": 0.5}, "n_blocks": 2,
             "horizon": 1 << 10, "block_budget": 128},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 5
        w = json.loads((tmp_path / "a" / "witness.json").read_text())
        assert w["witness"] and w["block"] == 1
        assert (tmp_path / "a" / "sequence.csv").exists()

    def test_single_block_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "a.json", {"phi": "plugin", "n_blocks": 1})
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 2

    def test_horizon_exhausted_exit6(self, tmp_path):
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": "oracle", "n_blocks": 2, "horizon": 2, "block_budget": 64},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 6

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_blocks": "four"},
            {"horizon": "abc"},
            {"horizon": 0},
            {"block_budget": 0},
            {"first_check": 0},
            {"shift": 1.0},
            {"shift": -1e-300},
            {"quad_cells": 1000},
            {"block_source": "nope"},
            {"n_blocks": 2.5},
        ],
        ids=["n_blocks-four", "horizon-abc", "horizon-0", "block_budget-0",
             "first_check-0", "shift-1", "shift-tiny", "quad_cells-1000",
             "block_source-nope", "n_blocks-float"],
    )
    def test_bad_config_value_exit2(self, tmp_path, capsys, bad):
        cfg = write_json(
            tmp_path / "a.json", {"phi": "plugin", "n_blocks": 2, "horizon": 256, **bad}
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
        assert next(iter(bad)) in capsys.readouterr().err

    def test_block_shorter_than_budget_exit6(self, tmp_path):
        # the default block_budget (2^18) exceeds the 100-pair blocks: the
        # check after 64 pairs is followed by one at the block's end (not at
        # 128), and then the splice stops instead of reading past the block
        cfg = write_json(tmp_path / "a.json", {"phi": "plugin", "n_blocks": 2, "horizon": 100})
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 6
        w = json.loads((tmp_path / "a" / "witness.json").read_text())
        assert w["horizon_exhausted"] and "ran out after 100 pairs" in w["message"]

    def test_external_phi_through_subprocess(self, tmp_path):
        est = tmp_path / "est.py"
        est.write_text(
            "import sys\n"
            "lines = sys.stdin.read().splitlines()\n"
            "i = next(j for j, l in enumerate(lines) if l.startswith('QUERIES'))\n"
            "m = int(lines[i].split()[1])\n"
            "for q in lines[i+1:i+1+m]:\n"
            "    print(q, 0.5)\n"
        )
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": {"kind": "external", "cmd": [sys.executable, str(est)]},
             "n_blocks": 2, "horizon": 1 << 10, "block_budget": 64,
             "quad_cells": 1 << 10},
        )
        # a constant external estimator can never approach the block target
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 5

    def test_external_command_that_cannot_run_exit2(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": {"kind": "external", "cmd": [str(tmp_path / "absent")]},
             "n_blocks": 2, "horizon": 1 << 10, "block_budget": 64},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
        assert "cannot run external estimator" in capsys.readouterr().err

    def test_report_bytes_deterministic(self, tmp_path):
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": "plugin", "n_blocks": 2, "horizon": 1 << 12, "block_budget": 1 << 13},
        )
        main(["adversary", "--config", cfg, "--out", str(tmp_path / "r1")])
        main(["adversary", "--config", cfg, "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "report.json").read_bytes() == (
            tmp_path / "r2" / "report.json"
        ).read_bytes()
        assert (tmp_path / "r1" / "sequence.csv").read_bytes() == (
            tmp_path / "r2" / "sequence.csv"
        ).read_bytes()


class TestVerify:
    def test_tampered_checkpoint_fails(self, tmp_path):
        gcfg = write_json(
            tmp_path / "g.json", {"kind": "deterministic", "n": 128, "regression": H1_DYADIC}
        )
        main(["generate", "--config", gcfg, "--out", str(tmp_path / "g")])
        ecfg = write_json(
            tmp_path / "e.json",
            {"sequence": str(tmp_path / "g" / "sequence.csv"),
             "alpha": {"kind": "constant", "c": 2.0}},
        )
        main(["estimate", "--config", ecfg, "--out", str(tmp_path / "e")])
        chk = json.loads((tmp_path / "e" / "checkpoint.json").read_text())
        chk["frozen"][-1]["cells"][0][1] += 0.5
        (tmp_path / "e" / "tampered.json").write_text(json.dumps(chk))
        vcfg = write_json(
            tmp_path / "v.json",
            {"sequence": str(tmp_path / "g" / "sequence.csv"),
             "report": str(tmp_path / "e" / "tampered.json")},
        )
        assert main(["verify", "--config", vcfg]) == 1

    def _verify(self, tmp_path, sequence, report):
        vcfg = write_json(tmp_path / "v.json", {"sequence": sequence, "report": report})
        return main(["verify", "--config", vcfg])

    def _sequence(self, tmp_path):
        gcfg = write_json(
            tmp_path / "g.json", {"kind": "deterministic", "n": 64, "regression": H1_DYADIC}
        )
        main(["generate", "--config", gcfg, "--out", str(tmp_path / "g")])
        return str(tmp_path / "g" / "sequence.csv")

    def test_missing_sequence_exit2(self, tmp_path, capsys):
        report = write_json(tmp_path / "r.json", {"tau": [1]})
        assert self._verify(tmp_path, str(tmp_path / "absent.csv"), report) == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_missing_report_exit2(self, tmp_path):
        assert self._verify(tmp_path, self._sequence(tmp_path), str(tmp_path / "absent.json")) == 2

    def test_unparseable_report_exit2(self, tmp_path):
        (tmp_path / "r.json").write_text('{"tau": [1, 2')
        assert self._verify(tmp_path, self._sequence(tmp_path), str(tmp_path / "r.json")) == 2

    def test_block_without_certificates_exit2(self, tmp_path, capsys):
        report = write_json(
            tmp_path / "r.json",
            {"phi": "plugin_histogram(offset=5)", "blocks": [{"k": 1, "n_k": 16}]},
        )
        assert self._verify(tmp_path, self._sequence(tmp_path), report) == 2
        assert "certificates" in capsys.readouterr().err

    def test_x_too_large_to_locate_exit2(self, tmp_path):
        (tmp_path / "ok.csv").write_text("i,x,y\n1,0.5,1\n2,0.25,0\n")
        ecfg = write_json(
            tmp_path / "e.json",
            {"sequence": str(tmp_path / "ok.csv"), "alpha": {"kind": "constant", "c": 2.0}},
        )
        assert main(["estimate", "--config", ecfg, "--out", str(tmp_path / "e")]) == 0
        (tmp_path / "big.csv").write_text("i,x,y\n1,0.5,1\n2,1e300,0\n")
        report = str(tmp_path / "e" / "checkpoint.json")
        assert self._verify(tmp_path, str(tmp_path / "big.csv"), report) == 2

    def test_checkpoint_without_budget_exit2(self, tmp_path):
        report = write_json(tmp_path / "r.json", {"tau": [1], "consumed": 1, "frozen": []})
        assert self._verify(tmp_path, self._sequence(tmp_path), report) == 2


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*/*.json"))


class TestConfigs:
    """Every shipped experiment config runs through its subcommand."""

    def test_every_subcommand_has_configs(self):
        assert {p.parent.name for p in CONFIGS} == {"adversary", "generate", "sweep"}

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_runs_at_reduced_size(self, tmp_path, path):
        command = path.parent.name
        cfg = json.loads(path.read_text())
        small = 1 << 10
        extra = []
        if command == "sweep":
            exp = cfg["experiment"]
            exp["generator"]["n"] = small
            exp["checkpoints"] = [c for c in exp["checkpoints"] if c <= small]
        elif command == "generate":
            cfg["n"] = small
            cfg["diagnostic_checkpoints"] = [
                c for c in cfg["diagnostic_checkpoints"] if c <= small
            ]
        elif command == "adversary":
            extra = ["--horizon", str(1 << 12)]
        argv = [command, "--config", write_json(tmp_path / "c.json", cfg),
                "--out", str(tmp_path / "o"), *extra]
        assert main(argv) == 0


class TestSweep:
    def test_summary(self, tmp_path):
        cfg = write_json(
            tmp_path / "s.json",
            {"experiment": {"generator": {"kind": "deterministic", "n": 1024, "regression": H1_DYADIC},
                            "alpha": {"kind": "constant", "c": 2.0},
                            "checkpoints": [128, 1024]},
             "seeds": [1, 2, 3]},
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        lines = (tmp_path / "s" / "summary.csv").read_text().splitlines()
        assert lines[0] == "seed,n,kappa,error,stalled_at"
        assert len(lines) == 4
        for seed in (1, 2, 3):
            assert (tmp_path / "s" / f"curve_seed{seed}.csv").exists()

    def _sweep(self, tmp_path, generator, checkpoints):
        cfg = write_json(
            tmp_path / "s.json",
            {"experiment": {"generator": generator, "alpha": {"kind": "constant", "c": 2.0},
                            "checkpoints": checkpoints},
             "seeds": [1]},
        )
        return main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")])

    def test_bad_generator_value_names_key_path(self, tmp_path, capsys):
        generator = {"kind": "deterministic", "n": 2.5, "regression": H1_DYADIC}
        assert self._sweep(tmp_path, generator, [2]) == 2
        assert "'experiment.generator.n'" in capsys.readouterr().err

    def test_checkpoint_beyond_sequence_exit2(self, tmp_path, capsys):
        generator = {"kind": "deterministic", "n": 64, "regression": H1_DYADIC}
        assert self._sweep(tmp_path, generator, [32, 128]) == 2
        assert "within the sequence" in capsys.readouterr().err


    def test_negative_stall_patience_exit2(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "s.json",
            {"experiment": {"generator": {"kind": "deterministic", "n": 64, "regression": H1_DYADIC},
                            "alpha": {"kind": "constant", "c": 2.0},
                            "checkpoints": [64], "stall_patience": -5},
             "seeds": [1]},
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        assert "'experiment.stall_patience' must be >= 0" in capsys.readouterr().err


class TestInternalError:
    def test_unexpected_exception_exit70(self, tmp_path, monkeypatch, capsys):
        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_estimate", crash)
        cfg = write_json(tmp_path / "e.json", {})
        assert main(["estimate", "--config", cfg]) == cli.EXIT_INTERNAL == 70
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "harmonic_approach", "n": 10}))
        # the child imports the same stableseq as this process, installed or not
        src = str(Path(stableseq.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "stableseq.cli", "generate", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert (tmp_path / "o" / "sequence.csv").exists()
