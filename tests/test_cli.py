import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import stableseq
from stableseq import adversary as adv
from stableseq import cli
from stableseq.cli import main
from stableseq.estimator import checkpoint_from_dict, histogram_estimate
from stableseq.measures import read_sequence_csv
from stableseq.partitions import PiecewiseDyadicFn, total_variation_window


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

    def test_non_finite_model_number_exit2(self, tmp_path, capsys):
        # json reads the NaN literal; the model's total mass was NaN and
        # passed, and the stability report held NaN
        dist = {"atoms": [[0.5, 1.0]], "segments": [[0.0, 1.0, float("nan")]]}
        cfg = write_json(
            tmp_path / "c.json",
            {"kind": "iid", "n": 16, "seed": 7, "distribution": dist,
             "regression": RAMP, "noise": {"kind": "binary"}},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "regression",
        [{"kind": "dyadic", "fn": {"k": 1, "default": 0.0, "cells": [[1, float("nan")], [2, 0.0]]}},
         {"kind": "dyadic", "fn": {"k": 1, "default": float("inf"), "cells": [[1, 1.0]]}},
         {**RAMP, "vs": [float("nan"), 0.8]},
         {**RAMP, "lipschitz": float("nan")}],
        ids=["dyadic-cell-nan", "dyadic-default-inf", "vs-nan", "lipschitz-nan"],
    )
    def test_non_finite_regression_number_exit2(self, tmp_path, capsys, regression):
        # each was read, and the first three wrote nan or inf y values into sequence.csv
        cfg = write_json(
            tmp_path / "c.json",
            {"kind": "iid", "n": 16, "seed": 7, "distribution": UNIT_UNIFORM,
             "regression": regression},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "'regression'" in err and "is not a finite number" in err

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

    @pytest.mark.parametrize(
        "limits", [{"checkpoints": [16, 1000]}, {"checkpoints": [16, 200], "horizon": 128}],
        ids=["beyond-the-sequence", "beyond-the-horizon"],
    )
    def test_checkpoint_beyond_the_pairs_read_exit2(self, tmp_path, capsys, limits):
        # it wrote one row for the 16 and dropped the other, with exit 0
        seq_csv = self._sequence(tmp_path, n=256)
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "constant", "c": 2.0}, **limits,
             "truth": {"distribution": UNIT_UNIFORM, "regression": H1_DYADIC}},
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 2
        assert "'checkpoints' must be <=" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize(
        "limit", [{"stall_patience": 256}, {"require_resolution": 30}], ids=["stall", "required"]
    )
    def test_exit4_names_the_binding_window(self, tmp_path, capsys, limit):
        # the h4 target's variation 16 on (-1, 1] exceeds 4 * 2: the search sticks
        h4_cells = [[j, float(1 - (j - 1) % 2)] for j in range(1, 17)]
        gcfg = write_json(
            tmp_path / "g.json",
            {"kind": "deterministic", "n": 2000,
             "regression": {"kind": "dyadic", "fn": {"k": 4, "default": 0.0, "cells": h4_cells}}},
        )
        main(["generate", "--config", gcfg, "--out", str(tmp_path / "g")])
        seq_csv = str(tmp_path / "g" / "sequence.csv")
        cfg = write_json(
            tmp_path / "e.json",
            {"sequence": seq_csv, "alpha": {"kind": "affine", "slope": 2.0, "intercept": 0.5},
             **limit},
        )
        capsys.readouterr()
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        line = re.fullmatch(
            r"estimate stalled: search resolution (\d+) after (\d+) pairs, binding window "
            r"i=(\d+): V_i=(\S+), 4\*alpha\(i\)=(\S+)\n",
            captured.err,
        )
        k, n, i = int(line[1]), int(line[2]), int(line[3])
        chk = json.loads((tmp_path / "e" / "checkpoint.json").read_text())
        assert (k, n) == (len(chk["tau"]), chk["consumed"]) and 1 <= i <= k
        fn = histogram_estimate(read_sequence_csv(seq_csv), k, n)
        assert line[4] == repr(total_variation_window(fn, i))
        assert line[5] == repr(4.0 * (2.0 * i + 0.5))
        # the window that fails by the most, as exact sums order them
        excess = [Fraction(total_variation_window(fn, w)) - Fraction(8.0 * w + 2.0)
                  for w in range(1, k + 1)]
        assert excess[i - 1] == max(excess) > 0 and excess.index(max(excess)) == i - 1

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
         ({"stall_patience": "x"}, "'stall_patience'"), ({"alpha": []}, "'alpha'"),
         # the model readers take JSON numbers only
         ({"alpha": {"kind": "constant", "c": "2.0"}}, "'alpha'"),
         ({"alpha": {"kind": "constant", "c": True}}, "'alpha'"),
         ({"truth": {"distribution": UNIT_UNIFORM,
                     "regression": {**RAMP, "xs": ["0", 1]}}}, "'truth.regression'"),
         ({"truth": {"distribution": {"atoms": [[True, 0.5]], "segments": [[0.0, 1.0, 0.5]]},
                     "regression": RAMP}}, "'truth.distribution'"),
         # a NaN budget number was read, and no window could pass against it
         ({"alpha": {"kind": "table", "values": [1.0, float("nan")]}}, "'alpha'"),
         ({"alpha": {"kind": "affine", "slope": float("nan"), "intercept": 1.0}}, "'alpha'")],
        ids=["checkpoint-float", "truth-0", "patience-string", "alpha-array",
             "budget-string", "budget-bool", "regression-node-string", "atom-at-true",
             "budget-table-nan", "budget-slope-nan"],
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

    @pytest.mark.parametrize("name", ["plugin", "oracle", "constant"])
    def test_phi_name_is_its_kind_with_defaults(self, tmp_path, name):
        outs = []
        for tag, phi in (("name", name), ("object", {"kind": name})):
            cfg = write_json(
                tmp_path / f"{tag}.json",
                {"phi": phi, "n_blocks": 2, "horizon": 1 << 12, "block_budget": 1 << 11},
            )
            main(["adversary", "--config", cfg, "--out", str(tmp_path / tag)])
            outs.append(sorted(p.name for p in (tmp_path / tag).iterdir()))
        artifact = "witness.json" if name == "constant" else "report.json"
        assert outs[0] == outs[1] and artifact in outs[0]
        for art in outs[0]:
            assert (tmp_path / "name" / art).read_bytes() == (tmp_path / "object" / art).read_bytes()

    def _verify_edited(self, tmp_path, edit, phi="plugin"):
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": phi, "n_blocks": 3, "horizon": 1 << 13, "block_budget": 1 << 14},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        edit(report)
        vcfg = write_json(
            tmp_path / "v.json",
            {"sequence": str(tmp_path / "a" / "sequence.csv"),
             "report": write_json(tmp_path / "edited.json", report)},
        )
        return main(["verify", "--config", vcfg])

    def test_recorded_plugin_depth_beyond_bound_exit2(self, tmp_path, capsys):
        # the rebuilt fit would count into 2^40 + 1 cells
        def edit(report):
            report["phi"] = "plugin_histogram(offset=-100, max_depth=40)"

        assert self._verify_edited(tmp_path, edit) == 2
        assert "max_depth must be <= 22" in capsys.readouterr().err

    def test_boundaries_beyond_the_sequence_fail(self, tmp_path, capsys):
        # seq.x[:n_k] would truncate silently, so every other check passes
        def edit(report):
            report["blocks"][-1]["n_k"] = report["total_length"] = 10**9

        assert self._verify_edited(tmp_path, edit) == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1 and "block-boundaries-match-sequence" in fails[0]

    def test_boundaries_out_of_order_fail(self, tmp_path, capsys):
        def edit(report):
            report["blocks"][0]["n_k"] = report["blocks"][1]["n_k"]

        assert self._verify_edited(tmp_path, edit) == 1
        assert "FAIL  block-boundaries-match-sequence" in capsys.readouterr().out

    def test_edited_span_fails(self, tmp_path, capsys):
        # verify scans the spans again; the recorded ones are not taken on trust
        def edit(report):
            report["spans"][0].update(certified=False, max_observed=99)
            report["spans_ok"] = False

        assert self._verify_edited(tmp_path, edit) == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1 and "span-envelopes" in fails[0]

    def test_edited_oscillation_fails(self, tmp_path, capsys):
        # verify derives the oscillation fields from the boundary fits
        def edit(report):
            report.update(oscillation_ok=False, min_pairwise_sq_distance=0.001,
                          pairwise_distances_converged=False)

        assert self._verify_edited(tmp_path, edit, phi="oracle") == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1 and "pairwise-distances" in fails[0]
        for field in ("pairwise_distances_converged", "min_pairwise_sq_distance",
                      "oscillation_ok"):
            assert field in fails[0]

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda r: r["config"].update(block_source="vdc_shiftx"), "block_source"),
         (lambda r: r["config"].update(n_blocks=7), "config.n_blocks is 7"),
         (lambda r: r.update(finite_prefix_witness=False), "finite_prefix_witness"),
         (lambda r: r.update(oscillation_bound=0.5), "oscillation_bound")],
        ids=["block-source", "n-blocks", "finite-prefix-witness", "oscillation-bound"],
    )
    def test_edited_config_or_constant_exit2(self, tmp_path, capsys, edit, message):
        # verify never read these fields, and each edit verified with exit 0
        assert self._verify_edited(tmp_path, edit) == 2
        captured = capsys.readouterr()
        assert "bad report" in captured.err and message in captured.err

    @pytest.mark.parametrize(
        "field, value, check",
        [("interval_discrepancy", 0.09375000000050022, "block1-interval-discrepancy"),
         ("weighted_discrepancy", 0.09375000000050022, "block1-weighted-discrepancy"),
         ("l2_to_block_target", 5e-10, "block1-l2-certificate")],
    )
    def test_certificate_off_by_a_hair_fails(self, tmp_path, capsys, field, value, check):
        # verify recomputes each certificate with the splice's code on the
        # same prefix, so the float must be equal; these edits sat within the
        # 1e-12 (1e-9 for L2) that verify used to allow, and exited 0
        def edit(report):
            certs = report["blocks"][0]["certificates"]
            assert certs[field] == (0.0 if check.endswith("l2-certificate") else 0.09375000000000022)
            certs[field] = value

        assert self._verify_edited(tmp_path, edit, phi="oracle") == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1 and check in fails[0]

    @pytest.mark.parametrize(
        "edit",
        [lambda blocks: blocks[0]["certificates"].update(min_length_required=1),
         lambda blocks: blocks[1].update(l_k=8)],
        ids=["requirement-7-to-1", "next-l_k-7-to-8"],
    )
    def test_length_requirement_tied_to_next_thresholds(self, tmp_path, capsys, edit):
        # block 1's requirement is 1 * max(l_k, l_tilde_k) of block 2; each
        # edit exited 0, since only n_k >= min_length_required was checked
        def edit_report(report):
            blocks = report["blocks"]
            recorded = [(b["l_k"], b["l_tilde_k"], b["certificates"]["min_length_required"])
                        for b in blocks]
            assert recorded == [(4, 1, 7), (7, 4, 24), (7, 12, 72)]
            edit(blocks)

        assert self._verify_edited(tmp_path, edit_report, phi="oracle") == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1 and "block1-length-requirement" in fails[0]

    def test_edited_l2_converged_fails(self, tmp_path, capsys):
        def edit(report):
            report["blocks"][0]["certificates"]["l2_converged"] = False

        assert self._verify_edited(tmp_path, edit) == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1 and "block1-l2-certificate" in fails[0]

    def test_unedited_spans_pass(self, tmp_path, capsys):
        assert self._verify_edited(tmp_path, lambda report: None) == 0
        assert "PASS  span-envelopes  (2 spans recomputed" in capsys.readouterr().out

    @pytest.mark.parametrize("phi", ["plugin", "oracle"])
    def test_unedited_block_lengths_pass(self, tmp_path, capsys, phi):
        assert self._verify_edited(tmp_path, lambda report: None, phi=phi) == 0
        assert "PASS  block-lengths-on-check-schedule  (block lengths [" in capsys.readouterr().out

    def test_block_lengths_off_the_check_schedule_fail(self, tmp_path, capsys):
        # the oracle's blocks take 16, 16 and 64 pairs; a splice whose first
        # check is at 32 pairs never ends a block after 16
        def edit(report):
            assert [rec["n_k"] for rec in report["blocks"]] == [16, 32, 96]
            report["config"]["first_check"] = 32

        assert self._verify_edited(tmp_path, edit, phi="oracle") == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1 and "block-lengths-on-check-schedule" in fails[0]

    @pytest.mark.parametrize(
        "edit",
        [lambda r: r["blocks"][0].update(k=40),  # block 1 checked against nu_40
         lambda r: r["blocks"].reverse()],
        ids=["k-40", "reversed"],
    )
    def test_blocks_out_of_order_exit2(self, tmp_path, capsys, edit):
        assert self._verify_edited(tmp_path, edit) == 2
        assert "block 1 of the report has k = " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [lambda r: r["blocks"][0]["certificates"].update(min_length_required=7.9),
         lambda r: r["blocks"][0].update(n_k=16.5),
         lambda r: r["blocks"][0].update(n_k=float(r["blocks"][0]["n_k"])),
         lambda r: r["blocks"][0].update(k=1.0),
         lambda r: r.update(total_length=float(r["total_length"])),
         lambda r: r["blocks"][0].update(l_k=2.5),
         lambda r: r["blocks"][1].update(l_tilde_k=4.0)],
        ids=["min-length-7.9", "n_k-16.5", "n_k-float", "k-float", "total-length-float",
             "l_k-2.5", "l_tilde_k-float"],
    )
    def test_non_integer_report_field_exit2(self, tmp_path, capsys, edit):
        # each was truncated by int() and verified with exit 0
        assert self._verify_edited(tmp_path, edit, phi="oracle") == 2
        assert "is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [("horizon", 8192.0), ("seed", 0.5), ("first_check", 16.0),
         ("block_budget", 4096.5), ("horizon", True)],
    )
    def test_non_integer_config_field_exit2(self, tmp_path, capsys, field, value):
        # horizon 8192.0 crashed (exit 70), True failed a check (exit 1), the rest verified
        def edit(report):
            report["config"][field] = value

        assert self._verify_edited(tmp_path, edit, phi="oracle") == 2
        assert f"{value!r} is not an integer" in capsys.readouterr().err

    def test_unedited_oracle_report_verifies(self, tmp_path):
        assert self._verify_edited(tmp_path, lambda report: None, phi="oracle") == 0

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

    @pytest.mark.parametrize("max_index", [0, -5])
    def test_oracle_max_index_below_one_exit2(self, tmp_path, capsys, max_index):
        # such an oracle tried no index, fit h_1 whatever the data, and wrote
        # a consistency-violation witness (exit 5)
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": {"kind": "oracle", "max_index": max_index}, "n_blocks": 3,
             "horizon": 4096, "block_budget": 1024},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
        assert f"'phi.max_index' must be >= 1, got {max_index}" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_oracle_max_index_is_named_and_rebuilt(self, tmp_path, capsys):
        # the report named every oracle "oracle", so verify rebuilt max_index 12
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": {"kind": "oracle", "max_index": 3}, "n_blocks": 3, "horizon": 4096,
             "block_budget": 1024},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["phi"] == "oracle(max_index=3)"
        assert adv._procedure_from_name(report["phi"]).max_index == 3
        vcfg = write_json(
            tmp_path / "v.json",
            {"sequence": str(tmp_path / "a" / "sequence.csv"),
             "report": str(tmp_path / "a" / "report.json")},
        )
        capsys.readouterr()
        assert main(["verify", "--config", vcfg]) == 0
        out = capsys.readouterr().out
        assert "PASS  block3-l2-certificate" in out and "SKIP" not in out

    @staticmethod
    def _external(tmp_path, order="qs", value="0.5"):
        """An external estimator answering each query line with `value`, the
        query lines in the given order."""
        est = tmp_path / "est.py"
        est.write_text(
            "import sys\n"
            "lines = sys.stdin.read().splitlines()\n"
            "i = next(j for j, l in enumerate(lines) if l.startswith('QUERIES'))\n"
            "qs = lines[i + 1:]\n"
            f"for q in {order}:\n"
            f"    print(q, {value!r})\n"
        )
        return [sys.executable, str(est)]

    @pytest.mark.parametrize(
        "name", ["oracle", "oracle(max_index=3)", "plugin_histogram(offset=5)"]
    )
    def test_external_named_as_a_built_in_exit2(self, tmp_path, capsys, name):
        # verify would re-run the built-in procedure in place of the command
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": {"kind": "external", "cmd": self._external(tmp_path), "name": name},
             "n_blocks": 2, "horizon": 1 << 10, "block_budget": 64, "quad_cells": 1 << 10},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
        assert "'phi.name'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "order,value",
        [("qs", "nan"), ("qs", "inf"), ("qs", "1_0"), ("qs[::-1]", "0.5")],
        ids=["nan", "inf", "digit-separator", "out-of-order"],
    )
    def test_external_answer_not_a_finite_echo_exit2(self, tmp_path, capsys, order, value):
        # nan and inf gave exit 5 with NaN or Infinity in witness.json, 1_0 read
        # as 10, and the echoed x was never read
        cmd = self._external(tmp_path, order, value)
        cfg = write_json(
            tmp_path / "a.json",
            {"phi": {"kind": "external", "cmd": cmd}, "n_blocks": 2, "horizon": 1 << 10,
             "block_budget": 64, "quad_cells": 1 << 10},
        )
        assert main(["adversary", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert f"external estimator {sys.executable!r} answer line 1:" in err
        assert not (tmp_path / "a" / "witness.json").exists()

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

    def _iid_checkpoint(self, tmp_path):
        """(sequence path, checkpoint) of a 512-pair iid run, budget 1.0."""
        gcfg = write_json(
            tmp_path / "g.json",
            {"kind": "iid", "n": 512, "seed": 3, "distribution": UNIT_UNIFORM,
             "regression": RAMP, "noise": {"kind": "binary"}},
        )
        assert main(["generate", "--config", gcfg, "--out", str(tmp_path / "g")]) == 0
        seq = str(tmp_path / "g" / "sequence.csv")
        ecfg = write_json(
            tmp_path / "e.json", {"sequence": seq, "alpha": {"kind": "constant", "c": 1.0}}
        )
        assert main(["estimate", "--config", ecfg, "--out", str(tmp_path / "e")]) == 0
        return seq, json.loads((tmp_path / "e" / "checkpoint.json").read_text())

    def test_valid_checkpoint_prints_the_structure_checks(self, tmp_path, capsys):
        seq, chk = self._iid_checkpoint(tmp_path)
        capsys.readouterr()
        assert self._verify(tmp_path, seq, write_json(tmp_path / "c.json", chk)) == 0
        out = capsys.readouterr().out
        assert "PASS  frozen-count-equals-tau-count" in out
        assert "PASS  consumed-within-sequence" in out
        assert "PASS  stalled-at-equals-consumed  (stalled_at=None" in out
        assert "FAIL" not in out

    def test_stalled_checkpoint_verifies(self, tmp_path, capsys):
        seq, _ = self._iid_checkpoint(tmp_path)
        ecfg = write_json(
            tmp_path / "s.json",
            {"sequence": seq, "alpha": {"kind": "constant", "c": 1.0}, "stall_patience": 20},
        )
        assert main(["estimate", "--config", ecfg, "--out", str(tmp_path / "s")]) == 4
        chk = json.loads((tmp_path / "s" / "checkpoint.json").read_text())
        assert chk["stalled_at"] == chk["consumed"] > chk["tau"][-1]
        capsys.readouterr()
        assert self._verify(tmp_path, seq, str(tmp_path / "s" / "checkpoint.json")) == 0
        assert "PASS  stalled-at-equals-consumed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "edit, check",
        [
            # zip(tau, frozen) never reaches it, so no other check sees it
            (lambda c: c["frozen"].append({"k": 99, "default": 5.0, "cells": []}),
             "frozen-count-equals-tau-count"),
            (lambda c: c.update(consumed=10**9), "consumed-within-sequence"),
            # the replay would slice the sequence to all but its last 5 pairs
            (lambda c: c.update(consumed=-5), "consumed-within-sequence"),
            # the run did not stall, and a stall is where the stream stopped
            (lambda c: c.update(stalled_at=7), "stalled-at-equals-consumed"),
            (lambda c: c.update(stalled_at=c["consumed"] + 0.5), "stalled-at-equals-consumed"),
            # every writer writes the one-cell function with default 0
            (lambda c: c["frozen"][0].update(default=0.001), "frozen[0]-is-first-y"),
        ],
        ids=["extra-frozen", "consumed-1e9", "consumed-negative", "stalled-at-7",
             "stalled-at-not-an-int", "frozen0-default"],
    )
    def test_checkpoint_structure_edit_fails(self, tmp_path, capsys, edit, check):
        seq, chk = self._iid_checkpoint(tmp_path)
        edit(chk)
        capsys.readouterr()
        assert self._verify(tmp_path, seq, write_json(tmp_path / "c.json", chk)) == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1 and check in fails[0]

    @pytest.mark.parametrize(
        "edit",
        [lambda c: c.update(consumed=c["consumed"] + 0.9),
         lambda c: c["tau"].append(c["tau"].pop() + 0.4),
         lambda c: c["frozen"][-1].update(cells=[[float(j), v] for j, v in c["frozen"][-1]["cells"]]),
         lambda c: c["frozen"][-1].update(k=float(c["frozen"][-1]["k"])),
         lambda c: c["budget"].update(c=str(c["budget"]["c"])),
         lambda c: c["budget"].update(c=True)],
        ids=["consumed-float", "tau-float", "cell-index-float", "k-float", "budget-string",
             "budget-bool"],
    )
    def test_checkpoint_non_integer_exit2(self, tmp_path, capsys, edit):
        # each was truncated by int() or read by float() and verified with exit 0
        seq, chk = self._iid_checkpoint(tmp_path)
        edit(chk)
        capsys.readouterr()
        assert self._verify(tmp_path, seq, write_json(tmp_path / "c.json", chk)) == 2
        assert "bad report" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [lambda c: c["frozen"][-1]["cells"][0].__setitem__(1, float("nan")),
         lambda c: c["frozen"][-1].update(default=float("inf")),
         lambda c: c.update(budget={"kind": "table", "values": [1.0, float("nan")]})],
        ids=["cell-nan", "default-inf", "budget-table-nan"],
    )
    def test_checkpoint_non_finite_exit2(self, tmp_path, capsys, edit):
        # each was read, and failed a recomputation or variation check (exit 1)
        seq, chk = self._iid_checkpoint(tmp_path)
        edit(chk)
        capsys.readouterr()
        assert self._verify(tmp_path, seq, write_json(tmp_path / "c.json", chk)) == 2
        assert "bad report" in capsys.readouterr().err

    def test_checkpoint_read_per_function_equals_plain_parse(self, tmp_path):
        _, chk = self._iid_checkpoint(tmp_path)
        text = (tmp_path / "e" / "checkpoint.json").read_text()
        plain = checkpoint_from_dict(json.loads(text))
        hooked = json.loads(text, object_hook=PiecewiseDyadicFn.object_hook)
        assert all(type(f) is PiecewiseDyadicFn for f in hooked["frozen"])
        got = checkpoint_from_dict(hooked)
        assert got.keys() == plain.keys() and len(got["frozen"]) == len(chk["tau"]) > 3
        for key in ("budget", "consumed", "tau", "stalled_at"):
            assert got[key] == plain[key]
        for a, b in zip(got["frozen"], plain["frozen"]):
            assert (a.k, repr(a.default), a.cells.dtype) == (b.k, repr(b.default), b.cells.dtype)
            assert a.cells.tolist() == b.cells.tolist() and a.vals.tobytes() == b.vals.tobytes()

    @pytest.mark.parametrize(
        "edit",
        [lambda c: c["frozen"][2]["cells"][0].__setitem__(0, "3"),
         lambda c: c["frozen"][1]["cells"][0].__setitem__(1, float("nan")),
         lambda c: c["frozen"][1].update(k=1.5),
         # the budget is read before the estimates, and the estimates in order
         lambda c: (c["frozen"][1].update(k=1.5), c["budget"].update(c="x")),
         lambda c: (c["frozen"][2].update(k=1.5), c["frozen"][1].update(default="z")),
         lambda c: (c["frozen"][1].update(k=1.5), c["tau"].__setitem__(0, 1.0)),
         lambda c: c["frozen"][1].update(default=10**400),
         lambda c: c["frozen"][1].pop("cells"),
         # a syntax error after a malformed estimate is what a plain parse reports
         lambda c: c["frozen"][1].update(k=1.5) or "truncated"],
        ids=["string-cell", "nan-value", "k-float", "k-float-bad-budget", "two-bad-estimates",
             "k-float-bad-tau", "default-beyond-float", "cells-missing", "syntax-after-bad"],
    )
    def test_malformed_checkpoint_exits_as_a_plain_parse(self, tmp_path, capsys, edit):
        seq, chk = self._iid_checkpoint(tmp_path)
        truncated = edit(chk) == "truncated"
        text = json.dumps(chk)[:-40] if truncated else json.dumps(chk)
        path = tmp_path / "c.json"
        path.write_text(text)
        try:
            checkpoint_from_dict(json.loads(text))
        except (LookupError, TypeError, ValueError) as e:
            want = f"config error: bad report {str(path)!r}: {type(e).__name__}: {e}\n"
        except OverflowError as e:
            want = f"config error: {e}\n"
        capsys.readouterr()
        assert self._verify(tmp_path, seq, str(path)) == 2
        assert capsys.readouterr().err == want

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


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [["verify", "--seed", "3"], ["sweep", "--seed", "3"], ["generate", "--horizon", "9"],
         ["estimate", "--seed", "3"], ["verify", "--horizon", "9"], ["sweep", "--horizon", "9"]],
    )
    def test_flag_of_a_key_the_subcommand_never_reads_exit2(self, tmp_path, capsys, argv):
        # each was accepted, set a config key nothing read and exited 0
        cfg = write_json(tmp_path / "c.json", {})
        with pytest.raises(SystemExit) as e:
            main([*argv, "--config", cfg])
        assert e.value.code == 2
        assert f"unrecognized arguments: {argv[1]} {argv[2]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [("generate", ["--seed"]), ("estimate", ["--horizon"]),
         ("adversary", ["--seed", "--horizon"]), ("verify", []), ("sweep", [])],
    )
    def test_each_subcommand_lists_the_keys_it_reads(self, capsys, command, flags):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = re.findall(r"--(?:seed|horizon)\b", capsys.readouterr().out)
        assert sorted(set(listed)) == sorted(flags)


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


class TestMemory:
    def test_estimate_and_verify_traced_peak(self, tmp_path):
        # 2^14 van der Corput pairs: the traced peak of estimate then verify
        # was 12.4 MB with per-cell Python objects (the cell table, the
        # [j, v] lists of the checkpoint and their text, the parsed
        # checkpoint), and is 5.5 MB with the state, writer and reader on arrays
        ident = {"kind": "piecewise_linear", "xs": [0.0, 1.0], "vs": [0.0, 1.0]}
        gcfg = write_json(tmp_path / "g.json", {"kind": "deterministic", "n": 1 << 14,
                                                "regression": ident})
        assert main(["generate", "--config", gcfg, "--out", str(tmp_path)]) == 0
        seq = str(tmp_path / "sequence.csv")
        ecfg = write_json(tmp_path / "e.json", {
            "sequence": seq, "alpha": {"kind": "affine", "slope": 2.0, "intercept": 0.1},
            "truth": {"distribution": UNIT_UNIFORM, "regression": ident}})
        vcfg = write_json(tmp_path / "v.json",
                          {"sequence": seq, "report": str(tmp_path / "checkpoint.json")})
        tracemalloc.start()
        try:
            assert main(["estimate", "--config", ecfg, "--out", str(tmp_path)]) == 0
            assert main(["verify", "--config", vcfg]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
