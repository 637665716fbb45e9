"""Command-line orchestration.

Subcommands: generate, estimate, adversary, verify, sweep.  All configs are
JSON files; all outputs are deterministic functions of (config, seed):
reports carry no timestamps, floats are written in shortest round-trip
form, and JSON keys are sorted.

Exit codes separate theory-meaningful outcomes from operational errors:

    0  success
    1  verification failure (verify subcommand)
    2  config or input error (missing/invalid keys, malformed model,
       unreadable or non-finite sequence CSV, missing or malformed report)
    3  generator precondition failure (noise/transition constraints)
    4  estimator stall (patience or required resolution not met;
       partial outputs are still written)
    5  consistency-violation witness from the adversary (witness files are
       written -- this is a success mode of the theory, not a crash)
    6  adversary horizon exhausted
   70  internal error: any other exception (traceback on stderr), so a
       crash never reads as a verification failure

External estimators are addressed by {"kind": "external", "cmd": [...]}:
per evaluation the command receives on stdin the prefix CSV (header
i,x,y), one line `QUERIES <m>`, then m query x-values one per line, and
must print m lines `x value`.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

from . import adversary as adv
from .estimator import checkpoint_to_dict, verify_checkpoint
from .evaluation import (
    ErrorCurve,
    consistency_curve,
    error_curve_csv_bytes,
    stream_checkpoints,
)
from .generators import (
    GeneratorError,
    RandomSource,
    gen_deterministic,
    gen_harmonic_approach,
    gen_iid,
    gen_markov,
    gen_nonergodic_mixture,
    markov_stationary_model,
)
from .measures import (
    DistributionModel,
    ModelError,
    read_sequence_csv,
    sequence_csv_bytes,
    stability_diagnostic,
)
from .partitions import VariationBudget
from .regression import RegressionModel, SignedMeasureModel

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_GENERATOR = 3
EXIT_STALL = 4
EXIT_WITNESS = 5
EXIT_HORIZON = 6
EXIT_INTERNAL = 70


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _int(value, key: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{key!r} must be an integer, got {value!r}") from e


def _dump_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _parse_model(d: dict) -> DistributionModel:
    try:
        return DistributionModel.from_dict(d)
    except (ModelError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad distribution model: {e}") from e


def _parse_regression(d: dict) -> RegressionModel:
    try:
        return RegressionModel.from_dict(d)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad regression model: {e}") from e


def _parse_budget(d: dict) -> VariationBudget:
    try:
        return VariationBudget.from_dict(d)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad variation budget: {e}") from e


def build_generated_sequence(cfg: dict, seed_override: int | None = None):
    """Run a generator spec; returns (sequence, mu, m, extra-metadata)."""
    kind = _require(cfg, "kind")
    n = _int(_require(cfg, "n"), "n")
    seed = _int(cfg.get("seed", 0), "seed") if seed_override is None else int(seed_override)
    noise_cfg = cfg.get("noise", {"kind": "none"})
    noise = noise_cfg.get("kind", "none")
    delta = float(noise_cfg.get("delta", 0.0))
    extra: dict = {}
    if kind == "iid":
        mu = _parse_model(_require(cfg, "distribution"))
        m = _parse_regression(_require(cfg, "regression"))
        seq = gen_iid(mu, m, noise, n, RandomSource(seed), delta=delta)
    elif kind == "markov":
        states = _require(cfg, "states")
        transition = _require(cfg, "transition")
        m = _parse_regression(_require(cfg, "regression"))
        seq = gen_markov(
            states, transition, m, n, RandomSource(seed), noise=noise, delta=delta
        )
        mu = markov_stationary_model(states, transition)
    elif kind == "deterministic":
        m = _parse_regression(_require(cfg, "regression"))
        seq = gen_deterministic(m, n)
        mu = DistributionModel.uniform(0.0, 1.0)
    elif kind == "harmonic_approach":
        seq = gen_harmonic_approach(n)
        mu = DistributionModel.point_mass(0.0)
        m = RegressionModel.constant(0.0)
    elif kind == "mixture":
        comps = []
        for c in _require(cfg, "components"):
            comps.append(
                (
                    float(_require(c, "weight")),
                    _parse_model(_require(c, "distribution")),
                    _parse_regression(_require(c, "regression")),
                )
            )
        seq, idx = gen_nonergodic_mixture(comps, noise, n, RandomSource(seed), delta=delta)
        _, mu, m = comps[idx]
        extra["chosen_component"] = idx
    else:
        raise ConfigError(f"unknown generator kind {kind!r}")
    return seq, mu, m, extra


def _default_checkpoints(n: int) -> list[int]:
    """Powers of two up to n (plus n itself), aligned with dyadic depths."""
    pts = {1 << j for j in range(4, n.bit_length()) if (1 << j) <= n}
    pts.add(n)
    pts.add(max(1, min(n, 16)))
    return sorted(pts)


def cmd_generate(cfg: dict, out: Path, seed_override: int | None) -> int:
    seq, mu, m, extra = build_generated_sequence(cfg, seed_override)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sequence.csv").write_bytes(sequence_csv_bytes(seq))
    checkpoints = cfg.get("diagnostic_checkpoints") or _default_checkpoints(len(seq))
    target = SignedMeasureModel(mu, m)
    report = stability_diagnostic(seq, mu, target, checkpoints).to_dict()
    report.update(extra)
    _dump_json(report, out / "stability_report.json")
    return EXIT_OK


def _read_sequence(path):
    try:
        return read_sequence_csv(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read sequence CSV {path!r}: {e}") from e


def cmd_estimate(cfg: dict, out: Path, seed_override, horizon_override) -> int:
    seq_path = _require(cfg, "sequence")
    seq = _read_sequence(seq_path)
    if len(seq) == 0:
        raise ConfigError(f"sequence CSV {seq_path!r} holds no pairs")
    budget = _parse_budget(_require(cfg, "alpha"))
    horizon = cfg.get("horizon")
    if horizon_override is not None:
        horizon = horizon_override
    n_max = len(seq) if horizon is None else min(_int(horizon, "horizon"), len(seq))
    patience = cfg.get("stall_patience")
    required = cfg.get("require_resolution")
    required = None if required is None else _int(required, "require_resolution")
    truth = cfg.get("truth")
    mu = m = None
    if truth is not None:
        mu = _parse_model(_require(truth, "distribution"))
        m = _parse_regression(_require(truth, "regression"))
    checkpoints = cfg.get("checkpoints") or _default_checkpoints(n_max)
    try:
        state, rows, stalled_at = stream_checkpoints(
            seq, budget, n_max, checkpoints, None if patience is None else int(patience), m, mu
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    except OverflowError as e:  # raised by cell_of, on an x in the sequence
        raise ConfigError(f"sequence x out of range: {e}") from e
    out.mkdir(parents=True, exist_ok=True)
    chk = checkpoint_to_dict(state)
    chk["stalled_at"] = stalled_at
    _dump_json(chk, out / "checkpoint.json")
    if truth is not None:
        curve = ErrorCurve(
            tuple(rows),
            {"alpha": budget.to_dict(), "sequence": str(seq_path)},
            stalled_at,
        )
        (out / "curve.csv").write_bytes(error_curve_csv_bytes(curve))
        (out / "curve_meta.json").write_text(
            curve.to_metadata_json() + "\n", encoding="utf-8"
        )
    if stalled_at is not None:
        return EXIT_STALL
    if required is not None and state.kappa() < required:
        return EXIT_STALL
    return EXIT_OK


def _make_phi(spec) -> object:
    if isinstance(spec, str):
        registry = adv.builtin_procedures()
        if spec not in registry:
            raise ConfigError(
                f"unknown estimator {spec!r}; built-ins: {sorted(registry)}"
            )
        return registry[spec]()
    if isinstance(spec, dict):
        kind = _require(spec, "kind")
        if kind == "external":
            return adv.ExternalProcedure(_require(spec, "cmd"), spec.get("name"))
        if kind == "plugin":
            return adv.PluginHistogramProcedure(
                depth_offset=int(spec.get("depth_offset", 5)),
                max_depth=int(spec.get("max_depth", 16)),
            )
        if kind == "constant":
            return adv.ConstantProcedure(float(spec.get("c", 0.5)))
        if kind == "oracle":
            return adv.OracleProcedure(max_index=int(spec.get("max_index", 12)))
        raise ConfigError(f"unknown estimator kind {kind!r}")
    raise ConfigError("phi must be a name or an object with a 'kind'")


def cmd_adversary(cfg: dict, out: Path, seed_override, horizon_override) -> int:
    _require(cfg, "n_blocks")
    phi = _make_phi(_require(cfg, "phi"))
    try:
        config = adv.AdversaryConfig.from_dict(
            {
                **cfg,
                **({"seed": seed_override} if seed_override is not None else {}),
                **({"horizon": horizon_override} if horizon_override is not None else {}),
            }
        )
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"bad adversary config: {e}") from e
    out.mkdir(parents=True, exist_ok=True)
    try:
        state, report = adv.build_adversarial_sequence(phi, config.n_blocks, config)
    except adv.ConsistencyViolationWitness as w:
        seq = w.state.sequence()
        (out / "sequence.csv").write_bytes(sequence_csv_bytes(seq))
        _dump_json(
            {
                "witness": True,
                "phi": getattr(phi, "name", repr(phi)),
                "block": w.k,
                "config": config.to_dict(),
                "l2_trajectory": [[int(n), float(d)] for n, d in w.trajectory],
                "message": str(w),
            },
            out / "witness.json",
        )
        print(f"consistency-violation witness written for block {w.k}", file=sys.stderr)
        return EXIT_WITNESS
    except adv.HorizonExhausted as e:
        _dump_json(
            {"horizon_exhausted": True, "config": config.to_dict(), "message": str(e)},
            out / "witness.json",
        )
        print(f"horizon exhausted: {e}", file=sys.stderr)
        return EXIT_HORIZON
    (out / "sequence.csv").write_bytes(sequence_csv_bytes(state.sequence()))
    _dump_json(report, out / "report.json")
    checks = [
        ("oscillation >= 1/20", bool(report["oscillation_ok"])),
        ("span envelopes <= 6/k", bool(report["spans_ok"])),
    ]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_VERIFY_FAILED


def cmd_verify(cfg: dict) -> int:
    seq = _read_sequence(_require(cfg, "sequence"))
    report_path = _require(cfg, "report")
    results = None
    try:  # an unreadable or malformed report is an input error, not a FAIL
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if "tau" in report:
            results = verify_checkpoint(seq, report)
        elif "blocks" in report:
            results = adv.verify_adversary_report(report, seq)
    except (OSError, LookupError, TypeError, ValueError) as e:
        raise ConfigError(f"bad report {report_path!r}: {type(e).__name__}: {e}") from e
    except OverflowError as e:  # raised by cell_of, on an x in the sequence
        raise ConfigError(f"sequence x out of range: {e}") from e
    if results is None:
        raise ConfigError(f"cannot tell what kind of report {report_path!r} is")
    all_ok = True
    for name, ok, detail in results:  # ok is None: the check was not re-run
        all_ok = all_ok and (ok is None or bool(ok))
        print(f"{'SKIP' if ok is None else 'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_sweep(cfg: dict, out: Path) -> int:
    exp = _require(cfg, "experiment")
    seeds = [int(s) for s in _require(cfg, "seeds")]
    gen_cfg = _require(exp, "generator")
    budget = _parse_budget(_require(exp, "alpha"))
    checkpoints = [int(c) for c in _require(exp, "checkpoints")]
    patience = exp.get("stall_patience")
    out.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    for seed in seeds:
        seq, mu, m, _ = build_generated_sequence(gen_cfg, seed_override=seed)
        curve = consistency_curve(
            seq, m, mu, budget, checkpoints, stall_patience=patience
        )
        (out / f"curve_seed{seed}.csv").write_bytes(error_curve_csv_bytes(curve))
        final = curve.rows[-1] if curve.rows else (0, -1, math.nan)
        summary_rows.append((seed, final[0], final[1], final[2], curve.stalled_at))
    lines = ["seed,n,kappa,error,stalled_at"]
    for seed, n, kappa, err, st in summary_rows:
        lines.append(f"{seed},{n},{kappa},{err!r},{'' if st is None else st}")
    (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stableseq",
        description="Histogram regression from individual stable sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "estimate", "adversary", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--horizon", type=int, default=None, help="override config horizon"
        )
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out = Path(args.out)
        if args.command == "generate":
            return cmd_generate(cfg, out, args.seed)
        if args.command == "estimate":
            return cmd_estimate(cfg, out, args.seed, args.horizon)
        if args.command == "adversary":
            return cmd_adversary(cfg, out, args.seed, args.horizon)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (GeneratorError, ModelError) as e:
        print(f"generator precondition failed: {e}", file=sys.stderr)
        return EXIT_GENERATOR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
