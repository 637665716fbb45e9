"""Command-line orchestration.

Subcommands: generate, estimate, adversary, verify, sweep.  All configs are
JSON files; all outputs are deterministic functions of (config, seed):
reports carry no timestamps, floats are written in shortest round-trip
form, and JSON keys are sorted.

Every config key is read through `_get`, which checks the value's JSON type
and fixed range; a value that does not fit exits 2 with its key path, such
as 'experiment.generator.n'.  `--seed` and `--horizon` replace the config's
`seed` and `horizon` before it is read.

Exit codes separate theory-meaningful outcomes from operational errors:

    0  success
    1  verification failure (verify subcommand)
    2  config or input error (missing/invalid keys, malformed model,
       unreadable or non-finite sequence CSV, missing or malformed report,
       a value too large to handle, a failing external estimator)
    3  generator precondition failure (noise/transition constraints)
    4  estimator stall (patience or required resolution not met;
       partial outputs are still written)
    5  consistency-violation witness from the adversary (witness files are
       written -- this is a success mode of the theory, not a crash)
    6  adversary horizon exhausted
   70  internal error: any other exception (traceback on stderr), so a
       crash never reads as a verification failure

External estimators are addressed by {"kind": "external", "cmd": [...]}:
per evaluation the command receives on stdin the prefix in the
sequence.csv format (header i,x,y), one line `QUERIES <m>`, then m query
x-values one per line, and must print m lines `x value`.
"""
from __future__ import annotations

import argparse
import dataclasses
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


_REQUIRED = dataclasses.MISSING  # the default of a key that must be given
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", dict: "an object"}
_KIND_NAMES[str, dict] = "a name or an object"


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return cfg


def _get(cfg, key, kind, default=_REQUIRED, lo=None, at: str = ""):
    """cfg[key] checked against `kind`: int (a JSON integer, not a bool), float
    (a finite JSON number, returned as a float), str, dict (a JSON object),
    (str, dict), or [kind] (a JSON array of kind).  An absent or null key takes
    `default`, and is an error without one.  `lo` bounds a number, or each
    array element, from below.  `at` is the path of cfg in the config, such as
    "experiment.generator."; each ConfigError names the key's full path."""
    path = f"{at}[{key}]" if isinstance(key, int) else at + key
    value = cfg[key] if isinstance(key, int) else cfg.get(key)
    if value is None and not isinstance(key, int):
        if default is _REQUIRED:
            raise ConfigError(f"config is missing required key {path!r}")
        return default
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path!r} must be an array, got {value!r}")
        return [_get(value, i, kind[0], lo=lo, at=path) for i in range(len(value))]
    if kind is float:  # abs(nan) and abs(inf) fail the bound
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind) and type(value) is not bool
    if not ok:
        raise ConfigError(f"{path!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{path!r} must be >= {lo}, got {value!r}")
    return float(value) if kind is float else value


def _parse(builder, cfg: dict, key: str, at: str = ""):
    """builder(cfg[key]) for a model given as a JSON object: a distribution,
    regression or budget; the builder's errors become ConfigError."""
    value = _get(cfg, key, dict, at=at)
    try:
        return builder(value)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad {at + key!r}: {type(e).__name__}: {e}") from e


def _dump_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def build_generated_sequence(cfg: dict, at: str = ""):
    """Run the generator spec cfg, found at path `at` of the config;
    returns (sequence, mu, m, extra-metadata)."""
    kind = _get(cfg, "kind", str, at=at)
    n = _get(cfg, "n", int, lo=1, at=at)
    seed = _get(cfg, "seed", int, 0, at=at)
    noise_cfg = _get(cfg, "noise", dict, {}, at=at)
    noise = _get(noise_cfg, "kind", str, "none", at=at + "noise.")
    delta = _get(noise_cfg, "delta", float, 0.0, at=at + "noise.")
    extra: dict = {}
    if kind == "iid":
        mu = _parse(DistributionModel.from_dict, cfg, "distribution", at)
        m = _parse(RegressionModel.from_dict, cfg, "regression", at)
        seq = gen_iid(mu, m, noise, n, RandomSource(seed), delta=delta)
    elif kind == "markov":
        states = _get(cfg, "states", [float], at=at)
        transition = _get(cfg, "transition", [[float]], at=at)
        m = _parse(RegressionModel.from_dict, cfg, "regression", at)
        seq = gen_markov(states, transition, m, n, RandomSource(seed), noise=noise, delta=delta)
        mu = markov_stationary_model(states, transition)
    elif kind == "deterministic":
        m = _parse(RegressionModel.from_dict, cfg, "regression", at)
        seq = gen_deterministic(m, n)
        mu = DistributionModel.uniform(0.0, 1.0)
    elif kind == "harmonic_approach":
        seq = gen_harmonic_approach(n)
        mu = DistributionModel.point_mass(0.0)
        m = RegressionModel.constant(0.0)
    elif kind == "mixture":
        comps = [
            (
                _get(c, "weight", float, at=f"{at}components[{i}]."),
                _parse(DistributionModel.from_dict, c, "distribution", f"{at}components[{i}]."),
                _parse(RegressionModel.from_dict, c, "regression", f"{at}components[{i}]."),
            )
            for i, c in enumerate(_get(cfg, "components", [dict], at=at))
        ]
        seq, idx = gen_nonergodic_mixture(comps, noise, n, RandomSource(seed), delta=delta)
        _, mu, m = comps[idx]
        extra["chosen_component"] = idx
    else:
        raise ConfigError(f"unknown generator kind {kind!r} at {at + 'kind'!r}")
    return seq, mu, m, extra


def _default_checkpoints(n: int) -> list[int]:
    """Powers of two up to n (plus n itself), aligned with dyadic depths."""
    pts = {1 << j for j in range(4, n.bit_length()) if (1 << j) <= n}
    pts.add(n)
    pts.add(max(1, min(n, 16)))
    return sorted(pts)


def cmd_generate(cfg: dict, out: Path) -> int:
    seq, mu, m, extra = build_generated_sequence(cfg)
    checkpoints = _get(cfg, "diagnostic_checkpoints", [int], None, lo=1)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sequence.csv").write_bytes(sequence_csv_bytes(seq))
    try:  # checkpoints out of order or beyond the sequence
        report = stability_diagnostic(
            seq, mu, SignedMeasureModel(mu, m), checkpoints or _default_checkpoints(len(seq))
        ).to_dict()
    except ValueError as e:
        raise ConfigError(f"bad 'diagnostic_checkpoints': {e}") from e
    report.update(extra)
    _dump_json(report, out / "stability_report.json")
    return EXIT_OK


def _read_sequence(path: str):
    try:
        return read_sequence_csv(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read sequence CSV {path!r}: {e}") from e


def cmd_estimate(cfg: dict, out: Path) -> int:
    seq_path = _get(cfg, "sequence", str)
    seq = _read_sequence(seq_path)
    if len(seq) == 0:
        raise ConfigError(f"sequence CSV {seq_path!r} holds no pairs")
    budget = _parse(VariationBudget.from_dict, cfg, "alpha")
    n_max = min(_get(cfg, "horizon", int, len(seq), lo=1), len(seq))
    patience = _get(cfg, "stall_patience", int, None, lo=0)
    required = _get(cfg, "require_resolution", int, None)
    truth = _get(cfg, "truth", dict, None)
    mu = m = None
    if truth is not None:
        mu = _parse(DistributionModel.from_dict, truth, "distribution", "truth.")
        m = _parse(RegressionModel.from_dict, truth, "regression", "truth.")
    checkpoints = _get(cfg, "checkpoints", [int], None, lo=1) or _default_checkpoints(n_max)
    try:
        state, rows, stalled_at = stream_checkpoints(
            seq, budget, n_max, checkpoints, patience, m, mu
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    out.mkdir(parents=True, exist_ok=True)
    chk = checkpoint_to_dict(state)
    chk["stalled_at"] = stalled_at
    _dump_json(chk, out / "checkpoint.json")
    if truth is not None:
        meta = {"alpha": budget.to_dict(), "sequence": seq_path}
        curve = ErrorCurve(tuple(rows), meta, stalled_at)
        (out / "curve.csv").write_bytes(error_curve_csv_bytes(curve))
        (out / "curve_meta.json").write_text(curve.to_metadata_json() + "\n", encoding="utf-8")
    if stalled_at is not None:
        return EXIT_STALL
    if required is not None and state.kappa() < required:
        return EXIT_STALL
    return EXIT_OK


def _make_phi(cfg: dict) -> object:
    spec = _get(cfg, "phi", (str, dict))
    if isinstance(spec, str):
        registry = adv.builtin_procedures()
        if spec not in registry:
            raise ConfigError(f"unknown estimator {spec!r}; built-ins: {sorted(registry)}")
        return registry[spec]()
    kind = _get(spec, "kind", str, at="phi.")
    if kind == "external":
        cmd = _get(spec, "cmd", [str], at="phi.")
        if not cmd:
            raise ConfigError("'phi.cmd' must name a command")
        return adv.ExternalProcedure(cmd, _get(spec, "name", str, None, at="phi."))
    if kind == "plugin":
        offset = _get(spec, "depth_offset", int, 5, at="phi.")
        max_depth = _get(spec, "max_depth", int, 16, at="phi.")
        if max_depth > adv._PLUGIN_DEPTH_TOP:
            raise ConfigError(f"'phi.max_depth' must be <= {adv._PLUGIN_DEPTH_TOP}, got {max_depth}")
        return adv.PluginHistogramProcedure(depth_offset=offset, max_depth=max_depth)
    if kind == "constant":
        return adv.ConstantProcedure(_get(spec, "c", float, 0.5, at="phi."))
    if kind == "oracle":
        return adv.OracleProcedure(max_index=_get(spec, "max_index", int, 12, at="phi."))
    raise ConfigError(f"unknown estimator kind {kind!r}")


def cmd_adversary(cfg: dict, out: Path) -> int:
    kinds = {"int": int, "float": float, "str": str}  # each field is read from its own key
    fields = dataclasses.fields(adv.AdversaryConfig)
    values = {f.name: _get(cfg, f.name, kinds[f.type], f.default) for f in fields}
    try:
        config = adv.AdversaryConfig(**values)
    except ValueError as e:
        raise ConfigError(f"bad adversary config: {e}") from e
    phi = _make_phi(cfg)
    out.mkdir(parents=True, exist_ok=True)
    try:
        state, report = adv.build_adversarial_sequence(phi, config.n_blocks, config)
    except adv.ExternalProcedureError as e:
        raise ConfigError(str(e)) from e
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
    seq = _read_sequence(_get(cfg, "sequence", str))
    report_path = _get(cfg, "report", str)
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
    if results is None:
        raise ConfigError(f"cannot tell what kind of report {report_path!r} is")
    all_ok = True
    for name, ok, detail in results:  # ok is None: the check was not re-run
        all_ok = all_ok and (ok is None or bool(ok))
        print(f"{'SKIP' if ok is None else 'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_sweep(cfg: dict, out: Path) -> int:
    exp = _get(cfg, "experiment", dict)
    seeds = _get(cfg, "seeds", [int])
    gen_cfg = _get(exp, "generator", dict, at="experiment.")
    budget = _parse(VariationBudget.from_dict, exp, "alpha", "experiment.")
    checkpoints = _get(exp, "checkpoints", [int], lo=1, at="experiment.")
    patience = _get(exp, "stall_patience", int, None, lo=0, at="experiment.")
    out.mkdir(parents=True, exist_ok=True)
    lines = ["seed,n,kappa,error,stalled_at"]
    for seed in seeds:
        seq, mu, m, _ = build_generated_sequence({**gen_cfg, "seed": seed}, "experiment.generator.")
        try:
            curve = consistency_curve(seq, m, mu, budget, checkpoints, stall_patience=patience)
        except ValueError as e:  # a checkpoint beyond the sequence, as in estimate
            raise ConfigError(str(e)) from e
        (out / f"curve_seed{seed}.csv").write_bytes(error_curve_csv_bytes(curve))
        n, kappa, err = curve.rows[-1] if curve.rows else (0, -1, math.nan)
        st = curve.stalled_at
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
        overrides = {"seed": args.seed, "horizon": args.horizon}
        cfg.update((k, v) for k, v in overrides.items() if v is not None)
        if args.command == "verify":
            return cmd_verify(cfg)
        command = {"generate": cmd_generate, "estimate": cmd_estimate,
                   "adversary": cmd_adversary, "sweep": cmd_sweep}[args.command]
        return command(cfg, Path(args.out))
    except (ConfigError, OverflowError) as e:  # OverflowError: a value too large to handle
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
