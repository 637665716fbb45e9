"""Command-line orchestration.

Subcommands: generate, estimate, adversary, verify, sweep.  All configs are
JSON files; all outputs are deterministic functions of (config, seed):
reports carry no timestamps, floats are written in shortest round-trip
form, and JSON keys are sorted.  Every JSON artifact is, byte for byte, the
text of `json.dumps(obj, sort_keys=True, indent=2)` plus a newline;
`_dump_json` writes that text straight to the file without json's
pure-Python indent encoder, and a checkpoint's step functions straight
from their cell and value arrays (`PiecewiseDyadicFn.write_json`).
`verify` reads a checkpoint one step function at a time
(`PiecewiseDyadicFn.object_hook`).

Every config key is read through `_get`, which checks the value's JSON type
and fixed range; a value that does not fit exits 2 with its key path, such
as 'experiment.generator.n'.  `--seed` (generate, adversary) and
`--horizon` (estimate, adversary) replace the config's `seed` and `horizon`
before it is read; the other subcommands read neither key and take neither
flag.

Exit codes separate theory-meaningful outcomes from operational errors:

    0  success
    1  verification failure (verify subcommand)
    2  config or input error (missing/invalid keys, malformed model,
       unreadable or non-finite sequence CSV, missing or malformed report,
       a value too large to handle, a failing external estimator)
    3  generator precondition failure (noise/transition constraints)
    4  estimator stall (patience or required resolution not met;
       partial outputs are still written; stderr names the binding window)
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
from .estimator import checkpoint_from_dict, checkpoint_to_dict, verify_checkpoint
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
from .partitions import PiecewiseDyadicFn, VariationBudget
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


def _json_parts(obj, pad: str, write) -> None:
    """Write, piece by piece, the text of `json.dumps(obj, sort_keys=True,
    indent=2)` for obj at the indentation `pad`, a `PiecewiseDyadicFn`
    standing for its `to_dict()`.  Dicts with string keys, lists and step
    functions are written here; any other value, or a dict with other keys,
    is json's own text with pad after each newline (a JSON string never
    holds a raw newline)."""
    inner = pad + "  "
    if isinstance(obj, PiecewiseDyadicFn):
        obj.write_json(pad, write)
    elif isinstance(obj, dict) and obj and all(type(key) is str for key in obj):
        sep = "{\n"
        for key in sorted(obj):
            write(f"{sep}{inner}{json.dumps(key)}: ")
            _json_parts(obj[key], inner, write)
            sep = ",\n"
        write(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[\n"
        for item in obj:
            write(sep + inner)
            _json_parts(item, inner, write)
            sep = ",\n"
        write(f"\n{pad}]")
    else:
        write(json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad))


def _dump_json(obj: dict, path: Path) -> None:
    """Write obj as `json.dumps(obj, sort_keys=True, indent=2)` plus a
    newline, byte for byte, straight to the file as `_json_parts` makes the
    pieces; the text is never held whole."""
    with open(path, "w", encoding="utf-8") as fh:
        _json_parts(obj, "", fh.write)
        fh.write("\n")


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
    try:  # a dyadic regression too fine to integrate exactly
        nu = SignedMeasureModel(mu, m)
    except ValueError as e:
        raise ConfigError(f"bad 'regression': {e}") from e
    out.mkdir(parents=True, exist_ok=True)
    (out / "sequence.csv").write_bytes(sequence_csv_bytes(seq))
    try:  # checkpoints out of order or beyond the sequence
        report = stability_diagnostic(
            seq, mu, nu, checkpoints or _default_checkpoints(len(seq))
        ).to_dict()
    except ValueError as e:
        raise ConfigError(f"bad 'diagnostic_checkpoints': {e}") from e
    report.update(extra)
    _dump_json(report, out / "stability_report.json")
    return EXIT_OK


def _read_sequence(path: str):
    try:
        seq = read_sequence_csv(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read sequence CSV {path!r}: {e}") from e
    if len(seq) == 0:
        raise ConfigError(f"sequence CSV {path!r} holds no pairs")
    return seq


def cmd_estimate(cfg: dict, out: Path) -> int:
    seq_path = _get(cfg, "sequence", str)
    seq = _read_sequence(seq_path)
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
    if max(checkpoints) > n_max:
        raise ConfigError(
            f"'checkpoints' must be <= {n_max} (the pairs read), got {max(checkpoints)}"
        )
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
    if stalled_at is not None or (required is not None and state.kappa() < required):
        i, v, lim = state.binding_window()
        print(
            f"estimate stalled: search resolution {state.search_resolution} after "
            f"{state.consumed} pairs, binding window i={i}: V_i={v!r}, 4*alpha(i)={lim!r}",
            file=sys.stderr,
        )
        return EXIT_STALL
    return EXIT_OK


def _make_phi(cfg: dict) -> object:
    spec = _get(cfg, "phi", (str, dict))
    if isinstance(spec, str):  # a name is its kind's object with the defaults
        spec = {"kind": spec}
    kind = _get(spec, "kind", str, at="phi.")
    if kind == "external":
        cmd = _get(spec, "cmd", [str], at="phi.")
        if not cmd:
            raise ConfigError("'phi.cmd' must name a command")
        name = _get(spec, "name", str, None, at="phi.")
        if name is not None and adv._procedure_from_name(name) is not None:
            # verify would rebuild that built-in procedure in place of the command
            raise ConfigError(f"'phi.name' {name!r} names a built-in procedure")
        return adv.ExternalProcedure(cmd, name)
    if kind == "plugin":
        offset = _get(spec, "depth_offset", int, 5, at="phi.")
        max_depth = _get(spec, "max_depth", int, 16, at="phi.")
        try:
            return adv.PluginHistogramProcedure(depth_offset=offset, max_depth=max_depth)
        except ValueError as e:  # the procedure's bound on max_depth
            top = adv._PLUGIN_DEPTH_TOP
            raise ConfigError(f"'phi.max_depth' must be <= {top}, got {max_depth}") from e
    if kind == "constant":
        return adv.ConstantProcedure(_get(spec, "c", float, 0.5, at="phi."))
    if kind == "oracle":
        return adv.OracleProcedure(max_index=_get(spec, "max_index", int, 12, lo=1, at="phi."))
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
            report = json.load(fh, object_hook=PiecewiseDyadicFn.object_hook)
        if "tau" in report:
            report = checkpoint_from_dict(report)
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
        except ValueError as e:  # a checkpoint beyond the sequence
            raise ConfigError(str(e)) from e
        (out / f"curve_seed{seed}.csv").write_bytes(error_curve_csv_bytes(curve))
        n, kappa, err = curve.rows[-1] if curve.rows else (0, -1, math.nan)
        st = curve.stalled_at
        lines.append(f"{seed},{n},{kappa},{err!r},{'' if st is None else st}")
    (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


# the config keys a flag of the same name replaces, for the subcommands that read them
_OVERRIDES = {"generate": ("seed",), "estimate": ("horizon",), "adversary": ("seed", "horizon")}


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
        for key in _OVERRIDES.get(name, ()):
            p.add_argument(f"--{key}", type=int, help=f"override config {key}")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        overrides = {key: getattr(args, key) for key in _OVERRIDES.get(args.command, ())}
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
