"""stableseq benchmark: CLI workloads end to end, and traced per-layer metrics.

    python3 perfbench/run.py --workload stream-vdc --seed 7 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one command
    python3 perfbench/run.py --smoke                 # tiny sizes, checks the output

Closed loop, one caller: each iteration is a fresh single-threaded Python
process (BLAS/OpenMP capped at one thread) that writes the workload's
configs and runs its stages through `stableseq.cli.main`; the next iteration
starts when the previous one has exited.  A run first starts a few
set-up-only processes, then iterates while the next iteration is expected
to end within `--seconds` of the run's start (at least one iteration).
Every artifact is hashed and checked: against pinned digests where they
apply (digests.json), else against the run's first iteration; any
unexpected exit code, FAIL line or digest mismatch fails that subcommand
call.

Before every stage of an iteration and after its last one, the runner
times a fixed reference task that does not use stableseq (host_reference;
the iteration waits, and leaves the wait out of wall_s).  `wall_in_refs` is
the iteration's wall time divided by the mean of those reference times.
The shared 2-core host this benchmark was built on changes speed by up to
half over minutes; raw seconds follow it, and the ratio varies about half
as much, so the ratio is the contract metric for iteration time.  `wall_s`
itself is still reported.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones (spans recorded around every public stableseq function, see
spans.py) plus the tracing overhead.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; BENCHMARK.json
names the metrics it carries.  Everything else -- all metrics of both kinds
with quartiles, the environment block, failures, and the ROADMAP baseline
cross-check -- goes to the lines above it and to .perfbench/results/.
Spans are written to .perfbench/traces/.  Both directories are inside the
checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 6  # extra set-up-only processes per run, for the setup_s median
ITERATION_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Re-anchor baseline recorded in ROADMAP.md, for the cross-check only.
ROADMAP_BASELINE = {
    "ingest_vdc_2^16_s": (1.4, 2.2),
    "ingest_us_per_pair": (22.0, 33.0),
    "adversary_2^20_s": 8.2,
    "adversary_2^20_peak_rss_mb": 508.0,
}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def host_reference() -> float:
    """Seconds for a fixed task that does not use stableseq: dict, sort, JSON, numpy.

    It mixes interpreter-bound and numpy work as the workloads do, so its
    time tracks how fast the host runs them at that moment.
    """
    import numpy as np

    t = time.monotonic_ns()
    d = {(i * 7919) % 1_000_003: i * 0.5 for i in range(200_000)}
    keys = sorted(d)
    json.dumps([[k, d[k]] for k in keys[:50_000]])
    a = np.random.default_rng(0).random(1 << 20)
    a.sort()
    return (time.monotonic_ns() - t) / 1e9


def environment(seed: int, workload: str, profile: str) -> dict:
    import numpy

    nproc = os.cpu_count() or 1
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True
                ).stdout.strip()
            )
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": cpu,
        "blas_openmp_threads": min(1, nproc),
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
        "workload": workload,
        "profile": profile,
        "sizes": WORKLOADS[workload].sizes[profile],
    }


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_iteration(workload: str, seed: int, profile: str, index: int, trace: bool, setup_only=False):
    """Start one iteration process and wait for it; returns its result or None."""
    work = STATE / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    result_path = STATE / "tmp" / f"{workload}-{index}{'-setup' if setup_only else ''}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "iteration.py"),
        "--root", str(ROOT),
        "--workload", workload,
        "--seed", str(seed),
        "--profile", profile,
        "--work", str(work),
        "--result", str(result_path),
        "--iteration", str(index),
        "--trace", "1" if trace else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(
        [*cmd, "--t0-ns", str(t0)],
        env=_child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + ITERATION_TIMEOUT_S
    refs = []
    try:
        # answer each "ref" line, the iteration's request for a reference timing
        while select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
            line = proc.stdout.readline()
            if not line:
                break
            if line.strip() == "ref":
                refs.append(host_reference())
                proc.stdin.write("\n")
                proc.stdin.flush()
        rc = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except (subprocess.TimeoutExpired, OSError) as exc:
        proc.kill()
        proc.wait()
        print(f"iteration {index} of {workload} failed: {exc!r}", file=sys.stderr)
        return None
    finally:
        proc.stdin.close()
        proc.stdout.close()
    if rc != 0 or not result_path.exists():
        print(f"iteration {index} of {workload} exited with {rc}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["process_s"] = (time.monotonic_ns() - t0) / 1e9
    result["host_ref_s"] = refs
    return result


class Checker:
    """Counts attempted and failed subcommand calls and names each failure."""

    def __init__(self, workload: str, seed: int, profile: str):
        w = WORKLOADS[workload]
        pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        applies = not w.seeded or seed == DEFAULT_SEED
        self.reference = pins[profile][workload] if applies else None
        self.pinned = applies
        self.stages = w.stages
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, index: int, result: dict | None) -> None:
        if result is None:
            self.attempted += len(self.stages)
            self.failed += len(self.stages)
            self.failures.append(f"iteration {index}: process failed")
            return
        for call in result["calls"]:
            self.attempted += 1
            stage = call["stage"]
            problems = []
            if call["exit"] != 0:
                problems.append(f"exit {call['exit']}")
            problems += call["fail_lines"]
            if self.reference is None:
                # unpinned seed: the first iteration sets the reference
                self.reference = {s: {} for s in self.stages}
                for c in result["calls"]:
                    self.reference[c["stage"]] = dict(c["digests"])
            for art, digest in call["digests"].items():
                if digest is None:
                    problems.append(f"{art} missing")
                elif digest != self.reference[stage].get(art):
                    problems.append(f"{art} digest mismatch")
            if problems:
                self.failed += 1
                self.failures.append(f"iteration {index} {stage}: {'; '.join(problems)}")


def e2e_metrics(workload: str, profile: str, setups: list[float], results: list[dict], checker: Checker):
    """End-to-end metrics: name -> (median, unit, q1, q3, samples)."""
    out = {}

    def put(name, values, unit):
        if values:
            q1, med, q3 = _quartiles(values)
            out[name] = (med, unit, q1, q3, len(values))

    put("setup_s", setups, "s")
    put("wall_s", [r["wall_s"] for r in results], "s")
    put("wall_in_refs", [r["wall_s"] / statistics.fmean(r["host_ref_s"]) for r in results], "refs")
    put("peak_rss_mb", [r["peak_rss_mb"] for r in results], "MB")
    stages = WORKLOADS[workload].stages
    for stage in stages:
        put(f"{stage}_s", [c["s"] for r in results for c in r["calls"] if c["stage"] == stage], "s")
    if "estimate" in stages:
        n = WORKLOADS[workload].sizes[profile]["n"]
        put(
            "estimate_pairs_per_s",
            [n / c["s"] for r in results for c in r["calls"] if c["stage"] == "estimate"],
            "1/s",
        )
    ratio = checker.failed / checker.attempted if checker.attempted else 1.0
    out["ops_failed_ratio"] = (ratio, "ratio", ratio, ratio, checker.attempted)
    return out


def layer_metrics_of(traced: list[dict]):
    """Median over traced iterations of each per-layer metric; also merged spans."""
    import numpy as np
    from spans import layer_metrics

    per_iter = []
    names: list[str] = []
    index: dict[str, int] = {}
    merged: dict[str, list] = {}
    for r in traced:
        t = r["trace"]
        spans = dict(np.load(t["spans"]))
        Path(t["spans"]).unlink()
        per_iter.append(layer_metrics(t["names"], spans, t["counters"], t["marked"]))
        for n in t["names"]:
            if n not in index:
                index[n] = len(names)
                names.append(n)
        remap = np.array([index[n] for n in t["names"]], dtype=np.int32)
        spans["name_id"] = remap[spans["name_id"]]
        for k, v in spans.items():
            merged.setdefault(k, []).append(v)
    out = {}
    for name in per_iter[0]:
        values = [m[name][0] for m in per_iter]
        q1, med, q3 = _quartiles(values)
        if all(isinstance(v, int) for v in values) and med == int(med):
            med = int(med)  # counts repeat exactly across iterations
        out[name] = (med, per_iter[0][name][1], q1, q3, len(values))
    return out, names, {k: np.concatenate(v) for k, v in merged.items()}


def baseline_check(workload: str, e2e: dict, layers: dict) -> dict | None:
    """Figures comparable to the ROADMAP re-anchor baseline (reported, never tuned)."""
    if workload == "stream-vdc":
        us = layers["estimator.ingest.us_per_pair"][0]
        lo, hi = ROADMAP_BASELINE["ingest_us_per_pair"]
        return {
            "ingest_us_per_pair_traced": us,
            "ingest_vdc_2^16_s_traced": us * (1 << 16) / 1e6,
            "estimate_s_untraced": e2e["estimate_s"][0],
            "roadmap_ingest_us_per_pair": [lo, hi],
            "roadmap_ingest_vdc_2^16_s": list(ROADMAP_BASELINE["ingest_vdc_2^16_s"]),
            "ingest_vs_roadmap": "below" if us < lo else "above" if us > hi else "within",
            "note": "traced ingest includes the span cost of ingest and of the cell_of calls "
            "inside it; estimate_s adds CSV read, checkpoint L2 errors and JSON output",
        }
    if workload == "adversary-plugin":
        secs, rss = e2e["adversary_s"][0], e2e["peak_rss_mb"][0]
        return {
            "adversary_s_untraced": secs,
            "peak_rss_mb_untraced": rss,
            "roadmap_adversary_2^20_s": ROADMAP_BASELINE["adversary_2^20_s"],
            "roadmap_adversary_2^20_peak_rss_mb": ROADMAP_BASELINE["adversary_2^20_peak_rss_mb"],
            "adversary_s_vs_roadmap": secs / ROADMAP_BASELINE["adversary_2^20_s"] - 1.0,
            "peak_rss_vs_roadmap": rss / ROADMAP_BASELINE["adversary_2^20_peak_rss_mb"] - 1.0,
            "note": "adversary_s times the CLI subcommand in a fresh process, without tracing",
        }
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, profile: str) -> dict:
    checker = Checker(workload, seed, profile)
    t_start = time.monotonic()
    setups = []
    for p in range(SETUP_PROBES):
        r = run_iteration(workload, seed, profile, p, trace=False, setup_only=True)
        if r is None:
            checker.check(-1, None)
        else:
            setups.append(r["setup_s"])
    untraced, traced = [], []
    index = 0
    while True:
        # a traced run alternates untraced and traced iterations, so that the
        # tracing overhead compares medians taken over the same stretch of time
        want_trace = trace and len(traced) < len(untraced)
        r = run_iteration(workload, seed, profile, index, trace=want_trace)
        checker.check(index, r)
        index += 1
        if r is None:
            break  # a crashed or hung process ends the run; the checker counted it
        setups.append(r["setup_s"])
        (traced if want_trace else untraced).append(r)
        if trace and not traced:
            continue  # a traced run always gets one traced iteration
        # start another iteration only if it is expected to end in time
        pool = traced if trace and len(traced) < len(untraced) else untraced
        expected = statistics.median(x["process_s"] for x in pool)
        if time.monotonic() - t_start + expected > seconds:
            break
    e2e = e2e_metrics(workload, profile, setups, untraced, checker)
    layers: dict = {}
    if traced:
        layers, names, spans = layer_metrics_of(traced)
        import numpy as np

        trace_dir = STATE / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        np.savez(trace_dir / f"{workload}.npz", names=np.array(names), **spans)
        overhead = statistics.median(r["wall_s"] for r in traced) - e2e["wall_s"][0]
        layers["trace.overhead_s"] = (overhead, "s", overhead, overhead, len(traced))
    env = environment(seed, workload, profile)
    refs = [x for r in untraced + traced for x in r["host_ref_s"]]
    env["host_ref_s"] = statistics.median(refs) if refs else None
    return {
        "workload": workload,
        "environment": env,
        "iterations": {"untraced": len(untraced), "traced": len(traced), "setup_samples": len(setups)},
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "digests_pinned": checker.pinned,
        "end_to_end": e2e,
        "per_layer": layers,
        "baseline_check": baseline_check(workload, e2e, layers) if traced else None,
    }


def _print_table(res: dict) -> None:
    w = res["workload"]
    for kind in ("end_to_end", "per_layer"):
        for name, (med, unit, q1, q3, n) in res[kind].items():
            print(f"{w:17s} {name:46s} {med:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    print(f"{w:17s} environment {json.dumps(res['environment'], sort_keys=True)}")
    for f in res["failures"]:
        print(f"{w:17s} FAILED {f}")
    if res["baseline_check"]:
        print(f"{w:17s} baseline-check {json.dumps(res['baseline_check'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one iteration, check the output")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stableseq" / "cli.py").is_file():
        print(f"stableseq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.smoke:
        from smoke import smoke

        return smoke(bench, run_workload, args.seed)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    contract = bench["per_layer"] if args.trace else bench["end_to_end"]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), "full")
        results.append(res)
        out_dir = STATE / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        _print_table(res)
    metrics = {}
    for res in results:
        kind = res["per_layer"] if args.trace else res["end_to_end"]
        prefix = "" if len(results) == 1 else f"{res['workload']}/"
        missing = [m["name"] for m in contract if m["name"] not in kind]
        if missing:
            print(f"{res['workload']}: no measurement of {missing}", file=sys.stderr)
            return 1
        for m in contract:
            value, unit = kind[m["name"]][:2]
            metrics[prefix + m["name"]] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
