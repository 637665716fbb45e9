"""One benchmark iteration in a fresh process: set up, run the CLI stages, report.

Invoked by run.py, never imported by it.  Writes a JSON result (stage times,
exit codes, FAIL lines, artifact digests, peak RSS) and, when traced, the
spans of the iteration as an .npz file next to it.  Stdout and stdin are
pipes to run.py, used only to ask for host reference timings.

Times come from the monotonic clock, which is shared by all processes, so
`--t0-ns` (taken by the parent just before it started this process) lets
setup_s and wall_s include interpreter start-up.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import STAGE_ARTIFACTS, WORKLOADS


def _sha256(path: Path) -> str | None:
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def wait_for_host_reference() -> float:
    """Have run.py time its host reference task now; returns the seconds waited.

    The request is a "ref" line on stdout, the answer any line on stdin.  The
    task runs in run.py's process, so it leaves this process's peak RSS alone.
    """
    t = time.monotonic_ns()
    sys.stdout.write("ref\n")
    sys.stdout.flush()
    sys.stdin.readline()
    return (time.monotonic_ns() - t) / 1e9


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--profile", default="full", choices=("full", "smoke"))
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--iteration", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    from stableseq import cli

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    stages = WORKLOADS[args.workload].configs(args.seed, args.profile)
    for i, (stage, cfg) in enumerate(stages):
        Path(f"{i}-{stage}.json").write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    t_setup = time.monotonic_ns()
    result: dict = {"setup_s": (t_setup - args.t0_ns) / 1e9}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(args.iteration)
        tracer.install()

    calls = []
    waited = 0.0  # host reference before every stage and after the last, outside wall_s
    for i, (stage, _) in enumerate(stages):
        waited += wait_for_host_reference()
        out = io.StringIO()
        t = time.monotonic_ns()
        with contextlib.redirect_stdout(out):
            try:
                rc = cli.main([stage, "--config", f"{i}-{stage}.json", "--out", "."])
            except Exception:  # a crash fails this call; later stages still run
                traceback.print_exc()
                rc = "uncaught exception"
        elapsed = (time.monotonic_ns() - t) / 1e9
        lines = out.getvalue().splitlines()
        calls.append(
            {
                "stage": stage,
                "s": elapsed,
                "exit": rc,
                "fail_lines": [ln for ln in lines if ln.startswith("FAIL")],
            }
        )
    t_end = time.monotonic_ns()
    result["wall_s"] = (t_end - args.t0_ns) / 1e9 - waited
    wait_for_host_reference()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["calls"] = calls
    if tracer is not None:
        import numpy as np

        spans_path = Path(args.result).with_suffix(".npz")
        np.savez(spans_path, **tracer.arrays())
        result["trace"] = {
            "spans": str(spans_path),
            "names": tracer.names,
            "counters": tracer.counters,
            "marked": {k: list(v) for k, v in tracer.marked.items()},
        }
    # digests are taken after the timed region
    for call in calls:
        call["digests"] = {a: _sha256(Path(a)) for a in STAGE_ARTIFACTS[call["stage"]]}
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
