"""Smoke mode: every workload once at tiny sizes, then check the benchmark's output.

Checks that each run is correct, that every end-to-end metric (BENCHMARK.json's
and the per-stage ones) and every per-layer metric (BENCHMARK.json's and
those named in movers.json) is emitted with a unit, and that the result file
written for each workload parses back.  Not part of the test suite; run it
with `python3 perfbench/run.py --smoke`.
"""
from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
STAGE_METRICS = {
    "generate": ("generate_s",),
    "estimate": ("estimate_s", "estimate_pairs_per_s"),
    "verify": ("verify_s",),
    "adversary": ("adversary_s",),
}


def smoke(bench: dict, run_workload, seed: int) -> int:
    movers = json.loads((HERE / "movers.json").read_text(encoding="utf-8"))
    layer_names = {m["name"] for m in bench["per_layer"]}
    layer_names |= {name for p in movers["predictions"] for name in p["metrics"]}
    layer_names.add("trace.overhead_s")
    out_dir = HERE.parent / ".perfbench" / "smoke"
    out_dir.mkdir(parents=True, exist_ok=True)
    problems = []
    for name, w in WORKLOADS.items():
        res = run_workload(name, seed, 0.0, True, "smoke")
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(res, sort_keys=True) + "\n", encoding="utf-8")
        res = json.loads(path.read_text(encoding="utf-8"))
        e2e_names = {m["name"] for m in bench["end_to_end"]} | {"ops_failed_ratio"}
        for stage in w.stages:
            e2e_names.update(STAGE_METRICS[stage])
        for kind, wanted in (("end_to_end", e2e_names), ("per_layer", layer_names)):
            for metric in sorted(wanted):
                entry = res[kind].get(metric)
                if entry is None or not isinstance(entry[0], (int, float)) or not entry[1]:
                    problems.append(f"{name}: {kind} metric {metric} missing or without unit")
        if res["failed"] or not res["attempted"]:
            problems.append(f"{name}: {res['failed']} of {res['attempted']} calls failed: {res['failures']}")
        print(f"smoke {name}: {len(res['end_to_end'])} end-to-end and "
              f"{len(res['per_layer'])} per-layer metrics, {res['attempted']} calls")
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1
