"""Workload definitions shared by run.py and the iteration process it starts.

A workload is a fixed list of CLI stages plus the JSON configs they read.
Configs use paths relative to the iteration's work directory, so artifact
bytes (curve_meta.json records the sequence path) do not depend on where
the checkout lives.
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7

_UNIFORM = {"atoms": [], "segments": [[0.0, 1.0, 1.0]]}
_IDENTITY = {
    "kind": "piecewise_linear",
    "xs": [0.0, 1.0],
    "vs": [0.0, 1.0],
    "monotone": True,
    "lipschitz": 1.0,
}
_RAMP = {
    "kind": "piecewise_linear",
    "xs": [0.0, 1.0],
    "vs": [0.2, 0.8],
    "monotone": False,
    "lipschitz": None,
}

# Artifacts each stage writes; verify writes none.
STAGE_ARTIFACTS = {
    "generate": ("sequence.csv", "stability_report.json"),
    "estimate": ("checkpoint.json", "curve.csv", "curve_meta.json"),
    "adversary": ("sequence.csv", "report.json"),
    "verify": (),
}


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]
    # False when the inputs are deterministic streams that ignore the seed;
    # then the pinned digests hold at every seed, not only the default one.
    seeded: bool
    sizes: dict  # profile ("full" | "smoke") -> size parameters

    def configs(self, seed: int, profile: str) -> list[tuple[str, dict]]:
        """(stage, config) pairs in run order."""
        size = self.sizes[profile]
        verify_stream = {"sequence": "sequence.csv", "report": "checkpoint.json"}
        if self.name == "stream-vdc":
            return [
                ("generate", {"kind": "deterministic", "n": size["n"], "regression": _IDENTITY}),
                (
                    "estimate",
                    {
                        "sequence": "sequence.csv",
                        "alpha": {"kind": "affine", "slope": 2.0, "intercept": 0.1},
                        "truth": {"distribution": _UNIFORM, "regression": _IDENTITY},
                    },
                ),
                ("verify", verify_stream),
            ]
        if self.name == "stream-noisy":
            return [
                (
                    "generate",
                    {
                        "kind": "iid",
                        "n": size["n"],
                        "seed": seed,
                        "distribution": _UNIFORM,
                        "regression": _RAMP,
                        "noise": {"kind": "uniform", "delta": 0.2},
                    },
                ),
                (
                    "estimate",
                    {
                        "sequence": "sequence.csv",
                        "alpha": {"kind": "constant", "c": 2.0},
                        "truth": {"distribution": _UNIFORM, "regression": _RAMP},
                    },
                ),
                ("verify", verify_stream),
            ]
        if self.name == "adversary-plugin":
            return [
                (
                    "adversary",
                    {
                        "phi": "plugin",
                        "n_blocks": 4,
                        "horizon": size["horizon"],
                        "block_budget": size["block_budget"],
                    },
                ),
                ("verify", {"sequence": "sequence.csv", "report": "report.json"}),
            ]
        raise ValueError(f"unknown workload {self.name!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stream-vdc",
            stages=("generate", "estimate", "verify"),
            seeded=False,
            sizes={"full": {"n": 1 << 16}, "smoke": {"n": 1 << 10}},
        ),
        Workload(
            name="stream-noisy",
            stages=("generate", "estimate", "verify"),
            seeded=True,
            sizes={"full": {"n": 1 << 18}, "smoke": {"n": 1 << 10}},
        ),
        Workload(
            name="adversary-plugin",
            stages=("adversary", "verify"),
            seeded=False,
            sizes={
                "full": {"horizon": 1 << 20, "block_budget": 1 << 18},
                "smoke": {"horizon": 1 << 12, "block_budget": 1 << 11},
            },
        ),
    )
}
