"""Span tracing of stableseq's layers from outside the package.

`Tracer.install()` wraps every public function of the eight stableseq
modules, plus a few hot methods, and rebinds each wrapper in every namespace
that holds the original (modules bind names with ``from .x import y``, so
patching only the defining module would miss those calls).  Each call
records one span: name, start, end, parent span and iteration id.  Spans stay
in compact in-memory arrays and are written once, when the iteration ends.

`layer_metrics()` turns the spans and counters of one iteration into the
per-layer metrics; self time of a span is its duration minus the durations
of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

MODULES = (
    "cli",
    "generators",
    "measures",
    "partitions",
    "regression",
    "estimator",
    "evaluation",
    "adversary",
)

# (module, class, method, span name)
METHODS = (
    ("estimator", "EstimatorState", "ingest", "estimator.ingest"),
    ("adversary", "BlockStreams", "block", "adversary.block_streams.block"),
    ("adversary", "BlockStreams", "xs", "adversary.block_streams.xs"),
    ("adversary", "BlockStreams", "ys", "adversary.block_streams.ys"),
    ("adversary", "PluginHistogramProcedure", "fit", "adversary.procedure_fit"),
    ("partitions", "PiecewiseDyadicFn", "eval_many", "partitions.eval_many"),
    ("regression", "RegressionModel", "eval", "regression.eval"),
    ("regression", "RegressionModel", "linear_piece_at", "regression.linear_piece_at"),
)


class Tracer:
    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, float] = {}
        self.marked: dict[str, array] = {}  # label -> span indices
        self._stack: list[int] = []
        self._seen_arrays: set[int] = set()

    # -- recording ---------------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self._intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(self, idx, args, result)
            return result

        return wrapper

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def mark(self, label: str, idx: int) -> None:
        self.marked.setdefault(label, array("q")).append(idx)

    def count_array_bytes(self, key: str, *arrays) -> None:
        """Add the size of each array not seen before (by identity)."""
        for a in arrays:
            if id(a) not in self._seen_arrays:
                self._seen_arrays.add(id(a))
                self.count(key, a.nbytes)

    # -- installation ----------------------------------------------------------------
    def install(self, package: str = "stableseq") -> None:
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        namespaces = [importlib.import_module(package), *mods.values()]
        replaced: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = self.wrap(name, obj, _OBSERVERS.get(name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    setattr(ns, attr, new)
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.wrap(name, cls.__dict__[meth], _OBSERVERS.get(name)))

    # -- export ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "iteration": np.full(n, self.iteration, dtype=np.int32),
        }


# -- counters taken where the work happens -------------------------------------------

def _obs_variation_check(t: Tracer, idx, args, result) -> None:
    if result:
        t.count("estimator.variation_check.passed")


def _obs_ingest(t: Tracer, idx, args, result) -> None:
    if result is not None:
        t.mark("estimator.ingest.freeze", idx)


def _obs_prefix_scan(t: Tracer, idx, args, result) -> None:
    lo, hi = args[1], args[2]
    t.count("adversary.certified_prefix_scan.evals", len(result[2]))
    t.count("adversary.certified_prefix_scan.covered", max(0, hi - lo + 1))


def _obs_block_seq(t: Tracer, idx, args, result) -> None:
    t.count_array_bytes("adversary.block_streams.bytes", result.x, result.y)


def _obs_block_array(t: Tracer, idx, args, result) -> None:
    t.count_array_bytes("adversary.block_streams.bytes", result)


_OBSERVERS = {
    "estimator.variation_check": _obs_variation_check,
    "estimator.ingest": _obs_ingest,
    "adversary.certified_prefix_scan": _obs_prefix_scan,
    "adversary.block_streams.block": _obs_block_seq,
    "adversary.block_streams.xs": _obs_block_array,
    "adversary.block_streams.ys": _obs_block_array,
}


# -- per-layer metrics ---------------------------------------------------------------

def span_stats(names: list[str], spans: dict[str, np.ndarray]):
    """Per-name (calls, inclusive seconds, durations) and per-module self seconds.

    Inclusive time counts only the outermost span of a name, so recursion
    through wrapped functions is not counted twice.
    """
    nid = spans["name_id"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64) / 1e9
    n = len(nid)
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_s = dur - child_sum[:n]
    nested = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            break
        nested[live] |= nid[anc[live]] == nid[live]
        anc[live] = parent[anc[live]]
    outer = ~nested
    per_name = {}
    for i, name in enumerate(names):
        sel = nid == i
        per_name[name] = {
            "calls": int(sel.sum()),
            "s": float(dur[sel & outer].sum()),
            "durations": dur[sel & outer],
        }
    per_module = {m: 0.0 for m in MODULES}
    self_by_name = np.bincount(nid, weights=self_s, minlength=len(names))
    for i, name in enumerate(names):
        per_module[name.split(".", 1)[0]] += float(self_by_name[i])
    return per_name, per_module, dur


def layer_metrics(
    names: list[str], spans: dict[str, np.ndarray], counters: dict, marked: dict
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration: name -> (value, unit)."""
    per_name, per_module, dur = span_stats(names, spans)
    empty = {"calls": 0, "s": 0.0, "durations": np.zeros(0)}

    def get(name):
        return per_name.get(name, empty)

    out: dict[str, tuple[float, str]] = {}

    def calls_s(name, metric=None):
        metric = metric or name
        out[f"{metric}.calls"] = (get(name)["calls"], "count")
        out[f"{metric}.s"] = (get(name)["s"], "s")

    for name in (
        "partitions.total_variation_window",
        "partitions.cell_of",
        "partitions.eval_many",
        "estimator.variation_check",
        "estimator.histogram_estimate",
        "evaluation.l2_error_exact",
        "evaluation.l2_error_quadrature",
        "measures.sup_interval_discrepancy",
        "measures.sup_weighted_discrepancy",
        "measures.cramer_distance",
        "measures.levy_distance",
        "measures.read_sequence_csv",
        "generators.van_der_corput",
        "adversary.compute_block_thresholds",
        "adversary.uniform_prefix_discrepancy",
        "adversary.weighted_prefix_discrepancy",
        "adversary.splice_next_block",
        "adversary.procedure_fit",
        "adversary.l2_unit_distance",
        "adversary.verify_adversary_report",
    ):
        calls_s(name)
    for name in (
        "estimator.verify_checkpoint",
        "measures.stability_diagnostic",
        "measures.sequence_csv_bytes",
        "generators.gen_iid",
        "generators.gen_deterministic",
    ):
        out[f"{name}.s"] = (get(name)["s"], "s")
    out["regression.linear_piece_at.calls"] = (get("regression.linear_piece_at")["calls"], "count")

    vc_calls = get("estimator.variation_check")["calls"]
    passed = int(counters.get("estimator.variation_check.passed", 0))
    out["estimator.variation_check.passed"] = (passed, "count")
    out["estimator.variation_check.pass_ratio"] = (passed / vc_calls if vc_calls else 0.0, "ratio")

    ingest = get("estimator.ingest")
    d = ingest["durations"]
    out["estimator.ingest.calls"] = (ingest["calls"], "count")
    out["estimator.ingest.us_per_pair"] = (float(d.mean()) * 1e6 if len(d) else 0.0, "us")
    out["estimator.ingest.p50_us"] = (float(np.percentile(d, 50)) * 1e6 if len(d) else 0.0, "us")
    out["estimator.ingest.p99_us"] = (float(np.percentile(d, 99)) * 1e6 if len(d) else 0.0, "us")
    freeze = np.asarray(marked.get("estimator.ingest.freeze", []), dtype=np.int64)
    out["estimator.ingest.freeze_calls"] = (len(freeze), "count")
    out["estimator.ingest.freeze_s"] = (float(dur[freeze].sum()) if len(freeze) else 0.0, "s")

    out["adversary.block_streams.s"] = (
        sum(get(f"adversary.block_streams.{m}")["s"] for m in ("block", "xs", "ys")),
        "s",
    )
    out["adversary.block_streams.bytes"] = (
        int(counters.get("adversary.block_streams.bytes", 0)),
        "bytes",
    )
    evals = int(counters.get("adversary.certified_prefix_scan.evals", 0))
    covered = int(counters.get("adversary.certified_prefix_scan.covered", 0))
    out["adversary.certified_prefix_scan.evals"] = (evals, "count")
    out["adversary.certified_prefix_scan.covered"] = (covered, "count")
    out["adversary.certified_prefix_scan.eval_ratio"] = (
        evals / covered if covered else 0.0,
        "ratio",
    )
    for mod, s in per_module.items():
        out[f"{mod}.self_s"] = (s, "s")
    return out
