"""Every name the benchmark's tracer wraps or reports must still exist.

perfbench/spans.py wraps the public functions of the package's modules and
a list of methods (METHODS), and reports per-layer metrics by span name.  A
renamed, moved or deleted function raises nothing there: its metric reads
0 calls.  These checks fail instead.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def reported_span_names():
    """The span names layer_metrics reads: the tuples it loops over and
    the literal arguments of its get() calls."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    fn = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    )
    names = []
    for node in ast.walk(fn):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            names += [e.value for e in node.iter.elts if isinstance(e, ast.Constant)]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "get"
            and isinstance(node.args[0], ast.Constant)
        ):
            names.append(node.args[0].value)
    return names


def test_traced_methods_resolve():
    spans = load_spans()
    for short, cls_name, meth, _ in spans.METHODS:
        cls = getattr(importlib.import_module(f"stableseq.{short}"), cls_name)
        assert inspect.isfunction(cls.__dict__.get(meth)), f"{cls_name}.{meth}"


def test_reported_names_are_traced():
    spans = load_spans()
    method_spans = {name for *_, name in spans.METHODS}
    names = reported_span_names() + list(spans._OBSERVERS)
    assert "adversary.uniform_prefix_discrepancy" in names
    for name in names:
        if name in method_spans:
            continue
        short, attr = name.split(".")
        assert short in spans.MODULES, name
        obj = getattr(importlib.import_module(f"stableseq.{short}"), attr, None)
        # install() wraps a module's public functions defined in that module
        assert inspect.isfunction(obj), name
        assert not attr.startswith("_") and obj.__module__ == f"stableseq.{short}", name


def test_traced_scans_are_the_scans(monkeypatch):
    # the tracer rebinds module globals, as monkeypatch does here; a scan
    # that went around these names would read 0 calls in the benchmark
    adv = importlib.import_module("stableseq.adversary")
    calls = {"uniform_prefix_discrepancy": 0, "weighted_prefix_discrepancy": 0}
    evals = []

    def counting(name):
        real = getattr(adv, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    real_scan = adv.certified_prefix_scan

    def scan(*args, **kwargs):
        out = real_scan(*args, **kwargs)
        evals.append(len(out[2]))
        return out

    for name in calls:
        monkeypatch.setattr(adv, name, counting(name))
    monkeypatch.setattr(adv, "certified_prefix_scan", scan)
    horizon = 1 << 10
    block = adv.BlockStreams(adv.AdversaryConfig(n_blocks=2, horizon=horizon)).block(2)
    adv.compute_block_thresholds(2, block, horizon)
    assert len(evals) == 2 and min(evals) > 1
    assert list(calls.values()) == evals
