"""The layers the benchmark traces exist in the package.

``bench/tracer.py`` wraps every name in its ``LAYERS``, and a traced run
fails a workload whose ``intended_layers`` (``bench/workloads.py``) see no
calls.  A renamed or deleted function would crash a traced run long after
the change that removed it; this catches it in the test suite instead.  The
bench modules are only read: they load from source without writing
bytecode next to them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def resolves(module_name, qualname):
    """Whether Tracer.install can find the layer: a module function is a
    module attribute, a method is in its class's own __dict__."""
    module = importlib.import_module(f"arakelov_rr.{module_name}")
    *classes, attr = qualname.split(".")
    if classes:
        cls = getattr(module, classes[0], None)
        return isinstance(cls, type) and attr in cls.__dict__
    return callable(getattr(module, attr, None))


def test_bench_layer_names_resolve_in_the_package(monkeypatch):
    tracer = load_bench_module("tracer", monkeypatch)
    workloads = load_bench_module("workloads", monkeypatch)
    traced = {layer.name for layer in tracer.LAYERS}
    intended = {name for w in workloads.WORKLOADS.values() for name in w.intended_layers}
    # a traced run reads each intended layer's counters from the tracer
    assert intended and intended <= traced
    unresolved = [
        name for name in sorted(traced) if not resolves(*name.split(".", 1))
    ]
    assert unresolved == []
