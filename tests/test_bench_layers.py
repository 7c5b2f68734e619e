"""The layers the benchmark traces exist in the package.

``bench/tracer.py`` wraps every name in its ``LAYERS``, and a traced run
fails a workload whose ``intended_layers`` (``bench/workloads.py``) see no
calls.  A renamed or deleted function would crash a traced run long after
the change that removed it; this catches it in the test suite instead, and
replays one traced cycle of each workload the way ``bench/run.py --trace 1``
does.  The bench modules are only read: they load from source without
writing bytecode next to them, and nothing is written to ``bench/out/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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


def package_modules():
    return {
        name: module for name, module in sys.modules.items()
        if name == "arakelov_rr" or name.startswith("arakelov_rr.")
    }


@pytest.mark.parametrize("workload", ["euler_stream", "certificate_stream", "self_audit"])
def test_one_traced_cycle_reaches_every_intended_layer(workload, monkeypatch):
    # the replay of a traced benchmark run, on one seeded cycle: a fast path
    # that skips an intended layer, or a wrong answer, fails here first
    tracer = load_bench_module("tracer", monkeypatch)
    workloads = load_bench_module("workloads", monkeypatch)
    # run.py imports its neighbours by their plain names
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    run = load_bench_module("run", monkeypatch)
    spec = workloads.WORKLOADS[workload]
    cycle = next(workloads.cycles(spec, 1))
    in_use = package_modules()
    try:
        # a fresh import, as the runner traces it: the wrappers never reach
        # the modules the other tests use
        cli = run.load_cli()
        traced = tracer.Tracer()
        traced.install()
        tally = run.Tally()
        run.run_cycles(cli, [cycle], None, tally, traced)
        calls = traced.metrics()
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(in_use)
    assert tally.attempted == len(cycle)
    assert (tally.failed, tally.cases) == (0, [])
    assert [name for name in spec.intended_layers if not calls[f"{name}.calls"]] == []
