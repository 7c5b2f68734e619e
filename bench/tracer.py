"""Per-layer timing of the package, from outside it.

Each layer is a public function (or method) of one module.  ``Tracer``
replaces it, in every module namespace of the package that holds it,
with a wrapper that records a span (layer, start, end, parent span,
operation id) and adds to the layer's counters:

- ``calls``;
- ``self_s``: inclusive time minus the time spent in wrapped children;
- the extra counters named in ``LAYERS`` below.

Work done in pool worker processes is invisible to the wrappers; the
search layer reports it as ``children_cpu_s`` (the ``RUSAGE_CHILDREN``
CPU time that accrued during its calls).
"""

from __future__ import annotations

import resource
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

PACKAGE = "arakelov_rr"

#: Spans kept in memory per traced phase; later ones are only counted.
SPAN_CAP = 100_000


def _max(stat: dict, key: str, value: int) -> None:
    stat[key] = max(stat[key], value)


def _add(stat: dict, key: str, value) -> None:
    stat[key] += value


@dataclass(frozen=True)
class Layer:
    module: str
    qualname: str
    #: Extra counters of this layer, all starting at 0.
    counters: tuple[str, ...] = ()
    #: observe(stat, args, kwargs, result) updates the extra counters.
    observe: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


LAYERS = (
    Layer("cli", "main"),
    Layer("divisor", "euler_characteristic"),
    Layer("divisor", "DegreeValue.floor"),
    Layer("divisor", "DegreeValue.compare"),
    Layer("divisor", "DegreeValue.floor_pow2"),
    Layer(
        "exact", "log2_bounds", ("max_bits", "hits", "misses"),
        lambda s, a, k, r: _max(s, "max_bits", _arg(a, k, 1, "bits")),
    ),
    Layer(
        "exact", "nth_root_floor_fraction", ("input_bits",),
        lambda s, a, k, r: _max(s, "input_bits", _arg(a, k, 0, "q").numerator.bit_length()),
    ),
    Layer("exact", "floor_pow2_rational"),
    Layer("exact", "floor_pow2_bracketed"),
    Layer("exact", "is_prime"),
    Layer("interval_h0", "covers"),
    Layer("interval_h0", "generates"),
    Layer("interval_h0", "dim_h0"),
    Layer("interval_h0", "min_generating_set", ("children_cpu_s",)),
    Layer(
        "circle_h1", "subset_sums", ("sums_out",),
        lambda s, a, k, r: _add(s, "sums_out", len(r)),
    ),
    Layer("circle_h1", "is_generating"),
    Layer("circle_h1", "certify_family"),
    Layer("circle_h1", "covering_radius"),
    Layer(
        "negabinary", "verify_bijection", ("words",),
        lambda s, a, k, r: _add(s, "words", 2 ** _arg(a, k, 0, "n")),
    ),
    Layer("negabinary", "encode"),
    Layer("negabinary", "delta_interval"),
    Layer(
        "gamma", "member_subfunctor", ("max_sums",),
        lambda s, a, k, r: _max(s, "max_sums", 2 ** _arg(a, k, 0, "x").level),
    ),
    Layer("gamma", "pushforward"),
    Layer("gamma", "smash_action"),
    Layer("gamma", "PointedVector.__post_init__"),
) + tuple(
    Layer("verify", suite, ("checks",), lambda s, a, k, r: _add(s, "checks", r.checks))
    for suite in (
        "verify_pointed_maps",
        "verify_negabinary",
        "verify_golden_table",
        "verify_construction",
        "verify_circle",
        "verify_identity",
    )
)


#: Unit of each counter.
UNITS = {
    "calls": "count",
    "self_s": "s",
    "children_cpu_s": "s",
    "max_bits": "bits",
    "input_bits": "bits",
    "hits": "count",
    "misses": "count",
    "sums_out": "count",
    "words": "count",
    "max_sums": "count",
    "checks": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    return {
        f"{layer.name}.{stat}": UNITS[stat]
        for layer in LAYERS
        for stat in ("calls", "self_s") + layer.counters
    }


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the layers of the imported package and collects their spans."""

    def __init__(self) -> None:
        self.stats = [dict.fromkeys(("calls", "self_s") + l.counters, 0) for l in LAYERS]
        self.op_id = -1
        self._stack: list[list] = []
        self._next_span = 0
        self._spans = {
            "span": array("q"), "layer": array("i"), "start": array("d"),
            "end": array("d"), "parent": array("q"), "op": array("q"),
        }
        self.dropped_spans = 0
        self._origin = perf_counter()
        self._log2_cache = None
        self._log2_before = None

    def install(self) -> None:
        """Replace every layer in the imported package by its wrapper."""
        modules = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
        for index, layer in enumerate(LAYERS):
            owner = modules[layer.module]
            *classes, attr = layer.qualname.split(".")
            if classes:
                cls = getattr(owner, classes[0])
                setattr(cls, attr, self._wrap(index, layer, cls.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, layer, original)
            for module in _package_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
            if layer.name == "exact.log2_bounds":
                self._log2_cache = original
                self._log2_before = original.cache_info()

    def _wrap(self, index: int, layer: Layer, fn: Callable) -> Callable:
        stat = self.stats[index]
        observe = layer.observe
        children = "children_cpu_s" in layer.counters
        stack = self._stack
        spans = self._spans
        origin = self._origin

        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            cpu0 = _children_cpu_s() if children else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                stat["calls"] += 1
                stat["self_s"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if children:
                    stat["children_cpu_s"] += _children_cpu_s() - cpu0
                if len(spans["span"]) < SPAN_CAP:
                    spans["span"].append(span)
                    spans["layer"].append(index)
                    spans["start"].append(t0 - origin)
                    spans["end"].append(t1 - origin)
                    spans["parent"].append(parent)
                    spans["op"].append(self.op_id)
                else:
                    self.dropped_spans += 1
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer counters by metric name (see ``metric_names``)."""
        if self._log2_cache is not None:
            info = self._log2_cache.cache_info()
            stat = self.stats[[l.name for l in LAYERS].index("exact.log2_bounds")]
            stat["hits"] = info.hits - self._log2_before.hits
            stat["misses"] = info.misses - self._log2_before.misses
        return {
            f"{layer.name}.{key}": value
            for layer, stat in zip(LAYERS, self.stats)
            for key, value in stat.items()
        }

    def spans_json(self) -> dict:
        """Spans as columns, with times in seconds from tracer creation."""
        return {
            "layers": [layer.name for layer in LAYERS],
            "columns": {key: list(col) for key, col in self._spans.items()},
            "dropped": self.dropped_spans,
        }
