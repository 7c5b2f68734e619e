"""Benchmark of the arakelov-rr CLI, run in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  Every operation is a real CLI command, ``arakelov_rr.cli.main``
called with an argv that ends in ``--format json``; its output is parsed
and checked against the answer the workload expects.  One caller drives
the CLI in a closed loop, because a CLI user waits for each answer
before sending the next.  The loop measures whole cycles of the workload
(see ``workloads.py``) until ``--seconds`` of operation time have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
half as long untraced, then re-imports the package, wraps its layers
(``tracer.py``) and replays the same operations traced; it prints the
per-layer metrics and the tracing time ratio, the time the traced
replay took over the time the untraced phase took.

Set-up is timed with bytecode cached, whatever ``PYTHONDONTWRITEBYTECODE``
says: bytecode goes to ``bench/out/pycache`` and an untimed first set-up
writes it, so every timed import reads it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is a report with the run metadata, the failure ratio, the latency
tail's percentile and sample count, and any failed operations.  Both go
to ``bench/out/`` too, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
PACKAGE = "arakelov_rr"

#: Set-up (import plus warm-up command) is timed this often per run, at
#: even steps of operation time through the measured loop, so that the
#: machine's speed drift during the run reaches it as it reaches the
#: operations.  The median is reported.
SETUP_REPEATS = 21

#: Where the bytecode of every timed import is cached.
PYCACHE = OUT / "pycache"

#: The latency tail is read at the highest percentile that leaves this
#: many samples above it: the (TAIL_BEYOND + 1)-th largest latency.
TAIL_BEYOND = 10

#: Failed operations kept in the report.
CASES_KEPT = 20


def _package_modules() -> dict:
    return {
        name: module for name, module in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    }


def load_cli():
    """Import the package afresh (dropping any earlier import)."""
    for name in _package_modules():
        del sys.modules[name]
    return importlib.import_module(PACKAGE + ".cli")


def execute(cli, op: workloads.Op) -> tuple[float, str | None]:
    """Run one operation; return its latency and why it failed, if it did.

    Any exception counts as a failed operation and the run goes on.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        latency = perf_counter() - t0
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return latency, (
            f"{type(exc).__name__} at {Path(where.filename).name}:{where.lineno}: "
            f"{str(exc)[:200]}"
        )
    latency = perf_counter() - t0
    try:
        payload = json.loads(out.getvalue())
    except ValueError as exc:
        return latency, f"exit {code}, output is not JSON ({exc}); stderr: {err.getvalue()[:200]}"
    if not isinstance(payload, dict):
        return latency, f"exit {code}, output is not a JSON object"
    return latency, op.check(code, payload)


class Tally:
    """Attempts, failures and latencies of one measured phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.latencies: list[float] = []
        self.cases: list[dict] = []
        self.kinds: dict[str, int] = {}
        #: Operation time of each completed cycle.
        self.cycle_s: list[float] = []

    def record(self, op: workloads.Op, latency: float, failure: str | None) -> None:
        self.attempted += 1
        self.busy_s += latency
        self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
        if failure is None:
            self.latencies.append(latency)
            return
        self.failed += 1
        if len(self.cases) < CASES_KEPT:
            self.cases.append({"argv": " ".join(op.argv)[:300], "failure": failure})


def run_cycles(cli, cycles, seconds: float | None, tally: Tally, tracer=None,
               setups: list | None = None) -> list:
    """Run whole cycles until ``seconds`` of operation time have passed
    (or, with ``seconds=None``, every cycle given); return the cycles run.

    With ``setups``, time SETUP_REPEATS set-ups (``timed_setup``) at even
    steps of ``seconds`` and append them there."""
    done = []
    for cycle in cycles:
        start = tally.busy_s
        for op in cycle:
            if tracer is not None:
                tracer.op_id = tally.attempted
            tally.record(op, *execute(cli, op))
            while (setups is not None and len(setups) < SETUP_REPEATS
                   and tally.busy_s >= len(setups) * seconds / SETUP_REPEATS):
                setups.append(timed_setup())
        tally.cycle_s.append(tally.busy_s - start)
        done.append(cycle)
        if seconds is not None and tally.busy_s >= seconds:
            break
    return done


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest percentile
    that leaves at least TAIL_BEYOND samples above it."""
    n = len(sorted_values)
    beyond = min(TAIL_BEYOND, n - 1)
    return 100 * (n - beyond) / n, sorted_values[n - beyond - 1], beyond


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _git_sha() -> str | None:
    # The ceiling keeps git from taking a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(cli) -> dict:
    files = sorted(p for p in (SRC / PACKAGE).rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        if path.suffix == ".py":
            lines += data.count(b"\n")
    return {
        "git_sha": _git_sha(),
        "src_digest": digest.hexdigest()[:16],
        "src_py_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cli_default_workers": cli.build_parser().get_default("workers"),
        "setup_bytecode": "cached in bench/out/pycache by an untimed first set-up",
    }


def setup_once():
    """Import the package afresh and run the warm-up command; return the
    CLI module and why the warm-up failed, if it did."""
    cli = load_cli()
    _, failure = execute(cli, workloads.WARM_UP)
    return cli, failure


def timed_setup() -> tuple[float, str | None]:
    """Time one set-up, then put the modules in use back, so the measured
    operations keep their caches."""
    in_use = _package_modules()
    # Every set-up starts from the same collector state, so a collection
    # of the operations' garbage does not fall into some set-ups only; and
    # the modules the last set-up dropped are freed.
    gc.collect()
    t0 = perf_counter()
    _, failure = setup_once()
    elapsed = perf_counter() - t0
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return elapsed, failure


def planted_self_test(cli, workload: workloads.Workload, seed: int) -> dict:
    """Feed one operation with a planted wrong answer through the same
    accounting and confirm that it counts as failed."""
    first = next(workloads.cycles(workload, seed))
    op = next(o for o in first if o.kind == workload.selftest_kind).planted()
    tally = Tally()
    tally.record(op, *execute(cli, op))
    return {
        "argv": " ".join(op.argv),
        "counted_as_failed": tally.failed == 1,
        "failure": tally.cases[0]["failure"] if tally.cases else None,
    }


def summarize(tally: Tally) -> dict:
    ordered = sorted(tally.latencies)
    completed = len(ordered)
    if not ordered:
        return {"throughput_ops_s": 0.0, "tail": None}
    p, value, beyond = tail(ordered)
    return {
        "throughput_ops_s": completed / tally.busy_s,
        "latency_p50_ms": statistics.median_low(ordered) * 1000,
        "latency_tail_ms": value * 1000,
        "tail": {"percentile": p, "samples": completed, "samples_beyond": beyond},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(PYCACHE)
    workload = workloads.WORKLOADS[args.workload]
    problems: list[str] = []

    cli, failure = setup_once()
    if failure:
        problems.append(f"warm-up failed: {failure}")
    self_test = planted_self_test(cli, workload, args.seed)
    if not self_test["counted_as_failed"]:
        problems.append("planted wrong answer was not counted as failed")

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "self_test": self_test,
    }
    stream = workloads.cycles(workload, args.seed)
    tally = Tally()
    if args.trace == 0:
        setups: list[tuple[float, str | None]] = []
        cycles = run_cycles(cli, stream, args.seconds, tally, setups=setups)
        problems += [f"warm-up failed: {failure}" for _, failure in setups if failure]
        setup_runs = [elapsed for elapsed, _ in setups]
        report["setup_runs_s"] = setup_runs
        summary = summarize(tally)
        metrics = {
            "throughput_ops_s": (summary["throughput_ops_s"], "1/s"),
            "latency_p50_ms": (summary.get("latency_p50_ms", 0.0), "ms"),
            "latency_tail_ms": (summary.get("latency_tail_ms", 0.0), "ms"),
            "setup_s": (statistics.median(setup_runs), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }
        report["tail"] = summary["tail"]
        spans = None
    else:
        cycles = run_cycles(cli, stream, args.seconds / 2, tally)
        untraced = summarize(tally)
        cli, failure = setup_once()
        if failure:
            problems.append(f"warm-up failed: {failure}")
        tracer = tracing.Tracer()
        tracer.install()
        traced_tally = Tally()
        run_cycles(cli, cycles, None, traced_tally, tracer)
        traced = summarize(traced_tally)
        overhead = traced_tally.busy_s / tally.busy_s - 1
        layer_metrics = tracer.metrics()
        for name in workload.intended_layers:
            if not layer_metrics[f"{name}.calls"]:
                problems.append(f"intended layer {name} saw no calls")
        units = tracing.metric_units()
        metrics = {name: (value, units[name]) for name, value in layer_metrics.items()}
        metrics["tracing.time_ratio"] = (1 + overhead, "ratio")
        spans = tracer.spans_json()
        report["tracing"] = {
            "untraced_throughput_ops_s": untraced["throughput_ops_s"],
            "traced_throughput_ops_s": traced["throughput_ops_s"],
            "overhead_pct": overhead * 100,
            "spans_kept": len(spans["columns"]["span"]),
            "spans_dropped": spans["dropped"],
        }
        report["traced_failed"] = traced_tally.failed
        report["traced_cases"] = traced_tally.cases
        tally.attempted += traced_tally.attempted
        tally.failed += traced_tally.failed

    # After the metrics: the git child process would count in peak_rss_mib.
    report["metadata"] = metadata(cli)
    report["cycles"] = len(cycles)
    report["cycle_s"] = tally.cycle_s
    report["ops_by_kind"] = tally.kinds
    report["failed_ratio"] = {"value": tally.failed / max(1, tally.attempted), "unit": "ratio"}
    report["recorded_cases"] = tally.cases
    report["problems"] = problems
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
