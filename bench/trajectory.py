"""Repeat the benchmark over ten seeds and summarize it.

    python3 bench/trajectory.py [--write]

For every workload in ``BENCHMARK.json`` this runs ``bench/run.py`` once
per seed 1..10 with tracing off, then once with tracing on, one run at a
time.  It prints, for each end-to-end metric, the median, the quartiles
and the spread (distance between the quartiles as a share of the median)
next to the metric's bound from ``BENCHMARK.json``, and exits 1 if any
spread is a third of its bound or more.  With ``--write`` it also stores the
summary, the traced per-layer breakdown and the tracing overhead as the
next ``bench/results/BENCH_<n>.json``; existing files are never changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Run the benchmark once; return its report and result lines."""
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    report, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(result)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="store bench/results/BENCH_<n>.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    all_ok = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, name, seed, 0) for seed in SEEDS]
        entry: dict = {
            "metadata": runs[0][0]["metadata"],
            "correct": all(result["correct"] for _, result in runs),
            "attempted": sum(result["attempted"] for _, result in runs),
            "failed": sum(result["failed"] for _, result in runs),
            "cycles": [report["cycles"] for report, _ in runs],
            "tail": [report["tail"] for report, _ in runs],
            "end_to_end": {},
        }
        print(f"{name}: correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']} cycles={entry['cycles']}")
        for metric in spec["end_to_end"]:
            stats = spread([result["metrics"][metric["name"]]["value"] for _, result in runs])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][metric["name"]] = stats
            ok = stats["spread"] < metric["bound"] / 3
            all_ok = all_ok and ok
            print(f"  {metric['name']:18} median {stats['median']:12.4f} {metric['unit']:5} "
                  f"spread {stats['spread']:.3f} bound {metric['bound']} {'ok' if ok else 'WIDE'}")
        report, result = run_once(spec, name, SEEDS[0], 1)
        entry["traced"] = {
            "seed": SEEDS[0],
            "correct": result["correct"],
            "tracing": report["tracing"],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        }
        print(f"  tracing overhead {report['tracing']['overhead_pct']:.1f}% "
              f"correct={result['correct']} problems={report['problems']}")
        summary["workloads"][name] = entry

    if args.write:
        RESULTS.mkdir(parents=True, exist_ok=True)
        index = len(list(RESULTS.glob("BENCH_*.json")))
        path = RESULTS / f"BENCH_{index}.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
