"""Run every workload (or some) over one or more seeds and summarise each metric.

    python3 perfbench/suite.py                       # all workloads, shipped seeds
    python3 perfbench/suite.py --workloads grasp_iags --seeds 1 2 3 4 5 --json out.json

One benchmark process runs at a time. Per workload and metric it prints the
median over the seeds and, with two or more seeds, the interquartile
distance (``statistics.quantiles(values, n=4)``) as a share of the median:
the run-to-run spread that BENCHMARK.json's bounds must exceed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    print(lines[0], flush=True)
    result = json.loads(lines[-1])
    result["unbounded"] = json.loads(lines[-2]).get("unbounded", {})
    return result


def summarise(results: list, key: str = "metrics") -> dict:
    out = {}
    for name, first in results[0][key].items():
        values = [r[key][name]["value"] for r in results]
        if None in values:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                     "iqr_share": (q3 - q1) / med if med else None,
                     "min": min(values), "max": max(values)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                   default=list(WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", default=[None],
                   help="one run per seed (default: one run at the shipped seed)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", default=None, help="also write the summaries here")
    args = p.parse_args(argv)
    summaries, correct = {}, True
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        correct = correct and all(r["correct"] for r in results)
        summary = summarise(results)
        unbounded = summarise(results, "unbounded")
        summaries[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                               "trace": args.trace,
                               "correct": all(r["correct"] for r in results),
                               "attempted": [r["attempted"] for r in results],
                               "failed": [r["failed"] for r in results],
                               "metrics": summary, "unbounded": unbounded}
        print(f"{workload}: {len(results)} runs")
        for tag, part in (("", summary), ("(no bound)", unbounded)):
            for name, s in part.items():
                share = ("" if len(results) < 2 or s["iqr_share"] is None
                         else f"IQR/median {100 * s['iqr_share']:6.2f}%")
                print(f"  {name:<32} {s['median']:<14.6g} {s['unit']:<8} {share} {tag}",
                      flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summaries, fh, indent=1)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
