"""amsim benchmark: run one workload for a while and report its metrics.

    python3 perfbench/run.py --workload grasp_iags [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout: the program under test is the
checkout's ``src/amsim``, never an installed copy. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run, whose
spans are also written to ``perfbench/out/``. ``--seed`` replaces the shipped
scenario's own seed, which is the default. Everything runs in this one
process, on one thread.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import layers, tracing, workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
# metrics with a regression bound in BENCHMARK.json, and their units
END_TO_END = {"setup_s": "s", "op_ref_s": "s", "rtf_ref": "sim_s/s", "peak_rss_mb": "MB",
              "pos_rmse_mm": "mm", "converge_s": "sim_s", "min_pm_deg": "deg"}
# printed with the others but carry no bound: host speed swings dominate the
# raw timings, seed noise the two simulated results
UNBOUNDED = {"setup_raw_s": "s", "op_s": "s", "rtf": "sim_s/s", "ref_slice_s": "s",
             "failed_frac": "frac", "mass_err_pct": "%", "att_rmse_mrad": "mrad"}

# On a shared host the CPU's speed can swing by 1.75x within minutes (seen on a
# 2-vCPU Xeon VM), so a whole run can sit in a slow or a fast spell. Short
# slices of a fixed reference kernel, run between operations, measure the
# host's speed during the run; setup_s, op_ref_s and rtf_ref rescale the set-up
# and the run's median operation to a host on which one slice takes
# REF_SLICE_S. Never change the kernel or these constants without re-measuring
# the baseline.
REF_SLICE_S = 0.075
REF_SLICE_STEPS = 2000
REF_SLICES_PER_GAP = 5


def reference_slice() -> float:
    """Wall seconds of a fixed mix of small numpy operations and float math,
    like the engine's inner loop but independent of amsim."""
    r = numpy.eye(3)
    v = numpy.array([0.1, 0.2, 0.3])
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(REF_SLICE_STEPS):
        w = r @ v + numpy.cross(v, r[:, 0]) * 0.5
        acc += math.exp(-float(w[0]) * 1e-3) + float(numpy.sqrt(w @ w))
        v = numpy.clip(w, -1.0, 1.0)
    return time.perf_counter() - t0


def fresh_amsim():
    """Import amsim from scratch, so that every set-up pays its import
    (numpy, which the benchmark itself uses, stays loaded)."""
    for name in [n for n in sys.modules if n == "amsim" or n.startswith("amsim.")]:
        del sys.modules[name]
    am = importlib.import_module("amsim")
    if Path(am.__file__).resolve().parent != SRC / "amsim":
        raise ImportError(f"amsim resolved to {am.__file__}, not the checkout")
    return am


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "amsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(am, args, seed) -> dict:
    return {"git_commit": git_commit(), "source_sha256": source_digest(),
            "amsim": am.__version__, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
            "workload": args.workload, "seed": seed, "seconds": args.seconds,
            "traced": bool(args.trace)}


def set_up(workload_cls, seed, workdir):
    """Median of SETUP_REPEATS fresh imports plus config loads, plus the
    workload's own set-up (the two simulated logs of offline_analysis)."""
    light = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        am = fresh_amsim()
        am.config.load_config(workload_cls.scenario)
        light.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl = workload_cls(am, seed, workdir)
    return am, wl, statistics.median(light) + time.perf_counter() - t0


class Op:
    """One timed operation: its wall time, what went wrong, and the figures
    taken from its outcome."""

    def __init__(self, wl, tracer=None, targets=None):
        self.traced = tracer is not None
        self.outcome, self.problems = None, []
        if self.traced:
            tracer.op += 1
            tracer.install(targets)
        t0 = time.perf_counter()
        try:
            self.outcome = wl.op()
        except Exception:
            traceback.print_exc()
            self.problems.append("operation raised")
        finally:
            self.wall = time.perf_counter() - t0
            if self.traced:
                tracer.uninstall()
        self.rtf, self.events = None, {}
        if self.outcome is not None:
            o = self.outcome
            self.rtf = o.sim_s / (o.run_wall_s if o.run_wall_s is not None else self.wall)
            self.events = {k: v for k, v in o.log.events.items() if k.endswith("_ticks")}
            try:
                self.problems += wl.check(o)
            except Exception:
                traceback.print_exc()
                self.problems.append("output check raised")
        for p in self.problems:
            print(f"{wl.name}: {p}", file=sys.stderr)


def run_loop(wl, seconds, tracer=None, targets=None):
    """Closed loop until ``seconds`` have passed; with a tracer, untraced
    and traced operations alternate. Reference slices run before the first
    operation and after each one. Returns the operations, the outcome of the
    first good one and the slice times; the other outcomes, whole logs, are
    dropped so that peak memory does not grow with the number of operations."""
    ops, kept = [], None
    slices = [reference_slice() for _ in range(REF_SLICES_PER_GAP)]
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        batch = [Op(wl)] + ([Op(wl, tracer, targets)] if tracer is not None else [])
        for op in batch:
            slices += [reference_slice() for _ in range(REF_SLICES_PER_GAP)]
            if kept is None and op.outcome is not None and not op.problems:
                kept = op.outcome
            op.outcome = None
        ops += batch
    return ops, kept, slices


def end_to_end(wl, ops, kept, slices, setup_s) -> tuple[dict, dict]:
    good = [op for op in ops if not op.problems]
    speed = REF_SLICE_S / statistics.median(slices)
    values = {"setup_raw_s": setup_s, "setup_s": setup_s * speed,
              "op_s": statistics.median(op.wall for op in ops),
              "ref_slice_s": statistics.median(slices),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "failed_frac": (len(ops) - len(good)) / len(ops)}
    values["op_ref_s"] = values["op_s"] * speed
    if good:
        values["rtf"] = statistics.median(op.rtf for op in good)
        values["rtf_ref"] = values["rtf"] / speed
        values.update(wl.results(kept))
    bounded = {k: {"value": values.get(k), "unit": u} for k, u in END_TO_END.items()}
    unbounded = {k: {"value": values.get(k), "unit": u} for k, u in UNBOUNDED.items()}
    return bounded, unbounded


def traced_metrics(wl, ops, tracer, out_dir, seed) -> tuple[dict, list]:
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    events = {}
    for op in traced:
        for key, value in op.events.items():
            events[key] = events.get(key, 0) + value
    spans = tracer.spans
    metrics = layers.per_layer(spans, tracer.counts, events, len(traced),
                               int(sum(op.wall for op in traced) * 1e9))
    # each traced operation against the untraced one just before it, which
    # ran in nearly the same host state
    overhead = statistics.median(t.wall / p.wall for p, t in zip(plain, traced)) - 1.0
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    problems = []
    gap = layers.unaccounted_ns(spans)
    if gap > 1000:
        problems.append(f"layer self times miss run_scenario wall by {gap} ns")
    out_dir.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(out_dir / f"trace-{wl.name}-seed{seed}.csv", spans,
                        tracing.self_times(spans))
    return metrics, problems


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the shipped scenario's own)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long to keep starting operations")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "amsim" / "__init__.py").is_file():
        print(f"benchmark: no amsim sources at {SRC}; run it from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        cls = workloads.WORKLOADS[args.workload]
        am, wl, setup_s = set_up(cls, args.seed, workdir)
        seed = args.seed if args.seed is not None else am.config.load_config(cls.scenario).seed
        prov = provenance(am, args, seed)
        if args.trace:
            tracer = tracing.Tracer()
            targets, missing = layers.targets(am)
            for name in missing:
                print(f"{wl.name}: {name} not found; its metrics read 0", file=sys.stderr)
            ops, _, _ = run_loop(wl, args.seconds, tracer, targets)
            metrics, problems = traced_metrics(wl, ops, tracer, out_dir, seed)
            unbounded = {}
        else:
            ops, kept, slices = run_loop(wl, args.seconds)
            metrics, unbounded = end_to_end(wl, ops, kept, slices, setup_s)
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"{wl.name}: {p}", file=sys.stderr)
    failed = sum(1 for op in ops if op.problems)
    print(f"{wl.name}: seed {seed}, {len(ops)} operations, {failed} failed, "
          f"op walls {', '.join(f'{op.wall:.3f}' for op in ops)} s")
    for name, m in {**metrics, **unbounded}.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<34} {value:>14} {m['unit']}")
    # the metrics without a bound ride on the line before the result, which
    # must hold exactly the metrics BENCHMARK.json names
    print(json.dumps({"provenance": prov, "unbounded": unbounded}))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
