"""Compare the logs of every shipped scenario between two amsim source trees.

    python3 scripts/compare_logs.py --ref-src ../amsim-main/src --new-src src

Each scenario runs in each canonical mode (``MODES``), once per tree, each
tree in its own process, which also writes each log with ``RunLog.to_csv``
and keeps the SHA-256 of the CSV and of its ``.npy`` sidecar. The script
prints the largest absolute difference of every log column over all runs,
then one line per run (marked ``bit-identical`` when the two logs have the
same bytes), the count of bit-identical runs and the count of runs whose
files have equal digests. Each tree also analyses each log as ``amsim
metrics`` and ``compare`` do: the ``evaluate`` channels at the scenario's
``eval_start``, the ``declare_convergence`` times, the margins of the rate
loop each run ended with (per axis, from its last logged ``kk_*`` and
``jt*_true``) and, for the iags run, ``compare_runs`` against the baseline
run of its scenario; the script counts the runs whose analysis has the same
bits in both trees. Each tree also runs
the offline sweeps of the default vehicle (``SWEEPS``): every cell of the
uncertainty grid and the workspace maxima with their joint angles. It exits
1 when any log difference exceeds ``TOL`` (a NaN where the other tree has a
number counts as an infinite difference), when logs differ in shape or column
names, when an event both trees record differs, when the CSV or sidecar bytes
of a run differ, or when an analysis or sweep output differs in any bit;
otherwise 0.
Last it prints the line count of each tree's ``amsim`` package (its ``.py``
files, as ``wc -l`` counts them), which plays no part in the exit status.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOL = 1e-9  # largest absolute difference allowed in any log column
MODES = ("baseline", "iags", "pre-only", "dob-only")  # every engine path
# the `amsim sweep` defaults, with the workspace grid that perfbench checks
SWEEPS = {"uncertainty_grid_n": 7, "workspace_grid_n": 9, "mass": 0.4,
          "dims": (0.2, 0.2, 0.2)}
SWEEP_PREFIX = "sweep/"
FILE_DIGESTS = ("csv_sha256", "npy_sha256")  # of each run's to_csv output, in the metadata


def dump(src: str, out: str) -> None:
    """Run every shipped scenario with the amsim found under ``src``."""
    sys.path.insert(0, str(Path(src).resolve()))
    from amsim import metrics
    from amsim.config import load_config, shipped_scenarios
    from amsim.scenario import run_scenario

    arrays, meta = {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        csv = Path(workdir) / "log.csv"
        for name in shipped_scenarios():
            cfg, logs = load_config(name), {}
            for mode in MODES:
                log = logs[mode] = run_scenario(dataclasses.replace(cfg, mode=mode))
                key = f"{name}/{mode}"
                arrays[key] = log.data
                log.to_csv(csv)
                digests = {f: hashlib.sha256(p.read_bytes()).hexdigest() for f, p in
                           zip(FILE_DIGESTS, (csv, csv.with_name(csv.name + ".npy")))}
                meta[key] = {"names": log.names, "events": log.events, **digests,
                             "metrics": hex_floats({
                                 "evaluate": metrics.evaluate(log, cfg.eval_start).channels,
                                 "converged": metrics.declare_convergence(log),
                                 "final_loop": final_loop_margins(cfg, log)})}
            meta[f"{name}/iags"]["metrics"]["compare_baseline"] = hex_floats(
                metrics.compare_runs(logs["iags"], logs["baseline"], cfg.eval_start))
    arrays.update(sweeps())
    np.savez(out, **arrays)
    Path(out + ".json").write_text(json.dumps(meta), encoding="utf-8")


def final_loop_margins(cfg, log) -> list:
    """Per axis, the margins (GM, PM, w_gc, w_pc) of the rate loop the run
    ended with: the last logged scheduled gain on the true total inertia, the
    loop whose phase margin perfbench reports as ``min_pm_deg``."""
    from amsim.freqdom import margins, open_loop_tf

    g, rotor = cfg.gains, cfg.vehicle.rotor
    kk = log.columns("kk_x", "kk_y", "kk_z")[-1].tolist()
    j_true = log.columns("jtx_true", "jty_true", "jtz_true")[-1].tolist()
    reports = [margins(open_loop_tf(g.rate_kp[a], g.rate_ki[a], g.rate_kd[a], k_k=kk[a],
                                    k_m=rotor.k_m, tau_m=rotor.tau_m, j=j_true[a]))
               for a in range(3)]
    return [(r.gain_margin_db, r.phase_margin_deg, r.gain_crossover, r.phase_crossover)
            for r in reports]


def hex_floats(value):
    """``value`` with each float in its dicts, lists and tuples as ``float.hex``
    (None kept), so that equal JSON records mean equal bits."""
    if isinstance(value, dict):
        return {k: hex_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hex_floats(v) for v in value]
    return None if value is None else float(value).hex()


def sweeps() -> dict:
    """The default vehicle's sweep outputs as float arrays: one row per
    uncertainty cell (axis, j_scale, kk_scale, GM, PM, w_gc, w_pc) and one
    per workspace axis (maximum, joint angles; NaN angles when no pose
    raises the gain above 1)."""
    from amsim.config import ScenarioConfig
    from amsim.freqdom import robustness_sweep, workspace_kk_sweep
    from amsim.spatial import InertialParams

    cfg = ScenarioConfig()
    veh, rotor = cfg.vehicle, cfg.vehicle.rotor
    _, rows = robustness_sweep(cfg.gains, np.diag(veh.j_a), k_m=rotor.k_m,
                               tau_m=rotor.tau_m, grid_n=SWEEPS["uncertainty_grid_n"])
    maxima, argmax = workspace_kk_sweep(
        cfg.arm.geom, SWEEPS["mass"], SWEEPS["dims"], InertialParams(veh.mass, veh.p_b, veh.j_a),
        grid_n=SWEEPS["workspace_grid_n"], pad_height=cfg.est.suction_pad)
    nan3 = (np.nan,) * 3
    return {
        SWEEP_PREFIX + "uncertainty": np.array([
            (axis, sj, sk, r.gain_margin_db, r.phase_margin_deg, r.gain_crossover,
             r.phase_crossover) for axis, sj, sk, r in rows]),
        SWEEP_PREFIX + "workspace": np.array([
            (m, *(nan3 if th is None else th)) for m, th in zip(maxima, argmax)]),
    }


def load(src: str, workdir: str, tag: str):
    out = str(Path(workdir) / f"{tag}.npz")
    subprocess.run([sys.executable, __file__, "--dump", src, out], check=True)
    with np.load(out) as npz:
        arrays = {k: npz[k] for k in npz.files}
    return arrays, json.loads(Path(out + ".json").read_text(encoding="utf-8"))


def compare(ref, new) -> int:
    (ref_data, ref_meta), (new_data, new_meta) = ref, new
    problems = []
    worst = {}  # column -> (difference, run)
    lines = []
    identical = files_equal = metrics_equal = 0
    sweep_lines = []
    for key in sorted(k for k in set(ref_data) | set(new_data) if k.startswith(SWEEP_PREFIX)):
        a, b = ref_data.pop(key, None), new_data.pop(key, None)
        if a is None or b is None:
            problems.append(f"{key}: output missing from one tree")
        elif a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"{key}: outputs differ")
        else:
            sweep_lines.append(f"{key:<28} {a.shape[0]} rows  bit-identical")
    for key in sorted(set(ref_data) | set(new_data)):
        if key not in ref_data or key not in new_data:
            problems.append(f"{key}: run missing from one tree")
            continue
        a, b = ref_data[key], new_data[key]
        names = ref_meta[key]["names"]
        if names != new_meta[key]["names"] or a.shape != b.shape:
            problems.append(f"{key}: logs differ in shape or columns")
            continue
        # Equal NaNs or infinities are no difference; a NaN on one side only
        # is an infinite one.
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        diff = np.where(same, 0.0, np.abs(a - b))
        diff = np.nan_to_num(diff, nan=np.inf, posinf=np.inf).max(axis=0)
        for name, d in zip(names, diff):
            if name not in worst or d > worst[name][0]:
                worst[name] = (float(d), key)
        k = int(np.argmax(diff))
        same_bits = a.tobytes() == b.tobytes()
        identical += same_bits
        lines.append(f"{key:<28} max |diff| {diff[k]:.3e} ({names[k]})"
                     + ("  bit-identical" if same_bits else ""))
        same_files = all(ref_meta[key][f] == new_meta[key][f] for f in FILE_DIGESTS)
        files_equal += same_files
        if not same_files:
            problems.append(f"{key}: the CSV or its sidecar differs in bytes")
        same_metrics = ref_meta[key]["metrics"] == new_meta[key]["metrics"]
        metrics_equal += same_metrics
        if not same_metrics:
            problems.append(f"{key}: evaluate, declare_convergence, the final-loop margins "
                            "or compare_runs differs")
        ev_a, ev_b = ref_meta[key]["events"], new_meta[key]["events"]
        for ev in sorted(set(ev_a) & set(ev_b)):
            if ev_a[ev] != ev_b[ev]:
                problems.append(f"{key}: events[{ev}] {ev_a[ev]} != {ev_b[ev]}")
    print(f"{'column':<12} {'max |diff|':>12}  run")
    for name, (d, key) in worst.items():
        bad = not d <= TOL
        print(f"{name:<12} {d:>12.3e}  {key}{'  > tol' if bad else ''}")
        if bad:
            problems.append(f"column {name} differs by {d:.3e} in {key}")
    print()
    print("\n".join(lines))
    print(f"bit-identical: {identical}/{len(lines)} runs")
    print(f"equal CSV and sidecar digests: {files_equal}/{len(lines)} runs")
    print(f"metrics bit-identical: {metrics_equal}/{len(lines)}")
    print("\n".join(sweep_lines))
    for p in problems:
        print("FAIL:", p)
    print(f"{'FAIL' if problems else 'OK'}: {len(lines)} runs, tolerance {TOL:g}")
    return 1 if problems else 0


def amsim_lines(src: str) -> int:
    """Newlines in the ``.py`` files of the ``amsim`` package under ``src``."""
    return sum(p.read_bytes().count(b"\n") for p in (Path(src) / "amsim").rglob("*.py"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--ref-src", help="src directory of the reference tree")
    p.add_argument("--new-src", help="src directory of the changed tree")
    p.add_argument("--dump", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.dump:
        dump(*args.dump)
        return 0
    if not (args.ref_src and args.new_src):
        p.error("--ref-src and --new-src are required")
    with tempfile.TemporaryDirectory() as workdir:
        ref = load(args.ref_src, workdir, "ref")
        new = load(args.new_src, workdir, "new")
    status = compare(ref, new)
    ref_lines, new_lines = amsim_lines(args.ref_src), amsim_lines(args.new_src)
    print(f"src/amsim lines: {ref_lines} -> {new_lines} ({new_lines - ref_lines:+d})")
    return status


if __name__ == "__main__":
    sys.exit(main())
