"""Compare the logs of every shipped scenario between two amsim source trees.

    python3 scripts/compare_logs.py --ref-src ../amsim-main/src --new-src src

Each scenario runs in each canonical mode (``MODES``), once per tree, each
tree in its own process. The script prints the largest absolute difference
of every log column over all runs, then one line per run (marked
``bit-identical`` when the two logs have the same bytes) and the count of
bit-identical runs. It exits 1 when any difference exceeds ``TOL`` (a NaN
where the other tree has a number counts as an infinite difference), when
logs differ in shape or column names, or when an event both trees record
differs; otherwise 0.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOL = 1e-9  # largest absolute difference allowed in any log column
MODES = ("baseline", "iags", "pre-only", "dob-only")  # every engine path


def dump(src: str, out: str) -> None:
    """Run every shipped scenario with the amsim found under ``src``."""
    sys.path.insert(0, str(Path(src).resolve()))
    from amsim.config import load_config, shipped_scenarios
    from amsim.scenario import run_scenario

    arrays, meta = {}, {}
    for name in shipped_scenarios():
        cfg = load_config(name)
        for mode in MODES:
            log = run_scenario(dataclasses.replace(cfg, mode=mode))
            key = f"{name}/{mode}"
            arrays[key] = log.data
            meta[key] = {"names": log.names, "events": log.events}
    np.savez(out, **arrays)
    Path(out + ".json").write_text(json.dumps(meta), encoding="utf-8")


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
    identical = 0
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
    for p in problems:
        print("FAIL:", p)
    print(f"{'FAIL' if problems else 'OK'}: {len(lines)} runs, tolerance {TOL:g}")
    return 1 if problems else 0


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
    return compare(ref, new)


if __name__ == "__main__":
    sys.exit(main())
