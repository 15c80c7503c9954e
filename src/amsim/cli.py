"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 runtime divergence or
analysis failure, 3 criteria failure (for CI gating), 4 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import freqdom, metrics, presense
from .config import MODES, ConfigError, ScenarioConfig, load_config
from .dynamics import NonFinite
from .scenario import MismatchedRuns, RunLog, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="amsim",
                                description="aerial-manipulator simulation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its CSV log")
    run_p.add_argument("scenario", help="config file path or shipped scenario name")
    run_p.add_argument("--mode", default=None,
                       help=f"controller mode override ({', '.join(MODES)})")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--duration", type=float, default=None)
    run_p.add_argument("--out", default=".", help="output directory")

    met_p = sub.add_parser("metrics", help="tracking metrics of a run log")
    met_p.add_argument("log")
    met_p.add_argument("--eval-start", type=float, default=0.0)
    met_p.add_argument("--check", action="store_true",
                       help="fail (exit 3) unless all estimates converge")

    cmp_p = sub.add_parser("compare", help="compare two logs of the same trajectory")
    cmp_p.add_argument("candidate")
    cmp_p.add_argument("reference")
    cmp_p.add_argument("--eval-start", type=float, default=0.0)

    mar_p = sub.add_parser("margins", help="rate-loop margins per axis")
    mar_p.add_argument("--config", default=None)
    mar_p.add_argument("--j-scale", type=float, default=1.0)
    mar_p.add_argument("--kk-scale", type=float, default=1.0)

    sw_p = sub.add_parser("sweep", help="uncertainty or workspace sweep")
    grp = sw_p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--uncertainty", action="store_true")
    grp.add_argument("--workspace", action="store_true")
    sw_p.add_argument("--config", default=None)
    sw_p.add_argument("--grid-n", type=int, default=None, help="default: the sweep's own")
    sw_p.add_argument("--mass", type=float, default=0.4)
    sw_p.add_argument("--dims", default="0.2 0.2 0.2")
    sw_p.add_argument("--out", default=None, help="write the grid as CSV")

    est_p = sub.add_parser("estimate", help="pre-grasp estimate from a point cloud")
    est_p.add_argument("--cloud", required=True,
                       help="text file with one x y z row per point")
    est_p.add_argument("--label", required=True)
    est_p.add_argument("--catalog", default=None)
    return p


def _load_cfg(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    return load_config(path)


def _open_out(path: str):
    """``path`` opened for writing; a missing directory is an I/O error (exit 4)."""
    try:
        return open(path, "w", encoding="utf-8")
    except FileNotFoundError as exc:  # not the missing input of a configuration error
        raise OSError(f"cannot write {path}: {exc.strerror}") from None


def _cmd_run(args) -> int:
    overrides = {key: getattr(args, key) for key in ("mode", "seed", "duration")
                 if getattr(args, key) is not None}
    cfg = dataclasses.replace(load_config(args.scenario), **overrides)
    log = run_scenario(cfg)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"{cfg.name}_{cfg.mode}.csv")
    log.to_csv(out_path)
    eval_start = cfg.eval_start
    if eval_start >= cfg.duration:
        print(f"note: eval_start {eval_start:g} s is not before the end of the "
              f"{cfg.duration:g} s run; the metrics cover the whole run", file=sys.stderr)
        eval_start = 0.0
    rep = metrics.evaluate(log, eval_start=eval_start)
    print(f"wrote {out_path} ({log.data.shape[0]} rows)")
    for name in ("position", "attitude", "rate"):
        rmse, mx = rep.channels[name]
        print(f"{name:<10} rmse={rmse:.6f}  max={mx:.6f}")
    if log.events.get("latch_time") is not None:
        print(f"grasp latched at t={log.events['latch_time']:.3f} s")
    return 0


def _cmd_metrics(args) -> int:
    log = RunLog.from_csv(args.log)
    rep = metrics.evaluate(log, eval_start=args.eval_start)
    for name, (rmse, mx) in rep.channels.items():
        print(f"{name:<12} rmse={rmse:.6f}  max={mx:.6f}")
    times = metrics.declare_convergence(log)
    for name, tc in times.items():
        print(f"converged[{name}] = {'never' if tc is None else f'{tc:.3f} s'}")
    if args.check and any(tc is None for tc in times.values()):
        print("criteria failure: not all estimates converged", file=sys.stderr)
        return 3
    return 0


def _cmd_compare(args) -> int:
    cand = RunLog.from_csv(args.candidate)
    ref = RunLog.from_csv(args.reference)
    deltas = metrics.compare_runs(cand, ref, eval_start=args.eval_start)
    print(metrics.format_comparison(deltas))
    return 0


def _cmd_margins(args) -> int:
    cfg = _load_cfg(args.config)
    rotor = cfg.vehicle.rotor
    reps = freqdom.margins_stack([freqdom.open_loop_tf(
        cfg.gains.rate_kp[axis], cfg.gains.rate_ki[axis], cfg.gains.rate_kd[axis],
        k_k=args.kk_scale, k_m=rotor.k_m, tau_m=rotor.tau_m,
        j=cfg.vehicle.j_a[axis][axis] * args.j_scale) for axis in range(3)])
    print(f"{'axis':<6} {'PM (deg)':>10} {'GM (dB)':>10} {'w_gc (rad/s)':>14} "
          f"{'w_pc (rad/s)':>14}")
    for label, rep in zip("xyz", reps):
        print(f"{label:<6} {rep.phase_margin_deg:>10.2f} {rep.gain_margin_db:>10.2f} "
              f"{rep.gain_crossover:>14.3f} {rep.phase_crossover:>14.3f}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_cfg(args.config)
    grid = {} if args.grid_n is None else {"grid_n": args.grid_n}
    if args.uncertainty:
        worst, rows = freqdom.robustness_sweep(cfg.gains, np.diag(cfg.vehicle.j_a),
                                               k_m=cfg.vehicle.rotor.k_m,
                                               tau_m=cfg.vehicle.rotor.tau_m, **grid)
        if args.out:
            with _open_out(args.out) as fh:
                fh.write("axis,j_scale,kk_scale,gm_db,pm_deg,w_gc,w_pc\n")
                for axis, sj, sk, rep in rows:
                    fh.write(f"{'xyz'[axis]},{sj!r},{sk!r},{rep.gain_margin_db!r},"
                             f"{rep.phase_margin_deg!r},{rep.gain_crossover!r},"
                             f"{rep.phase_crossover!r}\n")
            print(f"wrote {args.out} ({len(rows)} cells)")
        for axis, label in enumerate("xyz"):
            rep, sj, sk = worst[axis]
            print(f"{label}: min PM {rep.phase_margin_deg:.2f} deg at "
                  f"J x{sj:.2f}, Kk x{sk:.2f} (w_gc {rep.gain_crossover:.2f} rad/s)")
    else:
        from .spatial import InertialParams
        dims = [float(v) for v in args.dims.replace(",", " ").split()]
        vehicle = InertialParams(cfg.vehicle.mass, cfg.vehicle.p_b, cfg.vehicle.j_a)
        maxima, argmax = freqdom.workspace_kk_sweep(cfg.arm.geom, args.mass, dims,
                                                    vehicle, pad_height=cfg.est.suction_pad,
                                                    **grid)
        if args.out:
            with _open_out(args.out) as fh:
                fh.write("axis,kk_max,theta1,theta2,theta3\n")
                for axis, label in enumerate("xyz"):
                    th = argmax[axis] if argmax[axis] is not None else [float("nan")] * 3
                    fh.write(f"{label},{float(maxima[axis])!r},{th[0]!r},{th[1]!r},{th[2]!r}\n")
            print(f"wrote {args.out}")
        print("per-axis max scheduled gain: "
              f"x={maxima[0]:.3f} y={maxima[1]:.3f} z={maxima[2]:.3f}")
    return 0


def _cmd_estimate(args) -> int:
    if args.cloud.endswith(".npy"):
        points = np.load(args.cloud)
    else:
        points = np.loadtxt(args.cloud, ndmin=2)
    box = presense.fit_obb(points)
    catalog = presense.load_catalog(args.catalog)
    prior = presense.prior_for(args.label, catalog)
    est = presense.estimate_inertia(box, prior)
    l, w, h = box.dims
    print(f"box dims: {l:.4f} x {w:.4f} x {h:.4f} m, center "
          f"({box.center[0]:.4f}, {box.center[1]:.4f}, {box.center[2]:.4f})")
    print(f"mass estimate: {est.mass_tilde:.4f} kg (volume {est.volume_hat:.6e} m^3)")
    moi = np.diag(est.moi_tilde)
    print(f"MoI estimate (box axes): {moi[0]:.6e} {moi[1]:.6e} {moi[2]:.6e} kg m^2")
    print(f"grasp offset: ({est.grasp_offset[0]:.4f}, {est.grasp_offset[1]:.4f}, "
          f"{est.grasp_offset[2]:.4f}) m")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "metrics": _cmd_metrics,
        "compare": _cmd_compare,
        "margins": _cmd_margins,
        "sweep": _cmd_sweep,
        "estimate": _cmd_estimate,
    }
    try:
        return handlers[args.command](args)
    except (NonFinite, freqdom.NoCrossover, freqdom.PoleOnAxis,
            presense.DegenerateCloud) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except MismatchedRuns as exc:
        print(f"mismatched runs: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, presense.UnknownLabel, FileNotFoundError,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing input is a config error, above
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
