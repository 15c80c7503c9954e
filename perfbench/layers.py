"""Which amsim functions the traced run wraps, and the per-layer metrics.

Each function is wrapped where its caller looks it up: the engine imports
``step_rk4`` and friends into ``amsim.scenario``, calls ``adaptation.*`` and
``delta.*`` through the module, and calls methods through their class.
``quat_to_rot`` is only counted, at each module that imports it, so its time
stays inside its callers.
"""
from __future__ import annotations

import numpy as np

from .tracing import Target, self_times

SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}


# (owner under amsim, attribute, span name, exception to count, counter name)
SPANS = [
    ("scenario", "step_rk4", "dynamics.step_rk4", "dynamics.NonFinite", "dynamics.nonfinite"),
    ("scenario", "rotor_wrench", "dynamics.rotor_wrench", None, None),
    ("scenario", "motor_lag_step", "dynamics.motor_lag_step", None, None),
    ("scenario", "position_loop", "controller.position_loop", None, None),
    ("scenario", "attitude_loop", "controller.attitude_loop", None, None),
    ("controller.RateLoop", "step", "controller.rate_step", None, None),
    ("scenario", "mixer", "controller.mixer", None, None),
    ("scenario", "iags_gain", "controller.iags_gain", None, None),
    ("adaptation", "update_total", "adaptation.update_total", None, None),
    ("adaptation", "dob_step", "adaptation.dob_step", None, None),
    ("adaptation", "detect_grasp", "adaptation.detect_grasp", None, None),
    ("delta", "joint_command", "delta.joint_command", "delta.KinematicsError",
     "delta.kin_fallbacks"),
    ("delta", "forward_kin", "delta.forward_kin", None, None),
    ("delta", "servo_step", "delta.servo_step", None, None),
    ("presense", "fit_obb", "presense.fit_obb", None, None),
    ("scenario", "run_scenario", "scenario.run_scenario", None, None),
    ("scenario.Trajectory", "eval", "scenario.traj_eval", None, None),
    ("scenario.RunLog", "to_csv", "scenario.to_csv", None, None),
    ("scenario.RunLog", "from_csv", "scenario.from_csv", None, None),
    ("freqdom", "margins", "freqdom.margins", "freqdom.NoCrossover", "freqdom.no_crossover"),
    ("freqdom", "robustness_sweep", "freqdom.robustness_sweep", None, None),
    ("freqdom", "workspace_kk_sweep", "freqdom.workspace_kk_sweep", None, None),
    ("metrics", "evaluate", "metrics.evaluate", None, None),
    ("metrics", "declare_convergence", "metrics.declare_convergence", None, None),
    ("metrics", "compare_runs", "metrics.compare_runs", None, None),
    ("config", "load_config", "config.load_config", None, None),
]
COUNTED = [(mod, "quat_to_rot", "spatial.quat_to_rot")
           for mod in ("scenario", "controller", "dynamics")]


def _find(am, path):
    obj = am
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def targets(am) -> tuple[list, list]:
    """Targets that exist in this version of amsim, and the names of those
    that do not: a refactor that moves a function makes its metrics read 0
    instead of breaking the traced run."""
    found, missing = [], []
    for owner_path, attr, name, error_path, error_name in SPANS:
        owner = _find(am, owner_path)
        if owner is None or attr not in vars(owner):
            missing.append(name)
            continue
        error = _find(am, error_path) if error_path else None
        found.append(Target(owner, attr, name, error=error,
                            error_name=error_name if error else None))
    for owner_path, attr, name in COUNTED:
        owner = _find(am, owner_path)
        if owner is None or attr not in vars(owner):
            missing.append(f"{owner_path}.{attr}")
            continue
        found.append(Target(owner, attr, name, count_only=True))
    return found, missing


# (metric, unit, kind, span or counter name); kinds:
#   calls   calls per operation         self   self time per call, in unit
#   share   self time / operation wall  p50/p90  percentile of per-call self
#   count   counter per operation       event  RunLog.events value per operation
PER_LAYER = [
    ("dynamics.step_rk4.calls", "count", "calls", "dynamics.step_rk4"),
    ("dynamics.step_rk4.us", "us", "self", "dynamics.step_rk4"),
    ("dynamics.step_rk4.share", "frac", "share", "dynamics.step_rk4"),
    ("dynamics.rotor_wrench.us", "us", "self", "dynamics.rotor_wrench"),
    ("dynamics.motor_lag_step.us", "us", "self", "dynamics.motor_lag_step"),
    ("dynamics.nonfinite", "count", "count", "dynamics.nonfinite"),
    ("controller.position_loop.us", "us", "self", "controller.position_loop"),
    ("controller.attitude_loop.us", "us", "self", "controller.attitude_loop"),
    ("controller.rate_step.us", "us", "self", "controller.rate_step"),
    ("controller.mixer.us", "us", "self", "controller.mixer"),
    ("controller.iags_gain.calls", "count", "calls", "controller.iags_gain"),
    ("controller.iags_gain.us", "us", "self", "controller.iags_gain"),
    ("controller.freefall_ticks", "count", "event", "freefall_ticks"),
    ("controller.infeasible_ticks", "count", "event", "infeasible_ticks"),
    ("adaptation.update_total.calls", "count", "calls", "adaptation.update_total"),
    ("adaptation.update_total.us", "us", "self", "adaptation.update_total"),
    ("adaptation.update_total.share", "frac", "share", "adaptation.update_total"),
    ("adaptation.dob_step.us", "us", "self", "adaptation.dob_step"),
    ("adaptation.detect_grasp.us", "us", "self", "adaptation.detect_grasp"),
    ("delta.joint_command.us", "us", "self", "delta.joint_command"),
    ("delta.forward_kin.calls", "count", "calls", "delta.forward_kin"),
    ("delta.forward_kin.us", "us", "self", "delta.forward_kin"),
    ("delta.servo_step.us", "us", "self", "delta.servo_step"),
    ("delta.kin_fallbacks", "count", "count", "delta.kin_fallbacks"),
    ("spatial.quat_to_rot.calls", "count", "count", "spatial.quat_to_rot"),
    ("presense.fit_obb.ms", "ms", "self", "presense.fit_obb"),
    ("scenario.run_scenario.s", "s", "self", "scenario.run_scenario"),
    ("scenario.self_share", "frac", "share", "scenario.run_scenario"),
    ("scenario.traj_eval.us", "us", "self", "scenario.traj_eval"),
    ("scenario.to_csv.s", "s", "self", "scenario.to_csv"),
    ("scenario.from_csv.s", "s", "self", "scenario.from_csv"),
    ("freqdom.margins.calls", "count", "calls", "freqdom.margins"),
    ("freqdom.margins.ms_p50", "ms", "p50", "freqdom.margins"),
    ("freqdom.margins.ms_p90", "ms", "p90", "freqdom.margins"),
    ("freqdom.robustness_sweep.s", "s", "self", "freqdom.robustness_sweep"),
    ("freqdom.workspace_kk_sweep.s", "s", "self", "freqdom.workspace_kk_sweep"),
    ("freqdom.no_crossover", "count", "count", "freqdom.no_crossover"),
    ("metrics.evaluate.ms", "ms", "self", "metrics.evaluate"),
    ("metrics.declare_convergence.ms", "ms", "self", "metrics.declare_convergence"),
    ("metrics.compare_runs.ms", "ms", "self", "metrics.compare_runs"),
    ("config.load_config.ms", "ms", "self", "config.load_config"),
]


def per_layer(spans, counts, events, n_ops: int, op_wall_ns: int) -> dict:
    """Per-layer metrics of ``n_ops`` traced operations.

    ``events`` sums the RunLog event counters of those operations and
    ``op_wall_ns`` their total wall time.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s.name, []).append(own)
    out = {}
    for metric, unit, kind, key in PER_LAYER:
        own = np.asarray(by_name.get(key, []), dtype=float)
        if kind == "calls":
            value = own.size / n_ops
        elif kind == "self":
            value = own.mean() / SCALE[unit] if own.size else 0.0
        elif kind == "share":
            value = own.sum() / op_wall_ns
        elif kind in ("p50", "p90"):
            q = 50 if kind == "p50" else 90
            value = np.percentile(own, q) / SCALE[unit] if own.size else 0.0
        elif kind == "count":
            value = counts.get(key, 0) / n_ops
        else:
            value = events.get(key, 0) / n_ops
        out[metric] = {"value": float(value), "unit": unit}
    return out


def unaccounted_ns(spans, root: str = "scenario.run_scenario") -> int:
    """Largest gap between a ``root`` span's wall and its subtree's self times.

    Self times partition a span's interval among it and its descendants, so
    this is zero unless a span escaped its parent.
    """
    selfs = self_times(spans)
    owner = [-1] * len(spans)
    totals = {}
    for i, s in enumerate(spans):
        if s.name == root:
            owner[i] = i
        elif s.parent >= 0:
            owner[i] = owner[s.parent]
        if owner[i] >= 0:
            totals[owner[i]] = totals.get(owner[i], 0) + selfs[i]
    return max((abs(spans[i].end - spans[i].start - tot) for i, tot in totals.items()),
               default=0)
