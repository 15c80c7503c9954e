"""Tracking metrics, convergence declaration, and run-to-run comparison."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import MismatchedRuns, RunLog


#: relative mass, relative MoI (per axis), absolute CoM (m, per axis)
CONVERGENCE_BOUNDS = (0.04, 0.20, 0.002)


@dataclass
class MetricReport:
    """RMSE and max-abs per channel over the evaluation window."""

    channels: dict = field(default_factory=dict)  # name -> (rmse, max_abs)
    window: tuple = (0.0, 0.0)

    def rmse(self, name: str) -> float:
        return self.channels[name][0]

    def max(self, name: str) -> float:
        return self.channels[name][1]


def _attitude_angle(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Geodesic angle between unit quaternion rows (sign-free)."""
    dot = np.abs(np.sum(qa * qb, axis=1))
    return 2.0 * np.arccos(np.clip(dot, 0.0, 1.0))


def _time(log: RunLog) -> np.ndarray:
    """The log's ``t``, checked once for every analysis: ValueError unless non-decreasing."""
    t = log.column("t")
    # a NaN fails every comparison: t[1:] >= t[:-1] catches it, and t[:1] == t[:1] in a lone row
    if not (np.all(t[1:] >= t[:-1]) and np.all(t[:1] == t[:1])):
        raise ValueError("log time column t is not non-decreasing")
    return t


def evaluate(log: RunLog, eval_start: float = 0.0) -> MetricReport:
    """RMSE and max-abs of each tracking error over the rows with ``t >= eval_start``;
    ValueError unless ``t`` is non-decreasing, or when that window is empty."""
    t = _time(log)
    k = int(np.searchsorted(t, eval_start))  # the window is the rows from k on
    if k == len(t):
        raise ValueError("evaluation window contains no samples")

    names = ("px", "py", "pz", "px_des", "py_des", "pz_des",
             "qw", "qx", "qy", "qz", "qw_des", "qx_des", "qy_des", "qz_des",
             "wx", "wy", "wz", "wx_des", "wy_des", "wz_des")
    # one copy of the window's rows and columns, not one of all rows first
    window = log.data[k:, [log.names.index(n) for n in names]]

    def rms_max(err):  # each error array lives only for its own channel
        return float(np.sqrt(np.mean(np.square(err)))), float(err.max())

    pe = window[:, 0:3] - window[:, 3:6]
    channels = {
        "position": rms_max(np.linalg.norm(pe, axis=1)),
        "position_x": rms_max(np.abs(pe[:, 0])),
        "position_y": rms_max(np.abs(pe[:, 1])),
        "position_z": rms_max(np.abs(pe[:, 2])),
        "attitude": rms_max(_attitude_angle(window[:, 6:10], window[:, 10:14])),
        "rate": rms_max(np.linalg.norm(window[:, 14:17] - window[:, 17:20], axis=1)),
    }
    return MetricReport(channels=channels, window=(float(eval_start), float(t[-1])))


def _first_stay_within(t: np.ndarray, err: np.ndarray, bound: float) -> float | None:
    """First time the error enters the bound and never leaves again (NaN is outside)."""
    outside = ~(err <= bound)
    if not outside.any():
        return float(t[0])
    last_bad = int(np.nonzero(outside)[0][-1])
    if last_bad == len(t) - 1:
        return None
    return float(t[last_bad + 1])


def declare_convergence(log: RunLog, bounds=CONVERGENCE_BOUNDS) -> dict:
    """Convergence times of mass, MoI, and CoM estimates against logged truth.

    A channel converges at the first time its error enters the bound and
    never leaves again. Bounds: relative mass error, relative per-axis MoI
    error, absolute per-axis CoM error (m). A channel that never converges
    maps to None. ValueError unless ``t`` is non-decreasing.
    """
    t = _time(log)
    mass_bound, moi_bound, com_bound = bounds

    m_hat = log.column("m_t_hat")
    m_true = log.column("m_t_true")
    mass_err = np.abs(m_hat - m_true) / np.maximum(np.abs(m_true), 1e-12)

    def com_axis(a):
        return np.abs(log.column(f"ct{a}_hat") - log.column(f"ct{a}_true"))

    def moi_axis(a):
        j_true = log.column(f"jt{a}_true")
        return np.abs(log.column(f"jt{a}_hat") - j_true) / np.maximum(np.abs(j_true), 1e-18)

    # the worst axis, from column views: a maximum neither rounds nor drops a NaN
    com_err = np.maximum(np.maximum(com_axis("x"), com_axis("y")), com_axis("z"))
    moi_err = np.maximum(np.maximum(moi_axis("x"), moi_axis("y")), moi_axis("z"))

    return {
        "mass": _first_stay_within(t, mass_err, mass_bound),
        "moi": _first_stay_within(t, moi_err, moi_bound),
        "com": _first_stay_within(t, com_err, com_bound),
    }


def compare_runs(candidate: RunLog, reference: RunLog,
                 eval_start: float = 0.0) -> dict:
    """Per-channel metrics of both runs plus percentage deltas vs the reference.

    Negative delta means the candidate improved on the reference. Raises
    ValueError unless both ``t`` are non-decreasing, then MismatchedRuns unless
    both logs share timestamps and position setpoints.
    """
    ta, tb = _time(candidate), _time(reference)
    if ta.shape != tb.shape or not np.allclose(ta, tb, rtol=0.0, atol=1e-12):
        raise MismatchedRuns("timestamp grids differ")
    pa = candidate.columns("px_des", "py_des", "pz_des")
    pb = reference.columns("px_des", "py_des", "pz_des")
    if not np.allclose(pa, pb, rtol=0.0, atol=1e-9):
        raise MismatchedRuns("position setpoints differ; not the same trajectory")

    ma = evaluate(candidate, eval_start)
    mb = evaluate(reference, eval_start)
    out = {}
    for name in ma.channels:
        ra, xa = ma.channels[name]
        rb, xb = mb.channels[name]
        out[name] = {
            "rmse": (ra, rb, _pct(ra, rb)),
            "max": (xa, xb, _pct(xa, xb)),
        }
    return out


def _pct(a: float, b: float) -> float:
    if b == 0.0:
        return 0.0 if a == 0.0 else math.inf
    return 100.0 * (a - b) / b


def format_comparison(deltas: dict) -> str:
    """Render the comparison as rows of 'value (↓ x%)' strings."""
    lines = [f"{'channel':<12} {'candidate':>12} {'reference':>12} {'delta':>12}"]
    for name, stats in deltas.items():
        ra, rb, pct = stats["rmse"]
        arrow = "↓" if pct < 0 else "↑"
        lines.append(f"{name:<12} {ra:>12.6f} {rb:>12.6f} "
                     f"({arrow}{abs(pct):.1f}%)")
    return "\n".join(lines)
