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


def evaluate(log: RunLog, eval_start: float = 0.0) -> MetricReport:
    t = log.column("t")
    mask = t >= eval_start
    if not np.any(mask):
        raise ValueError("evaluation window contains no samples")

    names = ("px", "py", "pz", "px_des", "py_des", "pz_des",
             "qw", "qx", "qy", "qz", "qw_des", "qx_des", "qy_des", "qz_des",
             "wx", "wy", "wz", "wx_des", "wy_des", "wz_des")
    # one copy of the window's rows and columns, not one of all rows first
    window = log.data[np.ix_(mask, [log.names.index(n) for n in names])]
    pos, pos_des = window[:, 0:3], window[:, 3:6]
    q, q_des = window[:, 6:10], window[:, 10:14]
    w, w_des = window[:, 14:17], window[:, 17:20]

    def rms(x):
        return float(np.sqrt(np.mean(np.square(x))))

    pe = pos - pos_des
    pe_norm = np.linalg.norm(pe, axis=1)
    ang = _attitude_angle(q, q_des)
    we_norm = np.linalg.norm(w - w_des, axis=1)

    channels = {
        "position": (rms(pe_norm), float(pe_norm.max())),
        "position_x": (rms(pe[:, 0]), float(np.abs(pe[:, 0]).max())),
        "position_y": (rms(pe[:, 1]), float(np.abs(pe[:, 1]).max())),
        "position_z": (rms(pe[:, 2]), float(np.abs(pe[:, 2]).max())),
        "attitude": (rms(ang), float(ang.max())),
        "rate": (rms(we_norm), float(we_norm.max())),
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
    maps to None.
    """
    t = log.column("t")
    mass_bound, moi_bound, com_bound = bounds

    m_hat = log.column("m_t_hat")
    m_true = log.column("m_t_true")
    mass_err = np.abs(m_hat - m_true) / np.maximum(np.abs(m_true), 1e-12)

    c_hat = log.columns("ctx_hat", "cty_hat", "ctz_hat")
    c_true = log.columns("ctx_true", "cty_true", "ctz_true")
    com_err = np.abs(c_hat - c_true).max(axis=1)

    j_hat = log.columns("jtx_hat", "jty_hat", "jtz_hat")
    j_true = log.columns("jtx_true", "jty_true", "jtz_true")
    moi_err = (np.abs(j_hat - j_true) / np.maximum(np.abs(j_true), 1e-18)).max(axis=1)

    return {
        "mass": _first_stay_within(t, mass_err, mass_bound),
        "moi": _first_stay_within(t, moi_err, moi_bound),
        "com": _first_stay_within(t, com_err, com_bound),
    }


def compare_runs(candidate: RunLog, reference: RunLog,
                 eval_start: float = 0.0) -> dict:
    """Per-channel metrics of both runs plus percentage deltas vs the reference.

    Negative delta means the candidate improved on the reference. Raises
    MismatchedRuns unless both logs share timestamps and position setpoints.
    """
    ta, tb = candidate.column("t"), reference.column("t")
    if ta.shape != tb.shape or not np.allclose(ta, tb, atol=1e-12):
        raise MismatchedRuns("timestamp grids differ")
    pa = candidate.columns("px_des", "py_des", "pz_des")
    pb = reference.columns("px_des", "py_des", "pz_des")
    if not np.allclose(pa, pb, atol=1e-9):
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
