"""Cascade flight controller: flatness-based position loop, geometric attitude
loop, inertia-scheduled angular-rate PID, and thrust allocation."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import RotorConfig, torque_matrix
from .spatial import E3, cross3, quat_to_rot, rot_to_quat


@dataclass
class Gains:
    k_pos: np.ndarray = field(default_factory=lambda: np.array([4.0, 4.0, 3.0]))
    k_vel: np.ndarray = field(default_factory=lambda: np.array([3.5, 3.4, 3.0]))
    k_att: np.ndarray = field(default_factory=lambda: np.array([6.0, 6.0, 3.0]))
    rate_kp: np.ndarray = field(default_factory=lambda: np.array([0.15, 0.15, 0.2]))
    rate_ki: np.ndarray = field(default_factory=lambda: np.array([0.2, 0.2, 0.1]))
    rate_kd: np.ndarray = field(default_factory=lambda: np.array([0.003, 0.003, 0.0]))
    d_lpf_hz: float = 40.0
    i_limit: float = 0.3  # N*m clamp on the integral torque contribution

    def __post_init__(self):
        for name in ("k_pos", "k_vel", "k_att", "rate_kp", "rate_ki", "rate_kd"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(3).copy()
            if np.any(v < 0.0):
                raise ValueError(f"{name} entries must be non-negative")
            setattr(self, name, v)


@dataclass
class ControlOutput:
    thrust_des: float
    torque_des: np.ndarray
    q_des: np.ndarray
    omega_des: np.ndarray


def position_loop(p_des, v_des, p, v, q, m_t_hat: float, gains: Gains,
                  a_ff=None, yaw_des: float = 0.0, g: float = 9.81,
                  R=None) -> tuple[float, np.ndarray, bool]:
    """Desired collective thrust and attitude from position/velocity error.

    The commanded acceleration (PD error feedback plus gravity plus optional
    feedforward) defines the desired body z axis; thrust is the commanded
    force projected onto the current body z. When the command nearly cancels
    gravity (< 0.1 g) the attitude is undefined: the command is clamped to
    0.1 g along its direction and the free-fall flag is raised. ``R``, the
    rotation of ``q`` when the caller already has it, saves rebuilding it.
    """
    p_des = np.asarray(p_des, dtype=float)
    v_des = np.asarray(v_des, dtype=float)
    a_cmd = gains.k_pos * (p_des - p) + gains.k_vel * (v_des - v) + g * E3
    if a_ff is not None:
        a_cmd = a_cmd + np.asarray(a_ff, dtype=float)
    n = float(np.linalg.norm(a_cmd))
    freefall = n < 0.1 * g
    if freefall:
        direction = a_cmd / n if n > 1e-9 else E3.copy()
        a_cmd = 0.1 * g * direction
        n = 0.1 * g

    z_b = a_cmd / n
    x_c = np.array([math.cos(yaw_des), math.sin(yaw_des), 0.0])
    y_raw = cross3(z_b, x_c)
    ny = float(np.linalg.norm(y_raw))
    if ny < 1e-6:
        # thrust axis parallel to the yaw heading; fall back to the yaw-left axis
        y_c = np.array([-math.sin(yaw_des), math.cos(yaw_des), 0.0])
        x_b = cross3(y_c, z_b)
        x_b /= np.linalg.norm(x_b)
        y_b = cross3(z_b, x_b)
    else:
        y_b = y_raw / ny
        x_b = cross3(y_b, z_b)
    r_des = np.column_stack([x_b, y_b, z_b])
    q_des = rot_to_quat(r_des)

    body_z = (quat_to_rot(q) if R is None else R)[:, 2]
    thrust = max(m_t_hat * float(a_cmd @ body_z), 0.0)
    return thrust, q_des, freefall


def attitude_loop(q_des, q, k_att, R=None) -> np.ndarray:
    """Desired body rate from the geometric attitude error on SO(3).

    e_R = 0.5 * vee(Rd^T R - R^T Rd); omega_des = -K_att e_R. ``R``, the
    rotation of ``q`` when the caller already has it, saves rebuilding it.
    """
    if R is None:
        R = quat_to_rot(q)
    Rd = quat_to_rot(q_des)
    err = 0.5 * (Rd.T @ R - R.T @ Rd)
    e_r = np.array([err[2, 1], err[0, 2], err[1, 0]])
    return -np.asarray(k_att, dtype=float) * e_r


def iags_gain(j_a, j_t_hat) -> np.ndarray:
    """Inertia-scheduled rate-loop gain matrix: J_a^-1 @ J_t_hat.

    Identity when the estimated total inertia equals the bare vehicle's, so
    the scheduled loop reduces to the fixed-gain one in the unloaded state.
    """
    return np.linalg.solve(np.asarray(j_a, dtype=float), np.asarray(j_t_hat, dtype=float))


class RateLoop:
    """Angular-rate PID with scheduled gain, anti-windup, and filtered D term.

    torque = (Kp e + Ki ∫e + Kd d/dt e_filtered) * k_k, elementwise per axis.
    The integral torque contribution is clamped to +-i_limit per axis; the
    derivative comes from a low-pass filtered finite difference of the error.
    """

    def __init__(self, gains: Gains):
        self.gains = gains
        self.reset()

    def reset(self):
        self._integral = np.zeros(3)
        self._prev_error = None
        self._d_filt = np.zeros(3)

    def step(self, omega_des, omega, k_k_diag, dt: float) -> np.ndarray:
        g = self.gains
        e = np.asarray(omega_des, dtype=float) - np.asarray(omega, dtype=float)
        self._integral = np.clip(self._integral + g.rate_ki * e * dt,
                                 -g.i_limit, g.i_limit)
        if self._prev_error is None:
            d_raw = np.zeros(3)
        else:
            d_raw = (e - self._prev_error) / dt
        alpha = 1.0 - math.exp(-2.0 * math.pi * g.d_lpf_hz * dt)
        self._d_filt = self._d_filt + alpha * (d_raw - self._d_filt)
        self._prev_error = e
        pid = g.rate_kp * e + self._integral + g.rate_kd * self._d_filt
        return pid * np.asarray(k_k_diag, dtype=float)


def allocation_matrix(cfg: RotorConfig, com=None) -> np.ndarray:
    """4x4 map from per-rotor thrusts to [collective; body torque about com]."""
    if com is None:
        com = np.zeros(3)
    a = np.empty((4, 4))
    a[0] = 1.0
    a[1:] = torque_matrix(cfg, com)
    return a


class Allocation(NamedTuple):
    matrix: np.ndarray      # allocation_matrix(cfg, com)
    collective: np.ndarray  # rotor thrusts of a unit collective, zero torque


def allocation(cfg: RotorConfig, com=None) -> Allocation:
    """Allocation matrix about ``com`` and its collective direction.

    Both stay valid while the CoM estimate stays put, so the engine builds
    them once per estimate change. Raises ValueError unless the collective
    direction loads every rotor (the layout is not X-like about ``com``).
    """
    a = allocation_matrix(cfg, com)
    u = np.linalg.solve(a, np.array([1.0, 0.0, 0.0, 0.0]))
    if np.any(u <= 0.0):
        raise ValueError("collective direction must load every rotor (allocation not X-like)")
    return Allocation(a, u)


def mixer(thrust_des: float, torque_des, cfg: RotorConfig,
          com=None, alloc: Allocation | None = None) -> tuple[np.ndarray, bool]:
    """Per-rotor thrusts realizing the commanded collective and torque.

    Solves the 4x4 allocation exactly, then handles saturation by shifting
    the collective component only (torque priority): the smallest collective
    change that brings all rotors into [0, max_thrust] is applied. When no
    collective shift can fit the torque demand, the infeasible flag is raised
    and a best-effort clipped solution is returned. ``alloc`` may replace
    ``com`` with its precomputed ``allocation(cfg, com)``.
    """
    if alloc is None:
        alloc = allocation(cfg, com)
    w = np.array([float(thrust_des), *np.asarray(torque_des, dtype=float).reshape(3)])
    t0 = np.linalg.solve(alloc.matrix, w)
    u = alloc.collective
    t_max = cfg.max_thrust
    lam_lo = float(np.max(-t0 / u))            # smallest shift keeping all >= 0
    lam_hi = float(np.min((t_max - t0) / u))   # largest shift keeping all <= max
    infeasible = lam_lo > lam_hi
    if infeasible:
        lam = 0.5 * (lam_lo + lam_hi)
    else:
        lam = min(max(0.0, lam_lo), lam_hi)
    t = np.clip(t0 + lam * u, 0.0, t_max)
    return t, infeasible
