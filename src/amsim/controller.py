"""Cascade flight controller: flatness-based position loop, geometric attitude
loop, inertia-scheduled angular-rate PID, and thrust allocation."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptation import lowpass_alpha
from .dynamics import RotorConfig, torque_matrix
from .spatial import ConfigError, as_floats, cross3, quat_to_rot, rot_to_quat


@dataclass(frozen=True)
class Gains:
    k_pos: tuple = (4.0, 4.0, 3.0)
    k_vel: tuple = (3.5, 3.4, 3.0)
    k_att: tuple = (6.0, 6.0, 3.0)
    rate_kp: tuple = (0.15, 0.15, 0.2)
    rate_ki: tuple = (0.2, 0.2, 0.1)
    rate_kd: tuple = (0.003, 0.003, 0.0)
    d_lpf_hz: float = 40.0
    i_limit: float = 0.3  # N*m clamp on the integral torque contribution

    def __post_init__(self):
        for name in ("k_pos", "k_vel", "k_att", "rate_kp", "rate_ki", "rate_kd"):
            object.__setattr__(self, name, as_floats(getattr(self, name), 3, f"[gains] {name}",
                                                     "non-negative"))
        # the rate loop's float clamps rely on these, so they are checked once here
        if not self.i_limit >= 0.0:
            raise ConfigError(f"[gains] i_limit must be non-negative, got {self.i_limit}")
        if not self.d_lpf_hz > 0.0:
            raise ConfigError(f"[gains] d_lpf_hz must be positive, got {self.d_lpf_hz}")


def position_loop(p_des, v_des, p, v, m_t_hat: float, gains: Gains, a_ff, yaw_des: float,
                  g: float, R) -> tuple[float, tuple, bool]:
    """Desired collective thrust and attitude from position/velocity error.

    The commanded acceleration (PD error feedback plus gravity plus the
    feedforward ``a_ff``) defines the desired body z axis; thrust is the
    commanded force projected onto the current body z, the last column of the
    attitude ``R`` (nine row-major floats). When the command nearly cancels
    gravity (< 0.1 g) the attitude is undefined: the command is clamped to
    0.1 g along its direction and the free-fall flag is raised. Vectors are
    three floats; returns (thrust, q_des as four floats, free-fall flag).
    """
    kp0, kp1, kp2 = gains.k_pos
    kv0, kv1, kv2 = gains.k_vel
    a0 = kp0 * (p_des[0] - p[0]) + kv0 * (v_des[0] - v[0])
    a1 = kp1 * (p_des[1] - p[1]) + kv1 * (v_des[1] - v[1])
    a2 = kp2 * (p_des[2] - p[2]) + kv2 * (v_des[2] - v[2]) + g
    a0, a1, a2 = a0 + a_ff[0], a1 + a_ff[1], a2 + a_ff[2]
    n = math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    freefall = n < 0.1 * g
    if freefall:
        d0, d1, d2 = (a0 / n, a1 / n, a2 / n) if n > 1e-9 else (0.0, 0.0, 1.0)
        n = 0.1 * g
        a0, a1, a2 = n * d0, n * d1, n * d2

    z_b = (a0 / n, a1 / n, a2 / n)
    cy, sy = math.cos(yaw_des), math.sin(yaw_des)
    y0, y1, y2 = cross3(z_b, (cy, sy, 0.0))
    ny = math.sqrt(y0 * y0 + y1 * y1 + y2 * y2)
    if ny < 1e-6:
        # thrust axis parallel to the yaw heading; fall back to the yaw-left axis
        x0, x1, x2 = cross3((-sy, cy, 0.0), z_b)
        nx = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
        x0, x1, x2 = x0 / nx, x1 / nx, x2 / nx
        y0, y1, y2 = cross3(z_b, (x0, x1, x2))
    else:
        y0, y1, y2 = y0 / ny, y1 / ny, y2 / ny
        x0, x1, x2 = cross3((y0, y1, y2), z_b)
    # the desired rotation has columns x_b, y_b, z_b; its rows go in here
    q_des = rot_to_quat((x0, y0, z_b[0], x1, y1, z_b[1], x2, y2, z_b[2]))

    thrust = max(m_t_hat * (a0 * R[2] + a1 * R[5] + a2 * R[8]), 0.0)
    return thrust, q_des, freefall


def attitude_loop(q_des, R, k_att) -> tuple:
    """Desired body rate (three floats) from the geometric attitude error on SO(3).

    e_R = 0.5 * vee(Rd^T R - R^T Rd); omega_des = -K_att e_R, with ``R`` the
    attitude's nine row-major floats and ``k_att`` three floats. Only the
    three entries the vee map reads are formed.
    """
    r, d = R, quat_to_rot(q_des)
    # entry (i, j) of a row-major 3x3 matrix sits at index 3 i + j
    e0 = 0.5 * ((d[2] * r[1] + d[5] * r[4] + d[8] * r[7])
                - (r[2] * d[1] + r[5] * d[4] + r[8] * d[7]))
    e1 = 0.5 * ((d[0] * r[2] + d[3] * r[5] + d[6] * r[8])
                - (r[0] * d[2] + r[3] * d[5] + r[6] * d[8]))
    e2 = 0.5 * ((d[1] * r[0] + d[4] * r[3] + d[7] * r[6])
                - (r[1] * d[0] + r[4] * d[3] + r[7] * d[6]))
    k0, k1, k2 = k_att
    return -k0 * e0, -k1 * e1, -k2 * e2


def iags_gain(j_a, j_a_inv, j_t_hat) -> list:
    """Inertia-scheduled rate-loop gain, the diagonal of J_a^-1 J_t_hat, as three values.

    Each argument is nine row-major entries: the vehicle's inertia, its inverse
    (``inverse3``) and the estimated total inertia of ``TotalInertia``. The
    diagonal is formed as 1 + diag(J_a^-1 (J_t_hat - J_a)), so an estimate equal
    to the bare vehicle gives exactly 1.0 and the scheduled loop reduces to the
    fixed-gain one. Any entry may be an array instead of a float: the arrays
    broadcast, and each element is the bits of the scalar call on it.
    """
    i, d = j_a_inv, [t - a for t, a in zip(j_t_hat, j_a)]
    return [1.0 + (i[3 * k] * d[k] + i[3 * k + 1] * d[3 + k] + i[3 * k + 2] * d[6 + k])
            for k in range(3)]


class RateLoop:
    """Angular-rate PID with scheduled gain, anti-windup, and filtered D term.

    torque = (Kp e + Ki ∫e + Kd d/dt e_filtered) * k_k, elementwise per axis.
    The integral torque contribution is clamped to +-i_limit per axis; the
    derivative comes from a low-pass filtered finite difference of the error.
    The gains, the tick ``dt`` and the D filter's blend are fixed when the loop is built.
    """

    def __init__(self, gains: Gains, dt: float):
        self._kp, self._ki, self._kd = gains.rate_kp, gains.rate_ki, gains.rate_kd
        self._lim, self._dt = gains.i_limit, dt
        self._alpha = lowpass_alpha(gains.d_lpf_hz, dt)
        self._integral = self._d_filt = (0.0, 0.0, 0.0)
        self._prev_error = None

    def step(self, omega_des, omega, k_k_diag) -> list:
        """Torque command (three floats) from the rate error of one tick."""
        lim, a, dt = self._lim, self._alpha, self._dt
        (w0, w1, w2), (m0, m1, m2) = omega_des, omega
        e0, e1, e2 = w0 - m0, w1 - m1, w2 - m2
        (ki0, ki1, ki2), (i0, i1, i2) = self._ki, self._integral
        # the clamped value comes first so that a NaN passes, as in np.clip
        i0 = min(max(i0 + ki0 * e0 * dt, -lim), lim)
        i1 = min(max(i1 + ki1 * e1 * dt, -lim), lim)
        i2 = min(max(i2 + ki2 * e2 * dt, -lim), lim)
        prev = self._prev_error
        if prev is None:
            r0 = r1 = r2 = 0.0
        else:
            r0, r1, r2 = (e0 - prev[0]) / dt, (e1 - prev[1]) / dt, (e2 - prev[2]) / dt
        f0, f1, f2 = self._d_filt
        f0, f1, f2 = f0 + a * (r0 - f0), f1 + a * (r1 - f1), f2 + a * (r2 - f2)
        self._integral, self._d_filt, self._prev_error = (i0, i1, i2), (f0, f1, f2), (e0, e1, e2)
        (kp0, kp1, kp2), (kd0, kd1, kd2), (k0, k1, k2) = self._kp, self._kd, k_k_diag
        return [(kp0 * e0 + i0 + kd0 * f0) * k0, (kp1 * e1 + i1 + kd1 * f1) * k1,
                (kp2 * e2 + i2 + kd2 * f2) * k2]


def allocation(cfg: RotorConfig, com) -> tuple:
    """Rows (four tuples of four floats) of the inverse of the allocation matrix about ``com``.

    The allocation matrix maps rotor thrusts to [collective; body torque about ``com``],
    so the inverse's first column, the collective direction, holds the rotor thrusts of
    a unit collective at zero torque. The engine builds it once per CoM estimate change.
    Raises ValueError unless the collective direction loads every rotor (the layout is
    not X-like about ``com``).
    """
    inv = np.linalg.inv(np.array([[1.0] * 4, *torque_matrix(cfg, com)]))
    if np.any(inv[:, 0] <= 0.0):
        raise ValueError("collective direction must load every rotor (allocation not X-like)")
    return tuple(map(tuple, inv.tolist()))


def mixer(thrust_des: float, torque_des, alloc, t_max: float) -> tuple[list, bool]:
    """Per-rotor thrusts (four floats) realizing the commanded collective and torque.

    Applies the exact inverse ``alloc`` (the rows of ``allocation(cfg, com)``), then
    handles saturation by shifting the collective component only (torque
    priority): the smallest collective change that brings all rotors into
    [0, t_max] is applied; ``t_max`` is the rotor's ``c_t``. When no
    collective shift can fit the torque demand, the infeasible flag is raised
    and a best-effort clipped solution is returned.
    """
    w0 = thrust_des
    w1, w2, w3 = torque_des
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = alloc
    t0 = a0 * w0 + a1 * w1 + a2 * w2 + a3 * w3
    t1 = b0 * w0 + b1 * w1 + b2 * w2 + b3 * w3
    t2 = c0 * w0 + c1 * w1 + c2 * w2 + c3 * w3
    t3 = d0 * w0 + d1 * w1 + d2 * w2 + d3 * w3
    u0, u1, u2, u3 = a0, b0, c0, d0  # the collective direction
    # a NaN thrust makes every rotor NaN, and max/min then return the first
    lam_lo = max(-t0 / u0, -t1 / u1, -t2 / u2, -t3 / u3)  # smallest shift keeping all >= 0
    lam_hi = min((t_max - t0) / u0, (t_max - t1) / u1,    # largest shift keeping all <= max
                 (t_max - t2) / u2, (t_max - t3) / u3)
    infeasible = lam_lo > lam_hi
    if infeasible:
        lam = 0.5 * (lam_lo + lam_hi)
    else:
        lam = min(max(0.0, lam_lo), lam_hi)
    return [min(max(t0 + lam * u0, 0.0), t_max), min(max(t1 + lam * u1, 0.0), t_max),
            min(max(t2 + lam * u2, 0.0), t_max), min(max(t3 + lam * u3, 0.0), t_max)], infeasible
