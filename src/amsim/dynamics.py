"""Quadrotor rigid-body model: motor lag, rotor wrench, 6-DOF derivatives, RK4.

Rotor positions are taken from the unloaded vehicle CoM, z up through the rotor
plane. The integrated ``p`` is the composite (vehicle plus payload) CoM, and the
rotor torques act about it, through ``torque_matrix(rotor, c_t - p_b)``. The arm's
reaction wrench and the (dJ/dt) omega term are not modelled: the body's mass
properties change quasi-statically (ROADMAP item 4). Rotor speeds are normalized to
[0, 1]; a rotor at full speed produces ``c_t`` newtons, so per-rotor thrust is capped at ``c_t``.
One physics step is one ``step_rk4`` call, motor lag and rotor wrench included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .spatial import ConfigError, as_floats, quat_to_rot


class NonFinite(RuntimeError):
    """Integration produced NaN or Inf state components."""


MAX_STEP = 5e-3


@dataclass(frozen=True)
class RotorConfig:
    positions: tuple       # four (x, y, z) rotor centers in body frame (m)
    spin_dirs: tuple       # four of +1 / -1
    c_t: float = 18.1712   # N at unit normalized speed (squared-speed thrust model)
    k_tau: float = 0.0136  # yaw drag torque per newton of thrust (m)
    k_m: float = 1.0       # motor steady-state gain
    tau_m: float = 0.02    # motor time constant (s)

    def __post_init__(self):
        object.__setattr__(self, "spin_dirs", as_floats(self.spin_dirs, 4, "[vehicle] spin_dirs"))
        where = "[vehicle] rotor positions (rotor_arm, rotor_height)"
        object.__setattr__(self, "positions", tuple(as_floats(p, 3, where) for p in self.positions))
        if len(self.positions) != 4:
            raise ConfigError(f"{where} needs 4 rows, got {len(self.positions)}")
        for k in ("c_t", "tau_m", "k_m", "k_tau"):
            as_floats([getattr(self, k)], 1, f"[vehicle] {k}", "" if k == "k_tau" else "positive")
        if not all(abs(s) == 1.0 for s in self.spin_dirs):
            raise ConfigError("[vehicle] spin_dirs must be +1 or -1")

    @classmethod
    def x_config(cls, arm_length: float = 0.12, rotor_height: float = 0.0,
                 **kwargs) -> "RotorConfig":
        """Standard X quad: rotors at +-45 deg, arm_length from center to rotor."""
        a = arm_length / math.sqrt(2.0)
        h = rotor_height
        return cls(positions=((a, a, h), (-a, a, h), (-a, -a, h), (a, -a, h)),
                   spin_dirs=(-1.0, 1.0, -1.0, 1.0), **kwargs)


def rotor_wrench(thrusts, tmap) -> tuple[list, list]:
    """Total body-frame force and torque of the four rotors; each pushes along body z.

    ``tmap`` is ``torque_matrix(cfg, com)``: thrusts to torque about ``com``.
    """
    t0, t1, t2, t3 = thrusts
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = tmap
    return ([0.0, 0.0, t0 + t1 + t2 + t3],
            [a0 * t0 + a1 * t1 + a2 * t2 + a3 * t3, b0 * t0 + b1 * t1 + b2 * t2 + b3 * t3,
             c0 * t0 + c1 * t1 + c2 * t2 + c3 * t3])


def torque_matrix(cfg: RotorConfig, com) -> list:
    """3x4 map from per-rotor thrusts to body torque about ``com`` (three floats), as rows."""
    cx, cy, _ = com
    pos = cfg.positions
    return [[y - cy for _, y, _ in pos], [cx - x for x, _, _ in pos],
            [cfg.k_tau * s for s in cfg.spin_dirs]]


def rigid_body(m_t: float, j, j_inv, g: float, dt: float, tmap, k_m: float,
               decay: float) -> tuple:
    """``(rates, m_t, dt, tmap, k_m, decay)``, the body that ``step_rk4`` integrates over ``dt``
    (checked here), with its ``torque_matrix`` and its rotors' gain and ``motor_decay``;
    ``j``/``j_inv`` are the row-major inertia and its inverse. ``rates`` maps a stage's
    ``(q, omega)``, the body wrench and the world force over ``m_t`` (sixteen floats) to
    ``(a, dq, domega)``, ten floats."""
    if not 0.0 < dt <= MAX_STEP:
        raise ValueError(f"dt must be in (0, {MAX_STEP}] s")
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = j
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = j_inv

    # the body's constants are the closure's cells, made once per body
    def rates(qw, qx, qy, qz, wx, wy, wz, fx, fy, fz, tx, ty, tz, ux, uy, uz):
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = quat_to_rot((qw, qx, qy, qz))
        ax = (r00 * fx + r01 * fy + r02 * fz) / m_t + ux
        ay = (r10 * fx + r11 * fy + r12 * fz) / m_t + uy
        az = -g + (r20 * fx + r21 * fy + r22 * fz) / m_t + uz
        hx = j00 * wx + j01 * wy + j02 * wz
        hy = j10 * wx + j11 * wy + j12 * wz
        hz = j20 * wx + j21 * wy + j22 * wz
        # tau - omega x (J omega)
        gx = tx - (wy * hz - wz * hy)
        gy = ty - (wz * hx - wx * hz)
        gz = tz - (wx * hy - wy * hx)
        return (ax, ay, az,
                0.5 * (-qx * wx - qy * wy - qz * wz),
                0.5 * (qw * wx + qy * wz - qz * wy),
                0.5 * (qw * wy - qx * wz + qz * wx),
                0.5 * (qw * wz + qx * wy - qy * wx),
                i00 * gx + i01 * gy + i02 * gz,
                i10 * gx + i11 * gy + i12 * gz,
                i20 * gx + i21 * gy + i22 * gz)
    return rates, m_t, dt, tmap, k_m, decay


def motor_decay(tau_m: float, dt: float) -> float:
    """The share ``exp(-dt/tau_m)`` of its error that a rotor keeps over one step of ``dt``."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return math.exp(-dt / tau_m)


def motor_lag_step(t_des, t_actual, k_m: float, a: float) -> list:
    """Exact first-order response of rotor thrusts toward k_m * t_des; ``a`` is the step's
    ``motor_decay``."""
    d0, d1, d2, d3 = t_des
    t0, t1, t2, t3 = t_actual
    s0, s1, s2, s3 = k_m * d0, k_m * d1, k_m * d2, k_m * d3
    return [s0 + (t0 - s0) * a, s1 + (t1 - s1) * a, s2 + (t2 - s2) * a, s3 + (t3 - s3) * a]


def step_rk4(y, thr, cmd, f_ext_w, body) -> tuple:
    """One step of ``rigid_body``'s ``body``: the motor lag takes the four rotor thrusts
    ``thr`` toward ``k_m * cmd``, then a classical RK4 step of the state ``y`` holds their
    wrench and the world force ``f_ext_w`` constant (the lag and the wrench are inline, the
    float operations of ``motor_lag_step`` and ``rotor_wrench``). Returns the next state and
    the new thrusts.

    ``y`` is the 13 floats ``(p, v, q, omega)``: world position (m) and
    velocity (m/s), the unit quaternion body->world and the body rate (rad/s).
    Each stage's rotation comes from its renormalized quaternion; the new q is
    renormalized. Raises NonFinite if any state component leaves the finite range.
    """
    rates, m_t, dt, ((a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3)), k_m, a = body
    (d0, d1, d2, d3), (t0, t1, t2, t3), (ux, uy, uz) = cmd, thr, f_ext_w
    s0, s1, s2, s3 = k_m * d0, k_m * d1, k_m * d2, k_m * d3
    t0, t1 = s0 + (t0 - s0) * a, s1 + (t1 - s1) * a
    t2, t3 = s2 + (t2 - s2) * a, s3 + (t3 - s3) * a
    fx, fy, fz = 0.0, 0.0, t0 + t1 + t2 + t3
    tx, ty = a0 * t0 + a1 * t1 + a2 * t2 + a3 * t3, b0 * t0 + b1 * t1 + b2 * t2 + b3 * t3
    tz = c0 * t0 + c1 * t1 + c2 * t2 + c3 * t3
    ux, uy, uz = ux / m_t, uy / m_t, uz / m_t
    px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = y
    h = 0.5 * dt
    # stage k: velocity vk, acceleration ak, quaternion rate dk, angular acceleration ek
    ax1, ay1, az1, dw1, dx1, dy1, dz1, ex1, ey1, ez1 = rates(
        qw, qx, qy, qz, wx, wy, wz, fx, fy, fz, tx, ty, tz, ux, uy, uz)
    vx2, vy2, vz2 = vx + h * ax1, vy + h * ay1, vz + h * az1
    ax2, ay2, az2, dw2, dx2, dy2, dz2, ex2, ey2, ez2 = rates(
        qw + h * dw1, qx + h * dx1, qy + h * dy1, qz + h * dz1,
        wx + h * ex1, wy + h * ey1, wz + h * ez1, fx, fy, fz, tx, ty, tz, ux, uy, uz)
    vx3, vy3, vz3 = vx + h * ax2, vy + h * ay2, vz + h * az2
    ax3, ay3, az3, dw3, dx3, dy3, dz3, ex3, ey3, ez3 = rates(
        qw + h * dw2, qx + h * dx2, qy + h * dy2, qz + h * dz2,
        wx + h * ex2, wy + h * ey2, wz + h * ez2, fx, fy, fz, tx, ty, tz, ux, uy, uz)
    vx4, vy4, vz4 = vx + dt * ax3, vy + dt * ay3, vz + dt * az3
    ax4, ay4, az4, dw4, dx4, dy4, dz4, ex4, ey4, ez4 = rates(
        qw + dt * dw3, qx + dt * dx3, qy + dt * dy3, qz + dt * dz3,
        wx + dt * ex3, wy + dt * ey3, wz + dt * ez3, fx, fy, fz, tx, ty, tz, ux, uy, uz)

    c = dt / 6.0
    y = (px + c * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4), py + c * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4),
         pz + c * (vz + 2.0 * vz2 + 2.0 * vz3 + vz4), vx + c * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
         vy + c * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4), vz + c * (az1 + 2.0 * az2 + 2.0 * az3 + az4),
         qw + c * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4), qx + c * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4),
         qy + c * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4), qz + c * (dz1 + 2.0 * dz2 + 2.0 * dz3 + dz4),
         wx + c * (ex1 + 2.0 * ex2 + 2.0 * ex3 + ex4), wy + c * (ey1 + 2.0 * ey2 + 2.0 * ey3 + ey4),
         wz + c * (ez1 + 2.0 * ez2 + 2.0 * ez3 + ez4))
    if not all(map(math.isfinite, y)):
        raise NonFinite("state diverged during integration")
    px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = y
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)  # unit_quat's renormalization
    if n < 1e-15:
        raise ValueError("cannot normalize a zero quaternion")
    return (px, py, pz, vx, vy, vz, qw / n, qx / n, qy / n, qz / n, wx, wy, wz), (t0, t1, t2, t3)
