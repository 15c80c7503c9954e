"""Quadrotor rigid-body model: rotor wrench, 6-DOF derivatives, motor lag, RK4.

The body frame sits at the unloaded vehicle CoM, z up through the rotor
plane. Rotor speeds are normalized to [0, 1]; a rotor at full speed produces
``c_t`` newtons, so per-rotor thrust is capped at ``c_t``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spatial import inverse3, quat_normalize, quat_to_rot


class NonFinite(RuntimeError):
    """Integration produced NaN or Inf state components."""


MAX_STEP = 5e-3


class VehicleState:
    """Rigid-body state kept as the 13 floats ``y = (p, v, q, omega)``.

    ``p``/``v`` are world position (m) and velocity (m/s), ``q`` the unit
    quaternion body->world and ``omega`` the body rate (rad/s). Each reads as
    a new read-only array; assigning one replaces its floats.
    """
    __slots__ = ("y",)

    def __init__(self, p, v, q, omega):
        self.y = tuple(np.concatenate([np.asarray(x, dtype=float).reshape(n) for x, n in
                                       ((p, 3), (v, 3), (q, 4), (omega, 3))]).tolist())

    def _part(lo: int, hi: int):
        def get(self) -> np.ndarray:
            a = np.array(self.y[lo:hi])
            a.flags.writeable = False
            return a

        def put(self, x):
            self.y = (*self.y[:lo], *np.asarray(x, dtype=float).reshape(hi - lo).tolist(),
                      *self.y[hi:])
        return property(get, put)

    p, v, q, omega = _part(0, 3), _part(3, 6), _part(6, 10), _part(10, 13)
    del _part

    def copy(self) -> "VehicleState":
        return _state(self.y)

    @classmethod
    def at_rest(cls, p) -> "VehicleState":
        return cls(p, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _state(y: tuple) -> VehicleState:
    """A VehicleState around the 13 floats ``y``, taken as they are."""
    s = object.__new__(VehicleState)
    s.y = y
    return s


@dataclass(frozen=True)
class RotorConfig:
    positions: np.ndarray  # (4,3) rotor centers in body frame (m)
    spin_dirs: np.ndarray  # (4,) +1 / -1
    c_t: float = 18.1712   # N at unit normalized speed (squared-speed thrust model)
    k_tau: float = 0.0136  # yaw drag torque per newton of thrust (m)
    k_m: float = 1.0       # motor steady-state gain
    tau_m: float = 0.02    # motor time constant (s)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(4, 3).copy()
        spins = np.asarray(self.spin_dirs, dtype=float).reshape(4).copy()
        if self.c_t <= 0.0 or self.tau_m <= 0.0:
            raise ValueError("c_t and tau_m must be positive")
        if not np.all(np.abs(spins) == 1.0):
            raise ValueError("spin_dirs must be +1 or -1")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "spin_dirs", spins)

    @property
    def max_thrust(self) -> float:
        """Per-rotor thrust at full normalized speed."""
        return self.c_t

    @classmethod
    def x_config(cls, arm_length: float = 0.12, rotor_height: float = 0.0,
                 **kwargs) -> "RotorConfig":
        """Standard X quad: rotors at +-45 deg, arm_length from center to rotor."""
        a = arm_length / math.sqrt(2.0)
        h = rotor_height
        positions = np.array([[a, a, h], [-a, a, h], [-a, -a, h], [a, -a, h]])
        spin_dirs = np.array([-1.0, 1.0, -1.0, 1.0])
        return cls(positions=positions, spin_dirs=spin_dirs, **kwargs)


@dataclass
class Environment:
    g: float = 9.81
    wind: list = field(default_factory=list)  # [(t_start, force_vec3 N)], piecewise constant
    accel_noise: float = 0.0  # sigma, m/s^2 per axis
    gyro_noise: float = 0.0   # sigma, rad/s per axis

    def __post_init__(self):
        if self.g <= 0.0:
            raise ValueError("g must be positive")
        self.wind = sorted(((float(t), tuple(np.asarray(f, dtype=float).reshape(3).tolist()))
                            for t, f in self.wind), key=lambda x: x[0])

    def wind_at(self, t: float) -> tuple:
        """World force (N) at ``t`` as three floats."""
        out = (0.0, 0.0, 0.0)
        for t0, f in self.wind:
            if t >= t0:
                out = f
            else:
                break
        return out


def rotor_wrench(thrusts, cfg: RotorConfig, com=None, tmap=None) -> tuple[list, list]:
    """Total body-frame force and torque of the four rotors about ``com``.

    Each rotor pushes along body z; yaw drag is ``spin_dir * k_tau * T`` about z.
    ``tmap`` may replace ``com`` with its precomputed
    ``torque_matrix(cfg, com).tolist()``, which stays valid while the CoM
    stays put.
    """
    t0, t1, t2, t3 = thrusts
    if tmap is None:
        tmap = torque_matrix(cfg, com).tolist()
    return ([0.0, 0.0, t0 + t1 + t2 + t3],
            [r[0] * t0 + r[1] * t1 + r[2] * t2 + r[3] * t3 for r in tmap])


def torque_matrix(cfg: RotorConfig, com) -> np.ndarray:
    """3x4 map from per-rotor thrusts to body torque about ``com``."""
    com = np.asarray(com, dtype=float).reshape(3)
    arms = cfg.positions - com
    m = np.empty((3, 4))
    m[0] = arms[:, 1]
    m[1] = -arms[:, 0]
    m[2] = cfg.k_tau * cfg.spin_dirs
    return m


def _floats(x, n: int):
    """``x`` as ``n`` floats; a list or tuple of ``n`` passes through as is."""
    if type(x) in (list, tuple) and len(x) == n:
        return x
    return np.asarray(x, dtype=float).reshape(n).tolist()


def _deriv(y, f, tau, m_t, j, j_inv, g, ext):
    """Derivative of the 13-float state ``y = (p, v, q, omega)``.

    ``f``/``tau`` are the body wrench, ``j``/``j_inv`` the row-major inertia
    and its inverse, ``ext`` an optional world force: all plain floats.
    """
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = y
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = quat_to_rot((qw, qx, qy, qz), flat=True)
    fx, fy, fz = f
    ax = (r00 * fx + r01 * fy + r02 * fz) / m_t
    ay = (r10 * fx + r11 * fy + r12 * fz) / m_t
    az = -g + (r20 * fx + r21 * fy + r22 * fz) / m_t
    if ext is not None:
        ax += ext[0] / m_t
        ay += ext[1] / m_t
        az += ext[2] / m_t
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = j
    hx = j00 * wx + j01 * wy + j02 * wz
    hy = j10 * wx + j11 * wy + j12 * wz
    hz = j20 * wx + j21 * wy + j22 * wz
    # tau - omega x (J omega)
    gx = tau[0] - (wy * hz - wz * hy)
    gy = tau[1] - (wz * hx - wx * hz)
    gz = tau[2] - (wx * hy - wy * hx)
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = j_inv
    return [vx, vy, vz, ax, ay, az,
            0.5 * (-qx * wx - qy * wy - qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            i00 * gx + i01 * gy + i02 * gz,
            i10 * gx + i11 * gy + i12 * gz,
            i20 * gx + i21 * gy + i22 * gz]


def _kernel_args(force_b, torque_b, j_t, j_inv, f_ext_w):
    j = _floats(j_t, 9)
    return (_floats(force_b, 3), _floats(torque_b, 3), j,
            inverse3(j) if j_inv is None else _floats(j_inv, 9),
            None if f_ext_w is None else _floats(f_ext_w, 3))


def derivatives(s: VehicleState, wrench, m_t: float, j_t: np.ndarray,
                g: float = 9.81, f_ext_w=None, j_inv=None):
    """Time derivatives (dp, dv, dq, domega) of the rigid-body state.

    ``wrench`` is the body-frame (force, torque) pair about the current CoM;
    ``f_ext_w`` is an optional extra world-frame force (e.g. wind). A
    precomputed ``j_inv`` (3x3 or row-major 9 floats) skips the inversion.
    """
    f, tau, j, ji, ext = _kernel_args(wrench[0], wrench[1], j_t, j_inv, f_ext_w)
    d = _deriv(s.y, f, tau, m_t, j, ji, g, ext)
    return np.array(d[0:3]), np.array(d[3:6]), np.array(d[6:10]), np.array(d[10:13])


def motor_lag_step(t_des, t_actual, cfg: RotorConfig, dt: float) -> list:
    """Exact first-order response of rotor thrusts toward k_m * t_des over dt."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    a = math.exp(-dt / cfg.tau_m)
    k_m = cfg.k_m
    return [k_m * d + (t - k_m * d) * a for d, t in zip(t_des, t_actual, strict=True)]


def step_rk4(s: VehicleState, force_b, torque_b, m_t: float, j_t: np.ndarray,
             dt: float, g: float = 9.81, f_ext_w=None, j_inv=None) -> VehicleState:
    """Classical RK4 step holding the body wrench constant; renormalizes q.

    Each stage's rotation comes from its renormalized quaternion. A
    precomputed ``j_inv`` (3x3 or row-major 9 floats) skips the inversion.
    Raises NonFinite if any state component leaves the finite range.
    """
    if not 0.0 < dt <= MAX_STEP:
        raise ValueError(f"dt must be in (0, {MAX_STEP}] s")
    f, tau, j, ji, ext = _kernel_args(force_b, torque_b, j_t, j_inv, f_ext_w)
    y0 = s.y
    h = 0.5 * dt
    k1 = _deriv(y0, f, tau, m_t, j, ji, g, ext)
    k2 = _deriv([a + h * b for a, b in zip(y0, k1)], f, tau, m_t, j, ji, g, ext)
    k3 = _deriv([a + h * b for a, b in zip(y0, k2)], f, tau, m_t, j, ji, g, ext)
    k4 = _deriv([a + dt * b for a, b in zip(y0, k3)], f, tau, m_t, j, ji, g, ext)

    sixth = dt / 6.0
    y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
         for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
    if not all(map(math.isfinite, y)):
        raise NonFinite("state diverged during integration")
    # the norm stays numpy's dot, whose rounding a plain float sum does not match
    y[6:10] = quat_normalize(np.array(y[6:10])).tolist()
    return _state(tuple(y))
