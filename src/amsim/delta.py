"""3-RSS delta manipulator: closed-form kinematics and joint-space tracking.

Geometry convention: three identical arms, shoulder axes tangent to a circle
of ``base_radius`` in the z=0 plane of the arm frame, azimuths 120 deg apart.
Joint angle theta is measured from horizontal, positive rotating the upper
arm downward, so the platform hangs below the base (negative z).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spatial import cross3


class KinematicsError(Exception):
    """Base class for delta kinematics failures."""


class NoIntersection(KinematicsError):
    """Forearm spheres do not meet: joint angles infeasible for this geometry."""


class Unreachable(KinematicsError):
    """Target point lies outside the arm's reachable set."""


class OutOfLimits(KinematicsError):
    """Closed-form solution exists but violates the joint limits."""


class Singular(KinematicsError):
    """Jacobian is singular or nearly so (condition number above 1e8)."""


_DEFAULT_AZIMUTHS = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
_DEFAULT_LIMITS = (-math.pi / 6.0, 2.0 * math.pi / 3.0)  # -30 deg .. +120 deg

_COND_LIMIT = 1e8


@dataclass(frozen=True)
class DeltaGeometry:
    base_radius: float = 0.06
    platform_radius: float = 0.03
    upper_arm_len: float = 0.08
    forearm_len: float = 0.16
    arm_azimuths: tuple = _DEFAULT_AZIMUTHS
    joint_limits: tuple = _DEFAULT_LIMITS

    def __post_init__(self):
        for name in ("base_radius", "platform_radius", "upper_arm_len", "forearm_len"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.forearm_len <= abs(self.base_radius - self.platform_radius):
            raise ValueError("forearm_len too short for a non-degenerate workspace")
        if len(self.arm_azimuths) != 3:
            raise ValueError("exactly three arm azimuths required")
        lo, hi = self.joint_limits
        if not lo < hi:
            raise ValueError("joint_limits must satisfy lo < hi")

    def radial(self, i: int) -> np.ndarray:
        a = self.arm_azimuths[i]
        return np.array([math.cos(a), math.sin(a), 0.0])

    def tangent(self, i: int) -> np.ndarray:
        a = self.arm_azimuths[i]
        return np.array([-math.sin(a), math.cos(a), 0.0])


@dataclass
class JointState:
    theta: np.ndarray
    theta_dot: np.ndarray

    def copy(self) -> "JointState":
        return JointState(self.theta.copy(), self.theta_dot.copy())


def _elbow(geom: DeltaGeometry, theta_i: float, i: int) -> np.ndarray:
    u = geom.radial(i)
    r = geom.base_radius + geom.upper_arm_len * math.cos(theta_i)
    z = -geom.upper_arm_len * math.sin(theta_i)
    return r * u + np.array([0.0, 0.0, z])


def _elbow_rate(geom: DeltaGeometry, theta_i: float, i: int) -> np.ndarray:
    # dE/dtheta for one arm
    u = geom.radial(i)
    return geom.upper_arm_len * (-math.sin(theta_i) * u
                                 - math.cos(theta_i) * np.array([0.0, 0.0, 1.0]))


def forward_kin(geom: DeltaGeometry, theta) -> np.ndarray:
    """Platform center position for given joint angles.

    Reduces each closed chain to a sphere of radius ``forearm_len`` centered
    at the elbow shifted inward by the platform radius, then trilaterates.
    Of the two sphere intersections the lower one (platform below the base
    plane) is returned.

    Raises NoIntersection when the three spheres do not share a point.
    """
    theta = np.asarray(theta, dtype=float).reshape(3)
    centers = [_elbow(geom, theta[i], i) - geom.platform_radius * geom.radial(i)
               for i in range(3)]
    c1, c2, c3 = centers

    ex_raw = c2 - c1
    d = float(np.linalg.norm(ex_raw))
    if d < 1e-12:
        raise NoIntersection("coincident sphere centers")
    ex = ex_raw / d
    t3 = c3 - c1
    i_coord = float(ex @ t3)
    ey_raw = t3 - i_coord * ex
    j_coord = float(np.linalg.norm(ey_raw))
    if j_coord < 1e-12:
        raise NoIntersection("collinear sphere centers")
    ey = ey_raw / j_coord
    ez = cross3(ex, ey)

    r2 = geom.forearm_len ** 2
    x = 0.5 * d  # equal radii
    y = (i_coord * i_coord + j_coord * j_coord - 2.0 * i_coord * x) / (2.0 * j_coord)
    z2 = r2 - x * x - y * y
    if z2 < -1e-12 * r2:
        raise NoIntersection("forearm spheres do not intersect")
    z = math.sqrt(max(z2, 0.0))

    base = c1 + x * ex + y * ey
    pa = base + z * ez
    pb = base - z * ez
    return pa if pa[2] <= pb[2] else pb


def inverse_kin(geom: DeltaGeometry, p) -> np.ndarray:
    """Joint angles that place the platform center at ``p``.

    Per arm the chain reduces to A cos(theta) + B sin(theta) = C; of the two
    roots the elbow-out branch (larger radial elbow coordinate) is kept.

    Raises Unreachable when any arm has |C| > hypot(A, B), OutOfLimits when a
    root violates the joint limits.
    """
    p = np.asarray(p, dtype=float).reshape(3)
    la = geom.upper_arm_len
    thetas = np.empty(3)
    lo, hi = geom.joint_limits
    for i in range(3):
        u = geom.radial(i)
        q = p + (geom.platform_radius - geom.base_radius) * u
        a = float(q @ u)
        b = float(q @ geom.tangent(i))
        c = float(q[2])
        A = 2.0 * a * la
        B = -2.0 * c * la
        C = a * a + b * b + c * c + la * la - geom.forearm_len ** 2
        rad = math.hypot(A, B)
        if rad < 1e-15 or abs(C) > rad * (1.0 + 1e-12):
            raise Unreachable(f"arm {i}: point outside reachable annulus")
        phi = math.atan2(B, A)
        delta = math.acos(min(1.0, max(-1.0, C / rad)))
        cands = (phi - delta, phi + delta)
        # elbow-out: prefer the root that pushes the elbow radially outward
        th = max(cands, key=math.cos)
        th = math.atan2(math.sin(th), math.cos(th))
        if th < lo - 1e-9 or th > hi + 1e-9:
            raise OutOfLimits(f"arm {i}: theta={th:.4f} rad outside limits")
        thetas[i] = th
    return thetas


def jacobian(geom: DeltaGeometry, theta) -> np.ndarray:
    """End-effector velocity Jacobian J with v = J @ theta_dot.

    Built from the loop-closure constraint n_i . v = (n_i . dE_i/dtheta_i) thetadot_i
    where n_i is the forearm vector of chain i.

    Raises Singular at configurations with condition number above 1e8.
    """
    theta = np.asarray(theta, dtype=float).reshape(3)
    p = forward_kin(geom, theta)
    n_rows = np.empty((3, 3))
    b = np.empty(3)
    for i in range(3):
        n_i = p + geom.platform_radius * geom.radial(i) - _elbow(geom, theta[i], i)
        n_rows[i] = n_i
        b[i] = float(n_i @ _elbow_rate(geom, theta[i], i))
    try:
        jac = np.linalg.solve(n_rows, np.diag(b))
    except np.linalg.LinAlgError as exc:
        raise Singular("forearm directions are coplanar") from exc
    if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > _COND_LIMIT:
        raise Singular("jacobian condition number above 1e8")
    return jac


def joint_command(geom: DeltaGeometry, target_p, target_v, current: JointState,
                  k_theta) -> tuple[np.ndarray, np.ndarray]:
    """Servo setpoints: IK position plus feedforward/proportional velocity.

    theta_des = IK(target_p); theta_dot_des = J^-1 target_v + K_theta (theta_des - theta).
    ``k_theta`` is the diagonal of the proportional gain matrix.
    """
    theta_des = inverse_kin(geom, target_p)
    jac = jacobian(geom, current.theta)
    ff = np.linalg.solve(jac, np.asarray(target_v, dtype=float).reshape(3))
    theta_dot_des = ff + np.asarray(k_theta, dtype=float) * (theta_des - current.theta)
    return theta_des, theta_dot_des


def servo_step(geom: DeltaGeometry, st: JointState, theta_dot_cmd, dt: float,
               rate_limit: float = 6.0) -> JointState:
    """Advance the servo model one tick: rate-limited tracking of the command."""
    td = np.clip(np.asarray(theta_dot_cmd, dtype=float).reshape(3), -rate_limit, rate_limit)
    lo, hi = geom.joint_limits
    th = np.clip(st.theta + td * dt, lo, hi)
    return JointState(th, td)
