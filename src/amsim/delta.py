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

from .spatial import as_floats, cross3


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
            as_floats([getattr(self, name)], 1, name, "positive")
        if self.forearm_len <= abs(self.base_radius - self.platform_radius):
            raise ValueError("forearm_len too short for a non-degenerate workspace")
        object.__setattr__(self, "arm_azimuths", as_floats(self.arm_azimuths, 3, "arm_azimuths"))
        object.__setattr__(self, "joint_limits", as_floats(self.joint_limits, 2, "joint_limits"))
        lo, hi = self.joint_limits
        if not lo < hi:
            raise ValueError("joint_limits must satisfy lo < hi")


def _chains(geom: DeltaGeometry, theta) -> list:
    """Per arm: cos and sin of its azimuth, then of its joint angle."""
    t1, t2, t3 = theta  # exactly three joint angles
    return [(math.cos(a), math.sin(a), math.cos(th), math.sin(th))
            for a, th in zip(geom.arm_azimuths, (t1, t2, t3))]


def sphere_centres(geom: DeltaGeometry, theta) -> list:
    """Per arm, the centre (three floats) of its forearm sphere: the elbow
    shifted inward by the platform radius."""
    la, pr = geom.upper_arm_len, geom.platform_radius
    centres = []
    for ca, sa, ct, st in _chains(geom, theta):
        r = geom.base_radius + la * ct  # radial elbow coordinate
        centres.append((r * ca - pr * ca, r * sa - pr * sa, -la * st))
    return centres


def forward_kin(geom: DeltaGeometry, theta) -> tuple:
    """Platform center position (three floats) for given joint angles: each closed
    chain is a sphere of radius ``forearm_len`` about ``sphere_centres``, and the
    three are trilaterated. Raises as ``trilaterate``."""
    return trilaterate(geom, *sphere_centres(geom, theta))


def _refuse(bad, why: str) -> None:
    if bad:
        raise NoIntersection(why)


def trilaterate(geom: DeltaGeometry, c1, c2, c3, sqrt=math.sqrt, refuse=_refuse) -> tuple:
    """The lower (platform below the base plane) of the two points at
    ``forearm_len`` from the three sphere centres, as three floats.

    Raises NoIntersection when the three spheres do not share a point. The
    arithmetic is plain, so the coordinates may be arrays: see ``trilaterate_lanes``.
    """
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = c1, c2, c3
    ex0, ex1, ex2 = x2 - x1, y2 - y1, z2 - z1
    d = sqrt(ex0 * ex0 + ex1 * ex1 + ex2 * ex2)
    refuse(d < 1e-12, "coincident sphere centers")
    ex0, ex1, ex2 = ex0 / d, ex1 / d, ex2 / d
    t0, t1, t2 = x3 - x1, y3 - y1, z3 - z1
    i_coord = ex0 * t0 + ex1 * t1 + ex2 * t2
    ey0, ey1, ey2 = t0 - i_coord * ex0, t1 - i_coord * ex1, t2 - i_coord * ex2
    j_coord = sqrt(ey0 * ey0 + ey1 * ey1 + ey2 * ey2)
    refuse(j_coord < 1e-12, "collinear sphere centers")
    ey0, ey1, ey2 = ey0 / j_coord, ey1 / j_coord, ey2 / j_coord
    ez0, ez1, ez2 = cross3((ex0, ex1, ex2), (ey0, ey1, ey2))

    r2 = geom.forearm_len ** 2
    x = 0.5 * d  # equal radii
    y = (i_coord * i_coord + j_coord * j_coord - 2.0 * i_coord * x) / (2.0 * j_coord)
    z2 = r2 - x * x - y * y
    refuse(z2 < -1e-12 * r2, "forearm spheres do not intersect")
    z = sqrt(z2 - z2 * (z2 < 0.0))  # z2 clamped at 0 where the spheres just touch

    b0, b1, b2 = x1 + x * ex0 + y * ey0, y1 + x * ex1 + y * ey1, z1 + x * ex2 + y * ey2
    z = z * (2.0 * (b2 + z * ez2 <= b2 - z * ez2) - 1.0)  # -z where the other point is lower
    return b0 + z * ez0, b1 + z * ez1, b2 + z * ez2


def trilaterate_lanes(geom: DeltaGeometry, c1, c2, c3) -> tuple:
    """``trilaterate`` of arrays of centre coordinates, with numpy's square root
    and each refusal's condition kept instead of raised, as ``(point, ok)``: three
    arrays whose every lane has the bits of the float call, and a mask that is
    False exactly where the float call raises (those lanes hold no point)."""
    bad = []
    with np.errstate(all="ignore"):
        point = trilaterate(geom, c1, c2, c3, np.sqrt, lambda b, _: bad.append(b))
    return point, ~(bad[0] | bad[1] | bad[2])


def inverse_kin(geom: DeltaGeometry, p) -> tuple:
    """Joint angles (three floats) that place the platform center at ``p``.

    Per arm the chain reduces to A cos(theta) + B sin(theta) = C; of the two
    roots the elbow-out branch (larger radial elbow coordinate) is kept.

    Raises Unreachable when any arm has |C| > hypot(A, B), OutOfLimits when a
    root violates the joint limits.
    """
    px, py, c = p
    la = geom.upper_arm_len
    shift = geom.platform_radius - geom.base_radius
    lo, hi = geom.joint_limits
    thetas = []
    for i, az in enumerate(geom.arm_azimuths):
        ux, uy = math.cos(az), math.sin(az)
        qx, qy = px + shift * ux, py + shift * uy
        a = qx * ux + qy * uy   # radial coordinate
        b = qy * ux - qx * uy   # tangential coordinate
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
        thetas.append(th)
    return tuple(thetas)


def _closure(geom: DeltaGeometry, theta, platform) -> tuple[list, list]:
    """Loop closure N v = diag(b) thetadot: forearm vectors n_i, b_i = n_i . dE_i/dtheta_i;
    ``platform`` is ``forward_kin(geom, theta)``."""
    p0, p1, p2 = platform
    la, pr, br = geom.upper_arm_len, geom.platform_radius, geom.base_radius
    rows, b = [], []
    for ca, sa, ct, st in _chains(geom, theta):
        r = br + la * ct  # radial elbow coordinate
        n0, n1, n2 = p0 + pr * ca - r * ca, p1 + pr * sa - r * sa, p2 + la * st
        rows.append((n0, n1, n2))
        # n_i . dE_i/dtheta_i, with dE/dtheta = la (-sin(th) u_i - cos(th) e3)
        b.append(n0 * (la * (-st * ca)) + n1 * (la * (-st * sa)) + n2 * -(la * ct))
    return rows, b


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _well_conditioned(rows, b) -> bool:
    """True only where ``jacobian`` passes its Singular check; False means "ask it".

    J^-1 has rows n_i / b_i and J columns b_i (n_j x n_k) / det N, (i, j, k)
    cyclic, so cond_F(J) is closed form, and cond_2 <= cond_F <= 3 cond_2.
    Accepted: all finite, det N and each b_i nonzero, |det N| >= 1e-6 prod ||n_i||
    (the n_i have the forearm length, so cond_2(N) < 5.2e6 and numpy's J is
    within a relative 1e-9 of this one) and sqrt(2) <= cond_F(J) <= 0.5e8, half
    the limit (cond_F >= sqrt(3) always: a smaller value is an underflow).
    """
    n0, n1, n2 = rows
    c0, c1, c2 = cross3(n1, n2), cross3(n2, n0), cross3(n0, n1)  # det N times N^-1's columns
    det = _dot(n0, c0)
    dd, bb0, bb1, bb2 = det * det, b[0] * b[0], b[1] * b[1], b[2] * b[2]
    s0, s1, s2 = _dot(n0, n0), _dot(n1, n1), _dot(n2, n2)
    if not (dd > 0.0 and bb0 and bb1 and bb2 and dd >= 1e-12 * s0 * s1 * s2):
        return False  # NaN fails every comparison, and propagates into cond_f2 below
    cond_f2 = ((s0 / bb0 + s1 / bb1 + s2 / bb2)
               * (bb0 * _dot(c0, c0) + bb1 * _dot(c1, c1) + bb2 * _dot(c2, c2)))
    return 2.0 * dd <= cond_f2 <= (0.5 * _COND_LIMIT) ** 2 * dd


def jacobian(geom: DeltaGeometry, theta) -> np.ndarray:
    """Velocity Jacobian J = N^-1 diag(b), v = J @ theta_dot; Singular above cond_2 1e8."""
    rows, b = _closure(geom, theta, forward_kin(geom, theta))
    try:
        jac = np.linalg.solve(np.array(rows), np.diag(b))
    except np.linalg.LinAlgError as exc:
        raise Singular("forearm directions are coplanar") from exc
    if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > _COND_LIMIT:
        raise Singular("jacobian condition number above 1e8")
    return jac


def joint_command(geom: DeltaGeometry, target_p, target_v, theta, platform,
                  k_theta) -> tuple[tuple, tuple]:
    """Servo setpoints, three floats each: IK position plus feedforward/proportional velocity.

    theta_des = IK(target_p); theta_dot_des = J^-1 target_v + K_theta (theta_des - theta),
    (J^-1 v)_i = (n_i . v) / b_i, ``theta`` the current joint angles, ``platform`` their
    ``forward_kin`` and ``k_theta`` the diagonal of K_theta. Raises as ``inverse_kin``,
    then as ``jacobian``.
    """
    theta_des = inverse_kin(geom, target_p)
    rows, b = _closure(geom, theta, platform)
    if not _well_conditioned(rows, b):
        jacobian(geom, theta)  # numpy's Singular check decides
    v0, v1, v2 = target_v
    return theta_des, tuple(float((n0 * v0 + n1 * v1 + n2 * v2) / bi + k * (d - th))
                            for (n0, n1, n2), bi, k, d, th in
                            zip(rows, b, k_theta, theta_des, theta))


def servo_step(geom: DeltaGeometry, theta, theta_dot_cmd, dt: float,
               rate_limit: float) -> tuple:
    """Joint angles (three floats) after one tick of rate-limited tracking of the command.

    ``rate_limit`` must be non-negative (checked where the config is built);
    the clamped value comes first so that a NaN command passes, as in np.clip.
    """
    lo, hi = geom.joint_limits
    return tuple(min(max(th + min(max(x, -rate_limit), rate_limit) * dt, lo), hi)
                 for th, x in zip(theta, theta_dot_cmd))
