import math

import numpy as np
import pytest

from amsim.delta import DeltaGeometry
from amsim.dynamics import rigid_body, step_rk4
from amsim.spatial import InertialParams, inverse3, quat_to_rot


@pytest.fixture
def geom():
    return DeltaGeometry()


@pytest.fixture
def vehicle_params():
    return InertialParams(1.379, np.array([0.0, 0.0, 0.03]),
                          np.diag([9.2e-3, 10.5e-3, 14.7e-3]))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rot_matrix(q) -> np.ndarray:
    """``quat_to_rot`` of any 4-sequence, its nine row-major floats as a 3x3 array."""
    return np.reshape(quat_to_rot(np.asarray(q, dtype=float).tolist()), (3, 3))


def random_rotation(rng):
    q = rng.standard_normal(4)
    return rot_matrix(q / np.linalg.norm(q))


def state(p=(0.0, 0.0, 0.0), v=(0.0, 0.0, 0.0), q=(1.0, 0.0, 0.0, 0.0),
          omega=(0.0, 0.0, 0.0)) -> tuple:
    """The 13-float vehicle state ``(p, v, q, omega)`` from any sequences; at rest by default."""
    return tuple(np.concatenate([np.ravel(x) for x in (p, v, q, omega)]).astype(float).tolist())


# the parts of a 13-float state
P, V, Q, W = slice(0, 3), slice(3, 6), slice(6, 10), slice(10, 13)


# a torque map (``dynamics.torque_matrix``) under which no thrust makes a torque
NO_TORQUE = ((0.0, 0.0, 0.0, 0.0),) * 3


def step(y, thrusts, m, j, dt, g=9.81, wind=(0.0, 0.0, 0.0), tmap=NO_TORQUE):
    """The next state from ``step_rk4`` on test values, with the motor lag off (gain 1,
    decay 0) so that the four rotors hold ``thrusts``, which ``tmap`` maps to torque:
    arrays go in as the floats it takes, the inertia as nine row-major floats with their
    ``inverse3``, bound by ``rigid_body``."""
    j9 = np.ravel(j).astype(float).tolist()
    thr = np.ravel(thrusts).astype(float).tolist()
    return step_rk4(y, thr, thr, tuple(np.ravel(wind).astype(float).tolist()),
                    rigid_body(m, j9, inverse3(j9), g, dt, tmap, 1.0, 0.0))[0]


def lattice_inertia(bodies, n=48):
    """Point-mass discretization oracle, independent of the analytic path.

    Each body is a posed uniform box sampled on an n^3 lattice of cell
    centers; returns total mass, numeric CoM, and sum of
    m_k [(r.r)I - r outer r] about that CoM.
    """
    points = []
    masses = []
    for mass, dims, rot, com in bodies:
        ticks = (np.arange(n) + 0.5) / n - 0.5
        gx, gy, gz = np.meshgrid(ticks, ticks, ticks, indexing="ij")
        local = np.column_stack([gx.ravel() * dims[0],
                                 gy.ravel() * dims[1],
                                 gz.ravel() * dims[2]])
        points.append(local @ np.asarray(rot).T + np.asarray(com))
        masses.append(np.full(local.shape[0], mass / local.shape[0]))
    pts = np.vstack(points)
    m = np.concatenate(masses)
    total = m.sum()
    c = (m[:, None] * pts).sum(axis=0) / total
    r = pts - c
    rr = (r * r).sum(axis=1)
    j = np.zeros((3, 3))
    j[0, 0] = (m * (rr - r[:, 0] ** 2)).sum()
    j[1, 1] = (m * (rr - r[:, 1] ** 2)).sum()
    j[2, 2] = (m * (rr - r[:, 2] ** 2)).sum()
    j[0, 1] = j[1, 0] = -(m * r[:, 0] * r[:, 1]).sum()
    j[0, 2] = j[2, 0] = -(m * r[:, 0] * r[:, 2]).sum()
    j[1, 2] = j[2, 1] = -(m * r[:, 1] * r[:, 2]).sum()
    return total, c, j


def ref_rot_to_quat(R):
    """The array rot_to_quat the float one replaced, kept as its oracle."""
    R = np.asarray(R, dtype=float)
    t = R[0, 0] + R[1, 1] + R[2, 2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s,
                      0.25 * s,
                      (R[0, 1] + R[1, 0]) / s,
                      (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] > R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s,
                      (R[0, 1] + R[1, 0]) / s,
                      0.25 * s,
                      (R[1, 2] + R[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s,
                      (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s,
                      0.25 * s])
    q = q / np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def ref_composite(m_a, c_a, j_a, m_o, c_o, j_o):
    """The array parallel-axis sum that the float ``spatial.composite`` replaced.

    d.d is summed left to right: ``d @ d`` goes to a BLAS kernel whose fused
    multiply-adds can round the last bit differently.
    """
    def shift(j, mass, d):
        return j + mass * (float(np.sum(d * d)) * np.eye(3) - np.outer(d, d))
    m_t = m_a + m_o
    c_t = (m_a * c_a + m_o * c_o) / m_t
    return m_t, c_t, shift(j_a, m_a, c_t - c_a) + shift(j_o, m_o, c_t - c_o)


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a ⊗ b of two scalar-first quaternions, as an array."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def random_body(rng):
    """Mass, CoM and inertia about the CoM of a randomly posed solid box."""
    from amsim.spatial import box_inertia
    mass = rng.uniform(0.05, 3.0)
    rot = random_rotation(rng)
    return (mass, rng.uniform(-0.3, 0.3, 3),
            rot @ box_inertia(mass, rng.uniform(0.02, 0.4, 3)) @ rot.T)


def rot_to_quat_case(R) -> int:
    """Which of rot_to_quat's four branches a rotation takes (0: trace > 0)."""
    R = np.asarray(R, dtype=float).reshape(3, 3)
    if R[0, 0] + R[1, 1] + R[2, 2] > 0.0:
        return 0
    if R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        return 1
    return 2 if R[1, 1] > R[2, 2] else 3


def monic(tf):
    """Numerator and denominator coefficients of ``tf`` over its leading
    denominator coefficient, as arrays: equal for two forms of one loop."""
    s = tf.den[-1]
    return np.array(tf.num) / s, np.array(tf.den) / s
