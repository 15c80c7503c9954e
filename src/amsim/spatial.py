"""Shared spatial algebra: vectors, quaternions, rotations, rigid-body inertia.

Conventions used package-wide:

* vectors are length-3 ``float64`` arrays,
* rotation matrices are 3x3 and map body coordinates into world coordinates,
* quaternions are scalar-first ``[w, x, y, z]``, unit norm,
* inertia tensors are 3x3, symmetric positive definite, expressed about the
  body's center of mass unless stated otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

E3 = np.array([0.0, 0.0, 1.0])
QUAT_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([float(x), float(y), float(z)])


def skew(v: np.ndarray) -> np.ndarray:
    """Return the 3x3 matrix [v]_x such that [v]_x @ w == cross(v, w)."""
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    return np.array([[0.0, -vz, vy],
                     [vz, 0.0, -vx],
                     [-vy, vx, 0.0]])


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors (faster than np.cross for scalars)."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = math.sqrt(q.dot(q))
    if n < 1e-15:
        raise ValueError("cannot normalize a zero quaternion")
    return q / n


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a ⊗ b, both scalar-first."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_rot(q, flat: bool = False):
    """Rotation matrix (body->world) of a scalar-first quaternion, renormalized first.

    ``q`` is any 4-sequence. With ``flat`` the nine entries come back as a
    row-major tuple of floats, for scalar code in the physics step. Raises
    ValueError on a zero quaternion.
    """
    w, x, y, z = q.tolist() if isinstance(q, np.ndarray) else q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-15:
        raise ValueError("cannot normalize a zero quaternion")
    w, x, y, z = w / n, x / n, y / n, z / n
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    r = (ww + xx - yy - zz, 2 * (xy - wz), 2 * (xz + wy),
         2 * (xy + wz), ww - xx + yy - zz, 2 * (yz - wx),
         2 * (xz - wy), 2 * (yz + wx), ww - xx - yy + zz)
    return r if flat else np.array(r).reshape(3, 3)


def inverse3(m) -> list:
    """Row-major entries of the inverse of a 3x3 matrix (adjugate over determinant).

    ``m`` is a 3x3 array or its row-major 9 floats. Raises ValueError when
    the determinant is zero; non-finite entries propagate into the result.
    """
    a, b, c, d, e, f, g, h, i = np.asarray(m, dtype=float).reshape(9).tolist()
    c00, c01, c02 = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * c00 + b * c01 + c * c02
    if det == 0.0:
        raise ValueError("matrix is singular")
    return [c00 / det, (c * h - b * i) / det, (b * f - c * e) / det,
            c01 / det, (a * i - c * g) / det, (c * d - a * f) / det,
            c02 / det, (b * g - a * h) / det, (a * e - b * d) / det]


def rot_to_quat(R: np.ndarray) -> np.ndarray:
    """Quaternion from a rotation matrix, scalar part kept non-negative."""
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
    q = quat_normalize(q)
    if q[0] < 0.0:
        q = -q
    return q


def parallel_axis(j_com: np.ndarray, mass: float, d: np.ndarray) -> np.ndarray:
    """Shift an inertia tensor from the body CoM by the offset vector ``d``.

    Adds ``mass * ((d.d) I - d ⊗ d)``, which is positive semidefinite, so the
    shifted tensor never has smaller principal moments.
    """
    if mass < 0.0:
        raise ValueError("mass must be non-negative")
    d = np.asarray(d, dtype=float)
    return np.asarray(j_com, dtype=float) + mass * (float(d @ d) * np.eye(3) - np.outer(d, d))


def _validate_inertia(j: np.ndarray) -> np.ndarray:
    j = np.asarray(j, dtype=float)
    if j.shape != (3, 3):
        raise ValueError("inertia tensor must be 3x3")
    if not np.all(np.isfinite(j)):
        raise ValueError("inertia tensor has non-finite entries")
    scale = float(np.max(np.abs(j)))
    if scale <= 0.0:
        raise ValueError("inertia tensor is zero")
    if float(np.max(np.abs(j - j.T))) > 1e-9 * scale + 1e-18:
        raise ValueError("inertia tensor is not symmetric")
    e = np.linalg.eigvalsh(0.5 * (j + j.T))
    if e[0] <= 0.0:
        raise ValueError(f"inertia tensor is not positive definite (eigenvalues {e})")
    # Principal moments of a physical rigid body obey the triangle inequality.
    tol = 1e-9 * e[2]
    if e[0] + e[1] + tol < e[2]:
        raise ValueError(f"principal moments violate the triangle inequality: {e}")
    return 0.5 * (j + j.T)


@dataclass(frozen=True)
class InertialParams:
    """Mass, CoM position, and inertia tensor about the CoM of one rigid body.

    ``com`` is expressed in whatever shared frame the caller works in; the
    inertia tensor uses that frame's axes.
    """

    mass: float
    com: np.ndarray
    inertia_about_com: np.ndarray

    def __post_init__(self):
        mass = float(self.mass)
        if not math.isfinite(mass) or mass <= 0.0:
            raise ValueError("mass must be positive and finite")
        com = np.asarray(self.com, dtype=float).reshape(3).copy()
        if not np.all(np.isfinite(com)):
            raise ValueError("com has non-finite entries")
        j = _validate_inertia(self.inertia_about_com)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "com", com)
        object.__setattr__(self, "inertia_about_com", j)


def composite(m_a: float, c_a, j_a, m_o: float, c_o, j_o):
    """Total mass, mass-weighted CoM and inertia about it of two rigid bodies.

    Each body is (mass, CoM, inertia about its CoM) in one shared frame; each
    tensor is shifted to the common CoM by the parallel-axis theorem. The
    result of two valid bodies is valid, so nothing is re-checked here.
    """
    m_t = m_a + m_o
    c_t = (m_a * c_a + m_o * c_o) / m_t
    j_t = parallel_axis(j_a, m_a, c_t - c_a) + parallel_axis(j_o, m_o, c_t - c_o)
    return m_t, c_t, j_t


def compose_inertia(am: InertialParams, obj: InertialParams, p_obj: np.ndarray) -> InertialParams:
    """Combine a carrier body and an attached object into one rigid body.

    ``p_obj`` places the object's frame origin in the shared frame; the
    object's CoM sits at ``p_obj + obj.com``. The carrier's CoM is ``am.com``
    as stored. Returns total mass, the mass-weighted CoM, and the total
    inertia about that CoM (each component tensor shifted by the parallel
    axis theorem).
    """
    c_obj = np.asarray(p_obj, dtype=float).reshape(3) + obj.com
    return InertialParams(*composite(am.mass, am.com, am.inertia_about_com,
                                     obj.mass, c_obj, obj.inertia_about_com))


def box_inertia(mass: float, dims) -> np.ndarray:
    """Inertia tensor of a solid uniform box about its center, axes along edges."""
    lx, ly, lz = (float(d) for d in dims)
    return (mass / 12.0) * np.diag([ly * ly + lz * lz,
                                    lx * lx + lz * lz,
                                    lx * lx + ly * ly])


def cylinder_inertia(mass: float, radius: float, height: float) -> np.ndarray:
    """Inertia tensor of a solid uniform cylinder, symmetry axis along z."""
    jp = mass * (3.0 * radius * radius + height * height) / 12.0
    ja = 0.5 * mass * radius * radius
    return np.diag([jp, jp, ja])
