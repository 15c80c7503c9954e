"""Shared spatial algebra: vectors, quaternions, rotations, rigid-body inertia.

Conventions used package-wide:

* kernels take floats: a vector is three and a matrix its nine row-major floats,
* rotation matrices map body coordinates into world coordinates,
* quaternions are scalar-first ``[w, x, y, z]``, unit norm,
* inertia tensors are 3x3, symmetric positive definite, expressed about the
  body's center of mass unless stated otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

def cross3(a, b) -> tuple:
    """Cross product of two 3-sequences, as three floats."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


_IN_RANGE = {"": lambda v: -math.inf < v < math.inf,
             "non-negative": lambda v: 0.0 <= v < math.inf,
             "positive": lambda v: 0.0 < v < math.inf}


def as_floats(x, n: int, name: str, sign: str = "") -> tuple:
    """``x`` as a tuple of ``n`` finite floats, each also "positive" or
    "non-negative" when ``sign`` says so; NaN fails every range. The one check
    of each vector a config holds, and of a scalar passed as ``[value]``:
    raises ConfigError naming ``name``."""
    try:
        vals = tuple(map(float, x))
    except (TypeError, ValueError):
        vals = None
    if vals is None or len(vals) != n:
        raise ConfigError(f"{name} needs {n} numbers, got {x!r}")
    if not all(map(_IN_RANGE[sign], vals)):
        got = vals[0] if n == 1 else list(vals)
        raise ConfigError(f"{name} must be {sign + ' and ' if sign else ''}finite, got {got}")
    return vals


def unit_quat(w: float, x: float, y: float, z: float) -> tuple:
    """The four floats over their norm; raises ValueError on a zero quaternion."""
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-15:
        raise ValueError("cannot normalize a zero quaternion")
    return w / n, x / n, y / n, z / n


def quat_to_rot(q) -> tuple:
    """Rotation matrix (body->world) of a scalar-first quaternion, renormalized first.

    ``q`` is four floats; the nine entries come back as a row-major tuple of
    floats. Raises ValueError on a zero quaternion.
    """
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-15:
        raise ValueError("cannot normalize a zero quaternion")
    w, x, y, z = w / n, x / n, y / n, z / n
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return (ww + xx - yy - zz, 2.0 * (xy - wz), 2.0 * (xz + wy),
            2.0 * (xy + wz), ww - xx + yy - zz, 2.0 * (yz - wx),
            2.0 * (xz - wy), 2.0 * (yz + wx), ww - xx - yy + zz)


def inverse3(m) -> list:
    """Row-major entries of the inverse of a 3x3 matrix (adjugate over determinant).

    ``m`` is the matrix's row-major 9 floats. Raises ValueError when the
    determinant is zero; non-finite entries propagate into the result.
    """
    a, b, c, d, e, f, g, h, i = m
    c00, c01, c02 = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * c00 + b * c01 + c * c02
    if det == 0.0:
        raise ValueError("matrix is singular")
    return [c00 / det, (c * h - b * i) / det, (b * f - c * e) / det,
            c01 / det, (a * i - c * g) / det, (c * d - a * f) / det,
            c02 / det, (b * g - a * h) / det, (a * e - b * d) / det]


def rot_to_quat(R) -> tuple:
    """Quaternion (four floats) from a rotation matrix, scalar part kept non-negative.

    ``R`` is the matrix's nine row-major floats. Raises ValueError when the
    result has zero norm.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    t = r00 + r11 + r22
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = 0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s
    elif r00 > r11 and r00 > r22:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = (r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s
    elif r11 > r22:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
        q = (r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s
    else:
        s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
        q = (r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s
    w, x, y, z = unit_quat(*q)
    return (w, x, y, z) if not w < 0.0 else (-w, -x, -y, -z)


def parallel_axis(j, mass: float, d) -> list:
    """Shift an inertia tensor from the body CoM by the offset vector ``d``.

    ``j`` is nine row-major floats and ``d`` three; the result is the nine of
    ``j + mass ((d.d) I - d d^T)``. The added term is positive semidefinite,
    so the shifted tensor never has smaller principal moments.
    """
    if mass < 0.0:
        raise ValueError("mass must be non-negative")
    dx, dy, dz = d
    dd = dx * dx + dy * dy + dz * dz
    shift = (dd - dx * dx, -dx * dy, -dx * dz, -dy * dx, dd - dy * dy, -dy * dz,
             -dz * dx, -dz * dy, dd - dz * dz)
    return [a + mass * s for a, s in zip(j, shift)]


def inertia_rows(j, name: str) -> tuple:
    """A rigid body's inertia tensor ``j`` (three rows), checked and symmetrized, as
    three row tuples of floats. The one check of an inertia: raises ConfigError
    naming ``name`` unless ``j`` is a finite, nonzero, symmetric, positive-definite
    3x3 whose principal moments obey the triangle inequality."""
    try:
        j = np.array(j, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None
    if j.shape != (3, 3):
        raise ConfigError(f"{name}: inertia tensor must be 3x3")
    if not np.all(np.isfinite(j)):
        raise ConfigError(f"{name}: inertia tensor has non-finite entries")
    scale = float(np.max(np.abs(j)))
    if scale <= 0.0:
        raise ConfigError(f"{name}: inertia tensor is zero")
    if float(np.max(np.abs(j - j.T))) > 1e-9 * scale + 1e-18:
        raise ConfigError(f"{name}: inertia tensor is not symmetric")
    j = 0.5 * (j + j.T)
    e = np.linalg.eigvalsh(j)
    if e[0] <= 0.0:
        raise ConfigError(f"{name}: inertia tensor is not positive definite (eigenvalues {e})")
    # Principal moments of a physical rigid body obey the triangle inequality.
    tol = 1e-9 * e[2]
    if e[0] + e[1] + tol < e[2]:
        raise ConfigError(f"{name}: principal moments violate the triangle inequality: {e}")
    return tuple(map(tuple, j.tolist()))


@dataclass(frozen=True)
class InertialParams:
    """Mass, CoM position, and inertia tensor about the CoM of one rigid body.

    ``com`` is three floats in whatever shared frame the caller works in; the
    inertia tensor is three row tuples along that frame's axes. The body
    compares and hashes by value.
    """

    mass: float
    com: tuple
    inertia_about_com: tuple

    def __post_init__(self):
        (mass,) = as_floats([self.mass], 1, "mass", "positive")
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "com", as_floats(self.com, 3, "com"))
        object.__setattr__(self, "inertia_about_com",
                           inertia_rows(self.inertia_about_com, "inertia_about_com"))


def composite(m_a: float, c_a, j_a, m_o: float, c_o, j_o) -> tuple:
    """Total mass, mass-weighted CoM and inertia about it of two rigid bodies.

    Each body is (mass, CoM as 3 floats, inertia about its CoM as 9 row-major
    floats) in one shared frame, and so is the result; each tensor is shifted
    by the parallel-axis theorem. Two valid bodies give a valid one, unchecked.
    Any CoM or inertia entry may be an array instead of a float: the arrays
    broadcast, and each element is the bits of the scalar call on it.
    """
    m_t = m_a + m_o
    c_t = [(m_a * a + m_o * o) / m_t for a, o in zip(c_a, c_o)]
    j_a = parallel_axis(j_a, m_a, [t - a for t, a in zip(c_t, c_a)])
    j_o = parallel_axis(j_o, m_o, [t - o for t, o in zip(c_t, c_o)])
    return m_t, c_t, [a + o for a, o in zip(j_a, j_o)]


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
