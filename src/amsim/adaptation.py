"""Post-grasp refinement: grasp detection, mass observer, inertia composition.

The mass observer watches the world-frame force residual
``f = R T - m_a (a + g e3)``: thrust in excess of what the bare vehicle
needs, i.e. the apparent weight of whatever hangs from it. At a steady lift
its z component equals the payload weight. The observer state relaxes toward
``f_z / g`` with rate ``c / m_a``; the update below integrates that relation
exactly over each sample interval, so a constant residual reproduces the
continuous first-order response to machine precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import delta
from .spatial import composite


def lowpass_alpha(cutoff_hz: float, dt: float) -> float:
    """Per-sample blend factor of a first-order low-pass at the given cutoff."""
    return 1.0 - math.exp(-2.0 * math.pi * cutoff_hz * dt)


@dataclass
class TotalInertia:
    m_t_hat: float
    c_t: list      # arm-frame CoM of vehicle + payload, three floats
    j_t_hat: list  # inertia about c_t, nine row-major floats


def dob_step(m_hat: float, force_filt, accel_w, R, thrust_body, m_a: float, c: float,
             dt: float, g: float, alpha: float) -> tuple[float, tuple]:
    """One observer tick from world acceleration, attitude, and total thrust.

    ``accel_w`` and ``thrust_body`` are three floats and ``R``, the body-to-world
    rotation, its nine row-major floats. The raw residual is low-pass filtered
    with the blend ``alpha`` (``lowpass_alpha`` of the cutoff at ``dt``); a
    ``force_filt`` of None seeds the filter. Then the mass estimate relaxes
    toward residual_z / g with time constant m_a / c using the exact
    zero-order-hold discretization. Returns the estimate, clamped
    non-negative, and the filtered residual as three floats.
    """
    a0, a1, a2 = accel_w
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    t0, t1, t2 = thrust_body
    f0 = (r00 * t0 + r01 * t1 + r02 * t2) - m_a * a0
    f1 = (r10 * t0 + r11 * t1 + r12 * t2) - m_a * a1
    f2 = (r20 * t0 + r21 * t1 + r22 * t2) - m_a * a2 - m_a * g
    if force_filt is not None:
        p0, p1, p2 = force_filt
        f0, f1, f2 = p0 + alpha * (f0 - p0), p1 + alpha * (f1 - p1), p2 + alpha * (f2 - p2)
    decay = math.exp(-c * dt / m_a)
    target = f2 / g
    return max(target + (m_hat - target) * decay, 0.0), (f0, f1, f2)


def detect_grasp(elapsed: float, ext_force_z: float, threshold: float, persistence: float,
                 dt: float) -> tuple[float, bool]:
    """Accumulate time above threshold; latch once it persists long enough.

    Returns the new time above threshold and whether the grasp latched: any
    drop below the threshold resets the time. The caller stops calling once
    latched, so the latch never clears.
    """
    elapsed = elapsed + dt if abs(ext_force_z) > threshold else 0.0
    return elapsed, elapsed >= persistence - 1e-12


def rescale_moi(j_tilde, m_tilde: float, m_hat: float) -> list:
    """Scale the pre-grasp MoI estimate (nine floats) by the refined-to-initial mass
    ratio; ``m_tilde`` is positive, as ``ObjectEstimate`` requires."""
    return [j * (m_hat / m_tilde) for j in j_tilde]


def update_total(m_a: float, j_a, p_b, obj_mass, obj_moi, grasp_offset,
                 theta, geom: delta.DeltaGeometry) -> TotalInertia:
    """Composite mass/CoM/MoI of vehicle plus grasped object at the current pose.

    Vectors are three floats and inertias nine row-major floats; the object CoM
    sits at forward_kin(theta) + grasp_offset in the arm frame. With no object
    mass (the observer clamps its estimate to 0) the bare vehicle parameters
    come back as new lists. Both bodies must already be valid (the vehicle at
    config load, the object where its inertia is built): ``composite`` checks nothing.
    """
    if obj_mass <= 0.0:
        return TotalInertia(m_a, list(p_b), list(j_a))
    px, py, pz = delta.forward_kin(geom, theta)
    ox, oy, oz = grasp_offset
    return TotalInertia(*composite(m_a, p_b, j_a, obj_mass, (px + ox, py + oy, pz + oz),
                                   obj_moi))
