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
class DobState:
    m_hat: float = 0.0
    force_filt: tuple | None = None  # filtered residual force, three floats, N

    def __post_init__(self):
        if self.m_hat < 0.0:
            raise ValueError("m_hat must be non-negative")


@dataclass
class GraspDetector:
    threshold: float = 1.0     # N, above hover noise, below lightest payload weight
    persistence: float = 0.5   # s the force must persist before switching
    elapsed_above: float = 0.0
    triggered: bool = False

    def __post_init__(self):
        if self.threshold <= 0.0 or self.persistence <= 0.0:
            raise ValueError("threshold and persistence must be positive")


@dataclass
class TotalInertia:
    m_t_hat: float
    c_t: list      # arm-frame CoM of vehicle + payload, three floats
    j_t_hat: list  # inertia about c_t, nine row-major floats


def dob_step(st: DobState, accel_w, R, thrust_body, m_a: float, c: float,
             dt: float, g: float, force_lpf_hz: float) -> DobState:
    """One observer tick from world acceleration, attitude, and total thrust.

    ``accel_w`` and ``thrust_body`` are three floats and ``R``, the body-to-world
    rotation, its nine row-major floats. The raw residual is low-pass filtered
    (filter state seeded on the first call), then the mass estimate relaxes
    toward residual_z / g with time constant m_a / c using the exact
    zero-order-hold discretization. The estimate is clamped non-negative.
    """
    a0, a1, a2 = accel_w
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    t0, t1, t2 = thrust_body
    f0 = (r00 * t0 + r01 * t1 + r02 * t2) - m_a * a0
    f1 = (r10 * t0 + r11 * t1 + r12 * t2) - m_a * a1
    f2 = (r20 * t0 + r21 * t1 + r22 * t2) - m_a * a2 - m_a * g
    if st.force_filt is not None:
        a = lowpass_alpha(force_lpf_hz, dt)
        p0, p1, p2 = st.force_filt
        f0, f1, f2 = p0 + a * (f0 - p0), p1 + a * (f1 - p1), p2 + a * (f2 - p2)
    decay = math.exp(-c * dt / m_a)
    target = f2 / g
    m_hat = target + (st.m_hat - target) * decay
    return DobState(max(m_hat, 0.0), (f0, f1, f2))


def detect_grasp(d: GraspDetector, ext_force_z: float, dt: float) -> tuple[GraspDetector, bool]:
    """Accumulate time above threshold; latch once it persists long enough.

    Advances ``d`` in place, without checking again the values checked when it
    was built, and returns it with the latched flag. Once triggered the flag
    never clears; before triggering, any drop below the threshold resets the
    accumulated time.
    """
    if not d.triggered:
        d.elapsed_above = d.elapsed_above + dt if abs(ext_force_z) > d.threshold else 0.0
        d.triggered = d.elapsed_above >= d.persistence - 1e-12
    return d, d.triggered


def rescale_moi(j_tilde, m_tilde: float, m_hat: float) -> list:
    """Scale the pre-grasp MoI estimate (nine floats) by the refined-to-initial mass ratio."""
    if m_tilde <= 0.0:
        raise ValueError("m_tilde must be positive")
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
