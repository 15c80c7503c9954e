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
from dataclasses import dataclass, replace

import numpy as np

from . import delta
from .spatial import E3, as_floats, composite


def lowpass_alpha(cutoff_hz: float, dt: float) -> float:
    """Per-sample blend factor of a first-order low-pass at the given cutoff."""
    return 1.0 - math.exp(-2.0 * math.pi * cutoff_hz * dt)


@dataclass
class DobState:
    m_hat: float = 0.0
    force_filt: np.ndarray | None = None  # filtered residual force, N

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
    c_t: np.ndarray      # arm-frame CoM of vehicle + payload
    j_t_hat: np.ndarray  # inertia about c_t


def dob_step(st: DobState, accel_w, R, thrust_body, m_a: float, c: float,
             dt: float, g: float = 9.81, force_lpf_hz: float = 50.0) -> DobState:
    """One observer tick from world acceleration, attitude, and total thrust.

    The raw residual is low-pass filtered (filter state seeded on the first
    call), then the mass estimate relaxes toward residual_z / g with time
    constant m_a / c using the exact zero-order-hold discretization. The
    estimate is clamped non-negative.
    """
    accel_w = np.asarray(accel_w, dtype=float).reshape(3)
    thrust_body = np.asarray(thrust_body, dtype=float).reshape(3)
    R = np.asarray(R, dtype=float)
    f_raw = R @ thrust_body - m_a * accel_w - m_a * g * E3
    if st.force_filt is None:
        f_filt = f_raw
    else:
        a = lowpass_alpha(force_lpf_hz, dt)
        f_filt = st.force_filt + a * (f_raw - st.force_filt)
    decay = math.exp(-c * dt / m_a)
    target = f_filt[2] / g
    m_hat = target + (st.m_hat - target) * decay
    return replace(st, m_hat=max(m_hat, 0.0), force_filt=f_filt)


def detect_grasp(d: GraspDetector, ext_force_z: float, dt: float) -> tuple[GraspDetector, bool]:
    """Accumulate time above threshold; latch once it persists long enough.

    Returns the updated detector and the latched flag. Once triggered the
    flag never clears; before triggering, any drop below the threshold resets
    the accumulated time.
    """
    if d.triggered:
        return d, True
    if abs(ext_force_z) > d.threshold:
        elapsed = d.elapsed_above + dt
    else:
        elapsed = 0.0
    triggered = elapsed >= d.persistence - 1e-12
    return replace(d, elapsed_above=elapsed, triggered=triggered), triggered


def rescale_moi(j_tilde, m_tilde: float, m_hat: float) -> np.ndarray:
    """Scale the pre-grasp MoI estimate by the refined-to-initial mass ratio."""
    if m_tilde <= 0.0:
        raise ValueError("m_tilde must be positive")
    return np.asarray(j_tilde, dtype=float) * (m_hat / m_tilde)


def update_total(m_a: float, j_a, p_b, obj_mass, obj_moi, grasp_offset,
                 theta, geom: delta.DeltaGeometry) -> TotalInertia:
    """Composite mass/CoM/MoI of vehicle plus grasped object at the current pose.

    The object CoM sits at forward_kin(theta) + grasp_offset in the arm
    frame. With no object (``obj_mass`` None or zero) the bare vehicle
    parameters come back as new arrays. Both bodies must already be valid
    (the vehicle at config load, the object where its inertia is built), as
    ``composite`` checks nothing.
    """
    if obj_mass is None or obj_mass <= 0.0:
        return TotalInertia(m_a, np.array(p_b, dtype=float).reshape(3),
                            np.array(j_a, dtype=float).reshape(3, 3))
    px, py, pz = delta.forward_kin(geom, theta)
    ox, oy, oz = as_floats(grasp_offset, 3)
    m_t, c_t, j_t = composite(m_a, as_floats(p_b, 3), as_floats(j_a, 9), float(obj_mass),
                              (px + ox, py + oy, pz + oz), as_floats(obj_moi, 9))
    return TotalInertia(m_t, np.array(c_t), np.array(j_t).reshape(3, 3))
