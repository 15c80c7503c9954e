"""Post-grasp refinement: grasp detection, mass observer, inertia composition.

Both the grasp detector and the mass observer watch the world-frame force
residual ``f = R T - m_a (a + g e3)``: thrust in excess of what the bare
vehicle needs, i.e. the apparent weight of whatever hangs from it. At a
steady lift its z component equals the payload weight. The engine forms and
low-pass filters it once per observer tick (``scenario._Run.observe``), and
that one filtered residual feeds the detector, the observer and the log
(``fext_*``). The observer state relaxes toward ``f_z / g`` with rate
``c / m_a``; ``dob_step`` integrates that relation exactly over each sample
interval, so a constant residual reproduces the continuous first-order
response to machine precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .spatial import composite


def lowpass_alpha(cutoff_hz: float, dt: float) -> float:
    """Per-sample blend factor of a first-order low-pass at the given cutoff."""
    return 1.0 - math.exp(-2.0 * math.pi * cutoff_hz * dt)


@dataclass
class TotalInertia:
    m_t_hat: float
    c_t: list      # arm-frame CoM of vehicle + payload, three floats
    j_t_hat: list  # inertia about c_t, nine row-major floats


def dob_step(m_hat: float, f_z: float, m_a: float, c: float, dt: float, g: float) -> float:
    """One observer tick on the filtered residual's z component ``f_z``.

    The mass estimate relaxes toward f_z / g with time constant m_a / c, by
    the exact zero-order-hold discretization over ``dt``; returns it clamped
    non-negative.
    """
    decay = math.exp(-c * dt / m_a)
    target = f_z / g
    return max(target + (m_hat - target) * decay, 0.0)


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
                 platform) -> TotalInertia:
    """Composite mass/CoM/MoI of vehicle plus grasped object at the current pose.

    Vectors are three floats and inertias nine row-major floats; the object CoM
    sits at ``platform`` (the arm's ``forward_kin``) + grasp_offset in the arm
    frame. With no object mass (the observer clamps its estimate to 0) the bare
    vehicle parameters come back as new lists. Both bodies must already be valid (the vehicle at
    config load, the object where its inertia is built): ``composite`` checks nothing.
    """
    if obj_mass <= 0.0:
        return TotalInertia(m_a, list(p_b), list(j_a))
    px, py, pz = platform
    ox, oy, oz = grasp_offset
    return TotalInertia(*composite(m_a, p_b, j_a, obj_mass, (px + ox, py + oy, pz + oz),
                                   obj_moi))
