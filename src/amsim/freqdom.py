"""Frequency-domain analysis of the angular-rate loop.

Per-axis SISO treatment: the loop is controller (PID with scheduled gain) x
motor lag x rotational plant 1/(J s), giving

    G(s) = k_m (kd s^2 + kp s + ki) k_k / (j s^2 (tau_m s + 1)).

Margins are found by a dense logarithmic scan plus fixed-depth bisection, so
repeated evaluations of identical loops agree to near machine precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from . import adaptation, delta
from .controller import Gains
from .spatial import InertialParams, box_inertia


class PoleOnAxis(Exception):
    """Denominator vanishes at the requested frequency."""


class NoCrossover(Exception):
    """|G| never crosses unity inside the scanned band."""


#: Worst-case payload inertia/gain multipliers per axis, anchored at unity.
DEFAULT_UNCERTAINTY_BOX = ((1.0, 3.52), (1.0, 3.79), (1.0, 1.61))

DEFAULT_BAND = (1.0, 600.0)

_BISECT_ITERS = 80


@dataclass(frozen=True)
class RationalTF:
    """Rational transfer function, coefficients in ascending powers of s."""

    num: tuple
    den: tuple

    def __post_init__(self):
        num = _trim(self.num)
        den = _trim(self.den)
        if not den or den[-1] == 0.0:
            raise ValueError("denominator must have a nonzero leading coefficient")
        if not num:
            num = (0.0,)
        if not all(math.isfinite(c) for c in num + den):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def normalized(self) -> "RationalTF":
        """Scale so the denominator's leading coefficient is one."""
        s = self.den[-1]
        return RationalTF(tuple(c / s for c in self.num), tuple(c / s for c in self.den))

    def __mul__(self, other: "RationalTF") -> "RationalTF":
        num = tuple(P.polymul(self.num, other.num))
        den = tuple(P.polymul(self.den, other.den))
        return RationalTF(num, den)


def _trim(coeffs) -> tuple:
    c = [float(v) for v in np.atleast_1d(np.asarray(coeffs, dtype=float))]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(c)


@dataclass
class MarginReport:
    gain_margin_db: float    # inf when the phase never crosses -180 deg in band
    phase_margin_deg: float
    gain_crossover: float    # rad/s
    phase_crossover: float   # rad/s, nan when absent


def open_loop_tf(kp: float, ki: float, kd: float, k_k: float,
                 k_m: float, tau_m: float, j: float) -> RationalTF:
    """Open-loop rate transfer function for one axis."""
    if j <= 0.0 or tau_m <= 0.0:
        raise ValueError("j and tau_m must be positive")
    scale = k_m * k_k
    return RationalTF(num=(scale * ki, scale * kp, scale * kd),
                      den=(0.0, 0.0, j, j * tau_m))


def freq_response(tf: RationalTF, omega: float) -> complex:
    """Evaluate num(j*omega)/den(j*omega)."""
    s = 1j * omega
    den = complex(P.polyval(s, tf.den))
    if abs(den) < 1e-14:
        raise PoleOnAxis(f"denominator vanishes at omega={omega}")
    return complex(P.polyval(s, tf.num)) / den


def _response_grid(tf: RationalTF, w: np.ndarray) -> np.ndarray:
    s = 1j * w
    return P.polyval(s, np.asarray(tf.num, dtype=complex)) / \
        P.polyval(s, np.asarray(tf.den, dtype=complex))


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
            flo = f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _unwrap_to(phase: float, anchor: float) -> float:
    """Shift a wrapped angle by 2*pi*k so it lands nearest the anchor."""
    return phase + 2.0 * math.pi * round((anchor - phase) / (2.0 * math.pi))


def _continuous_phase(tf: RationalTF, w0: float) -> float:
    """Phase of G(j w0) measured continuously from DC (no 2*pi ambiguity).

    Strips the origin poles/zeros (their phase is an exact multiple of 90
    degrees), anchors the remainder at its DC sign, and walks the phase up
    from well below the lowest corner frequency.
    """
    num = np.array(tf.num)
    den = np.array(tf.den)
    k0 = int(np.nonzero(num)[0][0])
    l0 = int(np.nonzero(den)[0][0])
    n = num[k0:]
    d = den[l0:]
    base = 0.5 * math.pi * (k0 - l0)
    phi0 = 0.0 if (n[0] / d[0]) > 0.0 else -math.pi
    corners = []
    for poly in (n, d):
        if len(poly) > 1:
            corners.extend(abs(r) for r in np.roots(poly[::-1]) if abs(r) > 1e-12)
    w_start = min(w0, 0.01 * min(corners)) if corners else w0
    grid = np.geomspace(w_start, w0, 256) if w_start < w0 else np.array([w0])
    s = 1j * grid
    r = P.polyval(s, n.astype(complex)) / P.polyval(s, d.astype(complex))
    ph = np.unwrap(np.angle(r))
    ph = ph + (_unwrap_to(float(ph[0]), phi0) - float(ph[0]))
    return base + float(ph[-1])


def margins(tf: RationalTF, band=DEFAULT_BAND, n_scan: int = 2400) -> MarginReport:
    """Gain and phase margins over a frequency band.

    Scans >= 2000 log-spaced points, brackets every unity-gain and -180 deg
    crossing, and refines each with bisection. The reported phase margin is
    the smallest over all unity crossings (ties broken by lower frequency);
    the gain margin is the smallest over all phase crossings, or +inf when
    the phase never reaches -180 deg inside the band.

    Raises NoCrossover when |G| never crosses unity in the band.
    """
    if n_scan < 2000:
        n_scan = 2000
    w = np.geomspace(band[0], band[1], n_scan)
    g = _response_grid(tf, w)
    mag = np.abs(g)
    with np.errstate(divide="ignore"):
        logmag = np.log10(mag)
    phase = np.unwrap(np.angle(g))
    # np.unwrap anchors on the wrapped first sample; re-anchor on the true
    # continuous phase so loops entering the band below -180 deg read right
    true0 = _continuous_phase(tf, float(w[0]))
    phase = phase + 2.0 * math.pi * round((true0 - float(phase[0]))
                                          / (2.0 * math.pi))

    def logmag_at(x: float) -> float:
        return math.log10(abs(freq_response(tf, x)))

    def wrap_pm(pm_raw: float) -> float:
        # angular distance to the -1 point, principal branch (-180, 180]
        pm = math.fmod(pm_raw, 360.0)
        if pm > 180.0:
            pm -= 360.0
        elif pm <= -180.0:
            pm += 360.0
        return pm

    # unity-gain crossings
    pm_candidates = []
    sign = np.sign(logmag)
    for k in np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]:
        wc = _bisect(logmag_at, float(w[k]), float(w[k + 1]))
        ph = _unwrap_to(math.atan2(freq_response(tf, wc).imag,
                                   freq_response(tf, wc).real), float(phase[k]))
        pm_candidates.append((wrap_pm(180.0 + math.degrees(ph)), wc))
    for k in np.nonzero(logmag == 0.0)[0]:
        pm_candidates.append((wrap_pm(180.0 + math.degrees(float(phase[k]))),
                              float(w[k])))
    if not pm_candidates:
        raise NoCrossover(f"|G| stays on one side of unity over {band} rad/s")
    pm, w_gc = min(pm_candidates, key=lambda t: (t[0], t[1]))

    # -180 deg crossings (any odd multiple of pi reached by the unwrapped phase)
    gm_candidates = []
    shifted = phase + math.pi
    lev = np.floor_divide(shifted, 2.0 * math.pi)
    for k in range(len(w) - 1):
        lo_val, hi_val = shifted[k], shifted[k + 1]
        level = None
        if lo_val == 0.0:
            level = -math.pi
        crossings = set()
        a, b = sorted((lev[k], lev[k + 1]))
        for m in range(int(a), int(b) + 1):
            target = m * 2.0 * math.pi
            if min(lo_val, hi_val) < target <= max(lo_val, hi_val):
                crossings.add(target - math.pi)
        if level is not None:
            crossings.add(level)
        for target in crossings:
            anchor = float(phase[k])

            def ph_err(x: float, _t=target, _a=anchor) -> float:
                val = _unwrap_to(math.atan2(freq_response(tf, x).imag,
                                            freq_response(tf, x).real), _a)
                return val - _t

            wpc = _bisect(ph_err, float(w[k]), float(w[k + 1]))
            gm_db = -20.0 * math.log10(abs(freq_response(tf, wpc)))
            gm_candidates.append((gm_db, wpc))
    if gm_candidates:
        gm, w_pc = min(gm_candidates, key=lambda t: (t[0], t[1]))
    else:
        gm, w_pc = math.inf, math.nan
    return MarginReport(gain_margin_db=gm, phase_margin_deg=pm,
                        gain_crossover=w_gc, phase_crossover=w_pc)


def robustness_sweep(gains: Gains, j_a_diag, k_m: float = 1.0, tau_m: float = 0.02,
                     box=DEFAULT_UNCERTAINTY_BOX, grid_n: int = 7,
                     band=DEFAULT_BAND):
    """Worst-case margins over a grid of co-varied inertia and gain scales.

    Per axis, the plant inertia multiplier and the scheduled-gain multiplier
    each range over [lo, hi] on a ``grid_n`` point grid (lo anchored at 1).
    Returns ``(worst, rows)`` where ``worst`` maps axis index to
    ``(MarginReport, j_scale, kk_scale)`` at the minimum phase margin, and
    ``rows`` lists ``(axis, j_scale, kk_scale, report)`` for every cell.
    """
    if grid_n < 5:
        raise ValueError("grid_n must be at least 5")
    j_a_diag = np.asarray(j_a_diag, dtype=float).reshape(3)
    for lo, hi in box:
        if not 0.0 < lo <= hi:
            raise ValueError("box bounds must satisfy 0 < lo <= hi per axis")
    worst = {}
    rows = []
    for axis in range(3):
        lo, hi = box[axis]
        scales = np.linspace(lo, hi, grid_n)
        best = None
        for sj in scales:
            for sk in scales:
                tf = open_loop_tf(gains.rate_kp[axis], gains.rate_ki[axis],
                                  gains.rate_kd[axis], k_k=float(sk), k_m=k_m,
                                  tau_m=tau_m, j=float(j_a_diag[axis] * sj))
                rep = margins(tf, band=band)
                rows.append((axis, float(sj), float(sk), rep))
                key = (rep.phase_margin_deg, rep.gain_crossover)
                if best is None or key < best[0]:
                    best = (key, rep, float(sj), float(sk))
        worst[axis] = (best[1], best[2], best[3])
    return worst, rows


def workspace_kk_sweep(geom: delta.DeltaGeometry, payload_mass: float,
                       payload_dims, vehicle: InertialParams,
                       grid_n: int = 9, pad_height: float = 0.01):
    """Per-axis maxima of the scheduled gain over the arm's joint workspace.

    The payload is modeled as a solid box of ``payload_dims`` hanging half
    its height plus the pad below the end-effector. Joint angles sweep a
    ``grid_n``^3 grid over the limits; infeasible combinations are skipped.
    Returns ``(maxima, argmax_theta)`` with ``maxima`` the per-axis diagonal
    of the largest scheduled gain encountered.
    """
    if payload_mass <= 0.0:
        return np.ones(3), None
    dims = np.asarray(payload_dims, dtype=float).reshape(3)
    j_obj = InertialParams(payload_mass, np.zeros(3),
                           box_inertia(payload_mass, dims)).inertia_about_com
    offset = np.array([0.0, 0.0, -(0.5 * dims[2] + pad_height)])
    lo, hi = geom.joint_limits
    grid = np.linspace(lo, hi, grid_n)
    maxima = np.ones(3)
    argmax = [None, None, None]
    for t1 in grid:
        for t2 in grid:
            for t3 in grid:
                theta = np.array([t1, t2, t3])
                try:
                    total = adaptation.update_total(vehicle.mass,
                                                    vehicle.inertia_about_com,
                                                    vehicle.com, payload_mass,
                                                    j_obj, offset, theta, geom)
                except delta.KinematicsError:
                    continue
                kk = np.diag(np.linalg.solve(vehicle.inertia_about_com, total.j_t_hat))
                for axis in range(3):
                    if kk[axis] > maxima[axis]:
                        maxima[axis] = kk[axis]
                        argmax[axis] = theta.copy()
    return maxima, argmax
