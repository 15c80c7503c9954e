"""Frequency-domain analysis of the angular-rate loop.

Per-axis SISO treatment: the loop is controller (PID with scheduled gain) x
motor lag x rotational plant 1/(J s), giving

    G(s) = k_m (kd s^2 + kp s + ki) k_k / (j s^2 (tau_m s + 1)).

Margins come from exact crossings: the unity-gain and -180 deg frequencies
are the real roots of polynomials in omega built from N(j omega) and
D(j omega) (Astrom & Murray, Feedback Systems, ch. 10), so no frequency grid
can step over a crossing and no phase needs unwrapping.
"""
from __future__ import annotations

import cmath
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
    """|G| never crosses unity inside the analysed band."""


#: Worst-case payload inertia/gain multipliers per axis, anchored at unity.
DEFAULT_UNCERTAINTY_BOX = ((1.0, 3.52), (1.0, 3.79), (1.0, 1.61))

DEFAULT_BAND = (1.0, 600.0)


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


def _jw_parts(coeffs) -> tuple:
    """Real polynomials re, im in omega with p(j omega) = re(omega) + j im(omega)."""
    c = np.asarray(coeffs, dtype=float)
    k = np.arange(len(c))
    c = np.where(k % 4 < 2, c, -c)  # j^k cycles 1, j, -1, -j
    return np.where(k % 2 == 0, c, 0.0), np.where(k % 2 == 1, c, 0.0)


def _real_roots_in(poly, band) -> list:
    """Real roots of a polynomial in omega that lie inside the closed band.

    Leading terms that stay below the rounding of the largest term all over
    the band are dropped first: their extra roots lie far beyond the band,
    and a tiny leading coefficient would overflow the companion matrix.
    """
    with np.errstate(divide="ignore"):
        size = np.log2(np.abs(poly)) + np.arange(len(poly)) * math.log2(band[1])
    kept = np.nonzero(size > size.max() - 52.0)[0]
    if kept.size == 0:
        return []
    return [float(r.real) for r in P.polyroots(poly[:kept[-1] + 1])
            if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real))
            and band[0] <= r.real <= band[1]]


def margins(tf: RationalTF, band=DEFAULT_BAND) -> MarginReport:
    """Gain and phase margins over a frequency band, from exact crossings.

    With N(j w) = Nr + j Ni and D(j w) = Dr + j Di split into real
    polynomials in w, the unity-gain crossings are the real roots of
    Nr^2 + Ni^2 - Dr^2 - Di^2 and the -180 deg crossings are the real roots
    of Im(N conj D) = Ni Dr - Nr Di where Re(N conj D) < 0; only roots inside
    ``band`` count. The reported phase margin is the smallest over all unity
    crossings, on the principal branch (-180, 180] (ties broken by lower
    frequency); the gain margin is the smallest over all phase crossings, or
    +inf when the phase never reaches -180 deg inside the band.

    Raises ValueError unless 0 < band[0] < band[1] are finite, and
    NoCrossover when |G| never crosses unity in the band.
    """
    lo, hi = (float(b) for b in band)
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise ValueError(f"band must satisfy 0 < lo < hi < inf, got {band}")
    band = (lo, hi)
    nr, ni = _jw_parts(tf.num)
    dr, di = _jw_parts(tf.den)

    pm_candidates = []
    gain_poly = P.polysub(P.polyadd(P.polymul(nr, nr), P.polymul(ni, ni)),
                          P.polyadd(P.polymul(dr, dr), P.polymul(di, di)))
    for wc in _real_roots_in(gain_poly, band):
        pm = 180.0 + math.degrees(cmath.phase(freq_response(tf, wc)))
        pm_candidates.append((pm - 360.0 if pm > 180.0 else pm, wc))
    if not pm_candidates:
        raise NoCrossover(f"|G| stays on one side of unity over {band} rad/s")
    pm, w_gc = min(pm_candidates)

    gm_candidates = []
    cross_re = P.polyadd(P.polymul(nr, dr), P.polymul(ni, di))
    cross_im = P.polysub(P.polymul(ni, dr), P.polymul(nr, di))
    for wpc in _real_roots_in(cross_im, band):
        if P.polyval(wpc, cross_re) < 0.0:
            gm_db = -20.0 * math.log10(abs(freq_response(tf, wpc)))
            gm_candidates.append((gm_db, wpc))
    gm, w_pc = min(gm_candidates) if gm_candidates else (math.inf, math.nan)
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
    of the largest scheduled gain encountered; a zero payload mass gives the
    identity. Raises ValueError for a negative or non-finite payload mass,
    payload dims that are not all positive and finite, or ``grid_n < 1``.
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {grid_n}")
    dims = np.asarray(payload_dims, dtype=float).reshape(3)
    if not np.all(np.isfinite(dims) & (dims > 0.0)):
        raise ValueError(f"payload dims must be positive and finite, got {dims.tolist()}")
    if not (math.isfinite(payload_mass) and payload_mass >= 0.0):
        raise ValueError(f"payload mass must be non-negative and finite, got {payload_mass}")
    if payload_mass == 0.0:
        return np.ones(3), None
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
