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
from itertools import product, zip_longest

import numpy as np

from . import adaptation, delta, presense
from .controller import Gains
from .spatial import InertialParams, as_floats, box_inertia, inverse3


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


def _trim(coeffs) -> tuple:
    c = [float(v) for v in coeffs]
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
    """Evaluate num(j*omega)/den(j*omega); PoleOnAxis where |den| is rounding
    noise against the sum of its terms' sizes, so scaling the loop changes nothing."""
    den = _polyval(tf.den, 1j * omega)
    if abs(den) <= 1e-14 * _polyval([abs(c) for c in tf.den], abs(omega)):
        raise PoleOnAxis(f"denominator vanishes at omega={omega}")
    return _polyval(tf.num, 1j * omega) / den


def _polyval(coeffs, x):
    y = 0.0
    for c in reversed(coeffs):
        y = y * x + c
    return y


def _polymul(a, b) -> list:
    """Coefficients of the product of two polynomials, ascending powers."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def _jw_parts(coeffs) -> tuple:
    """Polynomials a, b in u = omega^2 with p(j omega) = a(u) + j omega b(u)."""
    a = [c if k % 2 == 0 else -c for k, c in enumerate(coeffs[0::2])]
    b = [c if k % 2 == 0 else -c for k, c in enumerate(coeffs[1::2])]
    return a, b


def _band_roots(poly, lo: float, hi: float) -> list:
    """Frequencies in [lo, hi] whose squares u > 0 are real roots of poly(u).

    Leading terms that stay below the rounding of the largest term all over
    the band (u up to hi^2) are dropped first: their extra roots lie far
    beyond the band, and a tiny leading coefficient would overflow the
    companion matrix. Exactly zero low-order terms are roots u = 0, divided
    out; a linear rest has its root in closed form.
    """
    size = [math.log2(abs(c)) + k * math.log2(hi * hi) if c else -math.inf
            for k, c in enumerate(poly)]
    top = max(size)
    n = max((k for k, v in enumerate(size) if v > top - 52.0), default=0)
    low = next((k for k, c in enumerate(poly[:n]) if c), n)
    poly = poly[low:n + 1]
    n -= low
    if n == 0:
        return []
    if n == 1:
        roots = [-poly[0] / poly[1]]
    else:
        companion = np.eye(n, k=1)
        companion[:, 0] = [-c / poly[n] for c in reversed(poly[:n])]
        roots = [u.real for u in np.linalg.eigvals(companion).tolist()
                 if abs(u.imag) <= 1e-9 * max(1.0, abs(u.real))]
    w = [math.sqrt(u) for u in roots if u > 0.0]
    return [x for x in w if lo <= x <= hi]


def margins(tf: RationalTF, band=DEFAULT_BAND) -> MarginReport:
    """Gain and phase margins over a frequency band, from exact crossings.

    With N(j w) = A(u) + j w B(u) and D(j w) = C(u) + j w E(u) split into
    their even and odd parts, real polynomials in u = w^2, the unity-gain
    crossings are the roots of |N|^2 - |D|^2 = A^2 + u B^2 - C^2 - u E^2 and
    the -180 deg crossings are the roots of Im(N conj D) / w = B C - A E
    where Re(N conj D) = A C + u B E < 0; only w = sqrt(u) inside ``band``
    count. The reported phase margin is the smallest over all unity
    crossings, on the principal branch (-180, 180] (ties broken by lower
    frequency); the gain margin is the smallest over all phase crossings, or
    +inf when the phase never reaches -180 deg inside the band.

    Raises ValueError unless 0 < band[0] < band[1] are finite, and
    NoCrossover when |G| never crosses unity in the band.
    """
    lo, hi = (float(b) for b in band)
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise ValueError(f"band must satisfy 0 < lo < hi < inf, got {band}")
    na, nb = _jw_parts(tf.num)
    da, db = _jw_parts(tf.den)

    pm_candidates = []
    gain_poly = [p + q - r - s for p, q, r, s in zip_longest(
        _polymul(na, na), [0.0] + _polymul(nb, nb),
        _polymul(da, da), [0.0] + _polymul(db, db), fillvalue=0.0)]
    for wc in _band_roots(gain_poly, lo, hi):
        pm = 180.0 + math.degrees(cmath.phase(freq_response(tf, wc)))
        pm_candidates.append((pm - 360.0 if pm > 180.0 else pm, wc))
    if not pm_candidates:
        raise NoCrossover(f"|G| stays on one side of unity over ({lo}, {hi}) rad/s")
    pm, w_gc = min(pm_candidates)

    gm_candidates = []
    cross_re = [p + q for p, q in zip_longest(_polymul(na, da), [0.0] + _polymul(nb, db),
                                              fillvalue=0.0)]
    cross_im = [p - q for p, q in zip_longest(_polymul(nb, da), _polymul(na, db),
                                              fillvalue=0.0)]
    for wpc in _band_roots(cross_im, lo, hi):
        if _polyval(cross_re, wpc * wpc) < 0.0:
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
        cells = []
        for sj, sk in product(np.linspace(lo, hi, grid_n).tolist(), repeat=2):
            tf = open_loop_tf(gains.rate_kp[axis], gains.rate_ki[axis], gains.rate_kd[axis],
                              k_k=sk, k_m=k_m, tau_m=tau_m, j=float(j_a_diag[axis] * sj))
            cells.append((axis, sj, sk, margins(tf, band=band)))
        # the first of equal (phase margin, crossover) keys is the worst cell
        _, sj, sk, rep = min(cells, key=lambda c: (c[3].phase_margin_deg, c[3].gain_crossover))
        worst[axis] = (rep, sj, sk)
        rows += cells
    return worst, rows


def workspace_kk_sweep(geom: delta.DeltaGeometry, payload_mass: float,
                       payload_dims, vehicle: InertialParams,
                       grid_n: int = 9, pad_height: float = 0.01):
    """Per-axis maxima of the scheduled gain over the arm's joint workspace.

    The payload is modeled as a solid box of ``payload_dims`` hanging half
    its height plus the pad below the end-effector. Joint angles sweep a
    ``grid_n``^3 grid over the limits; infeasible combinations are skipped.
    Returns ``(maxima, argmax_theta)`` with ``maxima`` the per-axis diagonal
    of the largest scheduled gain J_a^-1 J_t encountered and ``argmax_theta``
    each maximum's joint angles as three floats; a zero payload mass gives
    the identity. Raises ValueError for a negative or non-finite payload
    mass, payload dims that are not all positive and finite, or ``grid_n < 1``.
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
    j_obj = as_floats(InertialParams(payload_mass, np.zeros(3),
                                     box_inertia(payload_mass, dims)).inertia_about_com, 9)
    offset = presense.top_grasp_offset(dims[2], pad_height)
    j_a, com = as_floats(vehicle.inertia_about_com, 9), vehicle.com.tolist()
    j_inv = inverse3(j_a)
    lo, hi = geom.joint_limits
    grid = np.linspace(lo, hi, grid_n).tolist()
    maxima = [1.0, 1.0, 1.0]
    argmax = [None, None, None]
    for theta in product(grid, repeat=3):
        try:
            j_t = adaptation.update_total(vehicle.mass, j_a, com, payload_mass,
                                          j_obj, offset, theta, geom).j_t_hat
        except delta.KinematicsError:
            continue
        for axis in range(3):
            kk = (j_inv[3 * axis] * j_t[axis] + j_inv[3 * axis + 1] * j_t[3 + axis]
                  + j_inv[3 * axis + 2] * j_t[6 + axis])
            if kk > maxima[axis]:
                maxima[axis] = kk
                argmax[axis] = theta
    return np.array(maxima), argmax
