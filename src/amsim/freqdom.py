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
from itertools import product

import numpy as np

from . import delta, presense
from .controller import Gains, iags_gain
from .spatial import InertialParams, as_floats, box_inertia, composite, inverse3


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
    """Open-loop rate transfer function for one axis; ``k_k`` must be non-negative."""
    if j <= 0.0 or tau_m <= 0.0 or not k_k >= 0.0:
        raise ValueError("j and tau_m must be positive and k_k non-negative")
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


def _polymul(a, b, shift: int = 0) -> np.ndarray:
    """Row by row products u^shift a(u) b(u) of two stacks of polynomials in
    ascending powers, with a spare zero top coefficient when ``shift`` is 0.

    Each coefficient is summed in the order of the one-polynomial product;
    zero padding adds only zero terms, which leave every sum as it was.
    """
    out = np.zeros((len(a), a.shape[1] + b.shape[1]))
    for i in range(a.shape[1]):
        out[:, shift + i:shift + i + b.shape[1]] += a[:, i:i + 1] * b
    return out


def _jw_parts(polys) -> tuple:
    """Stacks a, b of polynomials in u = omega^2 with p(j omega) = a(u) + j omega b(u),
    one row per polynomial of ``polys``, all zero-padded to one length."""
    width = max(map(len, polys), default=1)
    coeffs = np.zeros((len(polys), width + width % 2))
    for row, p in zip(coeffs, polys):
        row[:len(p)] = p
    a, b = coeffs[:, 0::2].copy(), coeffs[:, 1::2].copy()
    a[:, 1::2] *= -1.0
    b[:, 1::2] *= -1.0
    return a, b


def _band_roots(polys, lo: float, hi: float) -> list:
    """Per polynomial, the frequencies in [lo, hi] whose squares u > 0 are its real roots.

    Leading terms that stay below the rounding of the largest term all over
    the band (u up to hi^2) are dropped first: their extra roots lie far
    beyond the band, and a tiny leading coefficient would overflow the
    companion matrix. Exactly zero low-order terms are roots u = 0, divided
    out; a linear rest has its root in closed form. The companion matrices
    of one size share one ``np.linalg.eigvals`` call.
    """
    roots = []
    companions = {}  # size -> (polynomial index, first column) pairs
    log2_u_top = math.log2(hi * hi)
    for i, poly in enumerate(polys):
        size = [math.log2(abs(c)) + k * log2_u_top if c else -math.inf
                for k, c in enumerate(poly)]
        top = max(size)
        n = max((k for k, v in enumerate(size) if v > top - 52.0), default=0)
        low = next((k for k, c in enumerate(poly[:n]) if c), n)
        poly = poly[low:n + 1]
        n -= low
        roots.append([-poly[0] / poly[1]] if n == 1 else [])
        if n > 1:
            companions.setdefault(n, []).append(
                (i, [-c / poly[n] for c in reversed(poly[:n])]))
    for n, group in companions.items():
        stack = np.empty((len(group), n, n))
        stack[:] = np.eye(n, k=1)
        stack[:, :, 0] = [column for _, column in group]
        for (i, _), eig in zip(group, np.linalg.eigvals(stack).tolist()):
            roots[i] = [u.real for u in eig if abs(u.imag) <= 1e-9 * max(1.0, abs(u.real))]
    return [[w for w in (math.sqrt(u) for u in r if u > 0.0) if lo <= w <= hi]
            for r in roots]


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
    return margins_stack([tf], band)[0]


def margins_stack(tfs, band=DEFAULT_BAND) -> list:
    """``margins`` of each loop in ``tfs``, as a list of reports in their order.

    The crossing polynomials of the whole stack are built as arrays, one row
    per loop, and go through one ``_band_roots`` call, so each
    companion-matrix size takes one eigenvalue call; each report equals that
    of the loop analysed alone. Raises NoCrossover when any loop has no unity
    crossing in the band.
    """
    lo, hi = (float(b) for b in band)
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise ValueError(f"band must satisfy 0 < lo < hi < inf, got {band}")
    k = len(tfs)
    a, b = _jw_parts([tf.num for tf in tfs] + [tf.den for tf in tfs])
    na, nb, da, db = a[:k], b[:k], a[k:], b[k:]
    gain_polys = (_polymul(na, na) + _polymul(nb, nb, 1)
                  - _polymul(da, da) - _polymul(db, db, 1)).tolist()
    cross_re = (_polymul(na, da) + _polymul(nb, db, 1)).tolist()
    cross_im = (_polymul(nb, da) - _polymul(na, db)).tolist()

    roots = _band_roots(gain_polys + cross_im, lo, hi)
    reports = []
    for tf, gain_roots, phase_roots, re in zip(tfs, roots[:k], roots[k:], cross_re):
        pm_candidates = []
        for wc in gain_roots:
            pm = 180.0 + math.degrees(cmath.phase(freq_response(tf, wc)))
            pm_candidates.append((pm - 360.0 if pm > 180.0 else pm, wc))
        if not pm_candidates:
            raise NoCrossover(f"|G| stays on one side of unity over ({lo}, {hi}) rad/s")
        pm, w_gc = min(pm_candidates)
        gm_candidates = [(-20.0 * math.log10(abs(freq_response(tf, wpc))), wpc)
                         for wpc in phase_roots if _polyval(re, wpc * wpc) < 0.0]
        gm, w_pc = min(gm_candidates) if gm_candidates else (math.inf, math.nan)
        reports.append(MarginReport(gain_margin_db=gm, phase_margin_deg=pm,
                                    gain_crossover=w_gc, phase_crossover=w_pc))
    return reports


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
        scales = list(product(np.linspace(lo, hi, grid_n).tolist(), repeat=2))
        reports = margins_stack([
            open_loop_tf(gains.rate_kp[axis], gains.rate_ki[axis], gains.rate_kd[axis],
                         k_k=sk, k_m=k_m, tau_m=tau_m, j=float(j_a_diag[axis] * sj))
            for sj, sk in scales], band=band)
        cells = [(axis, sj, sk, rep) for (sj, sk), rep in zip(scales, reports)]
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
    ``grid_n``^3 grid over the limits; infeasible combinations are skipped,
    and one ``composite`` over arrays covers the feasible ones.
    Returns ``(maxima, argmax_theta)`` with ``maxima`` the per-axis diagonal
    of the largest scheduled gain J_a^-1 J_t encountered and ``argmax_theta``
    each maximum's joint angles as three floats; a zero payload mass gives
    the identity. Raises ValueError for a negative or non-finite payload
    mass, payload dims that are not all positive and finite, or ``grid_n < 1``.
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {grid_n}")
    dims = as_floats(payload_dims, 3, "payload dims", "positive")
    as_floats([payload_mass], 1, "payload mass", "non-negative")
    if payload_mass == 0.0:
        return np.ones(3), None
    j_obj = box_inertia(payload_mass, dims).ravel().tolist()  # diagonal: valid as built
    ox, oy, oz = presense.top_grasp_offset(dims[2], pad_height)
    lo, hi = geom.joint_limits
    grid = np.linspace(lo, hi, grid_n).tolist()
    # each arm's sphere centre at each grid angle, built once: forward_kin's floats
    centres = [delta.sphere_centres(geom, (g, g, g)) for g in grid]
    poses, points = [], []
    for i, j, k in product(range(len(grid)), repeat=3):
        try:
            px, py, pz = delta.trilaterate(geom, centres[i][0], centres[j][1], centres[k][2])
        except delta.KinematicsError:
            continue
        poses.append((grid[i], grid[j], grid[k]))
        points.append((px + ox, py + oy, pz + oz))
    maxima = np.ones(3)
    argmax = [None, None, None]
    if not poses:
        return maxima, argmax
    # one composite over every feasible pose: the payload CoM as three arrays
    j_a = [v for row in vehicle.inertia_about_com for v in row]
    _, _, j_t = composite(vehicle.mass, vehicle.com, j_a, payload_mass,
                          list(np.array(points).T), j_obj)
    for axis, kk in enumerate(iags_gain(j_a, inverse3(j_a), j_t)):
        k = int(np.argmax(kk))  # the first pose of the largest gain, as a strict > scan
        if kk[k] > 1.0:
            maxima[axis] = kk[k]
            argmax[axis] = poses[k]
    return maxima, argmax
