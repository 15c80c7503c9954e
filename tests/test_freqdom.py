import cmath
import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as P

from conftest import monic

from amsim import adaptation, delta, freqdom, presense
from amsim.controller import Gains, iags_gain
from amsim.delta import DeltaGeometry
from amsim.freqdom import (DEFAULT_BAND, DEFAULT_UNCERTAINTY_BOX, MarginReport,
                           NoCrossover, PoleOnAxis, RationalTF, freq_response, margins,
                           margins_stack, open_loop_tf, robustness_sweep,
                           workspace_kk_sweep)
from amsim.spatial import InertialParams, box_inertia, inverse3
J_A_DIAG = np.array([9.2e-3, 10.5e-3, 14.7e-3])


def analytic_pm_first_order(K, tau):
    """Closed-form margins of K / (s (tau s + 1))."""
    # |G| = 1: K^2 = w^2 (1 + tau^2 w^2) -> quadratic in w^2
    w2 = (-1.0 + math.sqrt(1.0 + 4.0 * tau * tau * K * K)) / (2.0 * tau * tau)
    wc = math.sqrt(w2)
    pm = 90.0 - math.degrees(math.atan(tau * wc))
    return pm, wc


class TestFreqResponse:
    def test_integrator(self):
        tf = RationalTF(num=(1.0,), den=(0.0, 1.0))
        assert freq_response(tf, 1.0) == pytest.approx(-1j, abs=1e-15)

    def test_first_order_pole(self):
        tf = RationalTF(num=(1.0,), den=(1.0, 1.0))
        r = freq_response(tf, 1.0)
        assert abs(r) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert math.degrees(cmath.phase(r)) == pytest.approx(-45.0, abs=1e-9)

    def test_rate_loop_low_freq_phase(self):
        tf = open_loop_tf(0.15, 0.2, 0.003, 1.0, 1.0, 0.02, 9.2e-3)
        ph = math.degrees(cmath.phase(freq_response(tf, 1e-4)))
        # double integrator dominates at low frequency
        assert ph == pytest.approx(-180.0, abs=0.1)

    def test_pole_on_axis(self):
        tf = RationalTF(num=(1.0,), den=(4.0, 0.0, 1.0))  # poles at +-2j
        with pytest.raises(PoleOnAxis):
            freq_response(tf, 2.0)

    @pytest.mark.parametrize("scale", [1e-15, 1e15])
    def test_pole_test_is_scale_invariant(self, scale):
        tf = RationalTF(num=(scale,), den=(0.0, scale))
        assert freq_response(tf, 1.0) == pytest.approx(-1j, abs=1e-15)
        rep = margins(tf)
        assert rep.phase_margin_deg == pytest.approx(90.0, abs=1e-9)
        assert rep.gain_crossover == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(PoleOnAxis):
            freq_response(RationalTF(num=(scale,), den=(4.0 * scale, 0.0, scale)), 2.0)

    def test_product_property(self, rng):
        for _ in range(20):
            a = RationalTF(num=tuple(rng.uniform(0.1, 2.0, 2)),
                           den=tuple(rng.uniform(0.1, 2.0, 3)))
            b = RationalTF(num=tuple(rng.uniform(0.1, 2.0, 3)),
                           den=tuple(rng.uniform(0.1, 2.0, 2)))
            w = rng.uniform(0.5, 50.0)
            product = RationalTF(P.polymul(a.num, b.num), P.polymul(a.den, b.den))
            lhs = freq_response(product, w)
            rhs = freq_response(a, w) * freq_response(b, w)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestRationalTF:
    def test_trailing_zeros_trimmed(self):
        tf = RationalTF(num=(1.0, 0.0, 0.0), den=(0.0, 1.0, 0.0))
        assert tf.num == (1.0,)
        assert tf.den == (0.0, 1.0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalTF(num=(1.0,), den=(0.0,))

    def test_common_scale_leaves_response(self):
        """The coefficients are kept as given; over their leading denominator
        coefficient they are monic, and either form has the same response."""
        tf = RationalTF(num=(2.0, 4.0), den=(1.0, 2.0))
        assert tf.num == (2.0, 4.0) and tf.den == (1.0, 2.0)
        num, den = monic(tf)
        assert den[-1] == 1.0
        np.testing.assert_allclose(num, (1.0, 2.0))
        for w in (0.1, 3.0, 70.0):
            assert freq_response(RationalTF(tuple(num), tuple(den)), w) == pytest.approx(
                freq_response(tf, w), rel=1e-15)


class TestMargins:
    def test_analytic_first_order(self, rng):
        for _ in range(50):
            tau = rng.uniform(0.005, 0.1)
            wc_target = rng.uniform(3.0, 300.0)
            K = wc_target * math.sqrt(1.0 + tau * tau * wc_target * wc_target)
            tf = RationalTF(num=(K,), den=(0.0, 1.0, tau))
            rep = margins(tf)
            pm_ref, wc_ref = analytic_pm_first_order(K, tau)
            assert rep.phase_margin_deg == pytest.approx(pm_ref, abs=0.01)
            assert rep.gain_crossover == pytest.approx(wc_ref, rel=1e-6)

    def test_pure_integrator_90deg(self):
        tf = RationalTF(num=(10.0,), den=(0.0, 1.0))
        rep = margins(tf)
        assert rep.phase_margin_deg == pytest.approx(90.0, abs=1e-6)
        assert rep.gain_crossover == pytest.approx(10.0, rel=1e-9)
        assert math.isinf(rep.gain_margin_db)

    def test_scale_invariance(self):
        tf1 = open_loop_tf(0.15, 0.2, 0.003, 1.2, 1.0, 0.02, 9.2e-3)
        tf2 = RationalTF(num=tuple(7.3 * c for c in tf1.num),
                         den=tuple(7.3 * c for c in tf1.den))
        r1, r2 = margins(tf1), margins(tf2)
        assert r1.phase_margin_deg == pytest.approx(r2.phase_margin_deg, abs=1e-9)
        assert r1.gain_crossover == pytest.approx(r2.gain_crossover, rel=1e-12)

    def test_no_crossover(self):
        tf = RationalTF(num=(1e-9,), den=(0.0, 1.0, 0.02))
        with pytest.raises(NoCrossover):
            margins(tf)

    def test_zero_gain_no_crossover(self):
        tf = RationalTF(num=(0.0,), den=(0.0, 0.0, 9.2e-3, 9.2e-3 * 0.02))
        with pytest.raises(NoCrossover):
            margins(tf)

    def test_negligible_leading_coefficient(self):
        # a subnormal kd makes leading terms far below rounding over the band;
        # left in, they overflow the companion matrix
        ref = margins(open_loop_tf(1.0, 0.0, 0.0, 1.0, 1.0, 0.0625, 0.0625))
        rep = margins(open_loop_tf(1.0, 0.0, 1e-308, 1.0, 1.0, 0.0625, 0.0625))
        assert rep.phase_margin_deg == pytest.approx(ref.phase_margin_deg, abs=1e-9)
        assert rep.gain_crossover == pytest.approx(ref.gain_crossover, rel=1e-12)

    @pytest.mark.parametrize("band", [(0.0, 600.0), (-1.0, 600.0), (600.0, 1.0),
                                      (10.0, 10.0), (1.0, math.inf),
                                      (math.nan, 600.0), (1.0, math.nan)])
    def test_band_validation(self, band):
        tf = open_loop_tf(0.15, 0.2, 0.003, 1.0, 1.0, 0.02, 9.2e-3)
        with pytest.raises(ValueError):
            margins(tf, band=band)

    def test_finite_gain_margin_case(self):
        # third-order loop with two extra lags crosses -180 inside the band
        tf = RationalTF(num=(200.0,), den=(0.0, 1.0, 0.11, 0.001))
        rep = margins(tf)
        assert math.isfinite(rep.gain_margin_db)
        r_pc = freq_response(tf, rep.phase_crossover)
        assert math.degrees(abs(cmath.phase(r_pc))) == pytest.approx(180.0, abs=1e-6)

    def test_conditionally_stable_anchoring(self):
        # triple integrator with double lead: phase enters the band below
        # -180 deg, so the margin must not pick up a spurious 360 deg offset
        P = np.polynomial.polynomial
        num = P.polymul([1.0, 0.5], [1.0, 0.5])
        den = P.polymul([0.0, 0.0, 0.0, 1.0],
                        P.polymul([1.0, 0.005], [1.0, 0.005]))
        pms = []
        for K in (3.0, 10.0, 30.0):
            tf = RationalTF(num=tuple(K * c for c in num), den=tuple(den))
            rep = margins(tf)
            assert -180.0 < rep.phase_margin_deg < 180.0
            r_pc = freq_response(tf, rep.phase_crossover)
            assert math.degrees(abs(cmath.phase(r_pc))) == pytest.approx(
                180.0, abs=1e-6)
            pms.append(rep.phase_margin_deg)
        assert pms[0] < 0.0 < pms[1] < pms[2]  # margin grows with lead gain


def _scan_response_grid(tf, w):
    s = 1j * w
    return P.polyval(s, np.asarray(tf.num, dtype=complex)) / \
        P.polyval(s, np.asarray(tf.den, dtype=complex))


def _scan_bisect(f, lo, hi):
    flo = f(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
            flo = f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scan_unwrap_to(phase, anchor):
    return phase + 2.0 * math.pi * round((anchor - phase) / (2.0 * math.pi))


def _scan_continuous_phase(tf, w0):
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
    ph = ph + (_scan_unwrap_to(float(ph[0]), phi0) - float(ph[0]))
    return base + float(ph[-1])


def scan_margins(tf, band=DEFAULT_BAND, n_scan=2400):
    """Reference: the former 2,400-point log scan with 80-step bisections."""
    w = np.geomspace(band[0], band[1], n_scan)
    g = _scan_response_grid(tf, w)
    with np.errstate(divide="ignore"):
        logmag = np.log10(np.abs(g))
    phase = np.unwrap(np.angle(g))
    true0 = _scan_continuous_phase(tf, float(w[0]))
    phase = phase + 2.0 * math.pi * round((true0 - float(phase[0]))
                                          / (2.0 * math.pi))

    def logmag_at(x):
        return math.log10(abs(freq_response(tf, x)))

    def wrap_pm(pm_raw):
        pm = math.fmod(pm_raw, 360.0)
        if pm > 180.0:
            pm -= 360.0
        elif pm <= -180.0:
            pm += 360.0
        return pm

    pm_candidates = []
    sign = np.sign(logmag)
    for k in np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]:
        wc = _scan_bisect(logmag_at, float(w[k]), float(w[k + 1]))
        ph = _scan_unwrap_to(math.atan2(freq_response(tf, wc).imag,
                                        freq_response(tf, wc).real), float(phase[k]))
        pm_candidates.append((wrap_pm(180.0 + math.degrees(ph)), wc))
    for k in np.nonzero(logmag == 0.0)[0]:
        pm_candidates.append((wrap_pm(180.0 + math.degrees(float(phase[k]))),
                              float(w[k])))
    if not pm_candidates:
        raise NoCrossover(f"|G| stays on one side of unity over {band} rad/s")
    pm, w_gc = min(pm_candidates, key=lambda t: (t[0], t[1]))

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

            def ph_err(x, _t=target, _a=anchor):
                val = _scan_unwrap_to(math.atan2(freq_response(tf, x).imag,
                                                 freq_response(tf, x).real), _a)
                return val - _t

            wpc = _scan_bisect(ph_err, float(w[k]), float(w[k + 1]))
            gm_db = -20.0 * math.log10(abs(freq_response(tf, wpc)))
            gm_candidates.append((gm_db, wpc))
    if gm_candidates:
        gm, w_pc = min(gm_candidates, key=lambda t: (t[0], t[1]))
    else:
        gm, w_pc = math.inf, math.nan
    return MarginReport(gain_margin_db=gm, phase_margin_deg=pm,
                        gain_crossover=w_gc, phase_crossover=w_pc)


def assert_matches_scan(rep, tf):
    ref = scan_margins(tf)
    assert rep.phase_margin_deg == pytest.approx(ref.phase_margin_deg, rel=0, abs=1e-9)
    assert rep.gain_crossover == pytest.approx(ref.gain_crossover, rel=1e-9, abs=0)
    if math.isinf(ref.gain_margin_db):
        assert rep.gain_margin_db == ref.gain_margin_db
        assert math.isnan(rep.phase_crossover)
    else:
        assert rep.gain_margin_db == pytest.approx(ref.gain_margin_db, rel=0, abs=1e-9)
        assert rep.phase_crossover == pytest.approx(ref.phase_crossover, rel=1e-9, abs=0)


def conditionally_stable_tf(K):
    num = P.polymul([1.0, 0.5], [1.0, 0.5])
    den = P.polymul([0.0, 0.0, 0.0, 1.0], P.polymul([1.0, 0.005], [1.0, 0.005]))
    return RationalTF(num=tuple(K * c for c in num), den=tuple(den))


class TestMarginsScanOracle:
    """The exact-root margins agree with the former scan+bisection code."""

    def test_default_sweep_every_cell(self):
        g = Gains()
        _, rows = robustness_sweep(g, J_A_DIAG)
        assert len(rows) == 147
        for axis, sj, sk, rep in rows:
            tf = open_loop_tf(g.rate_kp[axis], g.rate_ki[axis], g.rate_kd[axis],
                              sk, 1.0, 0.02, J_A_DIAG[axis] * sj)
            assert_matches_scan(rep, tf)

    def test_nominal_axes(self):
        g = Gains()
        for axis in range(3):
            tf = open_loop_tf(g.rate_kp[axis], g.rate_ki[axis], g.rate_kd[axis],
                              1.0, 1.0, 0.02, J_A_DIAG[axis])
            assert_matches_scan(margins(tf), tf)

    def test_finite_gain_margin_and_conditionally_stable(self):
        tfs = [RationalTF(num=(200.0,), den=(0.0, 1.0, 0.11, 0.001))]
        tfs += [conditionally_stable_tf(K) for K in (3.0, 10.0, 30.0)]
        for tf in tfs:
            rep = margins(tf)
            assert math.isfinite(rep.gain_margin_db)
            assert_matches_scan(rep, tf)

    def test_crossing_pair_inside_one_scan_interval(self):
        # lightly damped resonance peaking 1e-5 above unity: its two
        # crossings lie 9e-4 rad/s apart, inside one 0.27 rad/s scan step
        zeta, wn = 1e-3, 100.0
        a = 2.0 * zeta * 1.00001
        tf = resonance_pair_tf()
        with pytest.raises(NoCrossover):
            scan_margins(tf)
        rep = margins(tf)
        assert rep.gain_crossover == pytest.approx(wn, rel=1e-5)
        assert abs(freq_response(tf, rep.gain_crossover)) == pytest.approx(
            1.0, rel=0, abs=1e-9)
        # |G| = 1 at w^2 = wn^2 (1 - 2 zeta^2 +- sqrt(a^2 - 4 zeta^2 + 4 zeta^4));
        # the upper crossing lags -90 deg, so it holds the smaller margin
        disc = (a - 2.0 * zeta) * (a + 2.0 * zeta) + 4.0 * zeta ** 4
        w_upper = wn * math.sqrt(1.0 - 2.0 * zeta * zeta + math.sqrt(disc))
        assert rep.gain_crossover == pytest.approx(w_upper, rel=1e-9)
        assert rep.phase_margin_deg < 90.0


loop_params = st.tuples(
    st.floats(min_value=0.01, max_value=2.0),     # kp
    st.floats(min_value=0.0, max_value=2.0),      # ki
    st.floats(min_value=0.0, max_value=0.02),     # kd
    st.floats(min_value=0.2, max_value=5.0),      # k_k
    st.floats(min_value=1e-3, max_value=0.1),     # j
    st.floats(min_value=2e-3, max_value=0.1))     # tau_m


def _ref_freq_response(tf, omega):
    s = 1j * omega
    den = complex(P.polyval(s, tf.den))
    if abs(den) < 1e-14:
        raise PoleOnAxis(f"denominator vanishes at omega={omega}")
    return complex(P.polyval(s, tf.num)) / den


def _ref_jw_parts(coeffs):
    c = np.asarray(coeffs, dtype=float)
    k = np.arange(len(c))
    c = np.where(k % 4 < 2, c, -c)
    return np.where(k % 2 == 0, c, 0.0), np.where(k % 2 == 1, c, 0.0)


def _ref_real_roots_in(poly, band):
    with np.errstate(divide="ignore"):
        size = np.log2(np.abs(poly)) + np.arange(len(poly)) * math.log2(band[1])
    kept = np.nonzero(size > size.max() - 52.0)[0]
    if kept.size == 0:
        return []
    return [float(r.real) for r in P.polyroots(poly[:kept[-1] + 1])
            if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real))
            and band[0] <= r.real <= band[1]]


def ref_margins(tf, band=DEFAULT_BAND):
    """Reference: the former numpy.polynomial margins, roots taken in omega."""
    lo, hi = (float(b) for b in band)
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise ValueError(f"band must satisfy 0 < lo < hi < inf, got {band}")
    band = (lo, hi)
    nr, ni = _ref_jw_parts(tf.num)
    dr, di = _ref_jw_parts(tf.den)
    pm_candidates = []
    gain_poly = P.polysub(P.polyadd(P.polymul(nr, nr), P.polymul(ni, ni)),
                          P.polyadd(P.polymul(dr, dr), P.polymul(di, di)))
    for wc in _ref_real_roots_in(gain_poly, band):
        pm = 180.0 + math.degrees(cmath.phase(_ref_freq_response(tf, wc)))
        pm_candidates.append((pm - 360.0 if pm > 180.0 else pm, wc))
    if not pm_candidates:
        raise NoCrossover(f"|G| stays on one side of unity over {band} rad/s")
    pm, w_gc = min(pm_candidates)
    gm_candidates = []
    cross_re = P.polyadd(P.polymul(nr, dr), P.polymul(ni, di))
    cross_im = P.polysub(P.polymul(ni, dr), P.polymul(nr, di))
    for wpc in _ref_real_roots_in(cross_im, band):
        if P.polyval(wpc, cross_re) < 0.0:
            gm_db = -20.0 * math.log10(abs(_ref_freq_response(tf, wpc)))
            gm_candidates.append((gm_db, wpc))
    gm, w_pc = min(gm_candidates) if gm_candidates else (math.inf, math.nan)
    return MarginReport(gain_margin_db=gm, phase_margin_deg=pm,
                        gain_crossover=w_gc, phase_crossover=w_pc)


def assert_matches_ref(tf, band=DEFAULT_BAND, exact=False):
    """margins(tf) equals ref_margins(tf), or both raise the same exception type.

    With ``exact`` the gain crossover and phase margin are measured against
    those of the exact root next to the former code's crossover instead, within
    the same tolerances, so both must pick the same crossing; where the former
    code disagrees by more than a tolerance, it must be the farther one.
    """
    try:
        ref = ref_margins(tf, band)
    except (NoCrossover, PoleOnAxis, ValueError) as exc:
        with pytest.raises(type(exc)):
            margins(tf, band)
        return None
    rep = margins(tf, band)
    checks = [(rep.gain_crossover, ref.gain_crossover, {"rel": 1e-12, "abs": 0}),
              (rep.phase_margin_deg, ref.phase_margin_deg, {"rel": 0, "abs": 1e-9})]
    if exact:
        w_exact = exact_gain_crossover(tf, ref.gain_crossover)
        pm_exact = 180.0 + math.degrees(cmath.phase(freq_response(tf, w_exact)))
        pm_exact -= 360.0 * (pm_exact > 180.0)  # on the branch (-180, 180] of margins
        for (got, former, tol), want in zip(checks, (w_exact, pm_exact)):
            assert got == pytest.approx(want, **tol)
            if got != pytest.approx(former, **tol):
                assert abs(got - want) <= abs(former - want)
    else:
        for got, former, tol in checks:
            assert got == pytest.approx(former, **tol)
    if math.isinf(ref.gain_margin_db):
        assert rep.gain_margin_db == ref.gain_margin_db
        assert math.isnan(rep.phase_crossover)
    else:
        assert rep.gain_margin_db == pytest.approx(ref.gain_margin_db, rel=0, abs=1e-9)
        assert rep.phase_crossover == pytest.approx(ref.phase_crossover, rel=1e-12, abs=0)
    return rep


def exact_gain_crossover(tf, w):
    """The root of |N(j w)|^2 - |D(j w)|^2 next to ``w``, from the float coefficients
    of ``tf``: secant steps on u = w^2 in 50-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=50)):
        def parts(coeffs):  # p(j w) = a(u) + j w b(u), as decimal coefficient lists
            a, b = [], []
            for k, c in enumerate(coeffs):
                (a if k % 2 == 0 else b).append(decimal.Decimal(c) * (-1) ** (k // 2))
            return a, b

        def val(p, u):
            return sum(c * u ** i for i, c in enumerate(p))
        (na, nb), (da, db) = parts(tf.num), parts(tf.den)
        def gap(u):
            return val(na, u) ** 2 + u * val(nb, u) ** 2 - val(da, u) ** 2 - u * val(db, u) ** 2
        u0 = decimal.Decimal(w) ** 2
        u1 = u0 * (1 + decimal.Decimal("1e-9"))
        for _ in range(100):
            f0, f1 = gap(u0), gap(u1)
            if f1 == f0 or abs(u1 - u0) <= abs(u1) * decimal.Decimal("1e-40"):
                break
            u0, u1 = u1, u1 - f1 * (u1 - u0) / (f1 - f0)
        assert abs(gap(u1)) <= abs(gap(u0 * (1 + decimal.Decimal("1e-30"))) - gap(u0))
        return float(u1.sqrt())


def resonant_integrator_tf(k, zeta, wn=100.0):
    """k wn^2 / (s (s^2 + 2 zeta wn s + wn^2)): |G| crosses unity near k and
    twice about a resonance peak of k / (2 zeta wn) at wn."""
    return RationalTF(num=(k * wn * wn,), den=(0.0, wn * wn, 2.0 * zeta * wn, 1.0))


def resonance_pair_tf():
    """Lightly damped resonance whose two unity crossings lie 9e-4 rad/s apart."""
    zeta, wn = 1e-3, 100.0
    a = 2.0 * zeta * 1.00001
    return RationalTF(num=(a * wn * wn,), den=(wn * wn, 2.0 * zeta * wn, 1.0))


class TestMarginsNumpyOracle:
    """The float margins on u = omega^2 agree with the former numpy.polynomial code."""

    def test_default_sweep_every_cell(self):
        g = Gains()
        _, rows = robustness_sweep(g, J_A_DIAG)
        assert len(rows) == 147
        for axis, sj, sk, rep in rows:
            tf = open_loop_tf(g.rate_kp[axis], g.rate_ki[axis], g.rate_kd[axis],
                              sk, 1.0, 0.02, J_A_DIAG[axis] * sj)
            assert assert_matches_ref(tf) == rep

    @settings(max_examples=200, deadline=None)
    @given(loop_params)
    @example((0.01, 1.7421875, 0.003258524641941705, 2.3203125, 0.001,
              0.003258524641941705))  # the former oracle is 2.1e-12 off its crossover
    def test_rate_loop_family(self, params):
        kp, ki, kd, kk, j, tau = params
        assert_matches_ref(open_loop_tf(kp, ki, kd, kk, 1.0, tau, j), exact=True)

    @pytest.mark.parametrize("tf", [
        RationalTF(num=(200.0,), den=(0.0, 1.0, 0.11, 0.001)),        # finite GM
        conditionally_stable_tf(3.0), conditionally_stable_tf(10.0),
        conditionally_stable_tf(30.0),
        open_loop_tf(1.0, 0.0, 1e-308, 1.0, 1.0, 0.0625, 0.0625),     # subnormal kd
        RationalTF(num=(1e-9,), den=(0.0, 1.0, 0.02)),                # no crossover
        RationalTF(num=(0.0,), den=(0.0, 0.0, 9.2e-3, 9.2e-3 * 0.02)),
    ], ids=["finite_gm", "cond_stable_3", "cond_stable_10", "cond_stable_30",
            "subnormal_kd", "no_crossover", "zero_gain"])
    def test_special_cases(self, tf):
        assert_matches_ref(tf)

    @pytest.mark.parametrize("k, zeta", [(10.0, 0.01), (30.0, 0.05)])
    def test_exact_crossing_of_the_oracles_choice(self, k, zeta):
        """Of three unity crossings with distinct phase margins, margins reports
        the one the oracle picks, within 1e-12 of its exact root."""
        tf = resonant_integrator_tf(k, zeta)
        gain = [abs(freq_response(tf, w)) for w in np.geomspace(*DEFAULT_BAND, 20001)]
        assert np.count_nonzero(np.diff(np.sign(np.log(gain)))) == 3
        assert assert_matches_ref(tf, exact=True).gain_crossover > 100.0

    def test_resonance_pair_nearer_the_exact_crossing(self):
        # the crossings 9e-4 rad/s apart cost both root finders digits, the
        # former one 3e-11 of the frequency: measure both against the upper
        # root of |D|^2 - |N|^2 = d2^2 u^2 + (d1^2 - 2 d0 d2) u + d0^2 - n0^2
        # solved in 50-digit decimal arithmetic from the same float coefficients
        tf = resonance_pair_tf()
        rep, ref = margins(tf), ref_margins(tf)
        with decimal.localcontext(decimal.Context(prec=50)):
            (n0,), (d0, d1, d2) = ([decimal.Decimal(c) for c in p] for p in (tf.num, tf.den))
            a, b, c = d2 * d2, d1 * d1 - 2 * d0 * d2, d0 * d0 - n0 * n0
            w_exact = float(((-b + (b * b - 4 * a * c).sqrt()) / (2 * a)).sqrt())
        pm_exact = 180.0 + math.degrees(cmath.phase(freq_response(tf, w_exact)))
        assert rep.gain_crossover == pytest.approx(w_exact, rel=1e-11, abs=0)
        assert abs(rep.gain_crossover - w_exact) <= abs(ref.gain_crossover - w_exact)
        assert abs(rep.phase_margin_deg - pm_exact) <= abs(ref.phase_margin_deg - pm_exact)
        assert rep.gain_margin_db == ref.gain_margin_db == math.inf

    def test_root_with_negative_u_is_no_frequency(self):
        # |G| = 1 for K / (s (tau s + 1)) where K^2 - u - tau^2 u^2 = 0: the
        # roots are u = 247.2 and u = -647.2, and sqrt(647.2) = 25.4 lies in
        # the band, so only the sign of u keeps the second one out
        K, tau = 20.0, 0.05
        tf = RationalTF(num=(K,), den=(0.0, 1.0, tau))
        rep = assert_matches_ref(tf)
        pm_ref, wc_ref = analytic_pm_first_order(K, tau)
        assert rep.gain_crossover == pytest.approx(wc_ref, rel=1e-12)
        assert rep.phase_margin_deg == pytest.approx(pm_ref, abs=1e-9)

    def test_leading_term_matters_only_near_band_top(self):
        # the tau^2 u^2 term of |D|^2 is 1e-18 of K^2 at u = hi but about
        # 1e4 times K^2 at u = hi^2: the size test must reach hi^2, or the
        # term is dropped and the crossover moves from 0.786e10 to 1e10
        K, tau, band = 1e10, 1e-10, (1.0, 1e11)
        tf = RationalTF(num=(K,), den=(0.0, 1.0, tau))
        rep = assert_matches_ref(tf, band)
        pm_ref, wc_ref = analytic_pm_first_order(K, tau)
        assert rep.gain_crossover == pytest.approx(wc_ref, rel=1e-12)
        assert rep.phase_margin_deg == pytest.approx(pm_ref, abs=1e-9)


def companion_band_roots(poly, lo, hi):
    """The former ``_band_roots``: every root from one companion matrix,
    u = 0 included and dropped afterwards by its sign."""
    size = [math.log2(abs(c)) + k * math.log2(hi * hi) if c else -math.inf
            for k, c in enumerate(poly)]
    top = max(size)
    n = max((k for k, v in enumerate(size) if v > top - 52.0), default=0)
    if n == 0:
        return []
    companion = np.eye(n, k=1)
    companion[:, 0] = [-c / poly[n] for c in reversed(poly[:n])]
    w = [math.sqrt(u.real) for u in np.linalg.eigvals(companion).tolist()
         if abs(u.imag) <= 1e-9 * max(1.0, abs(u.real)) and u.real > 0.0]
    return [x for x in w if lo <= x <= hi]


class TestBandRoots:
    """Zero roots u = 0 are divided out before any eigenvalue is taken."""

    def test_robustness_grid_matches_companion_roots(self, monkeypatch):
        _, rows = robustness_sweep(Gains(), J_A_DIAG)
        monkeypatch.setattr(freqdom, "_band_roots", lambda polys, lo, hi: [
            companion_band_roots(poly, lo, hi) for poly in polys])
        _, ref_rows = robustness_sweep(Gains(), J_A_DIAG)
        assert len(rows) == len(ref_rows) == 147
        for (*cell, rep), (*ref_cell, ref) in zip(rows, ref_rows):
            assert cell == ref_cell
            for got, want in ((rep.phase_margin_deg, ref.phase_margin_deg),
                              (rep.gain_crossover, ref.gain_crossover),
                              (rep.gain_margin_db, ref.gain_margin_db),
                              (rep.phase_crossover, ref.phase_crossover)):
                assert got == pytest.approx(want, rel=1e-12, abs=0, nan_ok=True)

    def test_zero_constant_term_has_no_zero_root(self, monkeypatch):
        lo, hi = 1e-300, 1e3
        cases = [([0.0, -4.0, 1.0], [2.0]),                  # u (u - 4)
                 ([0.0, 0.0, 9.0, -10.0, 1.0], [1.0, 3.0]),  # u^2 (u - 1)(u - 9)
                 ([0.0, 0.0, 5.0], []), ([0.0, 3.0], [])]
        for poly, want in cases:
            assert sorted(freqdom._band_roots([poly], lo, hi)[0]) == pytest.approx(want,
                                                                                 rel=1e-14)
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m) or eigvals(m))
        assert freqdom._band_roots([[0.0, -4.0, 1.0], [0.0, 0.0, 5.0]], lo, hi) == [[2.0], []]
        assert calls == []
        # a rate loop's phase polynomial has a zero constant term: one
        # eigenvalue call per margins, for the gain polynomial
        g = Gains()
        margins(open_loop_tf(g.rate_kp[0], g.rate_ki[0], g.rate_kd[0], 1.0, 1.0, 0.02,
                             J_A_DIAG[0]))
        assert len(calls) == 1


def report_bits(reports) -> bytes:
    """The bytes of every float of a list of reports (NaN included)."""
    return np.array([[r.gain_margin_db, r.phase_margin_deg, r.gain_crossover,
                      r.phase_crossover] for r in reports]).tobytes()


class TestMarginsStack:
    """A stack of loops gives each loop the bits of its own ``margins`` call."""

    def mixed_stack(self):
        g = Gains()
        return [
            *(open_loop_tf(g.rate_kp[a], g.rate_ki[a], g.rate_kd[a], kk, 1.0, 0.02,
                           J_A_DIAG[a] * sj)
              for a in range(3) for sj, kk in ((1.0, 1.0), (3.52, 1.0), (1.0, 3.79))),
            open_loop_tf(0.15, 0.2, 0.0, 1.0, 1.0, 0.02, 9.2e-3),  # kd = 0: lower degree
            open_loop_tf(0.2, 0.0, 0.0, 1.0, 1.0, 0.02, 9.2e-3),   # P only
            RationalTF(num=(40.0,), den=(0.0, 1.0, 0.05)),
            conditionally_stable_tf(10.0),                         # a finite gain margin
            resonance_pair_tf(),
        ]

    def test_equals_one_at_a_time_bitwise(self, monkeypatch):
        tfs = self.mixed_stack()
        assert len({(len(tf.num), len(tf.den)) for tf in tfs}) >= 4
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda m: calls.append(np.shape(m)) or eigvals(m))
        stacked = margins_stack(tfs)
        # one eigenvalue call per companion size, each over its whole group
        sizes = [shape[-1] for shape in calls]
        assert len(sizes) == len(set(sizes)) >= 2
        assert max(shape[0] for shape in calls) > 1
        monkeypatch.undo()
        alone = [margins(tf) for tf in tfs]
        assert report_bits(stacked) == report_bits(alone)
        assert any(math.isfinite(r.gain_margin_db) for r in stacked)
        assert margins_stack([]) == []

    @pytest.mark.parametrize("where", [0, 5, -1])
    def test_no_crossover_member_raises(self, where):
        tfs = self.mixed_stack()
        never = RationalTF(num=(1e-6,), den=(0.0, 1.0))  # |G| = 1e-6 / w < 1 in band
        with pytest.raises(NoCrossover):
            margins(never)
        tfs.insert(where if where >= 0 else len(tfs), never)
        with pytest.raises(NoCrossover):
            margins_stack(tfs)


class TestMarginsProperties:
    @settings(max_examples=200, deadline=None)
    @given(loop_params)
    def test_rate_loop_crossings_exact(self, params):
        kp, ki, kd, kk, j, tau = params
        tf = open_loop_tf(kp, ki, kd, kk, 1.0, tau, j)
        lo, hi = DEFAULT_BAND
        try:
            rep = margins(tf)
        except NoCrossover:
            # |G| - 1 keeps one sign over the band, so also at both ends
            ends = [abs(freq_response(tf, w)) - 1.0 for w in DEFAULT_BAND]
            assert ends[0] * ends[1] > 0.0
            return
        assert lo <= rep.gain_crossover <= hi
        assert abs(freq_response(tf, rep.gain_crossover)) == pytest.approx(
            1.0, rel=0, abs=1e-9)
        assert -180.0 < rep.phase_margin_deg <= 180.0
        if math.isfinite(rep.gain_margin_db):
            assert lo <= rep.phase_crossover <= hi
            ph = math.degrees(abs(cmath.phase(freq_response(tf, rep.phase_crossover))))
            assert ph == pytest.approx(180.0, rel=0, abs=1e-6)
        else:
            assert math.isnan(rep.phase_crossover)


class TestOpenLoopTF:
    def test_pd_off_reduces_to_first_order(self):
        kp, j, tau = 0.2, 9.2e-3, 0.02
        tf = open_loop_tf(kp, 0.0, 0.0, 1.0, 1.0, tau, j)
        rep = margins(tf)
        pm_ref, wc_ref = analytic_pm_first_order(kp / j, tau)
        assert rep.phase_margin_deg == pytest.approx(pm_ref, abs=1e-6)
        assert rep.gain_crossover == pytest.approx(wc_ref, rel=1e-9)

    def test_scheduled_gain_cancels_inertia(self, rng):
        g = Gains()
        for axis in range(3):
            nominal = monic(open_loop_tf(g.rate_kp[axis], g.rate_ki[axis],
                                         g.rate_kd[axis], 1.0, 1.0, 0.02, J_A_DIAG[axis]))
            for _ in range(20):
                scale = rng.uniform(1.0, 4.0)
                scheduled = monic(open_loop_tf(g.rate_kp[axis], g.rate_ki[axis],
                                               g.rate_kd[axis], scale, 1.0, 0.02,
                                               J_A_DIAG[axis] * scale))
                np.testing.assert_allclose(scheduled[0], nominal[0], rtol=1e-12)
                np.testing.assert_allclose(scheduled[1], nominal[1], rtol=1e-12)

    def test_doubling_gain_adds_6db(self):
        tf1 = open_loop_tf(0.15, 0.2, 0.003, 1.0, 1.0, 0.02, 9.2e-3)
        tf2 = open_loop_tf(0.15, 0.2, 0.003, 2.0, 1.0, 0.02, 9.2e-3)
        for w in (2.0, 17.0, 150.0):
            db1 = 20 * math.log10(abs(freq_response(tf1, w)))
            db2 = 20 * math.log10(abs(freq_response(tf2, w)))
            assert db2 - db1 == pytest.approx(20 * math.log10(2.0), abs=1e-9)

    def test_rejects_bad_plant(self):
        with pytest.raises(ValueError):
            open_loop_tf(0.1, 0.1, 0.0, 1.0, 1.0, 0.02, 0.0)

    @pytest.mark.parametrize("k_k", [-1.0, -1e-300, math.nan])
    def test_rejects_negative_scheduled_gain(self, k_k):
        """A negative gain flips the loop's sign: its margins describe no loop
        the schedule can make, so it is refused; a zero gain is a loop with no
        crossover."""
        with pytest.raises(ValueError, match="k_k non-negative"):
            open_loop_tf(0.15, 0.2, 0.003, k_k, 1.0, 0.02, 9.2e-3)
        with pytest.raises(NoCrossover):
            margins(open_loop_tf(0.15, 0.2, 0.003, 0.0, 1.0, 0.02, 9.2e-3))


def _abs2_poly(coeffs):
    """|p(j w)|^2 as a polynomial in w (independent crossover oracle)."""
    re = np.zeros(len(coeffs))
    im = np.zeros(len(coeffs))
    for k, c in enumerate(coeffs):
        if k % 4 == 0:
            re[k] += c
        elif k % 4 == 1:
            im[k] += c
        elif k % 4 == 2:
            re[k] -= c
        else:
            im[k] -= c
    P = np.polynomial.polynomial
    return P.polyadd(P.polymul(re, re), P.polymul(im, im))


class TestMarginsPolynomialOracle:
    """Cross-check the scan+bisection margins against polynomial root finding."""

    def test_rate_loop_family(self):
        g = Gains()
        P = np.polynomial.polynomial
        for axis in range(3):
            for j_scale in (1.0, 1.61, 2.4, 3.79):
                for kk in (1.0, 2.0):
                    tf = open_loop_tf(g.rate_kp[axis], g.rate_ki[axis],
                                      g.rate_kd[axis], kk, 1.0, 0.02,
                                      J_A_DIAG[axis] * j_scale)
                    diff = P.polysub(_abs2_poly(tf.num), _abs2_poly(tf.den))
                    roots = np.roots(diff[::-1])
                    real = [r.real for r in roots
                            if abs(r.imag) < 1e-9 and 1.0 <= r.real <= 600.0]
                    assert len(real) == 1
                    wc_ref = real[0]
                    ph = math.degrees(cmath.phase(freq_response(tf, wc_ref)))
                    rep = margins(tf)
                    assert rep.gain_crossover == pytest.approx(wc_ref, rel=1e-9)
                    assert rep.phase_margin_deg == pytest.approx(180.0 + ph,
                                                                 abs=1e-7)


class TestRobustnessSweep:
    def test_collapsed_box_equals_nominal(self):
        g = Gains()
        box = ((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
        worst, rows = robustness_sweep(g, J_A_DIAG, box=box, grid_n=5)
        assert len(rows) == 3 * 25
        for axis in range(3):
            tf = open_loop_tf(g.rate_kp[axis], g.rate_ki[axis], g.rate_kd[axis],
                              1.0, 1.0, 0.02, J_A_DIAG[axis])
            rep = margins(tf)
            got, sj, sk = worst[axis]
            assert got.phase_margin_deg == pytest.approx(rep.phase_margin_deg,
                                                         abs=1e-9)

    def test_diagonal_invariance(self):
        worst, rows = robustness_sweep(Gains(), J_A_DIAG, grid_n=5)
        for axis in range(3):
            diag = [r[3].phase_margin_deg for r in rows
                    if r[0] == axis and r[1] == r[2]]
            assert len(diag) == 5
            assert max(diag) - min(diag) < 1e-9

    def test_min_pm_above_45(self):
        worst, _ = robustness_sweep(Gains(), J_A_DIAG, grid_n=5)
        for axis in range(3):
            assert worst[axis][0].phase_margin_deg >= 45.0

    def test_grid_n_validation(self):
        with pytest.raises(ValueError):
            robustness_sweep(Gains(), J_A_DIAG, grid_n=4)

    def test_rows_equal_per_cell_margins_bitwise(self):
        """Every row is the cell's own ``margins`` call, in grid order, and the
        worst cell is the first of the smallest (phase margin, crossover)."""
        g, grid_n = Gains(), 7
        worst, rows = robustness_sweep(g, J_A_DIAG, k_m=1.3, tau_m=0.025, grid_n=grid_n)
        want = []
        for axis in range(3):
            lo, hi = DEFAULT_UNCERTAINTY_BOX[axis]
            for sj in np.linspace(lo, hi, grid_n).tolist():
                for sk in np.linspace(lo, hi, grid_n).tolist():
                    tf = open_loop_tf(g.rate_kp[axis], g.rate_ki[axis], g.rate_kd[axis],
                                      k_k=sk, k_m=1.3, tau_m=0.025,
                                      j=float(J_A_DIAG[axis] * sj))
                    want.append((axis, sj, sk, margins(tf)))
        assert [r[:3] for r in rows] == [w[:3] for w in want]
        assert report_bits(r[3] for r in rows) == report_bits(w[3] for w in want)
        for axis in range(3):
            cells = [w for w in want if w[0] == axis]
            _, sj, sk, rep = min(cells, key=lambda c: (c[3].phase_margin_deg,
                                                        c[3].gain_crossover))
            got, got_sj, got_sk = worst[axis]
            assert (got_sj, got_sk) == (sj, sk)
            assert report_bits([got]) == report_bits([rep])


def ref_workspace_kk_sweep(geom, payload_mass, payload_dims, vehicle, grid_n, pad_height):
    """Reference: the former sweep loop, with np.linalg.solve and np.diag per cell."""
    dims = np.asarray(payload_dims, dtype=float).reshape(3)
    j_obj = np.asarray(InertialParams(payload_mass, np.zeros(3),
                                      box_inertia(payload_mass, dims)).inertia_about_com)
    offset = presense.top_grasp_offset(dims[2], pad_height)
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
                                                    np.asarray(vehicle.inertia_about_com)
                                                    .ravel().tolist(),
                                                    np.asarray(vehicle.com).tolist(), payload_mass,
                                                    j_obj.ravel().tolist(), offset,
                                                    delta.forward_kin(geom, theta.tolist()))
                except delta.KinematicsError:
                    continue
                kk = np.diag(np.linalg.solve(np.asarray(vehicle.inertia_about_com),
                                             np.reshape(total.j_t_hat, (3, 3))))
                for axis in range(3):
                    if kk[axis] > maxima[axis]:
                        maxima[axis] = kk[axis]
                        argmax[axis] = theta.copy()
    return maxima, argmax


def per_pose_kk_sweep(geom, payload_mass, payload_dims, vehicle, grid_n, pad_height):
    """Oracle: one ``update_total`` and one ``iags_gain`` per pose and a strict > scan
    from 1. Also returns each feasible pose's gain diagonal."""
    dims = np.asarray(payload_dims, dtype=float).reshape(3)
    j_obj = box_inertia(payload_mass, dims).ravel().tolist()
    offset = presense.top_grasp_offset(dims[2], pad_height)
    j_a = np.asarray(vehicle.inertia_about_com).ravel().tolist()
    j_inv = inverse3(j_a)
    grid = np.linspace(*geom.joint_limits, grid_n).tolist()
    maxima, argmax, gains = [1.0, 1.0, 1.0], [None, None, None], []
    for t1 in grid:
        for t2 in grid:
            for t3 in grid:
                try:
                    j_t = adaptation.update_total(vehicle.mass, j_a,
                                                  np.asarray(vehicle.com).tolist(),
                                                  payload_mass, j_obj, offset,
                                                  delta.forward_kin(geom, (t1, t2, t3))).j_t_hat
                except delta.KinematicsError:
                    continue
                gains.append(iags_gain(j_a, j_inv, j_t))
                for a in range(3):
                    if gains[-1][a] > maxima[a]:
                        maxima[a], argmax[a] = gains[-1][a], (t1, t2, t3)
    return maxima, argmax, gains


def tilted_vehicle():
    """The shipped vehicle with its inertia turned off the body axes and its CoM moved."""
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]) @ \
        np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return InertialParams(1.379, np.array([0.01, -0.02, 0.03]),
                          rot @ np.diag(J_A_DIAG) @ rot.T)


class TestWorkspaceSweep:
    @pytest.mark.parametrize("tilted", [False, True], ids=["diag", "tilted"])
    @pytest.mark.parametrize("grid_n", [3, 5, 9])
    @pytest.mark.parametrize("mass", [0.1, 0.4, 1.0])
    def test_equals_solve_oracle(self, vehicle_params, mass, grid_n, tilted):
        vehicle = tilted_vehicle() if tilted else vehicle_params
        args = (DeltaGeometry(), mass, (0.2, 0.2, 0.2), vehicle, grid_n, 0.01)
        maxima, argmax = workspace_kk_sweep(*args)
        ref_max, ref_arg = ref_workspace_kk_sweep(*args)
        np.testing.assert_allclose(maxima, ref_max, rtol=1e-12, atol=0.0)
        for got, want in zip(argmax, ref_arg):
            assert (got is None and want is None) or got == tuple(want.tolist())

    @pytest.mark.parametrize("case", ["shipped", "tilted", "ties", "never_above_1",
                                      "few_feasible", "none_feasible", "short_forearm",
                                      "wide_platform"])
    def test_equals_per_pose_oracle_bitwise(self, vehicle_params, case):
        """Maxima and first-occurrence argmax equal a per-pose scan bit for bit;
        infeasible poses are skipped and an axis never above 1 keeps None."""
        geom, mass, vehicle = DeltaGeometry(), 0.4, vehicle_params
        if case == "tilted":
            vehicle = tilted_vehicle()
        elif case == "ties":
            geom = DeltaGeometry(forearm_len=0.12)
        elif case == "never_above_1":
            mass = 1e-20
        elif case == "few_feasible":
            geom = DeltaGeometry(forearm_len=0.04)
        elif case == "none_feasible":
            geom = DeltaGeometry(forearm_len=0.04, joint_limits=(-0.52, 0.0))
        elif case == "short_forearm":
            geom = DeltaGeometry(forearm_len=0.05)
        elif case == "wide_platform":
            geom = DeltaGeometry(platform_radius=0.05)
        args = (geom, mass, (0.2, 0.2, 0.2), vehicle, 9, 0.01)
        maxima, argmax = workspace_kk_sweep(*args)
        ref_max, ref_arg, gains = per_pose_kk_sweep(*args)
        assert maxima.tobytes() == np.array(ref_max).tobytes()
        assert argmax == ref_arg
        if case in ("shipped", "ties", "few_feasible", "short_forearm", "wide_platform"):
            assert 0 < len(gains) < 9 ** 3  # some poses are infeasible
        if case == "ties":  # the z maximum is reached at several poses
            assert sum(g[2] == ref_max[2] for g in gains) > 1
        if case in ("never_above_1", "none_feasible"):
            assert argmax == [None, None, None] and maxima.tolist() == [1.0, 1.0, 1.0]
        if case == "none_feasible":
            assert gains == []

    def test_centres_built_once_per_grid_angle(self, vehicle_params, monkeypatch):
        """Each grid angle's sphere centres are built once, each pose is one
        trilateration, and forward_kin is not called."""
        calls = {"sphere_centres": 0, "trilaterate": 0}
        for name in calls:
            def counted(*args, inner=getattr(delta, name), name=name):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(delta, name, counted)
        monkeypatch.setattr(delta, "forward_kin", None)
        workspace_kk_sweep(DeltaGeometry(), 0.4, (0.2, 0.2, 0.2), vehicle_params, grid_n=9)
        assert calls == {"sphere_centres": 9, "trilaterate": 9 ** 3}

    def test_zero_mass_identity(self, vehicle_params):
        maxima, argmax = workspace_kk_sweep(DeltaGeometry(), 0.0, [0.2, 0.2, 0.2],
                                            vehicle_params)
        np.testing.assert_array_equal(maxima, np.ones(3))
        assert argmax == [None, None, None]  # the form of an axis no pose raises

    @pytest.mark.parametrize("mass, grid_n", [(-1.0, 9), (math.nan, 9),
                                              (math.inf, 9), (0.4, 0), (0.0, 0)])
    def test_bad_inputs_rejected(self, vehicle_params, mass, grid_n):
        with pytest.raises(ValueError):
            workspace_kk_sweep(DeltaGeometry(), mass, [0.2, 0.2, 0.2],
                               vehicle_params, grid_n=grid_n)

    @pytest.mark.parametrize("mass", [0.4, 0.0])
    @pytest.mark.parametrize("dims", [[-0.2, 0.2, 0.2], [0.2, 0.0, 0.2],
                                      [0.2, 0.2, math.inf], [0.2, math.nan, 0.2]])
    def test_bad_dims_rejected(self, vehicle_params, mass, dims):
        with pytest.raises(ValueError, match="payload dims"):
            workspace_kk_sweep(DeltaGeometry(), mass, dims, vehicle_params)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mass", [math.inf, -math.inf, math.nan])
    def test_non_finite_mass_rejected_without_warning(self, vehicle_params, mass):
        with pytest.raises(ValueError, match="payload mass"):
            workspace_kk_sweep(DeltaGeometry(), mass, [0.2, 0.2, 0.2], vehicle_params)

    def test_monotone_in_mass(self, vehicle_params):
        prev = None
        for m in (0.1, 0.2, 0.4):
            maxima, _ = workspace_kk_sweep(DeltaGeometry(), m, [0.2, 0.2, 0.2],
                                           vehicle_params, grid_n=5)
            if prev is not None:
                assert np.all(maxima >= prev - 1e-12)
            prev = maxima

    def test_structure_z_smallest_x_near_y(self, vehicle_params):
        maxima, argmax = workspace_kk_sweep(DeltaGeometry(), 0.4,
                                            [0.2, 0.2, 0.2], vehicle_params,
                                            grid_n=7)
        assert maxima[2] < maxima[0] and maxima[2] < maxima[1]
        assert abs(maxima[0] - maxima[1]) <= 0.25 * (max(maxima[:2]) - 1.0)
        assert argmax[0] is not None
