import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from amsim.controller import Gains
from amsim.delta import DeltaGeometry
from amsim.freqdom import (DEFAULT_BAND, MarginReport, NoCrossover, PoleOnAxis,
                           RationalTF, freq_response, margins, open_loop_tf,
                           robustness_sweep, workspace_kk_sweep)
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

    def test_product_property(self, rng):
        for _ in range(20):
            a = RationalTF(num=tuple(rng.uniform(0.1, 2.0, 2)),
                           den=tuple(rng.uniform(0.1, 2.0, 3)))
            b = RationalTF(num=tuple(rng.uniform(0.1, 2.0, 3)),
                           den=tuple(rng.uniform(0.1, 2.0, 2)))
            w = rng.uniform(0.5, 50.0)
            lhs = freq_response(a * b, w)
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

    def test_normalized_monic(self):
        tf = RationalTF(num=(2.0, 4.0), den=(1.0, 2.0)).normalized()
        assert tf.den[-1] == 1.0
        np.testing.assert_allclose(tf.num, (1.0, 2.0))


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
        tf = RationalTF(num=(a * wn * wn,), den=(wn * wn, 2.0 * zeta * wn, 1.0))
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
            nominal = open_loop_tf(g.rate_kp[axis], g.rate_ki[axis],
                                   g.rate_kd[axis], 1.0, 1.0, 0.02,
                                   J_A_DIAG[axis]).normalized()
            for _ in range(20):
                scale = rng.uniform(1.0, 4.0)
                scheduled = open_loop_tf(g.rate_kp[axis], g.rate_ki[axis],
                                         g.rate_kd[axis], scale, 1.0, 0.02,
                                         J_A_DIAG[axis] * scale).normalized()
                np.testing.assert_allclose(scheduled.num, nominal.num, rtol=1e-12)
                np.testing.assert_allclose(scheduled.den, nominal.den, rtol=1e-12)

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


class TestWorkspaceSweep:
    def test_zero_mass_identity(self, vehicle_params):
        maxima, _ = workspace_kk_sweep(DeltaGeometry(), 0.0, [0.2, 0.2, 0.2],
                                       vehicle_params)
        np.testing.assert_array_equal(maxima, np.ones(3))

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
