import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_body, random_rotation, ref_composite

from amsim.adaptation import detect_grasp, dob_step, rescale_moi, update_total
from amsim.config import load_config
from amsim.controller import iags_gain
from amsim.delta import DeltaGeometry, KinematicsError, forward_kin
from amsim.freqdom import workspace_kk_sweep
from amsim.scenario import _Run
from amsim.spatial import InertialParams, box_inertia, inverse3
from perfbench.workloads import WORKSPACE_PAYLOAD, WORKSPACE_REFERENCE

G = 9.81
M_A = 1.379
C_GAIN = 10.0
DT = 0.01  # 100 Hz


def observe(m_hat, f_z, n):
    """The estimates of ``n`` observer ticks on a constant residual ``f_z``, from ``m_hat``."""
    out = []
    for _ in range(n):
        m_hat = dob_step(m_hat, f_z, M_A, C_GAIN, DT, G)
        out.append(m_hat)
    return out


class TestDobStep:
    """The observer on the residual a level hover carrying m_o gives: f_z = m_o g."""

    def test_fixed_point(self):
        m_o = 0.219
        assert observe(m_o, m_o * G, 100)[-1] == pytest.approx(m_o, abs=1e-12)

    def test_step_response_closed_form(self):
        # m_hat(t) = m_o (1 - exp(-c t / m_a)) for a constant residual
        m_o = 0.219
        worst = 0.0
        for k, m_hat in enumerate(observe(0.0, m_o * G, 200), start=1):
            expect = m_o * (1.0 - math.exp(-C_GAIN * k * DT / M_A))
            worst = max(worst, abs(m_hat - expect))
        assert worst < 0.005 * m_o

    def test_95pct_time(self):
        # 95% of the step is reached near 3 time constants (~0.414 s)
        m_o = 0.219
        t, reached = 0.0, None
        for m_hat in observe(0.0, m_o * G, 200):
            t += DT
            if reached is None and m_hat >= 0.95 * m_o:
                reached = t
        assert reached == pytest.approx(3.0 * M_A / C_GAIN, abs=2 * DT)

    def test_monotone_convergence_noise_free(self):
        m_o = 0.3
        errs = [abs(m_hat - m_o) for m_hat in observe(0.0, m_o * G, 300)]
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))

    def test_unbiased_under_zero_mean_noise(self, rng):
        """Accelerometer noise enters the residual as -m_a times the noise."""
        m_o = m_hat = 0.25
        sigma = 0.05
        n = 1000  # 10 s at 100 Hz
        samples = []
        for _ in range(n):
            f_z = m_o * G - M_A * sigma * float(rng.standard_normal())
            m_hat = dob_step(m_hat, f_z, M_A, C_GAIN, DT, G)
            samples.append(m_hat)
        tail = np.array(samples[n // 5:])
        # effective sample count from the observer's decorrelation time
        n_eff = (len(tail) * DT) / (2.0 * M_A / C_GAIN)
        tol = 2.0 * tail.std() / math.sqrt(n_eff)
        assert abs(tail.mean() - m_o) < max(tol, 1e-4)

    def test_clamped_nonnegative(self):
        f_z = -0.5 * M_A * G  # thrust deficit: half the bare vehicle's weight
        assert observe(0.0, f_z, 50) == [0.0] * 50


def ref_dob_step(st, accel_w, R, thrust_body, m_a, c, dt, g=9.81, force_lpf_hz=50.0):
    """The array observer tick the float engine replaced, kept as its oracle:
    residual, low-pass filter and relaxation in one. ``st`` and the result are
    (m_hat, filtered residual as an array or None)."""
    e3 = np.array([0.0, 0.0, 1.0])
    accel_w = np.asarray(accel_w, dtype=float).reshape(3)
    thrust_body = np.asarray(thrust_body, dtype=float).reshape(3)
    R = np.asarray(R, dtype=float)
    f_raw = R @ thrust_body - m_a * accel_w - m_a * g * e3
    m_hat, force_filt = st
    if force_filt is None:
        f_filt = f_raw
    else:
        a = 1.0 - math.exp(-2.0 * math.pi * force_lpf_hz * dt)
        f_filt = force_filt + a * (f_raw - force_filt)
    decay = math.exp(-c * dt / m_a)
    target = f_filt[2] / g
    m_hat = target + (m_hat - target) * decay
    return max(m_hat, 0.0), f_filt


def dob_bits(st):
    """The observer state as bytes, so that == compares NaNs and zero signs too."""
    m_hat, force_filt = st
    return np.array([m_hat, *force_filt]).tobytes()


class TestDobOracle:
    """The engine's observer stage, ``_Run.observe`` (its one residual filter,
    then ``dob_step`` on the filtered z), against the array code it replaced,
    bit for bit. The thrust lies on the body z axis, as a rotor thrust does.
    """

    def random_run(self, rng, n=40):
        """A latched dob-only ``_Run`` at random observer parameters, and ``n`` inputs."""
        base = load_config("grasp_estimate")
        cfg = replace(base, mode="dob-only", duration=0.01, g=float(rng.uniform(9.7, 9.9)),
                      dob_hz=int(rng.choice([50, 100, 200, 500])),
                      vehicle=replace(base.vehicle, mass=float(rng.uniform(0.5, 3.0))),
                      est=replace(base.est, dob_c=float(rng.uniform(1.0, 30.0)),
                                  force_lpf_hz=float(rng.uniform(5.0, 80.0))))
        run = _Run(cfg)
        run.latched = True
        steps = [(rng.standard_normal(3) * 3.0, random_rotation(rng), float(rng.uniform(0.0, 60.0)))
                 for _ in range(n)]
        return run, steps, (cfg.vehicle.mass, cfg.est.dob_c, run.dob_dt), dict(
            g=cfg.g, force_lpf_hz=cfg.est.force_lpf_hz)

    @staticmethod
    def step(run, accel, R, thrust):
        """One observer tick of ``run`` on these sensor values: its (m_hat, filtered residual)."""
        run.acc_meas, run.R, run.thrust = accel.tolist(), tuple(R.ravel().tolist()), thrust
        run.observe(0.0)
        return run.m_hat, run.det_filt

    def test_bitwise_on_random_inputs(self, rng):
        for _ in range(30):
            run, steps, args, kw = self.random_run(rng)
            run.m_hat = m0 = float(rng.uniform(0.0, 0.5))
            ref = (m0, None)
            for accel, R, thrust in steps:
                ref = ref_dob_step(ref, accel, R, (0.0, 0.0, thrust), *args, **kw)
                st = self.step(run, accel, R, thrust)
                assert dob_bits(st) == dob_bits(ref)
                assert type(st[0]) is float and all(type(v) is float for v in st[1])

    def test_nan_input(self, rng):
        for where in range(3):
            run, steps, args, kw = self.random_run(rng, n=3)
            run.m_hat = 0.1
            ref = (0.1, None)
            for k, (accel, R, thrust) in enumerate(steps):
                if k == 1:
                    accel = accel.copy()
                    accel[where] = math.nan
                ref = ref_dob_step(ref, accel, R, (0.0, 0.0, thrust), *args, **kw)
                st = self.step(run, accel, R, thrust)
                assert dob_bits(st) == dob_bits(ref)
            assert math.isnan(st[1][where])
            assert math.isnan(st[0]) == (where == 2)


def detect(forces, persistence=0.5, dt=0.01):
    """(time above threshold, latched) after each of ``forces``, from no time above."""
    elapsed, out = 0.0, []
    for f in forces:
        elapsed, latched = detect_grasp(elapsed, f, 1.0, persistence, dt)
        out.append((elapsed, latched))
    return out


class TestDetectGrasp:
    def test_below_threshold_never_triggers(self):
        assert detect([0.8] * 200) == [(0.0, False)] * 200

    def test_049s_not_enough(self):
        out = detect([2.0] * 49 + [0.0])
        assert not any(latched for _, latched in out)
        assert out[48][0] == pytest.approx(0.49)
        assert out[-1] == (0.0, False)  # dropped below: accumulated time resets

    def test_05s_continuous_triggers(self):
        """The latch sets at the tick whose summed time reaches the persistence,
        up to the 1e-12 s by which a sum of ticks may fall short of it."""
        out = detect([2.0] * 50)
        assert [latched for _, latched in out] == [False] * 49 + [True]
        out = detect([2.0] * 10, persistence=0.1)
        assert out[-1] == (0.09999999999999999, True)  # ten ticks of 0.01 s: just short
        assert not out[-2][1]

    def test_reset_restarts_the_count(self):
        out = detect([2.0] * 30 + [0.5] + [2.0] * 50)
        assert [k for k, (_, latched) in enumerate(out) if latched][0] == 30 + 50

    def test_sign_insensitive(self):
        assert detect([-2.0] * 50)[-1][1]
        assert detect([-1.0] * 50) == [(0.0, False)] * 50  # |f| must exceed the threshold


class TestRescaleMoi:
    def test_identity(self):
        j = (np.diag([1.0, 2.0, 3.0]) * 1e-4).ravel()
        np.testing.assert_array_equal(rescale_moi(j.tolist(), 0.2, 0.2), j)

    def test_doubling(self):
        j = (np.diag([1.0, 2.0, 3.0]) * 1e-4).ravel()
        np.testing.assert_allclose(rescale_moi(j.tolist(), 0.2, 0.4), 2.0 * j, rtol=1e-15)


class TestUpdateTotal:
    def setup_method(self):
        self.geom = DeltaGeometry()
        self.j_a = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        self.p_b = np.array([0.0, 0.0, 0.03])
        # the vehicle as update_total takes it: nine row-major floats and three
        self.j9, self.p3 = self.j_a.ravel().tolist(), self.p_b.tolist()

    def total(self, m_o, j_o, offset, theta, m_a=M_A, j_a=None, p_b=None):
        """update_total on test arrays, passed as the floats it takes, with the
        platform at ``forward_kin`` of ``theta``."""
        return update_total(m_a, self.j9 if j_a is None else np.ravel(j_a).tolist(),
                            self.p3 if p_b is None else np.ravel(p_b).tolist(), m_o,
                            np.ravel(j_o).tolist(), np.ravel(offset).tolist(),
                            forward_kin(self.geom, np.ravel(theta).tolist()))

    def test_no_object_passthrough(self):
        out = update_total(M_A, self.j9, self.p3, 0.0, None, None, None)
        assert out.m_t_hat == M_A
        np.testing.assert_array_equal(out.c_t, self.p_b)
        np.testing.assert_array_equal(out.j_t_hat, self.j_a.ravel())

    def test_outboard_move_increases_yy(self):
        j_o = box_inertia(0.4, [0.1, 0.1, 0.1])
        theta_center = np.full(3, 0.5)
        p_center = forward_kin(self.geom, theta_center)
        # find a pose whose end effector sits further out along +x
        from amsim.delta import inverse_kin
        p_out = p_center + np.array([0.04, 0.0, 0.0])
        theta_out = inverse_kin(self.geom, p_out)
        offset = np.array([0.0, 0.0, -0.06])
        a = self.total(0.4, j_o, offset, theta_center)
        b = self.total(0.4, j_o, offset, theta_out)
        assert b.j_t_hat[4] > a.j_t_hat[4]  # entry (1, 1) of the row-major nine

    def test_object_at_vehicle_com_adds_only_its_moi(self):
        j_o = box_inertia(0.4, [0.08, 0.08, 0.08])
        # grasp offset placing the object CoM exactly at the vehicle CoM
        theta = np.full(3, 0.5)
        p_e = forward_kin(self.geom, theta)
        offset = self.p_b - p_e
        out = self.total(0.4, j_o, offset, theta)
        np.testing.assert_allclose(out.j_t_hat, (self.j_a + j_o).ravel(), atol=1e-15)
        np.testing.assert_allclose(out.c_t, self.p_b, atol=1e-15)

    def test_mass_adds(self):
        j_o = box_inertia(0.25, [0.1, 0.1, 0.1])
        out = self.total(0.25, j_o, np.array([0.0, 0.0, -0.05]), np.full(3, 0.5))
        assert out.m_t_hat == pytest.approx(M_A + 0.25, rel=1e-15)

    @pytest.mark.parametrize("obj_mass", [0.0])
    def test_no_object_returns_fresh_arrays(self, obj_mass):
        """Fresh lists of 3 and 9 floats from the nine row-major floats the engine passes."""
        p_b, j_a = self.p_b.tolist(), self.j_a.ravel().tolist()
        out = update_total(M_A, j_a, p_b, obj_mass, None, None, None)
        assert type(out.c_t) is list and type(out.j_t_hat) is list
        assert all(type(v) is float for v in out.c_t + out.j_t_hat)
        assert len(out.c_t) == 3 and len(out.j_t_hat) == 9
        assert iags_gain(j_a, inverse3(j_a), out.j_t_hat) == [1.0, 1.0, 1.0]
        assert out.c_t is not p_b and out.j_t_hat is not j_a
        out.c_t[:] = [7.0] * 3
        out.j_t_hat[:] = [7.0] * 9
        np.testing.assert_array_equal(p_b, [0.0, 0.0, 0.03])
        np.testing.assert_array_equal(np.reshape(j_a, (3, 3)),
                                      np.diag([9.2e-3, 10.5e-3, 14.7e-3]))

    def test_matches_array_oracle(self, rng):
        lo, hi = self.geom.joint_limits
        done = 0
        while done < 300:
            (m_a, p_b, j_a), (m_o, _, j_o) = random_body(rng), random_body(rng)
            theta, offset = rng.uniform(lo, hi, 3), rng.uniform(-0.1, 0.1, 3)
            try:
                out = self.total(m_o, j_o, offset, theta, m_a, j_a, p_b)
            except KinematicsError:
                continue
            m_ref, c_ref, j_ref = ref_composite(
                m_a, p_b, j_a, m_o, np.asarray(forward_kin(self.geom, theta)) + offset, j_o)
            assert out.m_t_hat == m_ref
            assert len(out.c_t) == 3 and len(out.j_t_hat) == 9
            np.testing.assert_allclose(out.c_t, c_ref, rtol=0.0, atol=1e-14 * np.abs(c_ref).max())
            np.testing.assert_allclose(out.j_t_hat, j_ref.ravel(), rtol=0.0,
                                       atol=1e-14 * np.abs(j_ref).max())
            done += 1

    def test_bitwise_equals_array_oracle(self, rng):
        """The float composite rounds exactly as the array oracle: same
        mass, CoM and row-major inertia bits at random bodies and poses."""
        lo, hi = self.geom.joint_limits
        done = 0
        while done < 300:
            (m_a, p_b, j_a), (m_o, _, j_o) = random_body(rng), random_body(rng)
            theta, offset = rng.uniform(lo, hi, 3), rng.uniform(-0.1, 0.1, 3)
            try:
                out = self.total(m_o, j_o, offset, theta, m_a, j_a, p_b)
            except KinematicsError:
                continue
            px, py, pz = forward_kin(self.geom, theta)
            c_o = np.array([px + offset[0], py + offset[1], pz + offset[2]])
            m_ref, c_ref, j_ref = ref_composite(m_a, p_b, j_a, m_o, c_o, j_o)
            assert (out.m_t_hat, out.c_t, out.j_t_hat) == (m_ref, c_ref.tolist(),
                                                           j_ref.ravel().tolist())
            done += 1

    def test_workspace_sweep_keeps_benchmark_reference(self):
        vehicle = InertialParams(M_A, self.p_b, self.j_a)
        mass, dims = WORKSPACE_PAYLOAD
        maxima, _ = workspace_kk_sweep(self.geom, mass, dims, vehicle, grid_n=9,
                                       pad_height=0.01)
        np.testing.assert_allclose(maxima, WORKSPACE_REFERENCE, rtol=1e-9, atol=0.0)
