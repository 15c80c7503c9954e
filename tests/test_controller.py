import math

import numpy as np
import pytest

from amsim.controller import (Gains, RateLoop, allocation, allocation_matrix,
                              attitude_loop, iags_gain, mixer, position_loop)
from amsim.dynamics import RotorConfig
from amsim.spatial import quat_normalize, quat_to_rot

G = 9.81
IDENT = np.array([1.0, 0.0, 0.0, 0.0])


@pytest.fixture
def gains():
    return Gains()


@pytest.fixture
def rotor():
    return RotorConfig.x_config(arm_length=0.12)


def axis_angle_quat(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.array([math.cos(angle / 2), *(math.sin(angle / 2) * axis)])


class TestPositionLoop:
    def test_hover_at_setpoint(self, gains):
        thrust, q_des, flag = position_loop(
            np.array([0, 0, 1.0]), np.zeros(3), np.array([0, 0, 1.0]),
            np.zeros(3), IDENT, 1.6, gains, g=G)
        assert thrust == pytest.approx(1.6 * G, rel=1e-12)
        np.testing.assert_allclose(q_des, IDENT, atol=1e-12)
        assert not flag

    def test_linear_in_mass(self, gains):
        args = (np.array([0.3, 0, 1.2]), np.zeros(3), np.array([0, 0, 1.0]),
                np.zeros(3), IDENT)
        t1, _, _ = position_loop(*args, 1.0, gains, g=G)
        t2, _, _ = position_loop(*args, 2.0, gains, g=G)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)

    def test_one_meter_x_error_commands_4ms2(self, gains):
        thrust, q_des, _ = position_loop(
            np.array([1.0, 0, 1.0]), np.zeros(3), np.array([0, 0, 1.0]),
            np.zeros(3), IDENT, 1.0, gains, g=G)
        a_cmd = np.array([4.0, 0.0, G])  # k_pos_x * 1 m plus gravity
        z_des = quat_to_rot(q_des)[:, 2]
        np.testing.assert_allclose(z_des, a_cmd / np.linalg.norm(a_cmd),
                                   atol=1e-12)
        # projection on current (level) body z picks up only the z component
        assert thrust == pytest.approx(G, rel=1e-12)

    def test_freefall_flagged_and_saturated(self, gains):
        # setpoint below by exactly g/k_z: commanded acceleration cancels gravity
        p_des = np.array([0, 0, 1.0 - G / gains.k_pos[2]])
        thrust, q_des, flag = position_loop(
            p_des, np.zeros(3), np.array([0, 0, 1.0]),
            np.zeros(3), IDENT, 1.5, gains, g=G)
        assert flag
        assert np.isfinite(thrust) and thrust >= 0.0
        assert np.all(np.isfinite(q_des))

    def test_feedforward_acceleration(self, gains):
        t0, _, _ = position_loop(np.array([0, 0, 1.0]), np.zeros(3),
                                 np.array([0, 0, 1.0]), np.zeros(3), IDENT,
                                 1.0, gains, g=G)
        t1, _, _ = position_loop(np.array([0, 0, 1.0]), np.zeros(3),
                                 np.array([0, 0, 1.0]), np.zeros(3), IDENT,
                                 1.0, gains, a_ff=np.array([0, 0, 1.0]), g=G)
        assert t1 == pytest.approx(t0 + 1.0, rel=1e-12)


class TestAttitudeLoop:
    def test_zero_error(self):
        q = quat_normalize(np.array([0.9, 0.1, -0.2, 0.3]))
        np.testing.assert_allclose(attitude_loop(q, q, np.array([6.0, 6.0, 3.0])),
                                   np.zeros(3), atol=1e-12)

    def test_antipodal_finite(self):
        q_des = IDENT
        q = axis_angle_quat([0, 0, 1], math.pi)  # 180 deg yaw error
        out = attitude_loop(q_des, q, np.array([6.0, 6.0, 3.0]))
        assert np.all(np.isfinite(out))

    def test_small_angle_matches_rotation_vector(self):
        k = np.array([6.0, 6.0, 3.0])
        for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                     np.array([0.3, -0.5, 0.8])):
            angle = math.radians(5.0)
            q = axis_angle_quat(axis, angle)
            out = attitude_loop(IDENT, q, k)
            expect = -k * (angle * axis / np.linalg.norm(axis))
            np.testing.assert_allclose(out, expect, rtol=0.01)

    def test_sign_drives_back(self):
        # positive roll offset must command negative roll rate
        q = axis_angle_quat([1, 0, 0], 0.2)
        out = attitude_loop(IDENT, q, np.array([6.0, 6.0, 3.0]))
        assert out[0] < 0.0


class TestIagsGain:
    def test_unloaded_identity(self):
        j_a = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        np.testing.assert_allclose(iags_gain(j_a, j_a), np.eye(3), atol=1e-15)

    def test_doubled_inertia(self):
        j_a = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        np.testing.assert_allclose(iags_gain(j_a, 2.0 * j_a), 2.0 * np.eye(3),
                                   rtol=1e-12)

    def test_general_product(self, rng):
        j_a = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        j_t = j_a + np.diag(rng.uniform(0, 0.02, 3))
        kk = iags_gain(j_a, j_t)
        np.testing.assert_allclose(j_a @ kk, j_t, rtol=1e-12)


class TestRateLoop:
    def test_zero_history_zero_torque(self, gains):
        loop = RateLoop(gains)
        out = loop.step(np.zeros(3), np.zeros(3), np.ones(3), 1 / 400)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_constant_error_p_term(self):
        g = Gains(rate_ki=np.zeros(3), rate_kd=np.zeros(3))
        loop = RateLoop(g)
        e = np.array([0.1, -0.2, 0.3])
        kk = np.array([2.0, 1.0, 1.5])
        out = loop.step(e, np.zeros(3), kk, 1 / 400)
        np.testing.assert_allclose(out, g.rate_kp * e * kk, rtol=1e-15)

    def test_reduces_to_plain_pid_bitwise(self, gains, rng):
        """With unit scheduled gain the loop is exactly the baseline PID."""
        loop = RateLoop(gains)
        dt = 1 / 400
        integral = np.zeros(3)
        prev = None
        d_filt = np.zeros(3)
        alpha = 1.0 - math.exp(-2.0 * math.pi * gains.d_lpf_hz * dt)
        for _ in range(500):
            w_des = rng.uniform(-1, 1, 3)
            w = rng.uniform(-1, 1, 3)
            got = loop.step(w_des, w, np.ones(3), dt)
            e = w_des - w
            integral = np.clip(integral + gains.rate_ki * e * dt,
                               -gains.i_limit, gains.i_limit)
            d_raw = np.zeros(3) if prev is None else (e - prev) / dt
            d_filt = d_filt + alpha * (d_raw - d_filt)
            prev = e
            ref = gains.rate_kp * e + integral + gains.rate_kd * d_filt
            assert np.array_equal(got, ref)  # bitwise

    def test_anti_windup_bound(self, gains, rng):
        loop = RateLoop(gains)
        for _ in range(5000):
            loop.step(rng.uniform(5, 10, 3), np.zeros(3), np.ones(3), 1 / 400)
            assert np.all(np.abs(loop._integral) <= gains.i_limit + 1e-15)

    def test_loop_shape_invariance_paired_sim(self, gains):
        """Scheduled loop on a heavier plant reproduces the nominal response."""
        j_a = 9.2e-3
        tau_m = 0.02
        dt = 1 / 400

        def simulate(j_plant, kk):
            loop = RateLoop(gains)
            w = 0.0
            tau_act = 0.0
            hist = []
            for k in range(400):  # 1 s
                w_des = 1.0  # rate step
                tau_cmd = loop.step(np.array([w_des, 0, 0]),
                                    np.array([w, 0, 0]),
                                    np.array([kk, 1.0, 1.0]), dt)[0]
                a = math.exp(-dt / tau_m)
                tau_act = tau_cmd + (tau_act - tau_cmd) * a
                w += dt * tau_act / j_plant
                hist.append(w)
            return np.array(hist)

        nominal = simulate(j_a, 1.0)
        for scale in (1.7, 2.37, 3.52):
            scheduled = simulate(j_a * scale, scale)
            rms = np.sqrt(np.mean((scheduled - nominal) ** 2))
            assert rms < 0.01 * np.sqrt(np.mean(nominal ** 2))


class TestMixer:
    def test_pure_collective_equal_thrusts(self, rotor):
        t, flag = mixer(8.0, np.zeros(3), rotor)
        assert not flag
        np.testing.assert_allclose(t, np.full(4, 2.0), atol=1e-12)

    def test_pure_roll_solve_antisymmetric(self, rotor):
        # allocation-level check: the unsaturated solve sums to zero
        a = allocation_matrix(rotor, np.zeros(3))
        t = np.linalg.solve(a, np.array([0.0, 0.05, 0.0, 0.0]))
        assert t.sum() == pytest.approx(0.0, abs=1e-12)
        assert np.abs(t + t[[3, 2, 1, 0]]).max() < 1e-12  # antisymmetric pairs

    def test_roundtrip_feasible_wrench(self, rotor, rng):
        a = allocation_matrix(rotor, np.zeros(3))
        for _ in range(50):
            thrust = rng.uniform(5.0, 40.0)
            torque = rng.uniform(-0.4, 0.4, 3)
            t, flag = mixer(thrust, torque, rotor)
            assert not flag
            got = a @ t
            # torque is always preserved when feasible; the collective too
            # whenever the raw allocation needed no saturation shift
            np.testing.assert_allclose(got[1:], torque, atol=1e-9)
            raw = np.linalg.solve(a, np.array([thrust, *torque]))
            if raw.min() >= 0.0 and raw.max() <= rotor.max_thrust:
                np.testing.assert_allclose(got[0], thrust, atol=1e-9)
                np.testing.assert_allclose(t, raw, atol=1e-9)

    def test_saturation_preserves_torque(self, rotor):
        # collective demand beyond limits: torque held, collective scaled
        a = allocation_matrix(rotor, np.zeros(3))
        torque = np.array([0.3, -0.2, 0.05])
        t, flag = mixer(500.0, torque, rotor)
        assert not flag
        got = a @ t
        np.testing.assert_allclose(got[1:], torque, atol=1e-9)
        assert got[0] < 500.0
        assert np.all(t <= rotor.max_thrust + 1e-12)

    def test_zero_collective_shifted_up(self, rotor):
        torque = np.array([0.2, 0.0, 0.0])
        t, flag = mixer(0.0, torque, rotor)
        assert not flag
        assert np.all(t >= -1e-12)
        got = allocation_matrix(rotor, np.zeros(3)) @ t
        np.testing.assert_allclose(got[1:], torque, atol=1e-9)

    def test_infeasible_flagged(self, rotor):
        t, flag = mixer(0.0, np.array([50.0, 0.0, 0.0]), rotor)
        assert flag
        assert np.all(t >= 0.0) and np.all(t <= rotor.max_thrust)

    def test_com_offset_allocation(self, rotor, rng):
        com = np.array([0.01, -0.02, 0.0])
        a = allocation_matrix(rotor, com)
        t, flag = mixer(10.0, np.array([0.05, 0.02, -0.01]), rotor, com=com)
        assert not flag
        np.testing.assert_allclose(a @ t, [10.0, 0.05, 0.02, -0.01], atol=1e-9)
        # the precomputed allocation gives the same bits as com=
        alloc = allocation(rotor, com)
        for thrust, torque in [(10.0, [0.05, 0.02, -0.01]), (500.0, [0.3, -0.2, 0.05]),
                               (0.0, [50.0, 0.0, 0.0]),
                               *((rng.uniform(0.0, 40.0), rng.uniform(-0.5, 0.5, 3))
                                 for _ in range(20))]:
            t_com, flag_com = mixer(thrust, np.array(torque), rotor, com=com)
            t_pre, flag_pre = mixer(thrust, np.array(torque), rotor, alloc=alloc)
            assert t_pre.tobytes() == t_com.tobytes()
            assert flag_pre == flag_com

    def test_com_outside_footprint_not_x_like(self, rotor):
        com = np.array([0.5, 0.0, 0.0])  # beyond the 0.12 m arms
        with pytest.raises(ValueError, match="not X-like"):
            allocation(rotor, com)
        with pytest.raises(ValueError, match="not X-like"):
            mixer(10.0, np.zeros(3), rotor, com=com)
