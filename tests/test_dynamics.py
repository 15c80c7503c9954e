import math

import numpy as np
import pytest

from amsim.dynamics import (Environment, NonFinite, RotorConfig, VehicleState,
                            derivatives, motor_lag_step, rotor_wrench,
                            step_rk4)
from amsim.spatial import quat_mul, quat_to_rot

G = 9.81
E3 = np.array([0.0, 0.0, 1.0])


@pytest.fixture
def rotor():
    return RotorConfig.x_config(arm_length=0.12)


def hand_wrench(thrusts, cfg, com):
    """Direct summation oracle over the four rotors."""
    force = np.zeros(3)
    torque = np.zeros(3)
    e3 = np.array([0.0, 0.0, 1.0])
    for i in range(4):
        t_vec = thrusts[i] * e3
        force += t_vec
        torque += np.cross(cfg.positions[i] - com, t_vec)
        torque += cfg.spin_dirs[i] * cfg.k_tau * thrusts[i] * e3
    return force, torque


def ref_rot(q):
    """Rotation of the renormalized quaternion, written with numpy arrays."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q / math.sqrt(float(q @ q))
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def ref_derivatives(v, q, omega, force_b, torque_b, m_t, j_t, g, f_ext_w):
    """Reference oracle: the numpy form of the rigid-body derivatives."""
    dv = -g * E3 + (ref_rot(q) @ force_b) / m_t
    if f_ext_w is not None:
        dv = dv + f_ext_w / m_t
    domega = np.linalg.inv(j_t) @ (torque_b - np.cross(omega, j_t @ omega))
    dq = 0.5 * quat_mul(q, np.array([0.0, *omega]))
    return v, dv, dq, domega


def ref_step_rk4(s, force_b, torque_b, m_t, j_t, dt, g, f_ext_w):
    """Reference oracle: classical RK4 over numpy state arrays."""
    def f(v, q, w):
        return ref_derivatives(v, q, w, force_b, torque_b, m_t, j_t, g, f_ext_w)

    k1 = f(s.v, s.q, s.omega)
    k2 = f(*(x + 0.5 * dt * k for x, k in zip((s.v, s.q, s.omega), k1[1:])))
    k3 = f(*(x + 0.5 * dt * k for x, k in zip((s.v, s.q, s.omega), k2[1:])))
    k4 = f(*(x + dt * k for x, k in zip((s.v, s.q, s.omega), k3[1:])))
    out = [x + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
           for x, a, b, c, d in zip((s.p, s.v, s.q, s.omega), k1, k2, k3, k4)]
    out[2] = out[2] / np.linalg.norm(out[2])
    return out


def random_case(rng):
    """State, wrench, mass and a full (non-diagonal) inertia; wind half the time."""
    s = VehicleState.at_rest(rng.uniform(-2.0, 2.0, 3))
    s.v = rng.uniform(-3.0, 3.0, 3)
    q = rng.standard_normal(4)
    s.q = q / np.linalg.norm(q)
    s.omega = rng.uniform(-40.0, 40.0, 3)  # large rates make the gyroscopic term dominate
    a = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    moments = rng.uniform(5e-3, 2e-2, 3)
    j = a @ np.diag(moments) @ a.T
    j = 0.5 * (j + j.T)
    wind = rng.uniform(-3.0, 3.0, 3) if rng.random() < 0.5 else None
    return (s, rng.uniform(-5.0, 30.0, 3), rng.uniform(-0.5, 0.5, 3),
            rng.uniform(0.5, 3.0), j, wind)


def assert_close_rel(got, want, rel=1e-12):
    """Agreement to ``rel`` of the reference vector's largest component."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rel * max(np.max(np.abs(want)), 1e-300)


class TestFloatKernelAgainstReference:
    def test_derivatives_match(self, rng):
        for _ in range(200):
            s, force, torque, m, j, wind = random_case(rng)
            s.q = s.q * rng.uniform(0.5, 2.0)  # stage quaternions are not unit
            got = derivatives(s, (force, torque), m, j, g=G, f_ext_w=wind)
            want = ref_derivatives(s.v, s.q, s.omega, force, torque, m, j, G, wind)
            for a, b in zip(got, want):
                assert_close_rel(a, b)

    def test_step_rk4_matches(self, rng):
        for dt in (5e-4, 2e-3):
            for _ in range(100):
                s, force, torque, m, j, wind = random_case(rng)
                got = step_rk4(s, force, torque, m, j, dt, g=G, f_ext_w=wind)
                want = ref_step_rk4(s, force, torque, m, j, dt, G, wind)
                for a, b in zip((got.p, got.v, got.q, got.omega), want):
                    assert_close_rel(a, b)

    def test_precomputed_inverse_is_used_as_given(self, rng):
        s, force, torque, m, j, wind = random_case(rng)
        a = step_rk4(s, force, torque, m, j, 1e-3, f_ext_w=wind)
        b = step_rk4(s, force, torque, m, j, 1e-3, f_ext_w=wind, j_inv=np.linalg.inv(j))
        assert_close_rel(b.omega, a.omega)


class TestVehicleState:
    def test_constructor_stores_floats(self):
        s = VehicleState([1, 2, 3], np.array([4.0, 5.0, 6.0]), (1, 0, 0, 0),
                         np.array([[0.1], [0.2], [0.3]]))
        assert s.y == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.3)
        assert all(type(c) is float for c in s.y)
        np.testing.assert_array_equal(s.v, [4.0, 5.0, 6.0])
        assert s.p.dtype == np.float64 and s.q.shape == (4,)
        with pytest.raises(ValueError):
            VehicleState([0.0, 0.0], np.zeros(3), np.zeros(4), np.zeros(3))

    def test_at_rest(self):
        s = VehicleState.at_rest(np.array([0.5, -1.0, 2.0]))
        assert s.y == (0.5, -1.0, 2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_copy_round_trip(self, rng):
        s, *_ = random_case(rng)
        c = s.copy()
        assert c is not s and c.y == s.y
        assert VehicleState(c.p, c.v, c.q, c.omega).y == s.y
        c.omega = [9.0, 8.0, 7.0]
        assert c.y[10:] == (9.0, 8.0, 7.0)
        assert s.y[:10] == c.y[:10] and s.y[10:] != c.y[10:]

    def test_arrays_are_read_only(self):
        s = VehicleState.at_rest([1.0, 2.0, 3.0])
        before = s.y
        for name in ("p", "v", "q", "omega"):
            with pytest.raises(ValueError):
                getattr(s, name)[0] = 7.0
        with pytest.raises(ValueError):
            s.p += 1.0
        assert s.y == before
        with pytest.raises(ValueError):
            s.v = [1.0, 2.0]

    def test_step_keeps_floats(self, rotor):
        s = VehicleState.at_rest([0.0, 0.0, 1.0])
        force, torque = rotor_wrench([3.0, 3.5, 3.0, 3.5], rotor, np.zeros(3))
        out = step_rk4(s, force, torque, 1.4, np.diag([9.2e-3, 10.5e-3, 14.7e-3]),
                       1e-3, g=G, f_ext_w=(0.0, 1.0, 0.0))
        assert type(out.y) is tuple and len(out.y) == 13
        assert all(type(c) is float for c in out.y)


class TestRotorWrench:
    def test_equal_thrusts_centered(self, rotor):
        force, torque = rotor_wrench([2.0] * 4, rotor, np.zeros(3))
        np.testing.assert_allclose(force, [0, 0, 8.0], atol=1e-15)
        np.testing.assert_allclose(torque, np.zeros(3), atol=1e-15)

    def test_com_offset_lever_arm(self, rotor):
        d = 0.01
        _, torque = rotor_wrench([2.0] * 4, rotor, [d, 0.0, 0.0])
        assert torque[1] == pytest.approx(4 * 2.0 * d, rel=1e-12)
        assert abs(torque[0]) < 1e-15

    def test_differential_pair_vs_hand_sum(self, rotor, rng):
        for _ in range(10):
            thrusts = rng.uniform(0.0, 5.0, 4)
            com = rng.uniform(-0.05, 0.05, 3)
            force, torque = rotor_wrench(thrusts, rotor, com)
            f_ref, t_ref = hand_wrench(thrusts, rotor, com)
            np.testing.assert_allclose(force, f_ref, atol=1e-12)
            np.testing.assert_allclose(torque, t_ref, atol=1e-12)

    def test_linearity(self, rotor, rng):
        a = rng.uniform(0, 3, 4)
        b = rng.uniform(0, 3, 4)
        fa, ta = rotor_wrench(a, rotor, np.zeros(3))
        fb, tb = rotor_wrench(b, rotor, np.zeros(3))
        fab, tab = rotor_wrench(a + b, rotor, np.zeros(3))
        np.testing.assert_allclose(fab, np.add(fa, fb), atol=1e-12)
        np.testing.assert_allclose(tab, np.add(ta, tb), atol=1e-12)


class TestDerivatives:
    def test_hover_equilibrium(self, rotor):
        m = 1.379
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        s = VehicleState.at_rest([0.0, 0.0, 1.0])
        force, torque = rotor_wrench([m * G / 4] * 4, rotor, np.zeros(3))
        dp, dv, dq, dw = derivatives(s, (force, torque), m, j, g=G)
        np.testing.assert_allclose(dp, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(dv, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(dq, np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(dw, np.zeros(3), atol=1e-12)

    def test_principal_axis_spin_torque_free(self):
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        s = VehicleState.at_rest([0, 0, 0])
        s.omega = np.array([0.0, 2.0, 0.0])
        _, _, _, dw = derivatives(s, (np.zeros(3), np.zeros(3)), 1.0, j, g=G)
        np.testing.assert_allclose(dw, np.zeros(3), atol=1e-14)

    def test_translation_matches_specific_force(self, rng):
        m = 1.6
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        for _ in range(10):
            s = VehicleState.at_rest(rng.uniform(-1, 1, 3))
            q = rng.standard_normal(4)
            s.q = q / np.linalg.norm(q)
            s.v = rng.uniform(-2, 2, 3)
            force = np.array([0.0, 0.0, rng.uniform(0, 30)])
            _, dv, _, _ = derivatives(s, (force, np.zeros(3)), m, j, g=G)
            lhs = np.linalg.norm(dv + G * np.array([0, 0, 1.0]))
            assert lhs == pytest.approx(np.linalg.norm(force) / m, rel=1e-12)


class TestMotorLag:
    def test_steady_state_fixed_point(self, rotor):
        t_des = np.array([1.0, 2.0, 3.0, 4.0])
        out = motor_lag_step(t_des, rotor.k_m * t_des, rotor, 0.01)
        np.testing.assert_allclose(out, rotor.k_m * t_des, atol=1e-15)

    def test_one_time_constant_632(self, rotor):
        t_des = np.full(4, 5.0)
        out = motor_lag_step(t_des, np.zeros(4), rotor, rotor.tau_m)
        np.testing.assert_allclose(out, (1 - math.exp(-1)) * 5.0, rtol=1e-9)

    def test_dt_to_zero_identity(self, rotor):
        t0 = np.array([1.0, 1.5, 0.5, 2.0])
        out = motor_lag_step(np.full(4, 9.0), t0, rotor, 1e-12)
        np.testing.assert_allclose(out, t0, atol=1e-9)

    def test_floats_equal_the_array_formula(self, rotor, rng):
        for _ in range(50):
            t_des, t_act = rng.uniform(0.0, 18.0, 4), rng.uniform(0.0, 18.0, 4)
            target = rotor.k_m * t_des
            want = target + (t_act - target) * math.exp(-5e-4 / rotor.tau_m)
            got = motor_lag_step(t_des.tolist(), t_act.tolist(), rotor, 5e-4)
            assert all(type(c) is float for c in got)
            np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError):
            motor_lag_step([1.0] * 4, [1.0] * 3, rotor, 5e-4)

    def test_matches_fine_euler(self, rotor):
        # closed-form update vs brute-force fine-step Euler integration
        t_des = np.full(4, 3.0)
        t = np.zeros(4)
        n = 20000
        dt = 0.05 / n
        for _ in range(n):
            t = t + dt * (rotor.k_m * t_des - t) / rotor.tau_m
        exact = motor_lag_step(t_des, np.zeros(4), rotor, 0.05)
        np.testing.assert_allclose(exact, t, rtol=1e-4)


class TestRK4:
    def test_equilibrium_unchanged(self, rotor):
        m = 1.379
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        s = VehicleState.at_rest([0.0, 0.0, 1.0])
        force, torque = rotor_wrench([m * G / 4] * 4, rotor, np.zeros(3))
        out = step_rk4(s, force, torque, m, j, 1e-3, g=G)
        np.testing.assert_allclose(out.p, s.p, atol=1e-12)
        np.testing.assert_allclose(out.v, s.v, atol=1e-12)
        np.testing.assert_allclose(out.q, s.q, atol=1e-12)
        np.testing.assert_allclose(out.omega, s.omega, atol=1e-12)

    def test_free_fall_parabola(self):
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        s = VehicleState.at_rest([0.0, 0.0, 2.0])
        dt = 1e-3
        for _ in range(1000):
            s = step_rk4(s, np.zeros(3), np.zeros(3), 1.379, j, dt, g=G)
        assert s.p[2] == pytest.approx(2.0 - 0.5 * G * 1.0 ** 2, abs=1e-9)

    def test_angular_momentum_conserved_short(self):
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        s = VehicleState.at_rest([0, 0, 0])
        s.omega = np.array([1.2, -0.7, 0.9])
        L0 = quat_to_rot(s.q) @ (j @ s.omega)
        for _ in range(2000):
            s = step_rk4(s, np.zeros(3), np.zeros(3), 1.379, j, 1e-3, g=G)
        L = quat_to_rot(s.q) @ (j @ s.omega)
        assert np.linalg.norm(L - L0) / np.linalg.norm(L0) < 1e-7

    def test_energy_conserved_short(self):
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        s = VehicleState.at_rest([0, 0, 0])
        s.omega = np.array([1.2, -0.7, 0.9])
        e0 = 0.5 * float(s.omega @ (j @ s.omega))
        for _ in range(2000):
            s = step_rk4(s, np.zeros(3), np.zeros(3), 1.379, j, 1e-3, g=G)
        e = 0.5 * float(s.omega @ (j @ s.omega))
        assert abs(e - e0) / e0 < 1e-7

    def test_dt_bounds(self):
        s = VehicleState.at_rest([0, 0, 0])
        j = np.eye(3) * 1e-2
        with pytest.raises(ValueError):
            step_rk4(s, np.zeros(3), np.zeros(3), 1.0, j, 6e-3)
        with pytest.raises(ValueError):
            step_rk4(s, np.zeros(3), np.zeros(3), 1.0, j, 0.0)

    def test_nonfinite_detected(self):
        s = VehicleState.at_rest([0, 0, 0])
        j = np.eye(3) * 1e-2
        with pytest.raises(NonFinite):
            step_rk4(s, np.array([np.nan, 0, 0]), np.zeros(3), 1.0, j, 1e-3)

    def test_nan_torque_detected(self):
        s = VehicleState.at_rest([0, 0, 0])
        j = np.eye(3) * 1e-2
        with pytest.raises(NonFinite):
            step_rk4(s, np.zeros(3), np.array([0.0, np.nan, 0.0]), 1.0, j, 1e-3)

    def test_nan_inertia_detected(self):
        s = VehicleState.at_rest([0, 0, 0])
        s.omega = np.array([1.0, 0.0, 0.0])
        j = np.eye(3) * 1e-2
        j[0, 0] = np.nan
        with pytest.raises(NonFinite):
            step_rk4(s, np.zeros(3), np.zeros(3), 1.0, j, 1e-3)

    def test_zero_quaternion_rejected(self):
        s = VehicleState.at_rest([0, 0, 0])
        s.q = np.zeros(4)
        with pytest.raises(ValueError):
            step_rk4(s, np.zeros(3), np.zeros(3), 1.0, np.eye(3) * 1e-2, 1e-3)

    def test_quaternion_stays_unit(self):
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        s = VehicleState.at_rest([0, 0, 0])
        s.omega = np.array([3.0, 2.0, -1.0])
        for _ in range(500):
            s = step_rk4(s, np.zeros(3), np.zeros(3), 1.0, j, 1e-3)
            assert abs(np.linalg.norm(s.q) - 1.0) < 1e-9


class TestEnvironment:
    def test_wind_schedule(self):
        env = Environment(wind=[(2.0, [1.0, 0, 0]), (0.5, [0, 1.0, 0])])
        np.testing.assert_allclose(env.wind_at(0.0), np.zeros(3))
        np.testing.assert_allclose(env.wind_at(1.0), [0, 1.0, 0])
        np.testing.assert_allclose(env.wind_at(3.0), [1.0, 0, 0])

    def test_g_validation(self):
        with pytest.raises(ValueError):
            Environment(g=0.0)
