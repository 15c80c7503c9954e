import math

import numpy as np
import pytest

from conftest import random_rotation, ref_rot_to_quat, rot_matrix, rot_to_quat_case

from amsim import cli
from amsim.config import ScenarioConfig
from amsim.controller import (Gains, RateLoop, allocation, attitude_loop, iags_gain, mixer,
                              position_loop)
from amsim.dynamics import RotorConfig, torque_matrix
from amsim.spatial import inverse3, quat_to_rot, unit_quat

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


def floats(x) -> list:
    return np.ravel(x).astype(float).tolist()


def pos_loop(p_des, v_des, p, v, q, m_t_hat, gains, a_ff=(0.0, 0.0, 0.0), yaw_des=0.0, g=G):
    """position_loop on test arrays: vectors as three floats, the attitude
    ``q`` as its rotation's nine row-major floats."""
    return position_loop(floats(p_des), floats(v_des), floats(p), floats(v), m_t_hat, gains,
                         floats(a_ff), yaw_des, g, quat_to_rot(floats(q)))


def att_loop(q_des, q, k_att):
    """attitude_loop on test arrays: the attitude ``q`` as its rotation's nine floats."""
    return attitude_loop(floats(q_des), quat_to_rot(floats(q)), floats(k_att))


def allocation_matrix(cfg, com):
    """Oracle: the 4x4 map from rotor thrusts to [collective; body torque about com]."""
    return np.array([[1.0] * 4, *torque_matrix(cfg, floats(com))])


def mix(thrust_des, torque_des, cfg, com=(0.0, 0.0, 0.0)):
    """mixer with the allocation about ``com``, on test arrays."""
    return mixer(thrust_des, floats(torque_des), allocation(cfg, floats(com)), cfg.c_t)


class TestPositionLoop:
    def test_hover_at_setpoint(self, gains):
        thrust, q_des, flag = pos_loop(
            np.array([0, 0, 1.0]), np.zeros(3), np.array([0, 0, 1.0]),
            np.zeros(3), IDENT, 1.6, gains)
        assert thrust == pytest.approx(1.6 * G, rel=1e-12)
        np.testing.assert_allclose(q_des, IDENT, atol=1e-12)
        assert not flag

    def test_linear_in_mass(self, gains):
        args = (np.array([0.3, 0, 1.2]), np.zeros(3), np.array([0, 0, 1.0]),
                np.zeros(3), IDENT)
        t1, _, _ = pos_loop(*args, 1.0, gains)
        t2, _, _ = pos_loop(*args, 2.0, gains)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)

    def test_one_meter_x_error_commands_4ms2(self, gains):
        thrust, q_des, _ = pos_loop(
            np.array([1.0, 0, 1.0]), np.zeros(3), np.array([0, 0, 1.0]),
            np.zeros(3), IDENT, 1.0, gains)
        a_cmd = np.array([4.0, 0.0, G])  # k_pos_x * 1 m plus gravity
        z_des = rot_matrix(q_des)[:, 2]
        np.testing.assert_allclose(z_des, a_cmd / np.linalg.norm(a_cmd),
                                   atol=1e-12)
        # projection on current (level) body z picks up only the z component
        assert thrust == pytest.approx(G, rel=1e-12)

    def test_freefall_flagged_and_saturated(self, gains):
        # setpoint below by exactly g/k_z: commanded acceleration cancels gravity
        p_des = np.array([0, 0, 1.0 - G / gains.k_pos[2]])
        thrust, q_des, flag = pos_loop(
            p_des, np.zeros(3), np.array([0, 0, 1.0]),
            np.zeros(3), IDENT, 1.5, gains)
        assert flag
        assert np.isfinite(thrust) and thrust >= 0.0
        assert np.all(np.isfinite(q_des))

    def test_feedforward_acceleration(self, gains):
        t0, _, _ = pos_loop(np.array([0, 0, 1.0]), np.zeros(3),
                                 np.array([0, 0, 1.0]), np.zeros(3), IDENT,
                                 1.0, gains)
        t1, _, _ = pos_loop(np.array([0, 0, 1.0]), np.zeros(3),
                                 np.array([0, 0, 1.0]), np.zeros(3), IDENT,
                                 1.0, gains, a_ff=np.array([0, 0, 1.0]))
        assert t1 == pytest.approx(t0 + 1.0, rel=1e-12)


class TestAttitudeLoop:
    def test_zero_error(self):
        q = np.array(unit_quat(0.9, 0.1, -0.2, 0.3))
        np.testing.assert_allclose(att_loop(q, q, np.array([6.0, 6.0, 3.0])),
                                   np.zeros(3), atol=1e-12)

    def test_antipodal_finite(self):
        q_des = IDENT
        q = axis_angle_quat([0, 0, 1], math.pi)  # 180 deg yaw error
        out = att_loop(q_des, q, np.array([6.0, 6.0, 3.0]))
        assert np.all(np.isfinite(out))

    def test_small_angle_matches_rotation_vector(self):
        k = np.array([6.0, 6.0, 3.0])
        for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                     np.array([0.3, -0.5, 0.8])):
            angle = math.radians(5.0)
            q = axis_angle_quat(axis, angle)
            out = att_loop(IDENT, q, k)
            expect = -k * (angle * axis / np.linalg.norm(axis))
            np.testing.assert_allclose(out, expect, rtol=0.01)

    def test_sign_drives_back(self):
        # positive roll offset must command negative roll rate
        q = axis_angle_quat([1, 0, 0], 0.2)
        out = att_loop(IDENT, q, np.array([6.0, 6.0, 3.0]))
        assert out[0] < 0.0


def spd(rng, scale, lo, hi):
    """A random symmetric positive-definite 3x3 with eigenvalues in scale * [lo, hi)."""
    rot = random_rotation(rng)
    j = rot @ np.diag(rng.uniform(lo, hi, 3) * scale) @ rot.T
    return 0.5 * (j + j.T)


class TestIagsGain:
    """The diagonal of J_a^-1 J_t_hat, formed as 1 + diag(J_a^-1 (J_t_hat - J_a))."""
    J_A = np.diag([9.2e-3, 10.5e-3, 14.7e-3])

    @staticmethod
    def gain(j_a, j_t):
        """iags_gain on 3x3 arrays, passed as the nine row-major floats it takes."""
        j9 = floats(j_a)
        return iags_gain(j9, inverse3(j9), floats(j_t))

    def test_unloaded_identity(self):
        """An estimate equal to the bare vehicle schedules no change, to the bit,
        for the shipped vehicle and a tilted, non-diagonal one; a LAPACK solve
        gives 0.9999999999999999 on y for the shipped vehicle."""
        j_a = np.array(ScenarioConfig().vehicle.j_a)
        rot = rot_matrix(unit_quat(0.9, 0.2, -0.3, 0.1))
        tilted = rot @ j_a @ rot.T
        assert np.abs(tilted - np.diag(np.diag(tilted))).max() > 1e-4
        for j in (j_a, tilted):
            out = self.gain(j, j)
            assert out == [1.0, 1.0, 1.0] and all(type(v) is float for v in out)

    def test_doubled_inertia(self):
        np.testing.assert_allclose(self.gain(self.J_A, 2.0 * self.J_A), [2.0] * 3, rtol=1e-15)

    def test_general_product(self, rng):
        """np.linalg.solve is the independent oracle, over random SPD pairs whose
        total inertia is the vehicle's plus a payload's."""
        for _ in range(500):
            scale = 10.0 ** rng.uniform(-3.0, -1.0)
            j_a = spd(rng, scale, 0.5, 1.5)
            j_t = j_a + spd(rng, scale, 0.0, 2.0)
            want = np.diag(np.linalg.solve(j_a, j_t))
            np.testing.assert_allclose(self.gain(j_a, j_t), want, rtol=1e-14, atol=0.0)

    def test_arrays_give_the_bits_of_scalar_calls(self, rng):
        """Arrays broadcast against floats, as ``spatial.composite``'s do; each
        element equals the scalar call on it, bit for bit."""
        j_a = spd(rng, 1e-2, 0.5, 1.5)
        j9, inv = floats(j_a), inverse3(floats(j_a))
        j_t = np.array([floats(j_a + spd(rng, 1e-2, 0.0, 2.0)) for _ in range(64)])
        j_t[:, 1] = j9[1]  # a float entry among the arrays
        got = iags_gain(j9, inv, [j_t[:, e] if e != 1 else j9[1] for e in range(9)])
        want = [iags_gain(j9, inv, row) for row in j_t.tolist()]
        assert np.array(got).tobytes() == np.array(want).T.tobytes()


class TestRateLoop:
    def test_zero_history_zero_torque(self, gains):
        loop = RateLoop(gains, 1 / 400)
        out = loop.step(np.zeros(3), np.zeros(3), np.ones(3))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_constant_error_p_term(self):
        g = Gains(rate_ki=np.zeros(3), rate_kd=np.zeros(3))
        loop = RateLoop(g, 1 / 400)
        e = np.array([0.1, -0.2, 0.3])
        kk = np.array([2.0, 1.0, 1.5])
        out = loop.step(e, np.zeros(3), kk)
        np.testing.assert_allclose(out, g.rate_kp * e * kk, rtol=1e-15)

    def test_reduces_to_plain_pid_bitwise(self, gains, rng):
        """With unit scheduled gain the loop is exactly the baseline PID."""
        dt = 1 / 400
        loop = RateLoop(gains, dt)
        integral = np.zeros(3)
        prev = None
        d_filt = np.zeros(3)
        alpha = 1.0 - math.exp(-2.0 * math.pi * gains.d_lpf_hz * dt)
        for _ in range(500):
            w_des = rng.uniform(-1, 1, 3)
            w = rng.uniform(-1, 1, 3)
            got = loop.step(w_des, w, np.ones(3))
            e = w_des - w
            integral = np.clip(integral + gains.rate_ki * e * dt,
                               -gains.i_limit, gains.i_limit)
            d_raw = np.zeros(3) if prev is None else (e - prev) / dt
            d_filt = d_filt + alpha * (d_raw - d_filt)
            prev = e
            ref = gains.rate_kp * e + integral + gains.rate_kd * d_filt
            assert np.array_equal(got, ref)  # bitwise

    def test_anti_windup_bound(self, gains, rng):
        loop = RateLoop(gains, 1 / 400)
        for _ in range(5000):
            loop.step(rng.uniform(5, 10, 3), np.zeros(3), np.ones(3))
            assert np.all(np.abs(loop._integral) <= gains.i_limit + 1e-15)

    def test_loop_shape_invariance_paired_sim(self, gains):
        """Scheduled loop on a heavier plant reproduces the nominal response."""
        j_a = 9.2e-3
        tau_m = 0.02
        dt = 1 / 400

        def simulate(j_plant, kk):
            loop = RateLoop(gains, dt)
            w = 0.0
            tau_act = 0.0
            hist = []
            for k in range(400):  # 1 s
                w_des = 1.0  # rate step
                tau_cmd = loop.step(np.array([w_des, 0, 0]),
                                    np.array([w, 0, 0]),
                                    np.array([kk, 1.0, 1.0]))[0]
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
        t, flag = mix(8.0, np.zeros(3), rotor)
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
            t, flag = mix(thrust, torque, rotor)
            assert not flag
            got = a @ t
            # torque is always preserved when feasible; the collective too
            # whenever the raw allocation needed no saturation shift
            np.testing.assert_allclose(got[1:], torque, atol=1e-9)
            raw = np.linalg.solve(a, np.array([thrust, *torque]))
            if raw.min() >= 0.0 and raw.max() <= rotor.c_t:
                np.testing.assert_allclose(got[0], thrust, atol=1e-9)
                np.testing.assert_allclose(t, raw, atol=1e-9)

    def test_saturation_preserves_torque(self, rotor):
        # collective demand beyond limits: torque held, collective scaled
        a = allocation_matrix(rotor, np.zeros(3))
        torque = np.array([0.3, -0.2, 0.05])
        t, flag = mix(500.0, torque, rotor)
        assert not flag
        got = a @ t
        np.testing.assert_allclose(got[1:], torque, atol=1e-9)
        assert got[0] < 500.0
        assert np.all(np.asarray(t) <= rotor.c_t + 1e-12)

    def test_zero_collective_shifted_up(self, rotor):
        torque = np.array([0.2, 0.0, 0.0])
        t, flag = mix(0.0, torque, rotor)
        assert not flag
        assert np.all(np.asarray(t) >= -1e-12)
        got = allocation_matrix(rotor, np.zeros(3)) @ t
        np.testing.assert_allclose(got[1:], torque, atol=1e-9)

    def test_infeasible_flagged(self, rotor):
        t, flag = mix(0.0, np.array([50.0, 0.0, 0.0]), rotor)
        assert flag
        t = np.asarray(t)
        assert np.all(t >= 0.0) and np.all(t <= rotor.c_t)

    def test_com_offset_allocation(self, rotor):
        com = np.array([0.01, -0.02, 0.0])
        a = allocation_matrix(rotor, com)
        t, flag = mix(10.0, np.array([0.05, 0.02, -0.01]), rotor, com)
        assert not flag
        np.testing.assert_allclose(a @ t, [10.0, 0.05, 0.02, -0.01], atol=1e-9)

    def test_com_outside_footprint_not_x_like(self, rotor):
        com = np.array([0.5, 0.0, 0.0])  # beyond the 0.12 m arms
        with pytest.raises(ValueError, match="not X-like"):
            allocation(rotor, com.tolist())
        with pytest.raises(ValueError, match="not X-like"):
            mix(10.0, np.zeros(3), rotor, com)


# The array cascade that the float functions replaced, kept as their oracle.
E3 = np.array([0.0, 0.0, 1.0])


def ref_position_loop(p_des, v_des, p, v, q, m_t_hat, gains, a_ff=None,
                      yaw_des=0.0, g=9.81):
    p_des = np.asarray(p_des, dtype=float)
    v_des = np.asarray(v_des, dtype=float)
    a_cmd = gains.k_pos * (p_des - p) + gains.k_vel * (v_des - v) + g * E3
    if a_ff is not None:
        a_cmd = a_cmd + np.asarray(a_ff, dtype=float)
    n = float(np.linalg.norm(a_cmd))
    freefall = n < 0.1 * g
    if freefall:
        direction = a_cmd / n if n > 1e-9 else E3.copy()
        a_cmd = 0.1 * g * direction
        n = 0.1 * g
    z_b = a_cmd / n
    x_c = np.array([math.cos(yaw_des), math.sin(yaw_des), 0.0])
    y_raw = np.cross(z_b, x_c)
    ny = float(np.linalg.norm(y_raw))
    if ny < 1e-6:
        y_c = np.array([-math.sin(yaw_des), math.cos(yaw_des), 0.0])
        x_b = np.cross(y_c, z_b)
        x_b /= np.linalg.norm(x_b)
        y_b = np.cross(z_b, x_b)
    else:
        y_b = y_raw / ny
        x_b = np.cross(y_b, z_b)
    r_des = np.column_stack([x_b, y_b, z_b])
    body_z = rot_matrix(q)[:, 2]
    thrust = max(m_t_hat * float(a_cmd @ body_z), 0.0)
    return thrust, ref_rot_to_quat(r_des), freefall, r_des, ny


def ref_attitude_loop(q_des, q, k_att):
    R = rot_matrix(q)
    Rd = rot_matrix(q_des)
    err = 0.5 * (Rd.T @ R - R.T @ Rd)
    return -np.asarray(k_att, dtype=float) * np.array([err[2, 1], err[0, 2], err[1, 0]])


class RefRateLoop:
    def __init__(self, gains):
        self.gains = gains
        self._integral = np.zeros(3)
        self._prev_error = None
        self._d_filt = np.zeros(3)

    def step(self, omega_des, omega, k_k_diag, dt):
        g = self.gains
        e = np.asarray(omega_des, dtype=float) - np.asarray(omega, dtype=float)
        self._integral = np.clip(self._integral + g.rate_ki * e * dt,
                                 -g.i_limit, g.i_limit)
        d_raw = np.zeros(3) if self._prev_error is None else (e - self._prev_error) / dt
        alpha = 1.0 - math.exp(-2.0 * math.pi * g.d_lpf_hz * dt)
        self._d_filt = self._d_filt + alpha * (d_raw - self._d_filt)
        self._prev_error = e
        pid = g.rate_kp * e + self._integral + g.rate_kd * self._d_filt
        return pid * np.asarray(k_k_diag, dtype=float)


def ref_mixer(thrust_des, torque_des, cfg, com):
    a = allocation_matrix(cfg, com)
    u = np.linalg.solve(a, np.array([1.0, 0.0, 0.0, 0.0]))
    w = np.array([float(thrust_des), *np.asarray(torque_des, dtype=float).reshape(3)])
    t0 = np.linalg.solve(a, w)
    t_max = cfg.c_t
    lam_lo = float(np.max(-t0 / u))
    lam_hi = float(np.min((t_max - t0) / u))
    infeasible = lam_lo > lam_hi
    if infeasible:
        lam = 0.5 * (lam_lo + lam_hi)
    else:
        lam = min(max(0.0, lam_lo), lam_hi)
    return np.clip(t0 + lam * u, 0.0, t_max), infeasible


def random_quat(rng):
    q = np.array(unit_quat(*rng.standard_normal(4)))
    return q if q[0] >= 0.0 else -q


def assert_floats(values, n):
    assert len(values) == n and all(type(v) is float for v in values)


class TestCascadeOracle:
    """The float cascade against the array code it replaced, to 1e-12."""

    def position_cases(self, rng):
        """Random commands plus the branches that random inputs miss."""
        cases = []
        for _ in range(300):
            cases.append(dict(p_des=rng.uniform(-2, 2, 3), v_des=rng.uniform(-1, 1, 3),
                              p=rng.uniform(-2, 2, 3), v=rng.uniform(-1, 1, 3),
                              a_ff=(rng.uniform(-15, 15, 3) if rng.uniform() < 0.7
                                    else np.zeros(3)),
                              yaw_des=rng.uniform(-math.pi, math.pi)))
        here = dict(p_des=np.zeros(3), v_des=np.zeros(3), p=np.zeros(3), v=np.zeros(3))
        for yaw in rng.uniform(-math.pi, math.pi, 20):
            c, s_ = math.cos(yaw), math.sin(yaw)
            cases += [
                dict(here, a_ff=[0.3, -0.2, 0.1 - G], yaw_des=yaw),      # free fall
                dict(here, a_ff=[0.0, 0.0, -G], yaw_des=yaw),            # n = 0
                dict(here, a_ff=[1e-10, 0.0, -G], yaw_des=yaw),          # 0 < n <= 1e-9
                dict(here, a_ff=[5.0 * c, 5.0 * s_, -G], yaw_des=yaw),   # thrust along heading
                dict(here, a_ff=[5.0 * c, 5.0 * s_ + 1e-7, -G], yaw_des=yaw),
                dict(here, a_ff=[0.0, 0.0, -3.0 * G], yaw_des=yaw),      # thrust down
            ]
        return cases

    def test_position_loop(self, gains, rng):
        branches, cases = set(), set()
        for case in self.position_cases(rng):
            q = random_quat(rng)
            m = float(rng.uniform(0.5, 3.0))
            args = (case["p_des"], case["v_des"], case["p"], case["v"], q, m, gains)
            kw = dict(a_ff=case["a_ff"], yaw_des=float(case["yaw_des"]), g=G)
            ref_thrust, ref_q, ref_flag, r_des, ny = ref_position_loop(*args, **kw)
            thrust, q_des, flag = pos_loop(*args, **kw)
            assert flag == ref_flag
            assert thrust == pytest.approx(ref_thrust, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(q_des, ref_q, rtol=0.0, atol=1e-12)
            assert type(thrust) is float  # from float inputs, floats come back
            assert_floats(q_des, 4)
            branches.add(("freefall", ref_flag))
            branches.add(("parallel", ny < 1e-6))
            cases.add(rot_to_quat_case(r_des))
        assert branches == {("freefall", True), ("freefall", False),
                            ("parallel", True), ("parallel", False)}
        assert cases == {0, 1, 2, 3}

    def test_attitude_loop(self, gains, rng):
        k_att = gains.k_att
        pairs = [(random_quat(rng), random_quat(rng)) for _ in range(300)]
        pairs.append((IDENT, axis_angle_quat([0, 0, 1], math.pi)))
        for q_des, q in pairs:
            ref = ref_attitude_loop(q_des, q, k_att)
            got = att_loop(q_des, q, k_att)
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
            assert_floats(got, 3)

    def test_rate_loop(self, rng):
        """Bit for bit, at each tick length the loop may be built with."""
        gains = Gains(i_limit=0.05)  # small, so that the clamp engages
        clamped = 0
        for dt in (1 / 400, 1 / 250, 1 / 1000, 0.0123):
            loop, ref = RateLoop(gains, dt), RefRateLoop(gains)
            for _ in range(300):
                w_des = rng.uniform(-3.0, 3.0, 3)
                w = rng.uniform(-3.0, 3.0, 3)
                kk = rng.uniform(0.5, 3.0, 3)
                got = loop.step(w_des.tolist(), w.tolist(), kk.tolist())
                want = ref.step(w_des, w, kk, dt)
                assert_floats(got, 3)
                assert np.array(got).tobytes() == want.tobytes()
                assert np.array(loop._integral).tobytes() == ref._integral.tobytes()
                assert np.array(loop._d_filt).tobytes() == ref._d_filt.tobytes()
                clamped += int(np.sum(np.abs(ref._integral) == gains.i_limit))
        assert clamped > 0

    def test_mixer(self, rotor, rng):
        flags = {"shifted": 0, "infeasible": 0, "unsaturated": 0}
        for _ in range(400):
            com = rng.uniform(-0.02, 0.02, 3)
            alloc = allocation(rotor, com.tolist())
            kind = rng.integers(4)
            thrust = [rng.uniform(5.0, 40.0), rng.uniform(60.0, 500.0), 0.0,
                      rng.uniform(0.0, 40.0)][kind]
            torque = rng.uniform(-0.4, 0.4, 3) * (100.0 if kind == 3 else 1.0)
            want, want_flag = ref_mixer(thrust, torque, rotor, com)
            got, flag = mixer(thrust, torque.tolist(), alloc, rotor.c_t)
            assert_floats(got, 4)
            assert flag == want_flag
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            raw = np.linalg.solve(allocation_matrix(rotor, com), [thrust, *torque])
            if flag:
                flags["infeasible"] += 1
            elif raw.min() < 0.0 or raw.max() > rotor.c_t:
                flags["shifted"] += 1
            else:
                flags["unsaturated"] += 1
        assert min(flags.values()) > 0, flags

    def test_nan_passes_through(self, gains, rotor):
        """A NaN input comes out as NaN, as the array code's np.clip lets it."""
        nan3 = [math.nan, 0.0, 0.0]
        thrust, q_des, flag = pos_loop([0, 0, 1.0], [0, 0, 0], nan3, [0, 0, 0], IDENT, 1.5,
                                       gains)
        ref = ref_position_loop([0, 0, 1.0], [0, 0, 0], np.array(nan3), np.zeros(3),
                                IDENT, 1.5, gains, g=G)
        assert math.isnan(thrust) and math.isnan(ref[0])
        assert np.all(np.isnan(q_des)) and np.all(np.isnan(ref[1]))
        assert flag is ref[2] is False

        w = att_loop(IDENT, [math.nan, 0.0, 0.0, 1.0], gains.k_att)
        assert np.all(np.isnan(w))

        loop, ref_loop = RateLoop(gains, 1 / 400), RefRateLoop(gains)
        got = loop.step(nan3, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        want = ref_loop.step(np.array(nan3), np.zeros(3), np.ones(3), 1 / 400)
        assert math.isnan(got[0]) and math.isnan(want[0])
        assert math.isnan(loop._integral[0]) and math.isnan(ref_loop._integral[0])
        assert got[1:] == want[1:].tolist()

        for bad in ((math.nan, [0.0, 0.0, 0.0]), (8.0, nan3)):
            t, flag = mix(*bad, rotor)
            t_ref, flag_ref = ref_mixer(*bad, rotor, np.zeros(3))
            assert np.all(np.isnan(t)) and np.all(np.isnan(t_ref))
            assert flag is flag_ref is False


class TestGainValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(k_pos=[math.nan, 4.0, 3.0]), dict(rate_kd=[0.0, math.inf, 0.0]),
        dict(k_vel=[-1.0, 1.0, 1.0]), dict(i_limit=-1.0), dict(i_limit=math.nan),
        dict(d_lpf_hz=0.0), dict(d_lpf_hz=-5.0), dict(d_lpf_hz=math.nan)])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Gains(**kwargs)

    @pytest.mark.parametrize("section, line", [
        ("gains", "k_pos = nan 4 3"), ("gains", "i_limit = -1"),
        ("gains", "d_lpf_hz = 0"), ("gains", "d_lpf_hz = nan")])
    def test_cli_config_error(self, tmp_path, capsys, section, line):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"[run]\nduration = 0.1\n[{section}]\n{line}\n")
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert [f.name for f in tmp_path.iterdir()] == ["bad.cfg"]
