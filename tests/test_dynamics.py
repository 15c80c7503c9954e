import math
import re

import numpy as np
import pytest

from conftest import P, Q, V, W, quat_mul, rot_matrix, state, step

import amsim.dynamics
from amsim.config import ScenarioConfig, load_config
from amsim.dynamics import (MAX_STEP, NonFinite, RotorConfig, motor_decay, motor_lag_step,
                            rigid_body, rotor_wrench, step_rk4, torque_matrix)
from amsim.scenario import _Run, run_scenario
from amsim.spatial import inverse3, quat_to_rot, unit_quat

G = 9.81
E3 = np.array([0.0, 0.0, 1.0])
NO_WIND = (0.0, 0.0, 0.0)


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
    dv = -g * E3 + (ref_rot(q) @ force_b) / m_t + f_ext_w / m_t
    domega = np.linalg.inv(j_t) @ (torque_b - np.cross(omega, j_t @ omega))
    dq = 0.5 * quat_mul(q, np.array([0.0, *omega]))
    return v, dv, dq, domega


def parts(y):
    """The position, velocity, quaternion and rate of a 13-float state, as arrays."""
    return [np.array(y[part]) for part in (P, V, Q, W)]


def ref_step_rk4(y, force_b, torque_b, m_t, j_t, dt, g, f_ext_w):
    """Reference oracle: classical RK4 over numpy state arrays."""
    def f(v, q, w):
        return ref_derivatives(v, q, w, force_b, torque_b, m_t, j_t, g, f_ext_w)

    p, v, q, w = parts(y)
    k1 = f(v, q, w)
    k2 = f(*(x + 0.5 * dt * k for x, k in zip((v, q, w), k1[1:])))
    k3 = f(*(x + 0.5 * dt * k for x, k in zip((v, q, w), k2[1:])))
    k4 = f(*(x + dt * k for x, k in zip((v, q, w), k3[1:])))
    out = [x + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
           for x, a, b, c, d in zip((p, v, q, w), k1, k2, k3, k4)]
    out[2] = out[2] / np.linalg.norm(out[2])
    return out


def random_case(rng):
    """State, wrench, mass and a full (non-diagonal) inertia; wind half the time."""
    p = rng.uniform(-2.0, 2.0, 3)
    v = rng.uniform(-3.0, 3.0, 3)
    q = rng.standard_normal(4)
    q = q / np.linalg.norm(q)
    omega = rng.uniform(-40.0, 40.0, 3)  # large rates make the gyroscopic term dominate
    a = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    moments = rng.uniform(5e-3, 2e-2, 3)
    j = a @ np.diag(moments) @ a.T
    j = 0.5 * (j + j.T)
    wind = rng.uniform(-3.0, 3.0, 3) if rng.random() < 0.5 else np.zeros(3)
    return (state(p, v, q, omega), rng.uniform(-5.0, 30.0, 3), rng.uniform(-0.5, 0.5, 3),
            rng.uniform(0.5, 3.0), j, wind)


def scaled_q(y, k):
    """The state with its quaternion scaled by ``k``, as a stage quaternion is not unit."""
    return y[:6] + tuple(c * k for c in y[Q]) + y[W]


def assert_close_rel(got, want, rel=1e-12):
    """Agreement to ``rel`` of the reference vector's largest component."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rel * max(np.max(np.abs(want)), 1e-300)


def list_deriv(y, f, tau, m_t, j, j_inv, g, ext):
    """Exact oracle: the list-based derivative of the 13-float state that the
    straight-line kernel replaced, with the same float operations in the same order."""
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = y
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = quat_to_rot((qw, qx, qy, qz))
    fx, fy, fz = f
    ax = (r00 * fx + r01 * fy + r02 * fz) / m_t
    ay = (r10 * fx + r11 * fy + r12 * fz) / m_t
    az = -g + (r20 * fx + r21 * fy + r22 * fz) / m_t
    ax += ext[0] / m_t
    ay += ext[1] / m_t
    az += ext[2] / m_t
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = j
    hx = j00 * wx + j01 * wy + j02 * wz
    hy = j10 * wx + j11 * wy + j12 * wz
    hz = j20 * wx + j21 * wy + j22 * wz
    gx = tau[0] - (wy * hz - wz * hy)
    gy = tau[1] - (wz * hx - wx * hz)
    gz = tau[2] - (wx * hy - wy * hx)
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = j_inv
    return [vx, vy, vz, ax, ay, az,
            0.5 * (-qx * wx - qy * wy - qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            i00 * gx + i01 * gy + i02 * gz,
            i10 * gx + i11 * gy + i12 * gz,
            i20 * gx + i21 * gy + i22 * gz]


def list_step_rk4(y0, f, tau, m_t, j, dt, g, ext, ji):
    """Exact oracle: the list-based RK4 step that the straight-line kernel replaced."""
    h = 0.5 * dt
    k1 = list_deriv(y0, f, tau, m_t, j, ji, g, ext)
    k2 = list_deriv([a + h * b for a, b in zip(y0, k1)], f, tau, m_t, j, ji, g, ext)
    k3 = list_deriv([a + h * b for a, b in zip(y0, k2)], f, tau, m_t, j, ji, g, ext)
    k4 = list_deriv([a + dt * b for a, b in zip(y0, k3)], f, tau, m_t, j, ji, g, ext)
    sixth = dt / 6.0
    y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
         for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
    y[6:10] = unit_quat(*y[6:10])
    return tuple(y)


def same_bits(a, b):
    """Equal as IEEE doubles, signed zeros and NaN payloads included."""
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


def kernel_inputs(case):
    """A random case as the engine passes it: float lists, the row-major inertia
    with its ``inverse3``, and the wind as a tuple."""
    y, force, torque, m, j, wind = case
    j = j.ravel().tolist()
    return y, force.tolist(), torque.tolist(), m, j, tuple(wind.tolist()), inverse3(j)


def kernel_j(j):
    """A 3x3 inertia as the kernels take it: nine row-major floats, and their inverse."""
    j9 = np.ravel(j).tolist()
    return j9, inverse3(j9)


def rates(force, torque, m_t, j, j_inv, g, ext):
    """The stage derivative of ``rigid_body`` under one wrench, as a function of
    ``(q, omega)``: the world force goes in over ``m_t``, as ``step_rk4`` passes it."""
    stage, m_t, _ = rigid_body(m_t, j, j_inv, g, 1e-3)
    given = (*force, *torque, *(e / m_t for e in ext))
    return lambda *q_omega: stage(*q_omega, *given)


def lag(t_des, t_actual, rotor, dt):
    """``motor_lag_step`` of ``rotor`` over ``dt``, with the decay the engine computes once."""
    return motor_lag_step(t_des, t_actual, rotor.k_m, motor_decay(rotor.tau_m, dt))


def wrench(thrusts, rotor, com):
    """``rotor_wrench`` about ``com``, from test arrays."""
    return rotor_wrench(np.ravel(thrusts).tolist(), torque_matrix(rotor, np.ravel(com).tolist()))


class TestFloatKernelAgainstReference:
    def test_derivatives_match(self, rng):
        for _ in range(200):
            case = random_case(rng)
            y, force, torque, m, j, wind, j_inv = kernel_inputs(case)
            y = scaled_q(y, rng.uniform(0.5, 2.0))  # stage quaternions are not unit
            got = rates(force, torque, m, j, j_inv, G, wind)(*y[6:13])
            _, v, q, omega = parts(y)
            want = ref_derivatives(v, q, omega, *case[1:5], G, case[5])
            for a, b in zip((got[0:3], got[3:7], got[7:10]), want[1:]):
                assert_close_rel(a, b)

    def test_step_rk4_matches(self, rng):
        for dt in (5e-4, 2e-3):
            for _ in range(100):
                y, force, torque, m, j, wind = random_case(rng)
                got = step(y, force, torque, m, j, dt, G, wind)
                want = ref_step_rk4(y, force, torque, m, j, dt, G, wind)
                for a, b in zip(parts(got), want):
                    assert_close_rel(a, b)

    def test_precomputed_inverse_is_used_as_given(self, rng):
        y, force, torque, m, j, wind, j_inv = kernel_inputs(random_case(rng))
        a = step_rk4(y, force, torque, wind, rigid_body(m, j, j_inv, G, 1e-3))
        b = step_rk4(y, force, torque, wind, rigid_body(
            m, j, np.linalg.inv(np.reshape(j, (3, 3))).ravel().tolist(), G, 1e-3))
        assert_close_rel(b[W], a[W])


class TestStraightLineKernelIsExact:
    """The unrolled kernel keeps the float operations of the list-based one, so
    its results must be equal, not close."""

    def test_step_rk4_equals_list_oracle(self, rng):
        seen = set()
        for dt in (5e-4, 2e-3, 5e-3):
            for _ in range(150):
                y, force, torque, m, j, wind, j_inv = kernel_inputs(random_case(rng))
                if rng.random() < 0.5:  # the position sum then shows its own rounding
                    y = state(v=y[V], q=y[Q], omega=y[W])
                seen.add(wind == NO_WIND)
                got = step_rk4(y, force, torque, wind, rigid_body(m, j, j_inv, G, dt))
                assert same_bits(got, list_step_rk4(y, force, torque, m, j, dt, G, wind, j_inv))
                assert type(got) is tuple and all(type(c) is float for c in got)
        assert len(seen) == 2  # wind / no wind

    def test_derivatives_equal_list_oracle(self, rng):
        rest = (state(), np.full(3, -0.0), np.full(3, -0.0), 1.0, np.eye(3) * 1e-2,
                np.full(3, -0.0))  # a negative-zero wrench and wind keep their signed zeros
        for k in range(300):
            case = random_case(rng) if k else rest
            y, force, torque, m, j, wind, j_inv = kernel_inputs(case)
            y = scaled_q(y, rng.uniform(0.5, 2.0))  # stage quaternions are not unit
            got = rates(force, torque, m, j, j_inv, G, wind)(*y[6:13])
            want = list_deriv(y, force, torque, m, j, j_inv, G, wind)
            assert same_bits(got, want[3:])  # the oracle starts with the velocity

    def test_rotor_wrench_equals_list_oracle(self, rotor, rng):
        # motor_lag_step: TestMotorLag::test_floats_equal_the_array_formula is exact already
        for _ in range(300):
            thr = rng.uniform(0.0, 18.0, 4).tolist()
            com = rng.uniform(-0.05, 0.05, 3).tolist()
            tmap = torque_matrix(rotor, com)
            want = ([0.0, 0.0, thr[0] + thr[1] + thr[2] + thr[3]],
                    [r[0] * thr[0] + r[1] * thr[1] + r[2] * thr[2] + r[3] * thr[3] for r in tmap])
            assert same_bits(np.concatenate(rotor_wrench(thr, tmap)), np.concatenate(want))

    def test_four_rotations_per_step(self, monkeypatch, rng):
        calls = []

        def counting(q):
            calls.append(q)
            return quat_to_rot(q)

        monkeypatch.setattr(amsim.dynamics, "quat_to_rot", counting)
        for n in range(1, 6):
            y, force, torque, m, j, wind, j_inv = kernel_inputs(random_case(rng))
            step_rk4(y, force, torque, wind, rigid_body(m, j, j_inv, G, 1e-3))
            assert len(calls) == 4 * n
        rates(force, torque, m, j, j_inv, G, wind)(*y[6:13])
        assert len(calls) == 21

    def test_wrong_lengths_rejected(self, rotor):
        y = state()
        j = [1e-2, 0.0, 0.0, 0.0, 1e-2, 0.0, 0.0, 0.0, 1e-2]
        j_inv, no_wind = inverse3(j), (0.0, 0.0, 0.0)
        for f, tau, j_t, ext in (([0.0] * 2, [0.0] * 3, j, no_wind),
                                 ([0.0] * 3, [0.0] * 4, j, no_wind),
                                 ([0.0] * 3, [0.0] * 3, j[:8], no_wind),
                                 ([0.0] * 3, [0.0] * 3, j, (1.0, 2.0))):
            with pytest.raises(ValueError):
                step_rk4(y, f, tau, ext, rigid_body(1.0, j_t, j_inv, G, 1e-3))
        tmap = torque_matrix(rotor, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            rotor_wrench([1.0] * 3, tmap)
        with pytest.raises(ValueError):
            rotor_wrench([1.0] * 5, tmap)
        with pytest.raises(ValueError):
            lag([1.0] * 5, [1.0] * 5, rotor, 5e-4)


class TestVehicleState:
    """The state is the 13 floats ``(p, v, q, omega)`` that the engine logs."""

    def test_at_rest(self):
        """A run starts at rest and level, at its first waypoint."""
        cfg = ScenarioConfig(trajectory=[(0.0, np.array([0.5, -1.0, 2.0]), 0.0)])
        y = _Run(cfg).y
        assert y == (0.5, -1.0, 2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert all(type(c) is float for c in y)

    def test_step_keeps_floats(self, rotor):
        y = state((0.0, 0.0, 1.0))
        force, torque = wrench([3.0, 3.5, 3.0, 3.5], rotor, np.zeros(3))
        out = step(y, force, torque, 1.4, np.diag([9.2e-3, 10.5e-3, 14.7e-3]), 1e-3, G,
                   (0.0, 1.0, 0.0))
        assert type(out) is tuple and len(out) == 13
        assert all(type(c) is float for c in out)


class TestRotorWrench:
    def test_equal_thrusts_centered(self, rotor):
        force, torque = wrench([2.0] * 4, rotor, np.zeros(3))
        np.testing.assert_allclose(force, [0, 0, 8.0], atol=1e-15)
        np.testing.assert_allclose(torque, np.zeros(3), atol=1e-15)

    def test_com_offset_lever_arm(self, rotor):
        d = 0.01
        _, torque = wrench([2.0] * 4, rotor, [d, 0.0, 0.0])
        assert torque[1] == pytest.approx(4 * 2.0 * d, rel=1e-12)
        assert abs(torque[0]) < 1e-15

    def test_differential_pair_vs_hand_sum(self, rotor, rng):
        for _ in range(10):
            thrusts = rng.uniform(0.0, 5.0, 4)
            com = rng.uniform(-0.05, 0.05, 3)
            force, torque = wrench(thrusts, rotor, com)
            f_ref, t_ref = hand_wrench(thrusts, rotor, com)
            np.testing.assert_allclose(force, f_ref, atol=1e-12)
            np.testing.assert_allclose(torque, t_ref, atol=1e-12)

    def test_linearity(self, rotor, rng):
        a = rng.uniform(0, 3, 4)
        b = rng.uniform(0, 3, 4)
        fa, ta = wrench(a, rotor, np.zeros(3))
        fb, tb = wrench(b, rotor, np.zeros(3))
        fab, tab = wrench(a + b, rotor, np.zeros(3))
        np.testing.assert_allclose(fab, np.add(fa, fb), atol=1e-12)
        np.testing.assert_allclose(tab, np.add(ta, tb), atol=1e-12)


class TestDerivatives:
    def test_hover_equilibrium(self, rotor):
        m = 1.379
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        y = state((0.0, 0.0, 1.0))
        force, torque = wrench([m * G / 4] * 4, rotor, np.zeros(3))
        d = rates(force, torque, m, *kernel_j(j), G, NO_WIND)(*y[6:13])
        np.testing.assert_allclose(y[V], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(d[0:3], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(d[3:7], np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(d[7:10], np.zeros(3), atol=1e-12)

    def test_principal_axis_spin_torque_free(self):
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        y = state(omega=[0.0, 2.0, 0.0])
        dw = rates([0.0] * 3, [0.0] * 3, 1.0, *kernel_j(j), G, NO_WIND)(*y[6:13])[7:10]
        np.testing.assert_allclose(dw, np.zeros(3), atol=1e-14)

    def test_translation_matches_specific_force(self, rng):
        m = 1.6
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        for _ in range(10):
            p = rng.uniform(-1, 1, 3)
            q = rng.standard_normal(4)
            y = state(p, rng.uniform(-2, 2, 3), q / np.linalg.norm(q))
            force = np.array([0.0, 0.0, rng.uniform(0, 30)])
            dv = np.array(rates(force.tolist(), [0.0] * 3, m, *kernel_j(j), G,
                                 NO_WIND)(*y[6:13])[0:3])
            lhs = np.linalg.norm(dv + G * np.array([0, 0, 1.0]))
            assert lhs == pytest.approx(np.linalg.norm(force) / m, rel=1e-12)


class TestMotorLag:
    def test_steady_state_fixed_point(self, rotor):
        t_des = np.array([1.0, 2.0, 3.0, 4.0])
        out = lag(t_des, rotor.k_m * t_des, rotor, 0.01)
        np.testing.assert_allclose(out, rotor.k_m * t_des, atol=1e-15)

    def test_one_time_constant_632(self, rotor):
        t_des = np.full(4, 5.0)
        out = lag(t_des, np.zeros(4), rotor, rotor.tau_m)
        np.testing.assert_allclose(out, (1 - math.exp(-1)) * 5.0, rtol=1e-9)

    def test_dt_to_zero_identity(self, rotor):
        t0 = np.array([1.0, 1.5, 0.5, 2.0])
        out = lag(np.full(4, 9.0), t0, rotor, 1e-12)
        np.testing.assert_allclose(out, t0, atol=1e-9)

    def test_floats_equal_the_array_formula(self, rotor, rng):
        for _ in range(50):
            t_des, t_act = rng.uniform(0.0, 18.0, 4), rng.uniform(0.0, 18.0, 4)
            target = rotor.k_m * t_des
            want = target + (t_act - target) * math.exp(-5e-4 / rotor.tau_m)
            got = lag(t_des.tolist(), t_act.tolist(), rotor, 5e-4)
            assert all(type(c) is float for c in got)
            np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError):
            lag([1.0] * 4, [1.0] * 3, rotor, 5e-4)

    @pytest.mark.parametrize("dt", [float("nan"), 0.0, -1e-3])
    def test_dt_must_be_positive(self, rotor, dt):
        with pytest.raises(ValueError):
            lag([1.0] * 4, [0.0] * 4, rotor, dt)

    def test_matches_fine_euler(self, rotor):
        # closed-form update vs brute-force fine-step Euler integration
        t_des = np.full(4, 3.0)
        t = np.zeros(4)
        n = 20000
        dt = 0.05 / n
        for _ in range(n):
            t = t + dt * (rotor.k_m * t_des - t) / rotor.tau_m
        exact = lag(t_des, np.zeros(4), rotor, 0.05)
        np.testing.assert_allclose(exact, t, rtol=1e-4)


class TestBinding:
    """The RK4 body is bound once per true body and refuses the steps that the
    per-step kernel refused; ``TestMotorLag::test_dt_must_be_positive`` checks the
    motor decay's refusals."""

    @pytest.mark.parametrize("dt", [float("nan"), 0.0, -1e-3, math.nextafter(MAX_STEP, 1.0),
                                    6e-3])
    def test_rigid_body_refuses_dt(self, dt):
        j = np.eye(3).ravel().tolist()
        with pytest.raises(ValueError, match=re.escape(f"dt must be in (0, {MAX_STEP}] s")):
            rigid_body(1.0, j, j, G, dt)

    @pytest.mark.parametrize("name", ["hover_payload", "grasp_estimate"])
    def test_engine_rebinds_on_every_truth_change(self, monkeypatch, name):
        """At tick 0 and on the first physics step after each new true body (the attach,
        then each arm move), ``_Run.physics`` equals the kernels run with a body
        bound afresh from ``run.truth``."""
        cfg = load_config(name)
        physics, checked, last = _Run.physics, [], []

        def check(run, wind):
            fresh = not last or run.truth is not last[-1]
            if fresh:
                tot = run.truth
                thr = lag(run.t_cmd, run.thr, cfg.vehicle.rotor, cfg.sim_dt)
                body = rigid_body(tot.m_t_hat, tot.j_t_hat, inverse3(tot.j_t_hat), cfg.g,
                                  cfg.sim_dt)
                y = step_rk4(run.y, *rotor_wrench(thr, run.truth_tmap), wind, body)
            physics(run, wind)
            if fresh:
                assert same_bits(run.thr, thr) and same_bits(run.y, y)
                checked.append(run.attached)
                last.append(run.truth)

        monkeypatch.setattr(_Run, "physics", check)
        run_scenario(cfg)
        assert checked[:2] == [False, True]  # tick 0, then the attach
        if name == "hover_payload":  # the arm moves while the payload is held
            assert len(checked) > 100


class TestRK4:
    def test_equilibrium_unchanged(self, rotor):
        m = 1.379
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        y = state((0.0, 0.0, 1.0))
        force, torque = wrench([m * G / 4] * 4, rotor, np.zeros(3))
        out = step(y, force, torque, m, j, 1e-3, G)
        np.testing.assert_allclose(out[P], y[P], atol=1e-12)
        np.testing.assert_allclose(out[V], y[V], atol=1e-12)
        np.testing.assert_allclose(out[Q], y[Q], atol=1e-12)
        np.testing.assert_allclose(out[W], y[W], atol=1e-12)

    def test_free_fall_parabola(self):
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        y = state((0.0, 0.0, 2.0))
        dt = 1e-3
        for _ in range(1000):
            y = step(y, np.zeros(3), np.zeros(3), 1.379, j, dt, G)
        assert y[2] == pytest.approx(2.0 - 0.5 * G * 1.0 ** 2, abs=1e-9)

    def test_angular_momentum_conserved_short(self):
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        y = state(omega=[1.2, -0.7, 0.9])
        L0 = rot_matrix(y[Q]) @ (j @ y[W])
        for _ in range(2000):
            y = step(y, np.zeros(3), np.zeros(3), 1.379, j, 1e-3, G)
        L = rot_matrix(y[Q]) @ (j @ y[W])
        assert np.linalg.norm(L - L0) / np.linalg.norm(L0) < 1e-7

    def test_energy_conserved_short(self):
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        y = state(omega=[1.2, -0.7, 0.9])
        e0 = 0.5 * float(np.array(y[W]) @ (j @ y[W]))
        for _ in range(2000):
            y = step(y, np.zeros(3), np.zeros(3), 1.379, j, 1e-3, G)
        e = 0.5 * float(np.array(y[W]) @ (j @ y[W]))
        assert abs(e - e0) / e0 < 1e-7

    def test_dt_bounds(self):
        y = state()
        j = np.eye(3) * 1e-2
        with pytest.raises(ValueError):
            step(y, np.zeros(3), np.zeros(3), 1.0, j, 6e-3)
        with pytest.raises(ValueError):
            step(y, np.zeros(3), np.zeros(3), 1.0, j, 0.0)

    def test_nonfinite_detected(self):
        y = state()
        j = np.eye(3) * 1e-2
        with pytest.raises(NonFinite):
            step(y, np.array([np.nan, 0, 0]), np.zeros(3), 1.0, j, 1e-3)

    def test_nan_torque_detected(self):
        y = state()
        j = np.eye(3) * 1e-2
        with pytest.raises(NonFinite):
            step(y, np.zeros(3), np.array([0.0, np.nan, 0.0]), 1.0, j, 1e-3)

    def test_nan_inertia_detected(self):
        y = state(omega=[1.0, 0.0, 0.0])
        j = np.eye(3) * 1e-2
        j[0, 0] = np.nan
        with pytest.raises(NonFinite):
            step(y, np.zeros(3), np.zeros(3), 1.0, j, 1e-3)

    def test_zero_quaternion_rejected(self):
        y = state(q=np.zeros(4))
        with pytest.raises(ValueError):
            step(y, np.zeros(3), np.zeros(3), 1.0, np.eye(3) * 1e-2, 1e-3)

    def test_quaternion_stays_unit(self):
        j = np.diag([9.2e-3, 10.5e-3, 14.7e-3])
        y = state(omega=[3.0, 2.0, -1.0])
        for _ in range(500):
            y = step(y, np.zeros(3), np.zeros(3), 1.0, j, 1e-3)
            assert abs(np.linalg.norm(y[Q]) - 1.0) < 1e-9

