import math

import numpy as np
import pytest

from amsim.delta import (DeltaGeometry, NoIntersection,
                         OutOfLimits, Singular, Unreachable, forward_kin,
                         inverse_kin, jacobian, joint_command, servo_step)


def fd_jacobian(geom, theta, h=1e-6):
    """Central finite differences of forward_kin, the independent oracle."""
    cols = []
    for i in range(3):
        tp = np.array(theta, dtype=float)
        tm = tp.copy()
        tp[i] += h
        tm[i] -= h
        cols.append((np.asarray(forward_kin(geom, tp)) - forward_kin(geom, tm)) / (2.0 * h))
    return np.column_stack(cols)


class TestForwardKin:
    def test_symmetric_angles_on_axis(self, geom):
        for th in (0.2, 0.5, 0.9):
            p = forward_kin(geom, [th, th, th])
            assert abs(p[0]) < 1e-10 and abs(p[1]) < 1e-10
            assert p[2] < 0.0

    def test_roundtrip_through_ik(self, geom, rng):
        for _ in range(200):
            p = np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                          rng.uniform(-0.20, -0.12)])
            theta = inverse_kin(geom, p)
            np.testing.assert_allclose(forward_kin(geom, theta), p, atol=1e-9)

    def test_infeasible_geometry(self):
        # forearm long enough to construct but far too short to close the loop
        geom = DeltaGeometry(forearm_len=0.05)
        with pytest.raises(NoIntersection):
            forward_kin(geom, [0.0, 0.0, 0.0])


class TestInverseKin:
    def test_central_point_equal_angles(self, geom):
        theta = inverse_kin(geom, [0.0, 0.0, -0.16])
        assert np.ptp(theta) < 1e-12

    def test_unreachable(self, geom):
        with pytest.raises(Unreachable):
            inverse_kin(geom, [1.0, 0.0, -0.1])

    def test_out_of_limits(self):
        # a long forearm makes shallow central points need theta < -30 deg
        geom = DeltaGeometry(forearm_len=0.19)
        with pytest.raises(OutOfLimits):
            inverse_kin(geom, [0.0, 0.0, -0.12])

    def test_ik_of_fk_identity(self, geom, rng):
        for _ in range(100):
            p = np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                          rng.uniform(-0.20, -0.12)])
            theta = inverse_kin(geom, p)
            theta2 = inverse_kin(geom, forward_kin(geom, theta))
            np.testing.assert_allclose(theta2, theta, atol=1e-9)


class TestJacobian:
    def test_matches_finite_differences(self, geom, rng):
        for _ in range(30):
            p = np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                          rng.uniform(-0.20, -0.12)])
            theta = inverse_kin(geom, p)
            j = jacobian(geom, theta)
            j_fd = fd_jacobian(geom, theta)
            err = np.abs(j - j_fd).max() / np.abs(j_fd).max()
            assert err < 1e-5

    def test_symmetric_pose_vertical(self, geom):
        theta = inverse_kin(geom, [0.0, 0.0, -0.16])
        j = jacobian(geom, theta)
        v = j @ np.ones(3)
        assert abs(v[0]) < 1e-10 and abs(v[1]) < 1e-10
        assert abs(v[2]) > 1e-3

    def test_planar_configuration_singular(self):
        # forearm = base - platform + upper puts the platform in the base
        # plane at theta = 0: all forearms horizontal, no vertical authority
        geom = DeltaGeometry(base_radius=0.06, platform_radius=0.03,
                             upper_arm_len=0.08, forearm_len=0.11)
        with pytest.raises(Singular):
            jacobian(geom, [0.0, 0.0, 0.0])


class TestJointCommand:
    def test_at_target_at_rest(self, geom):
        p = np.array([0.0, 0.0, -0.16])
        theta = inverse_kin(geom, p)
        _, rate = joint_command(geom, p, np.zeros(3),
                                theta, forward_kin(geom, theta),
                                np.array([20.0, 20.0, 20.0]))
        np.testing.assert_allclose(rate, np.zeros(3), atol=1e-9)

    def test_proportional_gain_arithmetic(self, geom):
        p = np.array([0.0, 0.0, -0.16])
        theta = inverse_kin(geom, p)
        off = np.array(theta)
        off[0] -= 0.01
        _, rate = joint_command(geom, p, np.zeros(3),
                                off, forward_kin(geom, off),
                                np.array([20.0, 20.0, 20.0]))
        assert rate[0] == pytest.approx(0.2, rel=1e-9)
        np.testing.assert_allclose(rate[1:], np.zeros(2), atol=1e-12)

    def test_vertical_feedforward_symmetric(self, geom):
        p = np.array([0.0, 0.0, -0.16])
        theta = inverse_kin(geom, p)
        _, rate = joint_command(geom, p, np.array([0.0, 0.0, -0.05]),
                                theta, forward_kin(geom, theta),
                                np.array([20.0, 20.0, 20.0]))
        assert np.ptp(rate) < 1e-10

    def test_propagates_unreachable(self, geom):
        theta = inverse_kin(geom, [0.0, 0.0, -0.16])
        with pytest.raises(Unreachable):
            joint_command(geom, np.array([1.0, 0.0, -0.1]), np.zeros(3),
                          theta, forward_kin(geom, theta), np.full(3, 20.0))


class TestServo:
    def test_rate_limit_applies(self, geom):
        out = servo_step(geom, (0.0, 0.0, 0.0), np.array([100.0, -100.0, 1.0]), 0.01,
                         rate_limit=6.0)
        np.testing.assert_allclose(out, [0.06, -0.06, 0.01])  # 6, -6 and 1 rad/s

    def test_limits_clamp(self, geom):
        lo, hi = geom.joint_limits
        out = servo_step(geom, (hi, hi, hi), np.full(3, 5.0), 0.1, rate_limit=6.0)
        assert np.all(np.asarray(out) <= hi + 1e-12)


class TestWorkspaceMonotone:
    def test_enlarging_forearm_keeps_points(self):
        lengths = [0.16, 0.175, 0.19]
        xs = np.linspace(-0.05, 0.05, 5)
        zs = np.linspace(-0.21, -0.15, 4)
        reach = []
        for lf in lengths:
            geom = DeltaGeometry(forearm_len=lf)
            ok = set()
            for x in xs:
                for y in xs:
                    for z in zs:
                        try:
                            inverse_kin(geom, [x, y, z])
                            ok.add((x, y, z))
                        except (Unreachable, OutOfLimits):
                            pass
            reach.append(ok)
        assert reach[0] <= reach[1] <= reach[2]
        assert len(reach[0]) > 0


class TestGeometryValidation:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            DeltaGeometry(forearm_len=0.02)  # < |base - platform| + margin
        with pytest.raises(ValueError):
            DeltaGeometry(upper_arm_len=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_length(self, value):
        message = f"^base_radius must be positive and finite, got {value}$"
        with pytest.raises(ValueError, match=message):
            DeltaGeometry(base_radius=value)


# The array kinematics that the float functions replaced, kept as their oracle.
def _radial(geom, i):
    a = geom.arm_azimuths[i]
    return np.array([math.cos(a), math.sin(a), 0.0])


def _tangent(geom, i):
    a = geom.arm_azimuths[i]
    return np.array([-math.sin(a), math.cos(a), 0.0])


def _elbow(geom, theta_i, i):
    r = geom.base_radius + geom.upper_arm_len * math.cos(theta_i)
    return r * _radial(geom, i) + np.array([0.0, 0.0, -geom.upper_arm_len * math.sin(theta_i)])


def ref_forward_kin(geom, theta):
    theta = np.asarray(theta, dtype=float).reshape(3)
    c1, c2, c3 = [_elbow(geom, theta[i], i) - geom.platform_radius * _radial(geom, i)
                  for i in range(3)]
    ex_raw = c2 - c1
    d = float(np.linalg.norm(ex_raw))
    if d < 1e-12:
        raise NoIntersection("coincident sphere centers")
    ex = ex_raw / d
    t3 = c3 - c1
    i_coord = float(ex @ t3)
    ey_raw = t3 - i_coord * ex
    j_coord = float(np.linalg.norm(ey_raw))
    if j_coord < 1e-12:
        raise NoIntersection("collinear sphere centers")
    ey = ey_raw / j_coord
    ez = np.cross(ex, ey)
    r2 = geom.forearm_len ** 2
    x = 0.5 * d
    y = (i_coord * i_coord + j_coord * j_coord - 2.0 * i_coord * x) / (2.0 * j_coord)
    z2 = r2 - x * x - y * y
    if z2 < -1e-12 * r2:
        raise NoIntersection("forearm spheres do not intersect")
    z = math.sqrt(max(z2, 0.0))
    base = c1 + x * ex + y * ey
    pa, pb = base + z * ez, base - z * ez
    return pa if pa[2] <= pb[2] else pb


def ref_inverse_kin(geom, p):
    p = np.asarray(p, dtype=float).reshape(3)
    la = geom.upper_arm_len
    thetas = np.empty(3)
    lo, hi = geom.joint_limits
    for i in range(3):
        u = _radial(geom, i)
        q = p + (geom.platform_radius - geom.base_radius) * u
        a, b, c = float(q @ u), float(q @ _tangent(geom, i)), float(q[2])
        A, B = 2.0 * a * la, -2.0 * c * la
        C = a * a + b * b + c * c + la * la - geom.forearm_len ** 2
        rad = math.hypot(A, B)
        if rad < 1e-15 or abs(C) > rad * (1.0 + 1e-12):
            raise Unreachable(f"arm {i}")
        phi = math.atan2(B, A)
        delta = math.acos(min(1.0, max(-1.0, C / rad)))
        th = max((phi - delta, phi + delta), key=math.cos)
        th = math.atan2(math.sin(th), math.cos(th))
        if th < lo - 1e-9 or th > hi + 1e-9:
            raise OutOfLimits(f"arm {i}")
        thetas[i] = th
    return thetas


def ref_rows(geom, theta):
    """Forearm vectors n_i (rows) and b_i = n_i . dE_i/dtheta_i."""
    theta = np.asarray(theta, dtype=float).reshape(3)
    p = ref_forward_kin(geom, theta)
    n_rows, b = np.empty((3, 3)), np.empty(3)
    for i in range(3):
        n_i = p + geom.platform_radius * _radial(geom, i) - _elbow(geom, theta[i], i)
        rate = geom.upper_arm_len * (-math.sin(theta[i]) * _radial(geom, i)
                                     - math.cos(theta[i]) * np.array([0.0, 0.0, 1.0]))
        n_rows[i], b[i] = n_i, float(n_i @ rate)
    return n_rows, b


def ref_jacobian(geom, theta):
    n_rows, b = ref_rows(geom, theta)
    try:
        jac = np.linalg.solve(n_rows, np.diag(b))
    except np.linalg.LinAlgError as exc:
        raise Singular("coplanar") from exc
    if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > 1e8:
        raise Singular("condition number above 1e8")
    return jac


def command(geom, p, v, theta, k_theta):
    """``joint_command`` at the platform position of ``theta``, found once the IK of ``p``
    has succeeded, so that an unreachable target is refused first, as the array code does."""
    inverse_kin(geom, p)
    return joint_command(geom, p, v, theta, forward_kin(geom, theta), k_theta)


def outcome(fn, *args):
    """The result of ``fn``, or the type of the KinematicsError it raised."""
    try:
        return fn(*args)
    except (NoIntersection, Singular, Unreachable, OutOfLimits) as exc:
        return type(exc)


class TestKinematicsOracle:
    """The float kinematics against the array code it replaced, to 1e-12."""
    GEOMS = [DeltaGeometry(), DeltaGeometry(forearm_len=0.05),       # no intersection
             DeltaGeometry(forearm_len=0.11), DeltaGeometry(forearm_len=0.19)]

    def test_forward_kin_and_jacobian(self, rng):
        seen = set()
        for geom in self.GEOMS:
            lo, hi = geom.joint_limits
            thetas = [rng.uniform(lo, hi, 3) for _ in range(150)] + [np.zeros(3)]
            for theta in thetas:
                for fn, ref in ((forward_kin, ref_forward_kin), (jacobian, ref_jacobian)):
                    got, want = outcome(fn, geom, theta.tolist()), outcome(ref, geom, theta)
                    if isinstance(want, type):
                        assert got is want
                        seen.add(want)
                        continue
                    if fn is forward_kin:
                        assert len(got) == 3 and all(type(v) is float for v in got)
                    scale = np.abs(want).max()
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)
                    seen.add(fn)
        assert seen == {forward_kin, jacobian, NoIntersection, Singular}

    def test_inverse_kin(self, rng):
        seen = set()
        for geom in self.GEOMS:
            for _ in range(150):
                p = np.array([rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08),
                              rng.uniform(-0.25, -0.08)])
                got = outcome(inverse_kin, geom, p.tolist())
                want = outcome(ref_inverse_kin, geom, p)
                if isinstance(want, type):
                    assert got is want
                    seen.add(want)
                else:
                    assert len(got) == 3 and all(type(v) is float for v in got)
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
                    seen.add(inverse_kin)
        assert seen == {inverse_kin, Unreachable, OutOfLimits}

    def test_wrong_length_rejected(self, geom):
        for fn in (forward_kin, inverse_kin, jacobian):
            for bad in ([0.5, 0.5], [0.5, 0.5, 0.5, 0.5]):
                with pytest.raises(ValueError):
                    fn(geom, bad)

    def test_nan_passes_through(self, geom):
        assert np.all(np.isnan(forward_kin(geom, [math.nan, 0.5, 0.5])))
        assert np.all(np.isnan(ref_forward_kin(geom, [math.nan, 0.5, 0.5])))
        out = servo_step(geom, (0.5, 0.5, 0.5), (math.nan, 1.0, -100.0), 0.01, rate_limit=6.0)
        assert math.isnan(out[0])
        assert out[1:] == (0.5 + 1.0 * 0.01, 0.5 - 6.0 * 0.01)  # the rate clamped to 6


def ref_joint_command(geom, p, v, theta):
    """IK of ``p`` and the feedforward J^-1 v of the array code (K_theta = 0)."""
    theta_des = ref_inverse_kin(geom, p)
    return theta_des, np.linalg.solve(ref_jacobian(geom, theta), v)


def b0_root(geom, c, lo, hi):
    """theta_0 in [lo, hi] where b_0 of (theta_0, c, c) changes sign: J loses a column."""
    def positive(t):
        return ref_rows(geom, [t, c, c])[1][0] > 0.0
    side = positive(lo)
    assert positive(hi) != side
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if positive(mid) == side else (lo, mid)
    return 0.5 * (lo + hi)


def cond(m):
    return float(np.linalg.cond(m))


def assert_feedforward(rates, want, geom, theta):
    """``want`` is J^-1 v by two numpy solves, which lose up to about
    cond(N) cond(J) eps on their own; to 1e-12 of its largest entry, widened
    by that where the configuration is near-singular."""
    n_rows, _ = ref_rows(geom, theta)
    tol = 1e-12 + 1e-15 * cond(n_rows) * cond(ref_jacobian(geom, theta))
    np.testing.assert_allclose(rates, want, rtol=0.0, atol=tol * np.abs(want).max())


class TestScreenedJointCommand:
    """joint_command's closed-form feedforward and Singular screen against the array code."""
    GEOMS = TestKinematicsOracle.GEOMS
    EPS = np.logspace(-1, -14, 53)  # four steps a decade

    def configurations(self, geom, rng):
        lo, hi = geom.joint_limits
        thetas = [rng.uniform(lo, hi, 3) for _ in range(100)] + [np.zeros(3)]
        thetas += [e * np.ones(3) for e in self.EPS]  # coplanar forearms at 0 for 0.11 m
        if geom.forearm_len == 0.16:  # one arm stretched: b_0 -> 0, det N stays away from 0
            t0 = b0_root(geom, 1.44, 1.76, 1.775)
            thetas += [np.array([t0 + s * e, 1.44, 1.44]) for e in self.EPS for s in (1, -1)]
        return thetas

    def test_matches_array_oracle(self, rng):
        seen = set()
        for geom in self.GEOMS:
            try:  # a target that IK can reach, where there is one
                p = ref_forward_kin(geom, np.full(3, 0.5))
            except NoIntersection:
                p = np.array([0.0, 0.0, -0.16])
            v = 0.05 * rng.standard_normal(3)
            for theta in self.configurations(geom, rng):
                got = outcome(command, geom, p, v,  # arrays in, floats out
                              tuple(theta.tolist()), np.zeros(3))
                want = outcome(ref_joint_command, geom, p, v, theta)
                if isinstance(want, type):
                    assert got is want
                    seen.add(want)
                    continue
                theta_des, rates = got
                assert all(type(x) is float for x in (*theta_des, *rates))
                np.testing.assert_allclose(theta_des, want[0], rtol=0.0, atol=1e-12)
                assert_feedforward(rates, want[1], geom, theta)
                seen.add(joint_command)
        assert seen == {joint_command, NoIntersection, Singular, Unreachable}

    def count_cond(self, monkeypatch):
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: calls.append(1) or cond(*a, **k))
        return calls

    def test_numpy_decides_only_where_the_screen_declines(self, geom, monkeypatch):
        t0 = b0_root(geom, 1.44, 1.76, 1.775)
        p, v = forward_kin(geom, (0.5, 0.5, 0.5)), (0.01, -0.02, 0.03)
        cases = []  # (theta, cond_2 range, np.linalg.cond calls: 1 where the screen declines)
        for offset, (lo, hi), calls_wanted in ((1e-6, (1e5, 1e6), 0), (1e-8, (2e7, 1e8), 1)):
            theta = (t0 + offset, 1.44, 1.44)
            assert lo < cond(ref_jacobian(geom, theta)) < hi
            cases.append((theta, calls_wanted, np.linalg.solve(ref_jacobian(geom, theta), v)))
        theta_singular = (t0 + 2e-9, 1.44, 1.44)
        n_rows, b = ref_rows(geom, theta_singular)
        assert 1e8 < cond(np.linalg.solve(n_rows, np.diag(b))) < 1e9  # cond_F is below 1e9 too
        assert float(np.linalg.cond(np.linalg.solve(n_rows, np.diag(b)), "fro")) < 1e9
        calls = self.count_cond(monkeypatch)
        for theta, calls_wanted, ff in cases:
            calls.clear()
            _, rates = joint_command(geom, p, v, theta, forward_kin(geom, theta), (0.0, 0.0, 0.0))
            assert len(calls) == calls_wanted
            assert_feedforward(rates, ff, geom, theta)
        with pytest.raises(Singular):
            joint_command(geom, p, v, theta_singular, forward_kin(geom, theta_singular),
                          (0.0, 0.0, 0.0))

    def test_hover_payload_run_needs_no_svd(self, monkeypatch):
        from amsim.config import load_config
        from amsim.scenario import run_scenario
        calls = self.count_cond(monkeypatch)
        log = run_scenario(load_config("hover_payload"))
        assert log.events["servo_ticks"] == 1000 and log.events["kin_fallbacks"] == 0
        assert np.ptp(log.column("theta1")) > 0.1  # the arm sweeps all run
        assert calls == []
