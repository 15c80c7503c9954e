import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (lattice_inertia, quat_mul, random_body, random_rotation, ref_composite,
                      ref_rot_to_quat, rot_matrix, rot_to_quat_case)

from amsim.config import load_config
from amsim.spatial import (InertialParams, box_inertia, composite,
                           cross3, cylinder_inertia, inverse3, parallel_axis,
                           quat_to_rot, rot_to_quat, unit_quat)

finite_components = st.floats(min_value=-100.0, max_value=100.0,
                              allow_nan=False, allow_infinity=False)
vectors = st.tuples(finite_components, finite_components, finite_components)


def skew(v) -> np.ndarray:
    """The matrix [v]_x with [v]_x @ w == cross(v, w): the oracle of ``cross3``."""
    vx, vy, vz = (float(c) for c in v)
    return np.array([[0.0, -vz, vy],
                     [vz, 0.0, -vx],
                     [-vy, vx, 0.0]])


class TestSkew:
    """``cross3`` against its skew-matrix form and ``np.cross``."""

    def test_basis_cross(self):
        assert cross3((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)) == (0.0, 1.0, 0.0)
        np.testing.assert_allclose(skew([0, 0, 1]) @ np.array([1.0, 0.0, 0.0]),
                                   [0.0, 1.0, 0.0], atol=1e-15)

    def test_hand_cross(self):
        assert cross3((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)) == (-3.0, 6.0, -3.0)
        np.testing.assert_allclose(skew([1, 2, 3]) @ np.array([4.0, 5.0, 6.0]),
                                   [-3.0, 6.0, -3.0], atol=1e-12)

    @given(vectors)
    def test_self_cross_zero(self, v):
        np.testing.assert_allclose(cross3(v, v), np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(skew(v) @ np.array(v), np.zeros(3), atol=1e-9)

    @given(vectors, vectors)
    def test_matches_cross_product(self, a, b):
        a, b = np.array(a), np.array(b)
        np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-9)
        np.testing.assert_allclose(cross3(a, b), np.cross(a, b), atol=1e-9)

    @given(vectors, vectors)
    def test_antisymmetric(self, a, b):
        np.testing.assert_array_equal(cross3(a, b), -np.array(cross3(b, a)))
        s = skew(a)
        np.testing.assert_allclose(s, -s.T, atol=0.0)


def shifted(j, mass, d):
    """``parallel_axis`` on arrays: a 3x3 tensor and a 3-vector in, 3x3 out."""
    return np.reshape(parallel_axis(np.ravel(j).tolist(), mass, np.ravel(d).tolist()), (3, 3))


class TestParallelAxis:
    def test_zero_offset(self):
        j = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(shifted(j, 5.0, np.zeros(3)), j)

    def test_point_mass_on_z(self):
        out = shifted(np.zeros((3, 3)), 1.0, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 1.0, 0.0]), atol=1e-15)

    def test_two_point_masses_direct_sum(self):
        # direct summation oracle over the two point masses
        pts = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
        expect = np.zeros((3, 3))
        for p in pts:
            expect += 1.0 * (float(p @ p) * np.eye(3) - np.outer(p, p))
        total = (shifted(np.zeros((3, 3)), 1.0, pts[0])
                 + shifted(np.zeros((3, 3)), 1.0, pts[1]))
        np.testing.assert_allclose(total, expect, atol=1e-15)
        np.testing.assert_allclose(total, np.diag([0.0, 0.5, 0.5]), atol=1e-15)

    @given(vectors, st.floats(min_value=0.0, max_value=50.0))
    def test_added_term_psd(self, d, mass):
        base = np.diag([2.0, 2.0, 2.0])
        out = shifted(base, mass, np.array(d))
        np.testing.assert_array_equal(out, out.T)
        assert np.linalg.eigvalsh(out - base).min() >= -1e-9

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            parallel_axis(np.eye(3).ravel().tolist(), -1.0, [1.0, 0.0, 0.0])


def compose(m_a, c_a, j_a, m_o, c_o, j_o):
    """``composite`` of two bodies given with array CoMs and 3x3 inertias, the
    result as (mass, CoM array, 3x3 inertia array)."""
    m_t, c_t, j_t = composite(m_a, list(map(float, c_a)), np.ravel(j_a).tolist(),
                              m_o, list(map(float, c_o)), np.ravel(j_o).tolist())
    return m_t, np.array(c_t), np.reshape(j_t, (3, 3))


class TestComposeInertia:
    """Composing two bodies into one with ``composite``."""

    def test_vanishing_payload(self, vehicle_params):
        v = vehicle_params
        m, c, j = compose(v.mass, v.com, v.inertia_about_com,
                          1e-12, [0.1, 0.0, -0.3], np.eye(3) * 1e-20)
        assert abs(m - v.mass) < 1e-11
        np.testing.assert_allclose(c, v.com, atol=1e-12)
        np.testing.assert_allclose(j, v.inertia_about_com, atol=1e-12)

    def test_symmetric_pair(self):
        j = np.diag([1e-3, 2e-3, 3e-3])
        m = 0.7
        d = np.array([0.2, 0.0, 0.1])
        _, c_out, j_out = compose(m, d, j, m, -d, j)
        np.testing.assert_allclose(c_out, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(j_out, 2.0 * shifted(j, m, d), rtol=1e-12)

    def test_commutative(self, rng):
        for _ in range(10):
            ma, mb = rng.uniform(0.1, 3.0, 2)
            ca = rng.uniform(-0.3, 0.3, 3)
            pb = rng.uniform(-0.3, 0.3, 3)
            ja = box_inertia(ma, rng.uniform(0.05, 0.3, 3))
            jb = box_inertia(mb, rng.uniform(0.05, 0.3, 3))
            one = compose(ma, ca, ja, mb, pb, jb)
            two = compose(mb, pb, jb, ma, ca, ja)
            assert abs(one[0] - two[0]) < 1e-12
            np.testing.assert_allclose(one[1], two[1], atol=1e-12)
            np.testing.assert_allclose(one[2], two[2], atol=1e-12)

    def test_against_lattice_oracle(self, rng):
        for _ in range(5):
            dims_a = rng.uniform(0.05, 0.4, 3)
            dims_b = rng.uniform(0.05, 0.4, 3)
            ma, mb = rng.uniform(0.2, 3.0, 2)
            rot_a = random_rotation(rng)
            rot_b = random_rotation(rng)
            ca = rng.uniform(-0.2, 0.2, 3)
            cb = rng.uniform(-0.2, 0.2, 3)
            m, c, j = compose(ma, ca, rot_a @ box_inertia(ma, dims_a) @ rot_a.T,
                              mb, cb, rot_b @ box_inertia(mb, dims_b) @ rot_b.T)
            m_ref, c_ref, j_ref = lattice_inertia(
                [(ma, dims_a, rot_a, ca), (mb, dims_b, rot_b, cb)])
            assert abs(m - m_ref) < 1e-12
            np.testing.assert_allclose(c, c_ref, atol=1e-9)
            np.testing.assert_allclose(j, j_ref, rtol=0.01, atol=1e-9)

    def test_hover_vehicle_plus_cube(self, vehicle_params, rng):
        # vehicle plus a 0.4 kg cube at an arm-extended pose, vs the oracle
        p = np.array([0.05, 0.02, -0.25])
        v = vehicle_params
        _, _, j = compose(v.mass, v.com, v.inertia_about_com,
                          0.4, p, box_inertia(0.4, [0.1, 0.1, 0.1]))
        # vehicle modeled as the box with matching inertia for the oracle
        dims_v = np.sqrt(6.0 / 1.379 * np.array([
            -9.2e-3 + 10.5e-3 + 14.7e-3,
            9.2e-3 - 10.5e-3 + 14.7e-3,
            9.2e-3 + 10.5e-3 - 14.7e-3]))
        m_ref, c_ref, j_ref = lattice_inertia(
            [(1.379, dims_v, np.eye(3), vehicle_params.com),
             (0.4, np.array([0.1, 0.1, 0.1]), np.eye(3), p)])
        np.testing.assert_allclose(j, j_ref, rtol=0.01)


class TestComposite:
    def test_matches_array_oracle(self, rng):
        for _ in range(500):
            (m_a, c_a, j_a), (m_o, c_o, j_o) = random_body(rng), random_body(rng)
            m_t, c_t, j_t = composite(m_a, c_a.tolist(), j_a.ravel().tolist(),
                                      m_o, c_o.tolist(), j_o.ravel().tolist())
            m_ref, c_ref, j_ref = ref_composite(m_a, c_a, j_a, m_o, c_o, j_o)
            assert m_t == m_ref
            assert all(type(v) is float for v in (*c_t, *j_t))
            np.testing.assert_allclose(c_t, c_ref, rtol=0.0, atol=1e-14 * np.abs(c_ref).max())
            np.testing.assert_allclose(np.reshape(j_t, (3, 3)), j_ref, rtol=0.0,
                                       atol=1e-14 * np.abs(j_ref).max())


    def test_arrays_equal_per_element_scalar_calls_bitwise(self, rng):
        """CoMs and inertias given as arrays give, element by element, the
        bits of the scalar call, as the workspace sweep relies on."""
        n = 64
        (m_a, c_a, j_a), (m_o, _, _) = random_body(rng), random_body(rng)
        bodies = [random_body(rng) for _ in range(n)]
        c_o = np.array([b[1] for b in bodies])
        j_o = np.array([b[2].ravel() for b in bodies])
        m_t, c_t, j_t = composite(m_a, c_a.tolist(), j_a.ravel().tolist(),
                                  m_o, list(c_o.T), list(j_o.T))
        got_c, got_j = np.array(c_t).T, np.array(j_t).T
        assert got_c.shape == (n, 3) and got_j.shape == (n, 9)
        for i in range(n):
            m_ref, c_ref, j_ref = composite(m_a, c_a.tolist(), j_a.ravel().tolist(),
                                            m_o, c_o[i].tolist(), j_o[i].tolist())
            assert m_t == m_ref
            assert got_c[i].tobytes() == np.array(c_ref).tobytes()
            assert got_j[i].tobytes() == np.array(j_ref).tobytes()


class TestQuaternions:
    def test_roundtrip(self, rng):
        for _ in range(50):
            q = rng.standard_normal(4)
            q = np.array(unit_quat(*q))
            if q[0] < 0:
                q = -q
            q2 = rot_to_quat(quat_to_rot(q.tolist()))
            np.testing.assert_allclose(q2, q, atol=1e-12)

    def test_rotation_action_preserved(self, rng):
        for _ in range(20):
            q = np.array(unit_quat(*rng.standard_normal(4)))
            R1 = quat_to_rot(q.tolist())
            R2 = quat_to_rot(rot_to_quat(R1))
            np.testing.assert_allclose(R1, R2, atol=1e-12)

    def test_flat_rotation_matches_matrix(self, rng):
        for _ in range(20):
            q = rng.standard_normal(4) * rng.uniform(0.1, 10.0)
            flat = quat_to_rot(tuple(q.tolist()))
            assert type(flat) is tuple and len(flat) == 9
            assert all(type(v) is float for v in flat)
            R = np.reshape(flat, (3, 3))  # row-major: R v rotates v as q v q* does
            qn, v = q / np.linalg.norm(q), rng.standard_normal(3)
            rotated = quat_mul(quat_mul(qn, [0.0, *v]), qn * [1.0, -1.0, -1.0, -1.0])
            np.testing.assert_allclose(R @ v, rotated[1:], atol=1e-12)
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-14)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            quat_to_rot((0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            unit_quat(0.0, 0.0, 0.0, 0.0)

    def test_rot_to_quat_matches_array_oracle(self, rng):
        """The float rot_to_quat against the array code it replaced, on
        rotations that reach each of its four branches."""
        rots = [random_rotation(rng) for _ in range(200)]
        for axis in np.eye(3):  # near half-turns about x, y and z
            for _ in range(20):
                u = axis + 0.05 * rng.standard_normal(3)
                u /= np.linalg.norm(u)
                half = 0.5 * (math.pi - rng.uniform(0.0, 0.3))
                rots.append(rot_matrix([math.cos(half), *(math.sin(half) * u)]))
        cases = set()
        for R in rots:
            cases.add(rot_to_quat_case(R))
            got = rot_to_quat(tuple(R.ravel().tolist()))
            assert isinstance(got, tuple) and all(type(v) is float for v in got)
            np.testing.assert_allclose(got, ref_rot_to_quat(R), rtol=0.0, atol=1e-12)
        assert cases == {0, 1, 2, 3}

    def test_rot_to_quat_nan_passes(self):
        R = np.eye(3)
        R[1, 2] = np.nan
        assert np.all(np.isnan(ref_rot_to_quat(np.full((3, 3), np.nan))))
        assert np.all(np.isnan(rot_to_quat((math.nan,) * 9)))
        assert np.isnan(rot_to_quat(R.ravel().tolist())[1])

    def test_mul_identity(self):
        q = np.array(unit_quat(0.3, -0.2, 0.8, 0.1))
        ident = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(quat_mul(q, ident), q, atol=1e-15)


class TestInverse3:
    def test_matches_numpy(self, rng):
        for _ in range(50):
            m = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            got = np.array(inverse3(m.ravel().tolist())).reshape(3, 3)
            np.testing.assert_allclose(got, np.linalg.inv(m), rtol=1e-12, atol=1e-14)

    def test_accepts_row_major_floats(self):
        j = [2.0, 0.1, 0.0, 0.1, 3.0, 0.2, 0.0, 0.2, 4.0]
        got = inverse3(j)
        assert type(got) is list and len(got) == 9 and all(type(v) is float for v in got)
        np.testing.assert_allclose(np.reshape(got, (3, 3)) @ np.reshape(j, (3, 3)), np.eye(3),
                                   rtol=0.0, atol=1e-15)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            inverse3([1.0] * 9)


class TestInertialParamsValidation:
    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            InertialParams(0.0, np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            InertialParams(-1.0, np.zeros(3), np.eye(3))

    def test_rejects_asymmetric(self):
        j = np.eye(3)
        j[0, 1] = 0.5
        with pytest.raises(ValueError):
            InertialParams(1.0, np.zeros(3), j)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            InertialParams(1.0, np.zeros(3), np.diag([1.0, 1.0, -0.1]))

    def test_rejects_triangle_violation(self):
        with pytest.raises(ValueError):
            InertialParams(1.0, np.zeros(3), np.diag([1.0, 0.1, 0.1]))

    def test_accepts_physical(self):
        InertialParams(1.0, np.zeros(3), cylinder_inertia(1.0, 0.04, 0.12))

    def test_float_tuples_compare_and_hash_by_value(self):
        """A body holds float tuples: no item assignment, nothing shared with the
        caller's arrays, and equality and hash by value."""
        com, j = np.zeros(3), np.eye(3)
        body = InertialParams(1.0, com, j)
        for target, index in ((body.com, 0), (body.inertia_about_com, 0),
                              (body.inertia_about_com[0], 0)):
            with pytest.raises(TypeError):
                target[index] = 5.0
        com[0] = j[0, 0] = 2.0  # the caller's arrays stay writeable and apart
        assert body.com == (0.0, 0.0, 0.0) and body.inertia_about_com[0] == (1.0, 0.0, 0.0)
        veh = load_config("grasp_estimate").vehicle
        a, b = (InertialParams(veh.mass, veh.p_b, veh.j_a) for _ in range(2))
        assert a == b and hash(a) == hash(b)
        ints = InertialParams(1, [0, 0, 0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert ints == body and hash(ints) == hash(body)
        assert {type(v) for row in ints.inertia_about_com for v in (*row, *ints.com)} == {float}
        assert a != InertialParams(2.0 * veh.mass, veh.p_b, veh.j_a)
        assert a != InertialParams(veh.mass, (0.0, 0.0, 0.0), veh.j_a)
        assert a != InertialParams(veh.mass, veh.p_b, 2.0 * np.asarray(veh.j_a))
