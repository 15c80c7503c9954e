import math
import os
import re

import numpy as np
import pytest

from amsim.presense import (CatalogError, DegenerateCloud, ObjectPrior,
                            UnknownLabel, _axis_rotation, estimate_inertia,
                            fit_obb, load_catalog, prior_for, sample_box_cloud,
                            sample_cylinder_cloud)
from amsim.spatial import InertialParams

from conftest import random_rotation


def catalog_file(tmp_path, text: str) -> str:
    """A catalog file holding ``text``, for ``load_catalog``."""
    path = tmp_path / "priors.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestFitObb:
    def test_axis_aligned_box_dims(self, rng):
        pts = sample_box_cloud([0.2, 0.1, 0.05], 1000, rng)
        box = fit_obb(pts)
        np.testing.assert_allclose(box.dims, [0.2, 0.1, 0.05], rtol=0.05)

    def test_rotation_equivariance(self, rng):
        dims = [0.2, 0.1, 0.05]
        pts = sample_box_cloud(dims, 1000, rng)
        rot = rot_z(math.radians(37.0))
        box_a = fit_obb(pts)
        box_b = fit_obb(pts @ rot.T)
        np.testing.assert_allclose(box_b.dims, box_a.dims, rtol=0.05)
        # recovered axes must match the applied rotation up to
        # permutation/sign: every recovered axis aligns with some true axis
        true_axes = rot  # world directions of the rotated box edges
        for k in range(3):
            align = np.abs(true_axes.T @ np.asarray(box_b.rotation)[:, k]).max()
            assert align > 0.99

    def test_coplanar_degenerate(self, rng):
        pts = rng.random((500, 3))
        pts[:, 2] = 0.0
        with pytest.raises(DegenerateCloud):
            fit_obb(pts)

    def test_too_few_points(self):
        with pytest.raises(DegenerateCloud):
            fit_obb(np.zeros((5, 3)))

    def test_contains_all_points(self, rng):
        pts = sample_box_cloud([0.15, 0.12, 0.07], 2000, rng) @ rot_z(0.6).T + [1.0, -2.0, 0.5]
        box = fit_obb(pts)
        local = (pts - box.center) @ box.rotation
        half = np.array(box.dims) / 2.0
        assert np.all(np.abs(local) <= half + 1e-9)

    def test_box_volume_bounds_hull(self, rng):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        pts = sample_box_cloud([0.2, 0.15, 0.1], 3000, rng) @ rot_z(0.3).T
        box = fit_obb(pts)
        hull = scipy_spatial.ConvexHull(pts)
        assert np.prod(box.dims) >= hull.volume


def reference_obb(points):
    """fit_obb with the volume refinement on the N x 3 cloud, as first written.

    The oracle for the contiguous 3 x N refinement, which must give the same
    bits.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered / pts.shape[0]
    _, axes = np.linalg.eigh(cov)

    def volume(axes):
        proj = centered @ axes
        return float(np.prod(proj.max(axis=0) - proj.min(axis=0)))

    best = volume(axes)
    step = math.radians(6.0)
    while step > math.radians(0.02):
        improved = False
        for k in range(3):
            for sgn in (1.0, -1.0):
                cand = _axis_rotation(axes[:, k], sgn * step) @ axes
                vol = volume(cand)
                if vol < best * (1.0 - 1e-12):
                    axes, best, improved = cand, vol, True
        if not improved:
            step *= 0.5

    proj = centered @ axes
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    extents = hi - lo
    order = np.argsort(extents)[::-1]
    rotation = axes[:, order].copy()
    if np.linalg.det(rotation) < 0.0:
        rotation[:, 2] = -rotation[:, 2]
    center = mean + axes @ (0.5 * (lo + hi))
    return center, rotation, tuple(float(extents[k]) for k in order)


class TestFitObbReference:
    @pytest.mark.parametrize("n", [50, 2000, 20000])
    def test_box_bitwise(self, rng, n):
        self.check(sample_box_cloud([0.2, 0.1, 0.05], n, rng))

    @pytest.mark.parametrize("n", [50, 2000, 20000])
    def test_cylinder_bitwise(self, rng, n):
        self.check(sample_cylinder_cloud(0.08, 0.12, n, rng))

    @pytest.mark.parametrize("n", [50, 2000, 20000])
    def test_posed_box_bitwise(self, rng, n):
        rotation = random_rotation(rng)
        self.check(sample_box_cloud([0.15, 0.12, 0.07], n, rng) @ rotation.T + [1.0, -2.0, 0.5])

    @staticmethod
    def check(pts):
        center, rotation, dims = reference_obb(pts)
        box = fit_obb(pts)
        np.testing.assert_array_equal(box.center, center)
        np.testing.assert_array_equal(box.rotation, rotation)
        assert box.dims == dims


class TestEstimateInertia:
    def test_float_tuples_compare_and_hash_by_value(self, rng):
        """A box and an estimate hold float tuples: no item assignment, nothing
        shared with the caller's arrays, and equality and hash by value."""
        from amsim.presense import OrientedBox
        center, rot = np.zeros(3), np.eye(3)
        box = OrientedBox(center=center, rotation=rot, dims=(0.3, 0.2, 0.1))
        prior = ObjectPrior("box", beta=1.0, alpha=np.ones(3), rho=500.0)
        est = estimate_inertia(box, prior)
        for target, index in ((box.center, 0), (box.rotation, 0), (box.rotation[0], 0),
                              (est.moi_tilde, 0), (est.moi_tilde[0], 0)):
            with pytest.raises(TypeError):
                target[index] = 5.0
        center[0] = rot[0, 0] = 2.0  # the caller's arrays stay writeable and apart
        assert box.center == (0.0, 0.0, 0.0) and box.rotation[0] == (1.0, 0.0, 0.0)
        cloud = sample_box_cloud([0.15, 0.12, 0.07], 2000, rng) @ random_rotation(rng).T
        box_a, box_b = fit_obb(cloud), fit_obb(cloud.copy())
        assert box_a == box_b and hash(box_a) == hash(box_b)
        est_a, est_b = estimate_inertia(box_a, prior), estimate_inertia(box_b, prior)
        assert est_a == est_b and hash(est_a) == hash(est_b)
        assert box_a != fit_obb(cloud + [0.0, 0.0, 1.0])
        assert box_a != fit_obb(cloud @ random_rotation(rng).T)
        assert est_a != estimate_inertia(box_a, ObjectPrior("box", 1.0, [2.0, 1.0, 1.0], 500.0))
        assert est_a != estimate_inertia(box_a, prior, pad_height=0.02)

    @pytest.mark.parametrize("mass", [0.0, -0.1, math.nan])
    def test_zero_mass_estimate_rejected(self, mass):
        """The one check of the pre-grasp mass, which ``rescale_moi`` divides by."""
        from amsim.presense import ObjectEstimate
        with pytest.raises(ValueError, match="^mass estimate must be positive"):
            ObjectEstimate(mass, np.eye(3), 1e-3, (0.0, 0.0, -0.06))

    def test_nan_rotation_rejected(self):
        """A NaN entry fails the entry check, so no box reads a vertical extent off it."""
        from amsim.presense import OrientedBox
        with pytest.raises(ValueError, match="^box rotation must be finite"):
            OrientedBox((0.0, 0.0, 0.0), [[math.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                        (0.3, 0.2, 0.1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rotation_rejected_without_warning(self, bad):
        """The nine entries are checked before ``rot @ rot.T``, which would warn."""
        from amsim.presense import OrientedBox
        with pytest.raises(ValueError, match="^box rotation must be finite"):
            OrientedBox((0.0, 0.0, 0.0), [[1.0, 0.0, 0.0], [0.0, bad, 0.0], [0.0, 0.0, 1.0]],
                        (0.3, 0.2, 0.1))

    def test_non_finite_moi_estimate_rejected(self):
        from amsim.presense import ObjectEstimate
        moi = np.eye(3) * 1e-3
        moi[2, 2] = math.inf
        with pytest.raises(ValueError, match="^MoI estimate must be finite"):
            ObjectEstimate(0.2, moi, 1e-3, (0.0, 0.0, -0.06))

    @pytest.mark.parametrize("volume", [math.nan, math.inf, 0.0, -1e-3])
    def test_volume_estimate_must_be_positive_and_finite(self, volume):
        from amsim.presense import ObjectEstimate
        with pytest.raises(ValueError, match="^volume estimate must be positive and finite"):
            ObjectEstimate(0.2, np.eye(3) * 1e-3, volume, (0.0, 0.0, -0.06))

    def test_unit_cube_direct_evaluation(self):
        from amsim.presense import OrientedBox
        box = OrientedBox(center=np.zeros(3), rotation=np.eye(3),
                          dims=(0.1, 0.1, 0.1))
        prior = ObjectPrior("cube", beta=1.0, alpha=np.ones(3), rho=1000.0)
        est = estimate_inertia(box, prior)
        assert est.mass_tilde == pytest.approx(1.0, rel=1e-12)
        expect = (1.0 / 12.0) * 1.0 * (0.1 ** 2 + 0.1 ** 2)
        np.testing.assert_allclose(np.diag(est.moi_tilde), expect, rtol=1e-12)
        assert expect == pytest.approx(1.667e-3, rel=1e-3)

    def test_sphere_volume_exact(self):
        from amsim.presense import OrientedBox
        d = 0.12
        box = OrientedBox(center=np.zeros(3), rotation=np.eye(3), dims=(d, d, d))
        prior = ObjectPrior("ball", beta=math.pi / 6.0, alpha=np.ones(3) * 0.8,
                            rho=500.0)
        est = estimate_inertia(box, prior)
        v_sphere = (4.0 / 3.0) * math.pi * (d / 2.0) ** 3
        assert est.volume_hat == pytest.approx(v_sphere, rel=1e-12)
        assert est.mass_tilde == pytest.approx(500.0 * v_sphere, rel=1e-12)

    def test_linearity_in_rho_beta_alpha(self):
        from amsim.presense import OrientedBox
        box = OrientedBox(center=np.zeros(3), rotation=np.eye(3),
                          dims=(0.2, 0.15, 0.1))
        base = ObjectPrior("b", beta=0.5, alpha=np.array([1.0, 1.0, 1.0]), rho=100.0)
        e0 = estimate_inertia(box, base)
        e_rho = estimate_inertia(box, ObjectPrior("b", 0.5, np.ones(3), 200.0))
        assert e_rho.mass_tilde == pytest.approx(2 * e0.mass_tilde, rel=1e-12)
        e_beta = estimate_inertia(box, ObjectPrior("b", 1.0, np.ones(3), 100.0))
        assert e_beta.mass_tilde == pytest.approx(2 * e0.mass_tilde, rel=1e-12)
        e_alpha = estimate_inertia(box, ObjectPrior("b", 0.5, np.array([2.0, 1.0, 1.0]), 100.0))
        assert (np.asarray(e_alpha.moi_tilde)[0, 0]
                == pytest.approx(2 * np.asarray(e0.moi_tilde)[0, 0], rel=1e-12))
        np.testing.assert_allclose(np.diag(e_alpha.moi_tilde)[1:],
                                   np.diag(e0.moi_tilde)[1:], rtol=1e-12)

    def test_small_alpha_shrinks_moi(self):
        from amsim.presense import OrientedBox
        box = OrientedBox(center=np.zeros(3), rotation=np.eye(3),
                          dims=(0.2, 0.15, 0.1))
        with pytest.raises(ValueError):
            ObjectPrior("x", beta=1.0, alpha=np.zeros(3), rho=100.0)
        tiny = estimate_inertia(box, ObjectPrior("x", 1.0, np.full(3, 1e-6), 100.0))
        assert np.diag(tiny.moi_tilde).max() < 1e-8

    def test_grasp_offset_uses_vertical_extent(self):
        from amsim.presense import OrientedBox
        # tall box: long axis along world z
        perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        box = OrientedBox(center=np.zeros(3), rotation=perm, dims=(0.3, 0.1, 0.08))
        prior = ObjectPrior("t", 1.0, np.ones(3), 100.0)
        est = estimate_inertia(box, prior, pad_height=0.01)
        assert est.grasp_offset[2] == pytest.approx(-(0.15 + 0.01), rel=1e-12)

    def test_triangle_inequality_at_construction(self, rng):
        from amsim.presense import OrientedBox
        # uniform alpha always yields physical moments; skewed alpha may not,
        # and then the composite-parameter constructor must reject it
        for _ in range(50):
            dims = np.sort(rng.uniform(0.05, 0.3, 3))[::-1]
            box = OrientedBox(center=np.zeros(3), rotation=np.eye(3),
                              dims=tuple(dims))
            c = rng.uniform(0.1, 3.0)
            est = estimate_inertia(box, ObjectPrior("u", 1.0, np.full(3, c), 200.0))
            InertialParams(est.mass_tilde, np.zeros(3), est.moi_tilde)  # no raise
        rejected = accepted = 0
        for _ in range(50):
            dims = np.sort(rng.uniform(0.05, 0.3, 3))[::-1]
            box = OrientedBox(center=np.zeros(3), rotation=np.eye(3),
                              dims=tuple(dims))
            alpha = rng.uniform(0.05, 3.0, 3)
            est = estimate_inertia(box, ObjectPrior("r", 1.0, alpha, 200.0))
            e = np.sort(np.diag(est.moi_tilde))
            physical = e[0] + e[1] >= e[2] * (1.0 - 1e-9)
            try:
                InertialParams(est.mass_tilde, np.zeros(3), est.moi_tilde)
                accepted += 1
                assert physical
            except ValueError:
                rejected += 1
                assert not physical
        assert accepted > 0  # sanity: the sweep hit both branches
        assert rejected > 0


class TestCatalog:
    def test_shipped_catalog_loads_eight(self):
        cat = load_catalog()
        assert len(cat) == 8
        assert "coffee can" in cat

    def test_coffee_can_reference_mass(self, rng):
        # reference can: 8 cm diameter, 12 cm tall, 219 g
        pts = sample_cylinder_cloud(0.08, 0.12, 30000, rng)
        box = fit_obb(pts)
        prior = prior_for("coffee can", load_catalog())
        est = estimate_inertia(box, prior)
        assert abs(est.mass_tilde - 0.219) / 0.219 < 0.04

    def test_case_insensitive_lookup(self):
        cat = load_catalog()
        assert prior_for("Coffee Can", cat).label == "coffee can"

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            prior_for("submarine", load_catalog())

    def test_duplicate_labels_rejected(self, tmp_path):
        text = "a | 1.0 | 1 1 1 | 100\nA | 1.0 | 1 1 1 | 100\n"
        with pytest.raises(CatalogError):
            load_catalog(catalog_file(tmp_path, text))

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(CatalogError):
            load_catalog(catalog_file(tmp_path, "just some words\n"))

    def test_bad_prior_values_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_catalog(catalog_file(tmp_path, "x | 1.5 | 1 1 1 | 100\n"))  # beta > 1

    @pytest.mark.parametrize("line, message", [
        ("x | 1.0 | 1 nan 1 | 100", "line 2: alpha must be finite, got [1.0, nan, 1.0]"),
        ("x | 1.0 | 1 1 1 | nan", "line 2: rho must be positive and finite, got nan"),
        ("x | nan | 1 1 1 | 100", "line 2: beta must be in (0, 1], got nan"),
        ("x | 1.0 | 1 1 | 100", "line 2: alpha needs 3 numbers, got ['1', '1']"),
    ])
    def test_nan_or_short_prior_rejected_with_its_line(self, tmp_path, line, message):
        """A NaN fails every range check, so the catalog cannot hold it."""
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            load_catalog(catalog_file(tmp_path, f"# header\n{line}\n"))

    def test_read_once_per_file_version(self, tmp_path, monkeypatch):
        """The file is opened again only when its modification time or size changes,
        and the mapping it gives cannot be changed."""
        path = catalog_file(tmp_path, "box | 1.0 | 1 1 1 | 100\n")
        first = load_catalog(path)
        opened = []
        monkeypatch.setattr("builtins.open", lambda *a, **k: opened.append(a) or 1 / 0)
        assert load_catalog(path) is first and opened == []
        monkeypatch.undo()
        with pytest.raises(TypeError):
            first["box"] = None  # read-only
        catalog_file(tmp_path, "box | 1.0 | 1 1 1 | 2500\n")  # one byte longer
        assert load_catalog(path)["box"].rho == 2500.0 and first["box"].rho == 100.0
        text = "box | 1.0 | 1 1 1 | 2600\n"
        catalog_file(tmp_path, text)  # the same size: a new modification time
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        assert load_catalog(path)["box"].rho == 2600.0

    def test_prior_is_hashable_floats(self):
        prior = ObjectPrior("t", 1.0, np.ones(3), 100.0)
        assert prior.alpha == (1.0, 1.0, 1.0) and type(prior.alpha[0]) is float
        assert hash(prior) == hash(ObjectPrior("t", 1.0, [1, 1, 1], 100.0))
