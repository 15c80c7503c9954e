"""Pre-grasp payload estimation from point clouds and a shape/density catalog.

A target cloud is reduced to an oriented bounding box by PCA; a per-label
prior (volume fill factor, per-axis inertia shape factors, bulk density)
turns box dimensions into mass and moment-of-inertia estimates before the
object is ever touched.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType

import numpy as np

from .spatial import as_floats


SUCTION_PAD = 0.01  # m, the default height of the suction pad below the end-effector


class DegenerateCloud(Exception):
    """Point cloud covariance has rank < 3 (e.g. coplanar points)."""


class UnknownLabel(KeyError):
    """No catalog entry matches the requested label."""


class CatalogError(ValueError):
    """Malformed or inconsistent prior catalog file."""


@dataclass(frozen=True)
class OrientedBox:
    """Tight oriented box: ``rotation`` columns are box axes in world, dims l >= w >= h;
    ``center`` is three floats and ``rotation`` three row tuples, compared by value."""

    center: tuple
    rotation: tuple
    dims: tuple

    def __post_init__(self):
        rot = np.reshape(as_floats(np.ravel(self.rotation), 9, "box rotation"), (3, 3))
        dims = as_floats(self.dims, 3, "box dims", "positive")
        if not (dims[0] >= dims[1] >= dims[2]):
            raise ValueError("box dims must be ordered l >= w >= h")
        if not (np.max(np.abs(rot @ rot.T - np.eye(3))) <= 1e-6 and np.linalg.det(rot) > 0.0):
            raise ValueError("rotation must be orthonormal with det +1")
        object.__setattr__(self, "center", as_floats(self.center, 3, "box center"))
        object.__setattr__(self, "rotation", tuple(map(tuple, rot.tolist())))
        object.__setattr__(self, "dims", dims)

    def vertical_extent(self) -> float:
        """Box dimension along the axis most aligned with world z (the first of equals)."""
        z_row = self.rotation[2]
        return self.dims[max(range(3), key=lambda k: abs(z_row[k]))]


@dataclass(frozen=True)
class ObjectPrior:
    label: str
    beta: float          # volume fill factor of the box, (0, 1]
    alpha: tuple         # per-axis MoI shape factors, three floats in (0, 3]
    rho: float           # bulk density kg/m^3

    def __post_init__(self):
        # each range is written so that NaN fails it
        object.__setattr__(self, "alpha", as_floats(self.alpha, 3, "alpha"))
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not all(0.0 < a <= 3.0 for a in self.alpha):
            raise ValueError(f"alpha entries must be in (0, 3], got {list(self.alpha)}")
        as_floats([self.rho], 1, "rho", "positive")


@dataclass(frozen=True)
class ObjectEstimate:
    """Pre-grasp estimate: mass, MoI about the box center in box axes, grasp offset."""

    mass_tilde: float
    moi_tilde: tuple
    volume_hat: float
    grasp_offset: tuple  # end-effector frame, suction grasp from above

    def __post_init__(self):
        as_floats([self.mass_tilde], 1, "mass estimate", "positive")
        as_floats([self.volume_hat], 1, "volume estimate", "positive")
        moi = np.reshape(as_floats(np.ravel(self.moi_tilde), 9, "MoI estimate"), (3, 3))
        if np.any(np.linalg.eigvalsh(0.5 * (moi + moi.T)) <= 0.0):
            raise ValueError("MoI estimate must be positive definite")
        object.__setattr__(self, "moi_tilde", tuple(map(tuple, moi.tolist())))
        object.__setattr__(self, "grasp_offset", as_floats(self.grasp_offset, 3, "grasp offset"))


def _axis_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    x, y, z = axis
    return np.array([
        [c + x * x * (1 - c), x * y * (1 - c) - z * s, x * z * (1 - c) + y * s],
        [y * x * (1 - c) + z * s, c + y * y * (1 - c), y * z * (1 - c) - x * s],
        [z * x * (1 - c) - y * s, z * y * (1 - c) + x * s, c + z * z * (1 - c)],
    ])


def _box_volume(centered_t: np.ndarray, axes: np.ndarray) -> float:
    """Volume of the box with edges along ``axes`` around the 3xN cloud."""
    proj = axes.T @ centered_t
    return float(np.prod(proj.max(axis=1) - proj.min(axis=1)))


def fit_obb(points) -> OrientedBox:
    """Fit a tight oriented box: PCA axes refined by volume minimization.

    PCA of the centered cloud seeds the orientation; a deterministic
    coordinate-descent over small rotations then shrinks the box volume,
    which removes the extent inflation a slightly tilted axis causes. Axes
    are sorted so the extents satisfy l >= w >= h and the rotation
    determinant is forced to +1. Raises DegenerateCloud when the covariance
    rank is below 3.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] < 10:
        raise DegenerateCloud("need at least 10 points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("cloud has non-finite points")
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered / pts.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] < 1e-9 * max(evals[2], 1e-30):
        raise DegenerateCloud("covariance rank below 3")

    # the descent reduces each projection along contiguous rows
    centered_t = np.ascontiguousarray(centered.T)
    axes = evecs
    best = _box_volume(centered_t, axes)
    step = math.radians(6.0)
    while step > math.radians(0.02):
        improved = False
        for k in range(3):
            for sgn in (1.0, -1.0):
                rot = _axis_rotation(axes[:, k], sgn * step)
                cand = rot @ axes
                vol = _box_volume(centered_t, cand)
                if vol < best * (1.0 - 1e-12):
                    axes, best, improved = cand, vol, True
        if not improved:
            step *= 0.5

    proj = centered @ axes
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    extents = hi - lo
    order = np.argsort(extents)[::-1]
    sorted_axes = axes[:, order]
    if np.linalg.det(sorted_axes) < 0.0:
        sorted_axes = sorted_axes.copy()
        sorted_axes[:, 2] = -sorted_axes[:, 2]
    center = mean + axes @ (0.5 * (lo + hi))
    dims = tuple(float(extents[k]) for k in order)
    return OrientedBox(center=center, rotation=sorted_axes, dims=dims)


def estimate_inertia(box: OrientedBox, prior: ObjectPrior,
                     pad_height: float = SUCTION_PAD) -> ObjectEstimate:
    """Mass and MoI estimate from box dimensions and a shape/density prior.

    volume_hat = beta * l*w*h; mass = rho * volume_hat;
    MoI = (alpha/12) * mass * diag(w^2+h^2, l^2+h^2, l^2+w^2) about the box
    center in box axes. The grasp offset assumes a top suction grasp, so the
    object CoM hangs half the vertical extent plus the pad height below the
    end-effector plane.
    """
    l, w, h = box.dims
    v_box = l * w * h
    v_hat = prior.beta * v_box
    mass = prior.rho * v_hat
    moi = (np.array(prior.alpha) / 12.0) * mass * np.array([w * w + h * h,
                                                            l * l + h * h,
                                                            l * l + w * w])
    return ObjectEstimate(mass_tilde=mass, moi_tilde=np.diag(moi), volume_hat=v_hat,
                          grasp_offset=top_grasp_offset(box.vertical_extent(), pad_height))


def top_grasp_offset(height: float, pad_height: float) -> tuple:
    """End-effector to object CoM of a top suction grasp: half the height plus the pad, down."""
    return 0.0, 0.0, -(0.5 * float(height) + pad_height)


def load_catalog(path=None) -> MappingProxyType:
    """Load the prior catalog from a file path; None loads the shipped one.

    Format: one record per line, pipe separated:
    ``label | beta | alpha_x alpha_y alpha_z | rho``; '#' starts a comment.
    Duplicate labels (case-insensitive) are a load-time error. The file is read
    once per version (its modification time and size), into a read-only mapping.
    """
    path = os.path.abspath(resources.files("amsim") / "data" / "priors.txt" if path is None
                           else path)
    info = os.stat(path)
    return _read_catalog(path, info.st_mtime_ns, info.st_size)


@functools.lru_cache(maxsize=32)
def _read_catalog(path: str, mtime_ns: int, size: int) -> MappingProxyType:
    """The catalog in the file ``path`` of that version, parsed (``load_catalog``)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    catalog: dict[str, ObjectPrior] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            raise CatalogError(f"line {lineno}: expected 4 pipe-separated fields")
        label = parts[0]
        if label.casefold() in {k.casefold() for k in catalog}:
            raise CatalogError(f"line {lineno}: duplicate label {label!r}")
        try:
            catalog[label] = ObjectPrior(label=label, beta=float(parts[1]),
                                         alpha=parts[2].split(), rho=float(parts[3]))
        except ValueError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from exc
    return MappingProxyType(catalog)


def prior_for(label: str, catalog: dict) -> ObjectPrior:
    """Catalog lookup: exact match first, then case-insensitive."""
    if label in catalog:
        return catalog[label]
    folded = label.casefold()
    for key, prior in catalog.items():
        if key.casefold() == folded:
            return prior
    raise UnknownLabel(label)


def sample_box_cloud(dims, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples inside a solid box centered on the origin, edges along the axes."""
    d = np.asarray(dims, dtype=float).reshape(3)
    return (rng.random((n, 3)) - 0.5) * d


def sample_cylinder_cloud(diameter: float, height: float, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Uniform samples inside a solid cylinder centered on the origin, axis along z."""
    r = 0.5 * diameter
    rad = r * np.sqrt(rng.random(n))
    ang = rng.random(n) * (2.0 * math.pi)
    z = (rng.random(n) - 0.5) * height
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang), z])
