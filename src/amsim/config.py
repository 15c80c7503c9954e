"""Scenario configuration: INI-style text files describing one simulated run.

Sections: [run], [rates], [vehicle], [arm], [gains], [estimation], [object]
(optional), [trajectory], [disturbances]. Vectors are whitespace-separated
numbers; waypoint/wind tables are one row per line in multiline values.
The dataclasses below write every default once, so a minimal file needs only
what it changes; ``_KEYS`` maps each key onto the field it sets. Configs are
frozen and checked when built: derive a variant with ``dataclasses.replace``.
"""
from __future__ import annotations

import configparser
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .controller import Gains
from .delta import DeltaGeometry
from .dynamics import RotorConfig
from .spatial import box_inertia, cylinder_inertia


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


def _check_rows(where: str, rows) -> None:
    """Table rows (t, xyz[, scalar]) hold finite numbers only, at distinct times:
    a NaN time would sort anywhere, and a NaN wind start switches off every later row."""
    for row in rows:
        vals = (row[0], *row[1], *row[2:])
        if not all(map(math.isfinite, vals)):
            text = " ".join(f"{float(v):g}" for v in vals)
            raise ConfigError(f"{where}: row {text!r} has a non-finite number")
    times = [row[0] for row in rows]
    if len(set(times)) != len(times):
        raise ConfigError(f"{where}: duplicate timestamps")


MODES = ("baseline", "iags", "iags+dob", "pre-only", "dob-only")

# iags+dob is accepted as an alias of the canonical full pipeline
_MODE_ALIASES = {"iags+dob": "iags"}


@dataclass(frozen=True)
class VehicleConfig:
    mass: float = 1.379
    j_a: np.ndarray = field(default_factory=lambda: np.diag([9.2e-3, 10.5e-3, 14.7e-3]))
    p_b: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.03]))
    rotor: RotorConfig = field(default_factory=RotorConfig.x_config)
    accel_noise: float = 0.02
    gyro_noise: float = 0.002


@dataclass(frozen=True)
class ArmConfig:
    geom: DeltaGeometry = field(default_factory=DeltaGeometry)
    k_theta: np.ndarray = field(default_factory=lambda: np.array([20.0, 20.0, 20.0]))
    rate_limit: float = 6.0
    home: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -0.16]))
    waypoints: list = field(default_factory=list)  # [(t, xyz)]

    def __post_init__(self):
        # the servo loop's float clamps rely on these, so they are checked once here
        k = np.asarray(self.k_theta, dtype=float)
        if not np.all(k >= 0.0) or not np.all(np.isfinite(k)):
            raise ConfigError("[arm] k_theta entries must be non-negative and finite")
        if not self.rate_limit >= 0.0:
            raise ConfigError("[arm] servo_rate_limit must be non-negative, "
                              f"got {self.rate_limit}")
        _check_rows("[arm] waypoints", self.waypoints)


@dataclass(frozen=True)
class ObjectConfig:
    true_mass: float
    label: str | None = None
    shape: str = "box"  # box | cylinder
    # box: lx ly lz; cylinder: d d h (axis vertical)
    dims: np.ndarray = field(default_factory=lambda: np.array([0.1, 0.1, 0.1]))
    true_inertia: np.ndarray | None = None  # about CoM, grasped orientation
    grasp_time: float = 1.0
    # inline prior, used instead of the catalog entry of the label when prior_rho is set
    prior_beta: float = 1.0
    prior_alpha: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0, 1.0]))
    prior_rho: float | None = None

    def __post_init__(self):
        if not self.true_mass > 0.0:
            raise ConfigError("[object] true_mass must be positive")
        if not math.isfinite(self.grasp_time):
            raise ConfigError(f"[object] grasp_time must be finite, got {self.grasp_time}")
        if not self.label and self.prior_rho is None:
            raise ConfigError("[object] needs a label or an inline prior_*")
        if self.shape not in ("box", "cylinder"):
            raise ConfigError(f"[object] unknown shape {self.shape!r}")
        dims = np.asarray(self.dims, dtype=float)
        if not np.all((dims > 0.0) & np.isfinite(dims)):
            raise ConfigError(f"[object] dims must be positive and finite, got {dims.tolist()}")

    @property
    def inertia(self) -> np.ndarray:
        """``true_inertia``, or else that of the solid shape of ``dims`` and ``true_mass``."""
        if self.true_inertia is not None:
            return self.true_inertia
        if self.shape == "box":
            return box_inertia(self.true_mass, self.dims)
        return cylinder_inertia(self.true_mass, 0.5 * self.dims[0], self.dims[2])


@dataclass(frozen=True)
class EstimationConfig:
    grasp_threshold: float = 1.0
    grasp_persistence: float = 0.5
    dob_c: float = 10.0
    force_lpf_hz: float = 50.0
    cloud_points: int = 20000
    suction_pad: float = 0.01
    catalog: str | None = None

    def __post_init__(self):
        for name in ("grasp_threshold", "grasp_persistence", "dob_c", "force_lpf_hz"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"[estimation] {name} must be positive and finite, got {value}")
        if self.cloud_points < 10:
            raise ConfigError(f"[estimation] cloud_points must be >= 10, got {self.cloud_points}")
        if not 0.0 <= self.suction_pad < math.inf:
            raise ConfigError("[estimation] suction_pad must be finite and >= 0, "
                              f"got {self.suction_pad}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    duration: float = 5.0
    seed: int = 1
    mode: str = "iags"
    eval_start: float = 0.5
    sim_dt: float = 5e-4
    control_hz: int = 400
    dob_hz: int = 100
    servo_hz: int = 100
    g: float = 9.81
    vehicle: VehicleConfig = field(default_factory=VehicleConfig)
    arm: ArmConfig = field(default_factory=ArmConfig)
    obj: ObjectConfig | None = None
    gains: Gains = field(default_factory=Gains)
    est: EstimationConfig = field(default_factory=EstimationConfig)
    trajectory: list = field(  # [(t, xyz, yaw)]
        default_factory=lambda: [(0.0, np.array([0.0, 0.0, 1.0]), 0.0)])
    wind: list = field(default_factory=list)  # [(t, fxyz)], piecewise constant from each t

    def __post_init__(self):
        object.__setattr__(self, "mode", _MODE_ALIASES.get(self.mode, self.mode))
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.trajectory:
            raise ConfigError("[trajectory] waypoints needs at least one row")
        _check_rows("[trajectory] waypoints", self.trajectory)
        _check_rows("[disturbances] wind", self.wind)
        if not (0.0 < self.duration < math.inf and 0.0 < self.sim_dt < math.inf):
            raise ConfigError("duration and sim_dt must be positive and finite")
        if not 0.0 <= self.eval_start < math.inf:
            raise ConfigError(f"[run] eval_start must be finite and >= 0, got {self.eval_start}")
        if not 0.0 < self.g < math.inf:
            raise ConfigError(f"[vehicle] g must be positive and finite, got {self.g}")
        # the engine looks the wind up by time: (float, three floats) rows in start order
        object.__setattr__(self, "wind", sorted(
            ((float(t), tuple(np.asarray(f, dtype=float).reshape(3).tolist()))
             for t, f in self.wind), key=lambda row: row[0]))
        if round(self.duration / self.sim_dt) < 1:
            raise ConfigError(f"duration {self.duration:g} s rounds to no physics "
                              f"step of {self.sim_dt:g} s")
        sim_hz = 1.0 / self.sim_dt
        for name in ("control_hz", "dob_hz", "servo_hz"):
            hz = getattr(self, name)
            if hz <= 0:
                raise ConfigError(f"{name} must be positive")
            ratio = sim_hz / hz
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(f"{name}={hz} does not divide the sim rate {sim_hz:g} Hz")

    def steps_per(self, hz: int) -> int:
        return int(round(1.0 / (self.sim_dt * hz)))


def _vec3(text: str) -> np.ndarray:
    vals = np.array([float(v) for v in text.split()])
    if vals.shape != (3,):
        raise ValueError(f"expected 3 numbers, got {vals.size}")
    return vals


def _mat3(text: str) -> np.ndarray:
    vals = [float(v) for v in text.split()]
    if len(vals) == 3:
        return np.diag(vals)
    if len(vals) == 9:
        return np.array(vals).reshape(3, 3)
    raise ValueError("expected 3 (diagonal) or 9 (row-major) numbers")


def _rows(text: str, n_cols: int) -> list:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        vals = [float(v) for v in line.split()]
        if len(vals) != n_cols:
            raise ValueError(f"each row needs {n_cols} numbers")
        rows.append(vals)
    rows.sort(key=lambda r: r[0])
    return rows


def _points(text: str) -> list:
    """Rows of t x y z, as [(t, xyz)]."""
    return [(r[0], np.array(r[1:4])) for r in _rows(text, 4)]


def _poses(text: str) -> list:
    """Rows of t x y z yaw, as [(t, xyz, yaw)]."""
    return [(r[0], np.array(r[1:4]), r[4]) for r in _rows(text, 5)]


def _fields(part: str, **parsers) -> dict:
    """Table entries for keys named as the field of ``part`` they set."""
    return {key: (part, key, parse) for key, parse in parsers.items()}


# [section] key -> (part, field, parser). The parts are ScenarioConfig
# ("scenario") and the configs nested in it; "rotor" goes through
# RotorConfig.x_config, and "geom"'s theta_min/theta_max make up
# DeltaGeometry.joint_limits. No default lives here: a key the file leaves
# out is not passed, so the dataclass default applies.
_KEYS = {
    "run": _fields("scenario", name=str, duration=float, seed=int, mode=str,
                   eval_start=float),
    "rates": _fields("scenario", sim_dt=float, control_hz=int, dob_hz=int, servo_hz=int),
    "vehicle": {
        **_fields("scenario", g=float),
        **_fields("vehicle", mass=float, p_b=_vec3, accel_noise=float, gyro_noise=float),
        "inertia": ("vehicle", "j_a", _mat3),
        **_fields("rotor", rotor_height=float, c_t=float, k_tau=float, k_m=float,
                  tau_m=float),
        "rotor_arm": ("rotor", "arm_length", float),
    },
    "arm": {
        **_fields("geom", base_radius=float, platform_radius=float, theta_min=float,
                  theta_max=float),
        "upper_arm": ("geom", "upper_arm_len", float),
        "forearm": ("geom", "forearm_len", float),
        **_fields("arm", k_theta=_vec3, home=_vec3, waypoints=_points),
        "servo_rate_limit": ("arm", "rate_limit", float),
    },
    "gains": _fields("gains", k_pos=_vec3, k_vel=_vec3, k_att=_vec3, rate_kp=_vec3,
                     rate_ki=_vec3, rate_kd=_vec3, d_lpf_hz=float, i_limit=float),
    "estimation": _fields("est", grasp_threshold=float, grasp_persistence=float,
                          dob_c=float, force_lpf_hz=float, cloud_points=int,
                          suction_pad=float, catalog=str),
    "object": _fields("obj", label=str, shape=str, dims=_vec3, true_mass=float,
                      true_inertia=_mat3, grasp_time=float, prior_beta=float,
                      prior_alpha=_vec3, prior_rho=float),
    "trajectory": {"waypoints": ("scenario", "trajectory", _poses)},
    "disturbances": {"wind": ("scenario", "wind", _points)},
}


def parse_config(text: str, name: str = "scenario") -> ScenarioConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if cp.defaults():
        raise ConfigError(f"unknown section [{cp.default_section}]")

    kw = defaultdict(dict)
    kw["scenario"]["name"] = name
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in cp.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            part, fld, parse = _KEYS[section][key]
            try:
                kw[part][fld] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc

    geom = kw["geom"]
    lo, hi = DeltaGeometry.joint_limits
    geom["joint_limits"] = (geom.pop("theta_min", lo), geom.pop("theta_max", hi))
    try:
        return ScenarioConfig(
            vehicle=VehicleConfig(rotor=RotorConfig.x_config(**kw["rotor"]), **kw["vehicle"]),
            arm=ArmConfig(geom=DeltaGeometry(**geom), **kw["arm"]),
            obj=ObjectConfig(**kw["obj"]) if cp.has_section("object") else None,
            gains=Gains(**kw["gains"]), est=EstimationConfig(**kw["est"]), **kw["scenario"])
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def shipped_scenarios() -> list[str]:
    root = resources.files("amsim").joinpath("data/scenarios")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_config(source: str) -> ScenarioConfig:
    """Load a scenario from a file path or a shipped scenario name."""
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.splitext(os.path.basename(source))[0]
        return parse_config(text, name=name)
    pkg = resources.files("amsim").joinpath(f"data/scenarios/{source}.cfg")
    if pkg.is_file():
        return parse_config(pkg.read_text(), name=source)
    raise ConfigError(f"no such config file or shipped scenario: {source!r} "
                      f"(shipped: {', '.join(shipped_scenarios())})")
