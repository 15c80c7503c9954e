"""Scenario configuration: INI-style text files describing one simulated run.

Sections: [run], [rates], [vehicle], [arm], [gains], [estimation], [object]
(optional), [trajectory], [disturbances]. Vectors are whitespace-separated
numbers; waypoint/wind tables are one row per line in multiline values.
The dataclasses below write every default once, so a minimal file needs only
what it changes; ``_KEYS`` maps each key onto the field it sets. Configs are
frozen and checked when built, and hold no mutable value: a vector is a tuple
of floats, a matrix a tuple of row tuples and a table a tuple of rows. Derive
a variant with ``dataclasses.replace``, which runs the same checks.
"""
from __future__ import annotations

import configparser
import copy
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .controller import Gains
from .delta import DeltaGeometry, KinematicsError, inverse_kin
from .dynamics import MAX_STEP, RotorConfig
from .presense import ObjectPrior, UnknownLabel, load_catalog, prior_for
from .spatial import ConfigError, as_floats, box_inertia, cylinder_inertia, inertia_rows


def _table(where: str, rows, columns: str) -> tuple:
    """Table rows as float tuples ``(t, (x, y, z), *scalars)`` in time order.
    Each row holds exactly the ``columns`` named, all finite, at a distinct
    time: a NaN time would sort anywhere, and a NaN wind start switches off
    every later row."""
    out = []
    for row in rows:
        try:
            t, xyz, *rest = row
            t, xyz, rest = float(t), tuple(map(float, xyz)), tuple(map(float, rest))
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: row {row!r} is not {columns}") from None
        text = " ".join(f"{v:g}" for v in (t, *xyz, *rest))
        if len(xyz) != 3 or 4 + len(rest) != len(columns.split()):
            raise ConfigError(f"{where}: row {text!r} is not {columns}")
        if not all(map(math.isfinite, (t, *xyz, *rest))):
            raise ConfigError(f"{where}: row {text!r} has a non-finite number")
        out.append((t, xyz, *rest))
    times = [row[0] for row in out]
    if len(set(times)) != len(times):
        raise ConfigError(f"{where}: duplicate timestamps")
    return tuple(sorted(out, key=lambda row: row[0]))


MODES = ("baseline", "iags", "iags+dob", "pre-only", "dob-only")

# iags+dob is accepted as an alias of the canonical full pipeline
_MODE_ALIASES = {"iags+dob": "iags"}


@dataclass(frozen=True)
class VehicleConfig:
    mass: float = 1.379
    j_a: tuple = ((9.2e-3, 0.0, 0.0), (0.0, 10.5e-3, 0.0), (0.0, 0.0, 14.7e-3))
    p_b: tuple = (0.0, 0.0, 0.03)
    rotor: RotorConfig = field(default_factory=RotorConfig.x_config)
    accel_noise: float = 0.02
    gyro_noise: float = 0.002

    def __post_init__(self):
        as_floats([self.mass], 1, "[vehicle] mass", "positive")
        as_floats([self.accel_noise, self.gyro_noise], 2, "[vehicle] accel_noise, gyro_noise",
                  "non-negative")
        object.__setattr__(self, "p_b", as_floats(self.p_b, 3, "[vehicle] p_b"))
        object.__setattr__(self, "j_a", inertia_rows(self.j_a, "[vehicle] inertia"))


@dataclass(frozen=True)
class ArmConfig:
    geom: DeltaGeometry = field(default_factory=DeltaGeometry)
    k_theta: tuple = (20.0, 20.0, 20.0)
    rate_limit: float = 6.0
    home: tuple = (0.0, 0.0, -0.16)
    waypoints: tuple = ()  # ((t, xyz), ...)

    def __post_init__(self):
        # the servo loop's float clamps rely on these, so they are checked once here
        object.__setattr__(self, "k_theta", as_floats(self.k_theta, 3, "[arm] k_theta",
                                                      "non-negative"))
        if not self.rate_limit >= 0.0:
            raise ConfigError("[arm] servo_rate_limit must be non-negative, "
                              f"got {self.rate_limit}")
        object.__setattr__(self, "home", as_floats(self.home, 3, "[arm] home"))
        try:  # the arm starts at home
            inverse_kin(self.geom, self.home)
        except KinematicsError as exc:
            raise ConfigError(f"[arm] home {list(self.home)} is out of reach: {exc}") from None
        object.__setattr__(self, "waypoints",
                           _table("[arm] waypoints", self.waypoints, "t x y z"))


def _check_prior_keys(ignored: list):
    if ignored:
        raise ConfigError(f"[object] prior_rho is not set, so {' and '.join(ignored)} "
                          "would be ignored for the catalog prior of the label")


@dataclass(frozen=True)
class ObjectConfig:
    true_mass: float
    label: str | None = None
    shape: str = "box"  # box | cylinder
    # box: lx ly lz; cylinder: d d h (axis vertical)
    dims: tuple = (0.1, 0.1, 0.1)
    true_inertia: tuple | None = None  # about CoM, grasped orientation
    grasp_time: float = 1.0
    # inline prior, used instead of the catalog entry of the label when prior_rho is
    # set; prior_beta and prior_alpha other than these defaults need prior_rho
    prior_beta: float = 1.0
    prior_alpha: tuple = (1.0, 1.0, 1.0)
    prior_rho: float | None = None
    # derived from the fields above when built: ``true_inertia``, or else that of
    # the solid shape of ``dims`` and ``true_mass``; and the inline prior, if any
    # (a ScenarioConfig sets the catalog prior of the label on its own copy)
    inertia: tuple = field(init=False, repr=False, compare=False)
    prior: ObjectPrior | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        as_floats([self.true_mass], 1, "[object] true_mass", "positive")
        as_floats([self.grasp_time], 1, "[object] grasp_time")
        if not self.label and self.prior_rho is None:
            raise ConfigError("[object] needs a label or an inline prior_*")
        if self.shape not in ("box", "cylinder"):
            raise ConfigError(f"[object] unknown shape {self.shape!r}")
        object.__setattr__(self, "dims", as_floats(self.dims, 3, "[object] dims", "positive"))
        if self.true_inertia is not None:
            object.__setattr__(self, "true_inertia",
                               inertia_rows(self.true_inertia, "[object] true_inertia"))
        solid = (box_inertia(self.true_mass, self.dims) if self.shape == "box"
                 else cylinder_inertia(self.true_mass, 0.5 * self.dims[0], self.dims[2]))
        object.__setattr__(self, "inertia",
                           self.true_inertia or inertia_rows(solid, "[object] inertia"))
        object.__setattr__(self, "prior_alpha",
                           as_floats(self.prior_alpha, 3, "[object] prior_alpha"))
        _check_prior_keys([key for key in ("prior_beta", "prior_alpha") if self.prior_rho
                           is None and getattr(self, key) != getattr(ObjectConfig, key)])
        if self.prior_rho is not None:
            try:
                object.__setattr__(self, "prior", ObjectPrior(
                    label=self.label or "inline", beta=self.prior_beta,
                    alpha=self.prior_alpha, rho=self.prior_rho))
            except ValueError as exc:
                raise ConfigError(f"[object] inline prior: {exc}") from None


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
            as_floats([getattr(self, name)], 1, f"[estimation] {name}", "positive")
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
    trajectory: tuple = ((0.0, (0.0, 0.0, 1.0), 0.0),)  # ((t, xyz, yaw), ...)
    wind: tuple = ()  # ((t, fxyz), ...), piecewise constant from each t

    def __post_init__(self):
        object.__setattr__(self, "mode", _MODE_ALIASES.get(self.mode, self.mode))
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "trajectory",
                           _table("[trajectory] waypoints", self.trajectory, "t x y z yaw"))
        if not self.trajectory:
            raise ConfigError("[trajectory] waypoints needs at least one row")
        object.__setattr__(self, "wind", _table("[disturbances] wind", self.wind, "t fx fy fz"))
        if not (0.0 < self.duration < math.inf and 0.0 < self.sim_dt < math.inf):
            raise ConfigError("duration and sim_dt must be positive and finite")
        if self.sim_dt > MAX_STEP:  # the physics step's own limit, named here by its key
            raise ConfigError(f"[rates] sim_dt must be at most {MAX_STEP:g} s, "
                              f"got {self.sim_dt:g}")
        if not 0.0 <= self.eval_start < math.inf:
            raise ConfigError(f"[run] eval_start must be finite and >= 0, got {self.eval_start}")
        as_floats([self.g], 1, "[vehicle] g", "positive")
        if self.obj is not None and self.obj.prior_rho is None:  # in every mode
            label, path = self.obj.label, self.est.catalog
            where = f"catalog {path!r}" if path else "the shipped catalog"
            try:
                prior = prior_for(label, load_catalog(path))
            except UnknownLabel:
                raise ConfigError(f"[object] label {label!r} is not in {where}") from None
            except (OSError, ValueError) as exc:
                raise ConfigError(f"[estimation] {where}, read for [object] label {label!r}: "
                                  f"{exc}") from None
            object.__setattr__(self, "obj", copy.copy(self.obj))  # it may sit in other configs
            object.__setattr__(self.obj, "prior", prior)
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


def _floats(text: str) -> list:
    return [float(v) for v in text.split()]


def _mat3(text: str) -> np.ndarray:
    vals = _floats(text)
    if len(vals) == 3:
        return np.diag(vals)
    if len(vals) == 9:
        return np.array(vals).reshape(3, 3)
    raise ValueError("expected 3 (diagonal) or 9 (row-major) numbers")


def _rows(text: str) -> list:
    """Table rows, one a line, as [t, [x, y, z], *rest]; the config checks their widths."""
    return [[r[0], r[1:4], *r[4:]] for r in map(_floats, text.splitlines()) if r]


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
        **_fields("vehicle", mass=float, p_b=_floats, accel_noise=float, gyro_noise=float),
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
        **_fields("arm", k_theta=_floats, home=_floats, waypoints=_rows),
        "servo_rate_limit": ("arm", "rate_limit", float),
    },
    "gains": _fields("gains", k_pos=_floats, k_vel=_floats, k_att=_floats, rate_kp=_floats,
                     rate_ki=_floats, rate_kd=_floats, d_lpf_hz=float, i_limit=float),
    "estimation": _fields("est", grasp_threshold=float, grasp_persistence=float,
                          dob_c=float, force_lpf_hz=float, cloud_points=int,
                          suction_pad=float, catalog=str),
    "object": _fields("obj", label=str, shape=str, dims=_floats, true_mass=float,
                      true_inertia=_mat3, grasp_time=float, prior_beta=float,
                      prior_alpha=_floats, prior_rho=float),
    "trajectory": {"waypoints": ("scenario", "trajectory", _rows)},
    "disturbances": {"wind": ("scenario", "wind", _rows)},
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

    # written without prior_rho, they are refused even at the values ObjectConfig
    # cannot tell apart from its defaults
    obj = kw["obj"]
    _check_prior_keys([key for key in ("prior_beta", "prior_alpha")
                       if key in obj and "prior_rho" not in obj])
    geom = kw["geom"]
    lo, hi = DeltaGeometry.joint_limits
    geom["joint_limits"] = (geom.pop("theta_min", lo), geom.pop("theta_max", hi))
    try:
        return ScenarioConfig(
            vehicle=VehicleConfig(rotor=RotorConfig.x_config(**kw["rotor"]), **kw["vehicle"]),
            arm=ArmConfig(geom=DeltaGeometry(**geom), **kw["arm"]),
            obj=ObjectConfig(**kw["obj"]) if cp.has_section("object") else None,
            gains=Gains(**kw["gains"]), est=EstimationConfig(**kw["est"]), **kw["scenario"])
    except (ValueError, TypeError) as exc:  # a ConfigError too, keeping its message
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
