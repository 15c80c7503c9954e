"""Scenario configuration: INI-style text files describing one simulated run.

Sections: [run], [rates], [vehicle], [arm], [gains], [estimation], [object]
(optional), [trajectory], [disturbances]. Vectors are whitespace-separated
numbers; waypoint/wind tables are one row per line in multiline values.
Every field has a default, so a minimal file needs only what it changes.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .controller import Gains
from .delta import DeltaGeometry
from .dynamics import RotorConfig


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


MODES = ("baseline", "iags", "iags+dob", "pre-only", "dob-only")

# iags+dob is accepted as an alias of the canonical full pipeline
_MODE_ALIASES = {"iags+dob": "iags"}


@dataclass
class VehicleConfig:
    mass: float
    j_a: np.ndarray
    p_b: np.ndarray
    rotor: RotorConfig
    accel_noise: float
    gyro_noise: float


@dataclass
class ArmConfig:
    geom: DeltaGeometry
    k_theta: np.ndarray
    rate_limit: float
    home: np.ndarray
    waypoints: list  # [(t, xyz)]

    def __post_init__(self):
        # the servo loop's float clamps rely on these, so they are checked once here
        k = np.asarray(self.k_theta, dtype=float)
        if not np.all(k >= 0.0) or not np.all(np.isfinite(k)):
            raise ConfigError("[arm] k_theta entries must be non-negative and finite")
        if not self.rate_limit >= 0.0:
            raise ConfigError("[arm] servo_rate_limit must be non-negative, "
                              f"got {self.rate_limit}")


@dataclass
class ObjectConfig:
    label: str | None
    shape: str              # box | cylinder
    dims: np.ndarray        # box: lx ly lz; cylinder: d d h (axis vertical)
    true_mass: float
    true_inertia: np.ndarray  # about CoM, grasped orientation
    grasp_time: float
    prior: tuple | None     # (beta, alpha3, rho) inline override


@dataclass
class EstimationConfig:
    grasp_threshold: float = 1.0
    grasp_persistence: float = 0.5
    dob_c: float = 10.0
    force_lpf_hz: float = 50.0
    cloud_points: int = 20000
    suction_pad: float = 0.01
    catalog: str | None = None


@dataclass
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
    vehicle: VehicleConfig = None
    arm: ArmConfig = None
    obj: ObjectConfig | None = None
    gains: Gains = field(default_factory=Gains)
    est: EstimationConfig = field(default_factory=EstimationConfig)
    trajectory: list = field(default_factory=list)  # [(t, xyz, yaw)]
    wind: list = field(default_factory=list)        # [(t, fxyz)]

    def __post_init__(self):
        if self.vehicle is None:
            self.vehicle = _default_vehicle()
        if self.arm is None:
            self.arm = _default_arm()
        if not self.trajectory:
            self.trajectory = [(0.0, np.array([0.0, 0.0, 1.0]), 0.0)]
        self.mode = _MODE_ALIASES.get(self.mode, self.mode)
        self.validate()

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if not (0.0 < self.duration < math.inf and 0.0 < self.sim_dt < math.inf):
            raise ConfigError("duration and sim_dt must be positive and finite")
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


def _default_vehicle() -> VehicleConfig:
    return VehicleConfig(
        mass=1.379,
        j_a=np.diag([9.2e-3, 10.5e-3, 14.7e-3]),
        p_b=np.array([0.0, 0.0, 0.03]),
        rotor=RotorConfig.x_config(arm_length=0.12),
        accel_noise=0.02,
        gyro_noise=0.002,
    )


def _default_arm() -> ArmConfig:
    return ArmConfig(
        geom=DeltaGeometry(),
        k_theta=np.array([20.0, 20.0, 20.0]),
        rate_limit=6.0,
        home=np.array([0.0, 0.0, -0.16]),
        waypoints=[],
    )


def _vec(text: str, n: int, where: str) -> np.ndarray:
    try:
        vals = np.array([float(v) for v in text.split()])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if vals.shape != (n,):
        raise ConfigError(f"{where}: expected {n} numbers, got {vals.size}")
    return vals


def _mat3(text: str, where: str) -> np.ndarray:
    vals = text.split()
    if len(vals) == 3:
        return np.diag([float(v) for v in vals])
    if len(vals) == 9:
        return np.array([float(v) for v in vals]).reshape(3, 3)
    raise ConfigError(f"{where}: expected 3 (diagonal) or 9 (row-major) numbers")


def _rows(text: str, n_cols: int, where: str) -> list:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        vals = [float(v) for v in line.split()]
        if len(vals) != n_cols:
            raise ConfigError(f"{where}: each row needs {n_cols} numbers")
        rows.append(vals)
    rows.sort(key=lambda r: r[0])
    times = [r[0] for r in rows]
    if len(set(times)) != len(times):
        raise ConfigError(f"{where}: duplicate timestamps")
    return rows


def _object_inertia(shape: str, dims: np.ndarray, mass: float) -> np.ndarray:
    from .spatial import box_inertia, cylinder_inertia
    if shape == "box":
        return box_inertia(mass, dims)
    if shape == "cylinder":
        return cylinder_inertia(mass, 0.5 * dims[0], dims[2])
    raise ConfigError(f"unknown object shape {shape!r}")


def parse_config(text: str, name: str = "scenario") -> ScenarioConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    def get(section, key, default=None):
        if cp.has_option(section, key):
            return cp.get(section, key)
        return default

    try:
        cfg_kwargs = dict(
            name=get("run", "name", name),
            duration=float(get("run", "duration", 5.0)),
            seed=int(get("run", "seed", 1)),
            mode=str(get("run", "mode", "iags")).strip(),
            eval_start=float(get("run", "eval_start", 0.5)),
            sim_dt=float(get("rates", "sim_dt", 5e-4)),
            control_hz=int(get("rates", "control_hz", 400)),
            dob_hz=int(get("rates", "dob_hz", 100)),
            servo_hz=int(get("rates", "servo_hz", 100)),
            g=float(get("vehicle", "g", 9.81)),
        )

        rotor = RotorConfig.x_config(
            arm_length=float(get("vehicle", "rotor_arm", 0.12)),
            rotor_height=float(get("vehicle", "rotor_height", 0.0)),
            c_t=float(get("vehicle", "c_t", 18.1712)),
            k_tau=float(get("vehicle", "k_tau", 0.0136)),
            k_m=float(get("vehicle", "k_m", 1.0)),
            tau_m=float(get("vehicle", "tau_m", 0.02)),
        )
        vehicle = VehicleConfig(
            mass=float(get("vehicle", "mass", 1.379)),
            j_a=_mat3(get("vehicle", "inertia", "9.2e-3 10.5e-3 14.7e-3"), "[vehicle] inertia"),
            p_b=_vec(get("vehicle", "p_b", "0 0 0.03"), 3, "[vehicle] p_b"),
            rotor=rotor,
            accel_noise=float(get("vehicle", "accel_noise", 0.02)),
            gyro_noise=float(get("vehicle", "gyro_noise", 0.002)),
        )

        geom = DeltaGeometry(
            base_radius=float(get("arm", "base_radius", 0.06)),
            platform_radius=float(get("arm", "platform_radius", 0.03)),
            upper_arm_len=float(get("arm", "upper_arm", 0.08)),
            forearm_len=float(get("arm", "forearm", 0.16)),
            joint_limits=(float(get("arm", "theta_min", -math.pi / 6.0)),
                          float(get("arm", "theta_max", 2.0 * math.pi / 3.0))),
        )
        arm_rows = _rows(get("arm", "waypoints", ""), 4, "[arm] waypoints")
        arm = ArmConfig(
            geom=geom,
            k_theta=_vec(get("arm", "k_theta", "20 20 20"), 3, "[arm] k_theta"),
            rate_limit=float(get("arm", "servo_rate_limit", 6.0)),
            home=_vec(get("arm", "home", "0 0 -0.16"), 3, "[arm] home"),
            waypoints=[(r[0], np.array(r[1:4])) for r in arm_rows],
        )

        gains = Gains(
            k_pos=_vec(get("gains", "k_pos", "4 4 3"), 3, "[gains] k_pos"),
            k_vel=_vec(get("gains", "k_vel", "3.5 3.4 3"), 3, "[gains] k_vel"),
            k_att=_vec(get("gains", "k_att", "6 6 3"), 3, "[gains] k_att"),
            rate_kp=_vec(get("gains", "rate_kp", "0.15 0.15 0.2"), 3, "[gains] rate_kp"),
            rate_ki=_vec(get("gains", "rate_ki", "0.2 0.2 0.1"), 3, "[gains] rate_ki"),
            rate_kd=_vec(get("gains", "rate_kd", "0.003 0.003 0.0"), 3, "[gains] rate_kd"),
            d_lpf_hz=float(get("gains", "d_lpf_hz", 40.0)),
            i_limit=float(get("gains", "i_limit", 0.3)),
        )

        est = EstimationConfig(
            grasp_threshold=float(get("estimation", "grasp_threshold", 1.0)),
            grasp_persistence=float(get("estimation", "grasp_persistence", 0.5)),
            dob_c=float(get("estimation", "dob_c", 10.0)),
            force_lpf_hz=float(get("estimation", "force_lpf_hz", 50.0)),
            cloud_points=int(get("estimation", "cloud_points", 20000)),
            suction_pad=float(get("estimation", "suction_pad", 0.01)),
            catalog=get("estimation", "catalog", None),
        )

        obj = None
        if cp.has_section("object"):
            shape = str(get("object", "shape", "box")).strip()
            dims = _vec(get("object", "dims", "0.1 0.1 0.1"), 3, "[object] dims")
            true_mass = float(get("object", "true_mass", 0.0))
            if true_mass <= 0.0:
                raise ConfigError("[object] true_mass must be positive")
            ji_text = get("object", "true_inertia", None)
            if ji_text is not None:
                j_true = _mat3(ji_text, "[object] true_inertia")
            else:
                j_true = _object_inertia(shape, dims, true_mass)
            prior = None
            if get("object", "prior_rho", None) is not None:
                prior = (float(get("object", "prior_beta", 1.0)),
                         _vec(get("object", "prior_alpha", "1 1 1"), 3,
                              "[object] prior_alpha"),
                         float(get("object", "prior_rho")))
            label = get("object", "label", None)
            if label is None and prior is None:
                raise ConfigError("[object] needs a label or an inline prior_*")
            obj = ObjectConfig(
                label=label.strip() if label else None,
                shape=shape, dims=dims, true_mass=true_mass, true_inertia=j_true,
                grasp_time=float(get("object", "grasp_time", 1.0)),
                prior=prior,
            )

        traj_rows = _rows(get("trajectory", "waypoints", "0 0 0 1 0"), 5,
                          "[trajectory] waypoints")
        trajectory = [(r[0], np.array(r[1:4]), r[4]) for r in traj_rows]
        wind_rows = _rows(get("disturbances", "wind", ""), 4, "[disturbances] wind")
        wind = [(r[0], np.array(r[1:4])) for r in wind_rows]
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    return ScenarioConfig(vehicle=vehicle, arm=arm, obj=obj, gains=gains, est=est,
                          trajectory=trajectory, wind=wind, **cfg_kwargs)


def shipped_scenarios() -> list[str]:
    root = resources.files("amsim").joinpath("data/scenarios")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_config(source: str) -> ScenarioConfig:
    """Load a scenario from a file path or a shipped scenario name."""
    import os

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
