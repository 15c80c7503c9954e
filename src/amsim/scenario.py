"""Multirate scenario engine: physics at the sim step, controller at 400 Hz,
observer and servos at 100 Hz, all driven from one seeded RNG so a run is
bit-reproducible."""
from __future__ import annotations

import bisect
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from . import adaptation, delta, presense
from .adaptation import DobState, GraspDetector, TotalInertia
from .config import ScenarioConfig
from .controller import (RateLoop, allocation, attitude_loop, iags_gain, mixer,
                         position_loop)
from .dynamics import (Environment, NonFinite, VehicleState, motor_lag_step,
                       rotor_wrench, step_rk4, torque_matrix)
from .spatial import InertialParams, inverse3, quat_to_rot

COLUMNS = (
    ["t",
     "px", "py", "pz", "vx", "vy", "vz", "qw", "qx", "qy", "qz", "wx", "wy", "wz",
     "px_des", "py_des", "pz_des", "vx_des", "vy_des", "vz_des",
     "qw_des", "qx_des", "qy_des", "qz_des", "wx_des", "wy_des", "wz_des",
     "thrust_des", "taux_des", "tauy_des", "tauz_des",
     "rotor1", "rotor2", "rotor3", "rotor4",
     "theta1", "theta2", "theta3",
     "m_obj_hat", "m_t_hat", "ctx_hat", "cty_hat", "ctz_hat",
     "jtx_hat", "jty_hat", "jtz_hat", "kk_x", "kk_y", "kk_z",
     "m_t_true", "ctx_true", "cty_true", "ctz_true",
     "jtx_true", "jty_true", "jtz_true",
     "fext_x", "fext_y", "fext_z", "attached", "latched"]
)


# rows per block of RunLog.to_csv: small enough that the text of a block
# adds little to the resident memory of a full-length log
CSV_BLOCK_ROWS = 250


class MismatchedRuns(ValueError):
    """Logs being compared were not produced from the same trajectory/seed."""


@dataclass
class RunLog:
    names: list
    data: np.ndarray
    events: dict = field(default_factory=dict)
    config: ScenarioConfig | None = None

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.names.index(name)]

    def columns(self, *names) -> np.ndarray:
        idx = [self.names.index(n) for n in names]
        return self.data[:, idx]

    def to_csv(self, path):
        """Write every value as ``repr(float(v))``, which reads back exactly.

        Logs repeat most values (slow-rate and constant columns), so each
        block of rows formats each distinct bit pattern once; comparing bits
        keeps -0.0, NaN and the infinities apart. The rows also go to the
        sidecar ``path + ".npy"``, followed by the SHA-256 of the CSV bytes.
        """
        path = os.fspath(path)
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        digest = hashlib.sha256()
        with open(path, "wb") as fh:
            def put(text):
                chunk = text.encode()
                fh.write(chunk)
                digest.update(chunk)
            put(",".join(self.names) + "\n")
            for start in range(0, data.shape[0], CSV_BLOCK_ROWS):
                block = data[start:start + CSV_BLOCK_ROWS]
                bits, where = np.unique(block.view(np.int64), return_inverse=True)
                text = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                                dtype=object)[where.reshape(block.shape)]
                put("".join(",".join(row) + "\n" for row in text.tolist()))
        if np.isnan(data).any():  # store the NaN that np.loadtxt returns for "nan"
            data = np.where(np.isnan(data), np.nan, data)
        with open(path + ".npy", "wb") as fh:
            np.lib.format.write_array(fh, data, allow_pickle=False)
            fh.write(digest.digest())

    @classmethod
    def from_csv(cls, path) -> "RunLog":
        """Read a log, from its sidecar if that matches; ``events["csv_sidecar"]`` says."""
        path = os.fspath(path)
        with open(path, "r", encoding="utf-8") as fh:
            names = fh.readline().strip().split(",")
            empty = not fh.readline()
        data, outcome = _read_sidecar(path, len(names))
        if data is None:
            data = (np.empty((0, len(names))) if empty else
                    np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
        if data.shape[1] != len(names):
            raise ValueError(f"{path}: {data.shape[1]} values a row, {len(names)} names")
        return cls(names=names, data=data, events={"csv_sidecar": outcome})


def _read_sidecar(path: str, n_cols: int):
    """(rows, "hit") from the sidecar if it matches the CSV, else (None, the reason)."""
    if not os.path.exists(path + ".npy"):
        return None, "absent"
    try:
        with open(path + ".npy", "rb") as fh:
            data = np.lib.format.read_array(fh, allow_pickle=False)
            stored = fh.read(33)
    except (OSError, ValueError, EOFError):
        return None, "unreadable"
    if data.dtype != "<f8" or data.shape[1:] != (n_cols,) or len(stored) != 32:
        return None, "unreadable"
    digest = hashlib.sha256()
    with open(path, "rb") as csv:
        for chunk in iter(lambda: csv.read(1 << 20), b""):
            digest.update(chunk)
    return (data, "hit") if digest.digest() == stored else (None, "stale")


class Trajectory:
    """Timed waypoints joined by minimum-jerk segments; holds at the ends."""

    def __init__(self, waypoints):
        # rows: (t, pos3[, extra scalar]); kept as floats for eval at every tick
        self.times = [float(w[0]) for w in waypoints]
        if any(t1 <= t0 for t0, t1 in zip(self.times, self.times[1:])):
            raise ValueError("waypoint times must be strictly increasing")
        self.points = [tuple(float(v) for v in w[1]) for w in waypoints]
        self.extras = [float(w[2]) if len(w) > 2 else 0.0 for w in waypoints]

    @staticmethod
    def _smooth(tau: float):
        s = tau ** 3 * (10.0 - 15.0 * tau + 6.0 * tau * tau)
        ds = 30.0 * tau ** 2 * (1.0 - 2.0 * tau + tau * tau)
        dds = 60.0 * tau * (1.0 - 3.0 * tau + 2.0 * tau * tau)
        return s, ds, dds

    def eval(self, t: float):
        """Returns (pos, vel, acc, extra) at time t: three 3-tuples and a float."""
        times = self.times
        if t <= times[0]:
            return self.points[0], (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), self.extras[0]
        if t >= times[-1]:
            return self.points[-1], (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), self.extras[-1]
        k = bisect.bisect_right(times, t) - 1
        t0, p0 = times[k], self.points[k]
        span = times[k + 1] - t0
        dp = [b - a for a, b in zip(p0, self.points[k + 1])]
        s, ds, dds = self._smooth((t - t0) / span)
        kv, ka = ds / span, dds / span ** 2
        extra = self.extras[k] + s * (self.extras[k + 1] - self.extras[k])
        return (tuple(a + s * d for a, d in zip(p0, dp)), tuple(kv * d for d in dp),
                tuple(ka * d for d in dp), extra)


def _presense_object(cfg: ScenarioConfig, rng: np.random.Generator):
    """Synthesize a cloud of the true object shape, fit it, and apply the prior.

    Returns (mass_tilde, moi_tilde in arm-frame axes, grasp_offset); the
    prior body is validated here, once, and its inertia comes back
    symmetrized.
    """
    obj = cfg.obj
    n = cfg.est.cloud_points
    if obj.shape == "cylinder":
        cloud = presense.sample_cylinder_cloud(obj.dims[0], obj.dims[2], n, rng)
    else:
        cloud = presense.sample_box_cloud(obj.dims, n, rng)
    box = presense.fit_obb(cloud)
    if obj.prior_rho is not None:
        prior = presense.ObjectPrior(label=obj.label or "inline", beta=obj.prior_beta,
                                     alpha=obj.prior_alpha, rho=obj.prior_rho)
    else:
        catalog = presense.load_catalog(cfg.est.catalog)
        prior = presense.prior_for(obj.label, catalog)
    est = presense.estimate_inertia(box, prior, pad_height=cfg.est.suction_pad)
    moi_world = box.rotation @ est.moi_tilde @ box.rotation.T
    prior_body = InertialParams(est.mass_tilde, np.zeros(3), moi_world)
    return prior_body.mass, prior_body.inertia_about_com, est.grasp_offset


def run_scenario(cfg: ScenarioConfig) -> RunLog:
    """Run one scenario to completion and return the full-rate log.

    Raises NonFinite (annotated with the simulation time) if the state
    diverges.
    """
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.sim_dt
    n_steps = int(round(cfg.duration / dt))
    noise = rng.standard_normal((n_steps, 6))

    veh = cfg.vehicle
    rotor = veh.rotor
    geom = cfg.arm.geom
    g = cfg.g
    env = Environment(g=g, wind=cfg.wind, accel_noise=veh.accel_noise,
                      gyro_noise=veh.gyro_noise)
    accel_noise, gyro_noise = env.accel_noise, env.gyro_noise
    k_att, k_theta = cfg.gains.k_att.tolist(), cfg.arm.k_theta.tolist()
    am = InertialParams(veh.mass, veh.p_b, veh.j_a)
    am_com, am_j = am.com.tolist(), am.inertia_about_com.ravel().tolist()
    j_a = veh.j_a

    every_ctrl = cfg.steps_per(cfg.control_hz)
    every_dob = cfg.steps_per(cfg.dob_hz)
    every_servo = cfg.steps_per(cfg.servo_hz)
    ctrl_dt = dt * every_ctrl
    dob_dt = dt * every_dob
    servo_dt = dt * every_servo

    traj = Trajectory(cfg.trajectory)
    arm_wps = cfg.arm.waypoints or [(0.0, cfg.arm.home)]
    arm_traj = Trajectory(arm_wps)

    mode = cfg.mode
    adapt = mode != "baseline" and cfg.obj is not None
    use_prior = mode in ("iags", "pre-only") and cfg.obj is not None
    use_dob = mode in ("iags", "dob-only") and cfg.obj is not None

    m_tilde = j_tilde = offset_est = None
    if use_prior:
        m_tilde, j_tilde, offset_est = _presense_object(cfg, rng)
    elif use_dob:
        # no vision prior: point-mass payload assumed right below the pad
        j_tilde = np.eye(3) * 1e-8
        offset_est = np.array([0.0, 0.0, -cfg.est.suction_pad])

    obj = cfg.obj
    offset_true = j_obj_true = None
    if obj is not None:
        offset_true = presense.top_grasp_offset(obj.dims[2], cfg.est.suction_pad)
        j_obj_true = InertialParams(obj.true_mass, np.zeros(3),
                                    obj.inertia).inertia_about_com.reshape(9).tolist()

    joints = delta.JointState(delta.inverse_kin(geom, cfg.arm.home), (0.0, 0.0, 0.0))
    p0 = traj.eval(0.0)[0]
    state = VehicleState.at_rest(p0)
    thr = t_cmd = [am.mass * g / 4.0] * 4  # hover trim

    rate_ctl = RateLoop(cfg.gains)
    detector = GraspDetector(cfg.est.grasp_threshold, cfg.est.grasp_persistence)
    dob = DobState()
    det_filt = None
    det_alpha = adaptation.lowpass_alpha(cfg.est.force_lpf_hz, dob_dt)

    bare = TotalInertia(am.mass, am_com, am_j)
    est_tot = bare
    kk = [1.0, 1.0, 1.0]
    alloc = allocation(rotor, None)
    attached = False
    latched = False
    m_obj = 0.0  # the logged payload mass estimate
    theta_cols = None  # the joint angles the bodies were last built for

    events = {"attach_time": None, "latch_time": None, "control_ticks": 0,
              "dob_ticks": 0, "servo_ticks": 0, "freefall_ticks": 0,
              "infeasible_ticks": 0, "kin_fallbacks": 0, "m_tilde": m_tilde}

    rows = np.empty((n_steps, len(COLUMNS)))

    def body_cols(tot):
        j = tot.j_t_hat
        return [tot.m_t_hat, *tot.c_t, j[0], j[4], j[8]]

    # the log row is joined from column slices that are rebuilt where their
    # values change; tick 0 is a control, observer and servo tick
    est_cols = body_cols(bare) + kk

    # the true body and what the physics step derives from it; they change
    # only when the payload attaches or the arm moves
    truth = truth_j = truth_inv = truth_tmap = truth_cols = None

    def refresh_truth(tot):
        nonlocal truth, truth_j, truth_inv, truth_tmap, truth_cols
        truth = tot
        truth_j = tot.j_t_hat
        truth_inv = inverse3(truth_j)
        truth_tmap = torque_matrix(rotor, [c - b for c, b in zip(tot.c_t, am_com)])
        truth_cols = body_cols(tot)

    def attached_truth():
        return adaptation.update_total(am.mass, am_j, am_com, obj.true_mass, j_obj_true,
                                       offset_true, joints.theta, geom)

    refresh_truth(bare)

    # the estimated body, its rate-loop gain and its allocation: the first
    # latched control tick builds them, and later ones rebuild them only
    # after the observer (dob.m_hat) or the servos (joints.theta) mark them
    # stale
    est_stale = True

    def refresh_estimate():
        nonlocal est_tot, kk, alloc, est_stale, est_cols
        if use_dob and use_prior:
            m_o = dob.m_hat
            j_o = adaptation.rescale_moi(j_tilde, m_tilde, m_o)
        elif use_prior:
            m_o, j_o = m_tilde, j_tilde
        else:
            m_o, j_o = dob.m_hat, j_tilde
        est_tot = adaptation.update_total(am.mass, am_j, am_com, m_o, j_o, offset_est,
                                          joints.theta, geom)
        kk = np.diag(iags_gain(j_a, est_tot.j_t_hat)).tolist()
        alloc = allocation(rotor, [c - b for c, b in zip(est_tot.c_t, am_com)])
        est_cols = body_cols(est_tot) + kk
        est_stale = False

    try:
        for k in range(n_steps):
            t = k * dt

            if obj is not None and not attached and t >= obj.grasp_time - 1e-12:
                attached = True
                events["attach_time"] = t
                refresh_truth(attached_truth())

            wind = env.wind_at(t)
            ctrl_tick = k % every_ctrl == 0
            dob_tick = k % every_dob == 0
            if ctrl_tick or dob_tick:  # the only ticks that read the sensors
                y = state.y
                R = quat_to_rot(y[6:10], flat=True)
                thrust = thr[0] + thr[1] + thr[2] + thr[3]  # along body z
                m_t = truth.m_t_hat
                noise_k = noise[k].tolist()
                acc_meas = [R[2] * thrust / m_t + wind[0] / m_t + accel_noise * noise_k[0],
                            R[5] * thrust / m_t + wind[1] / m_t + accel_noise * noise_k[1],
                            -g + R[8] * thrust / m_t + wind[2] / m_t + accel_noise * noise_k[2]]

            if dob_tick:
                events["dob_ticks"] += 1
                f_res = [R[2] * thrust - am.mass * acc_meas[0],
                         R[5] * thrust - am.mass * acc_meas[1],
                         R[8] * thrust - am.mass * acc_meas[2] - am.mass * g]
                if det_filt is None:
                    det_filt = f_res
                else:
                    det_filt = [d + det_alpha * (f - d) for d, f in zip(det_filt, f_res)]
                detector, now_latched = adaptation.detect_grasp(detector, det_filt[2], dob_dt)
                if now_latched and not latched:
                    latched = True
                    events["latch_time"] = t
                    if use_dob:
                        dob = DobState(m_hat=(m_tilde if use_prior else 0.0))
                if latched and use_dob:
                    dob = adaptation.dob_step(dob, acc_meas, R, (0.0, 0.0, thrust), am.mass,
                                              cfg.est.dob_c, dob_dt, g=g,
                                              force_lpf_hz=cfg.est.force_lpf_hz)
                    est_stale = True
                if latched:
                    m_obj = dob.m_hat if use_dob else (m_tilde if use_prior else 0.0)

            if k % every_servo == 0:
                events["servo_ticks"] += 1
                tgt_p, tgt_v, _, _ = arm_traj.eval(t)
                try:
                    _, thd_des = delta.joint_command(geom, tgt_p, tgt_v, joints, k_theta)
                except delta.KinematicsError:
                    events["kin_fallbacks"] += 1
                    thd_des = (0.0, 0.0, 0.0)
                joints = delta.servo_step(geom, joints, thd_des, servo_dt,
                                          cfg.arm.rate_limit)
                if joints.theta != theta_cols:  # the arm moved
                    theta_cols = joints.theta
                    est_stale = True
                    if attached:
                        refresh_truth(attached_truth())

            if ctrl_tick:
                events["control_ticks"] += 1
                if est_stale and latched and adapt:
                    refresh_estimate()
                p_des, v_des, a_ff, yaw = traj.eval(t)
                thrust_des, q_des, freefall = position_loop(
                    p_des, v_des, y[0:3], y[3:6], y[6:10], est_tot.m_t_hat,
                    cfg.gains, a_ff=a_ff, yaw_des=yaw, g=g, R=R)
                if freefall:
                    events["freefall_ticks"] += 1
                w_des = attitude_loop(q_des, y[6:10], k_att, R=R)
                w_meas = [w + gyro_noise * e for w, e in zip(y[10:13], noise_k[3:6])]
                tau_des = rate_ctl.step(w_des, w_meas, kk, ctrl_dt)
                t_cmd, infeasible = mixer(thrust_des, tau_des, rotor, alloc=alloc)
                if infeasible:
                    events["infeasible_ticks"] += 1
                ctrl_cols = [*p_des, *v_des, *q_des, *w_des, thrust_des, *tau_des]

            rows[k] = [t, *state.y, *ctrl_cols, *thr, *theta_cols, m_obj, *est_cols,
                       *truth_cols, *det_filt, 1.0 if attached else 0.0,
                       1.0 if latched else 0.0]

            thr = motor_lag_step(t_cmd, thr, rotor, dt)
            force_b, torque_b = rotor_wrench(thr, rotor, tmap=truth_tmap)
            state = step_rk4(state, force_b, torque_b, truth.m_t_hat,
                             truth_j, dt, g=g, f_ext_w=wind, j_inv=truth_inv)
    except NonFinite as exc:
        raise NonFinite(f"{exc} at t={k * dt:.4f} s") from exc

    return RunLog(names=list(COLUMNS), data=rows, events=events, config=cfg)
