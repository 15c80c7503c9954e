"""Multirate scenario engine: physics at the sim step, controller at 400 Hz,
observer and servos at 100 Hz, all driven from one seeded RNG so a run is
bit-reproducible."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adaptation, delta, presense
from .adaptation import DobState, GraspDetector, TotalInertia
from .config import ScenarioConfig
from .controller import (RateLoop, allocation, attitude_loop, iags_gain, mixer,
                         position_loop)
from .dynamics import (Environment, NonFinite, VehicleState, motor_lag_step,
                       rotor_wrench, step_rk4, torque_matrix)
from .spatial import E3, InertialParams, inverse3, quat_to_rot

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

    def to_csv(self, path: str):
        """Write every value as ``repr(float(v))``, which reads back exactly.

        Logs repeat most values (slow-rate and constant columns), so each
        block of rows formats each distinct bit pattern once; comparing bits
        keeps -0.0, NaN and the infinities apart.
        """
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.names) + "\n")
            for start in range(0, data.shape[0], CSV_BLOCK_ROWS):
                block = data[start:start + CSV_BLOCK_ROWS]
                bits, where = np.unique(block.view(np.int64), return_inverse=True)
                text = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                                dtype=object)[where.reshape(block.shape)]
                fh.write("".join(",".join(row) + "\n" for row in text.tolist()))

    @classmethod
    def from_csv(cls, path: str) -> "RunLog":
        with open(path, "r", encoding="utf-8") as fh:
            names = fh.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(names=names, data=data)


class Trajectory:
    """Timed waypoints joined by minimum-jerk segments; holds at the ends."""

    def __init__(self, waypoints):
        # rows: (t, pos3[, extra scalar])
        self.times = np.array([w[0] for w in waypoints])
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0.0):
            raise ValueError("waypoint times must be strictly increasing")
        self.points = np.array([np.asarray(w[1], dtype=float) for w in waypoints])
        self.extras = np.array([float(w[2]) if len(w) > 2 else 0.0 for w in waypoints])

    @staticmethod
    def _smooth(tau: float):
        s = tau ** 3 * (10.0 - 15.0 * tau + 6.0 * tau * tau)
        ds = 30.0 * tau ** 2 * (1.0 - 2.0 * tau + tau * tau)
        dds = 60.0 * tau * (1.0 - 3.0 * tau + 2.0 * tau * tau)
        return s, ds, dds

    def eval(self, t: float):
        """Returns (pos, vel, acc, extra) at time t."""
        if t <= self.times[0] or len(self.times) == 1:
            return self.points[0].copy(), np.zeros(3), np.zeros(3), float(self.extras[0])
        if t >= self.times[-1]:
            return self.points[-1].copy(), np.zeros(3), np.zeros(3), float(self.extras[-1])
        k = int(np.searchsorted(self.times, t, side="right") - 1)
        t0, t1 = self.times[k], self.times[k + 1]
        span = t1 - t0
        dp = self.points[k + 1] - self.points[k]
        s, ds, dds = self._smooth((t - t0) / span)
        pos = self.points[k] + s * dp
        vel = (ds / span) * dp
        acc = (dds / span ** 2) * dp
        extra = self.extras[k] + s * (self.extras[k + 1] - self.extras[k])
        return pos, vel, acc, extra


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
    if obj.prior is not None:
        beta, alpha, rho = obj.prior
        prior = presense.ObjectPrior(label=obj.label or "inline", beta=beta,
                                     alpha=alpha, rho=rho)
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
    am = InertialParams(veh.mass, veh.p_b, veh.j_a)
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
        offset_true = np.array([0.0, 0.0, -(0.5 * obj.dims[2] + cfg.est.suction_pad)])
        j_obj_true = InertialParams(obj.true_mass, np.zeros(3),
                                    obj.true_inertia).inertia_about_com

    joints = delta.JointState(delta.inverse_kin(geom, cfg.arm.home), np.zeros(3))
    p0 = traj.eval(0.0)[0]
    state = VehicleState.at_rest(p0)
    thr = t_cmd = [am.mass * g / 4.0] * 4  # hover trim

    rate_ctl = RateLoop(cfg.gains)
    detector = GraspDetector(cfg.est.grasp_threshold, cfg.est.grasp_persistence)
    dob = DobState()
    det_filt = None
    det_alpha = adaptation.lowpass_alpha(cfg.est.force_lpf_hz, dob_dt)

    bare = TotalInertia(am.mass, am.com.copy(), am.inertia_about_com.copy())
    est_tot = bare
    kk = np.ones(3)
    alloc = allocation(rotor, bare.c_t - veh.p_b)
    attached = False
    latched = False
    m_obj = 0.0  # the logged payload mass estimate
    theta_cols = None  # the joint angles the bodies were last built for

    events = {"attach_time": None, "latch_time": None, "control_ticks": 0,
              "dob_ticks": 0, "servo_ticks": 0, "freefall_ticks": 0,
              "infeasible_ticks": 0, "kin_fallbacks": 0, "m_tilde": m_tilde}

    rows = np.empty((n_steps, len(COLUMNS)))

    def body_cols(tot):
        return [tot.m_t_hat, *tot.c_t.tolist(), *np.diag(tot.j_t_hat).tolist()]

    # the log row is joined from column slices that are rebuilt where their
    # values change; tick 0 is a control, observer and servo tick
    est_cols = body_cols(bare) + kk.tolist()

    # the true body and what the physics step derives from it; they change
    # only when the payload attaches or the arm moves
    truth = truth_j = truth_inv = truth_tmap = truth_cols = None

    def refresh_truth(tot):
        nonlocal truth, truth_j, truth_inv, truth_tmap, truth_cols
        truth = tot
        truth_j = tot.j_t_hat.reshape(9).tolist()
        truth_inv = inverse3(truth_j)
        truth_tmap = torque_matrix(rotor, tot.c_t - veh.p_b).tolist()
        truth_cols = body_cols(tot)

    def attached_truth():
        return adaptation.update_total(am.mass, am.inertia_about_com, am.com,
                                       obj.true_mass, j_obj_true, offset_true,
                                       joints.theta, geom)

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
        est_tot = adaptation.update_total(am.mass, am.inertia_about_com, am.com,
                                          m_o, j_o, offset_est, joints.theta, geom)
        kk = np.diag(iags_gain(j_a, est_tot.j_t_hat)).copy()
        alloc = allocation(rotor, est_tot.c_t - veh.p_b)
        est_cols = body_cols(est_tot) + kk.tolist()
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
                R = quat_to_rot(state.y[6:10])
                thrust_vec_b = np.array([0.0, 0.0, thr[0] + thr[1] + thr[2] + thr[3]])
                acc_meas = (-g * E3 + (R @ thrust_vec_b) / truth.m_t_hat
                            + np.array(wind) / truth.m_t_hat
                            + env.accel_noise * noise[k, 0:3])

            if dob_tick:
                events["dob_ticks"] += 1
                f_res = R @ thrust_vec_b - am.mass * acc_meas - am.mass * g * E3
                if det_filt is None:
                    det_filt = f_res
                else:
                    det_filt = det_filt + det_alpha * (f_res - det_filt)
                f_res_cols = det_filt.tolist()
                detector, now_latched = adaptation.detect_grasp(
                    detector, float(det_filt[2]), dob_dt)
                if now_latched and not latched:
                    latched = True
                    events["latch_time"] = t
                    if use_dob:
                        dob = DobState(m_hat=(m_tilde if use_prior else 0.0))
                if latched and use_dob:
                    dob = adaptation.dob_step(dob, acc_meas, R, thrust_vec_b,
                                              am.mass, cfg.est.dob_c, dob_dt,
                                              g=g, force_lpf_hz=cfg.est.force_lpf_hz)
                    est_stale = True
                if latched:
                    m_obj = dob.m_hat if use_dob else (m_tilde if use_prior else 0.0)

            if k % every_servo == 0:
                events["servo_ticks"] += 1
                tgt_p, tgt_v, _, _ = arm_traj.eval(t)
                try:
                    _, thd_des = delta.joint_command(geom, tgt_p, tgt_v, joints,
                                                     cfg.arm.k_theta)
                except delta.KinematicsError:
                    events["kin_fallbacks"] += 1
                    thd_des = np.zeros(3)
                joints = delta.servo_step(geom, joints, thd_des, servo_dt,
                                          cfg.arm.rate_limit)
                if joints.theta.tolist() != theta_cols:  # the arm moved
                    theta_cols = joints.theta.tolist()
                    est_stale = True
                    if attached:
                        refresh_truth(attached_truth())

            if ctrl_tick:
                events["control_ticks"] += 1
                if est_stale and latched and adapt:
                    refresh_estimate()
                p_des, v_des, a_ff, yaw = traj.eval(t)
                thrust_des, q_des, freefall = position_loop(
                    p_des, v_des, state.p, state.v, state.q, est_tot.m_t_hat,
                    cfg.gains, a_ff=a_ff, yaw_des=yaw, g=g, R=R)
                if freefall:
                    events["freefall_ticks"] += 1
                w_des = attitude_loop(q_des, state.q, cfg.gains.k_att, R=R)
                w_meas = state.omega + env.gyro_noise * noise[k, 3:6]
                tau_des = rate_ctl.step(w_des, w_meas, kk, ctrl_dt)
                t_cmd, infeasible = mixer(thrust_des, tau_des, rotor, alloc=alloc)
                t_cmd = t_cmd.tolist()
                if infeasible:
                    events["infeasible_ticks"] += 1
                ctrl_cols = [*p_des.tolist(), *v_des.tolist(), *q_des.tolist(),
                             *w_des.tolist(), thrust_des, *tau_des.tolist()]

            rows[k] = [t, *state.y, *ctrl_cols, *thr, *theta_cols, m_obj, *est_cols,
                       *truth_cols, *f_res_cols, 1.0 if attached else 0.0,
                       1.0 if latched else 0.0]

            thr = motor_lag_step(t_cmd, thr, rotor, dt)
            force_b, torque_b = rotor_wrench(thr, rotor, tmap=truth_tmap)
            state = step_rk4(state, force_b, torque_b, truth.m_t_hat,
                             truth_j, dt, g=g, f_ext_w=wind, j_inv=truth_inv)
    except NonFinite as exc:
        raise NonFinite(f"{exc} at t={k * dt:.4f} s") from exc

    return RunLog(names=list(COLUMNS), data=rows, events=events, config=cfg)
