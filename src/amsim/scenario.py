"""Multirate scenario engine: physics at the sim step, controller at 400 Hz,
observer and servos at 100 Hz, all driven from one seeded RNG so a run is
bit-reproducible."""
from __future__ import annotations

import bisect
import hashlib
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from . import adaptation, delta, dynamics, presense
from .adaptation import TotalInertia
from .config import ScenarioConfig
from .controller import (RateLoop, allocation, attitude_loop, iags_gain, mixer,
                         position_loop)
# motor_lag_step and rotor_wrench are step_rk4's inline lag and wrench as functions; the
# engine calls neither, and perfbench/layers.py traces them under these names
from .dynamics import NonFinite, motor_lag_step, rotor_wrench, step_rk4, torque_matrix  # noqa: F401
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
_ROW = struct.Struct(f"{len(COLUMNS)}d")  # one log row, packed exactly into a float64 buffer


CSV_BLOCK_ROWS = 250  # rows per block of RunLog.to_csv; its caller holds one block's text
# bytes per chunk of a CSV's digest, each hashed on its own (``_csv_digest``)
CSV_CHUNK = 1 << 20


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
        keeps -0.0, NaN and the infinities apart. Children forked one a core, if
        no other thread runs, format even shares of the blocks after the first.
        """
        path = os.fspath(path)
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        def blocks(starts):  # the CSV text of the blocks of rows at ``starts``, as bytes
            for start in starts:
                block = data[start:start + CSV_BLOCK_ROWS]
                bits, where = np.unique(block.view(np.int64), return_inverse=True)
                text = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                                dtype=object)[where.reshape(block.shape)]
                yield "".join(",".join(row) + "\n" for row in text.tolist()).encode()
        starts = range(0, data.shape[0], CSV_BLOCK_ROWS)
        cores = len(os.sched_getaffinity(0)) if threading.active_count() == 1 else 1
        shares = np.array_split(starts, min(cores, len(starts)) or 1)
        fh, children = open(f"{path}.{os.getpid()}.tmp", "wb"), []  # children: (pid, read end)
        try:
            with fh:
                try:
                    for share in shares[1:]:
                        r, w = os.pipe()
                        if (pid := os.fork()) == 0:  # the child exits here, running no
                            try:                     # atexit handler, flushing no buffer
                                os.close(r)  # leaves the caller the only reader
                                with open(w, "wb") as pipe:
                                    pipe.writelines(list(blocks(share)))
                                os._exit(0)
                            finally:  # reached only on an error
                                os._exit(1)
                        os.close(w)
                        children.append((pid, r))
                    fh.write((",".join(self.names) + "\n").encode())
                    fh.writelines(blocks(shares[0]))
                    for _, r in children:  # in reads of at most CSV_CHUNK bytes
                        fh.writelines(iter(lambda: os.read(r, CSV_CHUNK), b""))
                finally:  # a child blocked on a full pipe fails once every read end is closed
                    for _, r in children:
                        os.close(r)
                    failed = [pid for pid, _ in children if os.waitpid(pid, 0)[1]]
                if failed:
                    raise OSError(f"{path}: CSV worker {failed[0]} failed; nothing written")
            os.replace(fh.name, path)
        except BaseException:
            os.unlink(fh.name)
            raise
        if np.isnan(data).any():  # store the NaN that np.loadtxt returns for "nan"
            data = np.where(np.isnan(data), np.nan, data)
        with open(path + ".npy", "wb") as fh:  # the sidecar: the rows, then the CSV's digest
            np.lib.format.write_array(fh, data, allow_pickle=False)
            fh.write(_csv_digest(path)[0])

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

    def read():
        try:
            with open(path + ".npy", "rb") as fh:
                return np.lib.format.read_array(fh, allow_pickle=False), fh.read(33)
        except (OSError, ValueError, EOFError):
            return None, b""
    digest, (data, stored) = _csv_digest(path, read)
    if data is None or data.dtype != "<f8" or data.shape[1:] != (n_cols,) or len(stored) != 32:
        return None, "unreadable"
    return (data, "hit") if digest == stored else (None, "stale")


def _csv_digest(path: str, meanwhile=lambda: None):
    """(digest, ``meanwhile()``). The digest is the SHA-256 of the file's byte length
    (8 bytes, little-endian) followed by the SHA-256 of each CSV_CHUNK bytes in turn.
    Up to one thread per core hashes chunks, read by ``os.preadv`` (both release the
    GIL); this one runs ``meanwhile`` first and joins every helper before it returns."""
    with open(path, "rb") as fh:
        fd, size = fh.fileno(), os.fstat(fh.fileno()).st_size
        hashes, errors, lock = [b""] * -(-size // CSV_CHUNK), [], threading.Lock()
        chunks = iter(range(len(hashes)))

        def hash_chunks():
            buf = memoryview(bytearray(CSV_CHUNK))
            try:
                while True:
                    with lock:
                        i = next(chunks, None)
                    if i is None:
                        return
                    got = os.preadv(fd, [buf[:size - i * CSV_CHUNK]], i * CSV_CHUNK)
                    hashes[i] = hashlib.sha256(buf[:got]).digest()
            except Exception as exc:  # raised again in the calling thread
                errors.append(exc)
        helpers = [threading.Thread(target=hash_chunks)
                   for _ in range(min(len(os.sched_getaffinity(0)), len(hashes)) - 1)]
        try:
            for helper in helpers:
                helper.start()
            result = meanwhile()
            hash_chunks()
        finally:
            for helper in helpers:
                if helper.is_alive():  # one that never started or has ended needs no join
                    helper.join()
    if errors:
        raise errors[0]
    return hashlib.sha256(size.to_bytes(8, "little") + b"".join(hashes)).digest(), result


class Trajectory:
    """Timed waypoints joined by minimum-jerk segments; holds at the ends."""

    def __init__(self, waypoints):
        # rows: (t, pos3[, extra scalar]) of floats, as a config table holds them
        self.times = [w[0] for w in waypoints]  # distinct and sorted, as the config made them
        self.points = [w[1] for w in waypoints]
        self.extras = [w[2] if len(w) > 2 else 0.0 for w in waypoints]

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

    Returns (mass_tilde, moi_tilde in arm-frame axes as nine row-major floats,
    grasp_offset as three floats); the prior body is validated here, once, and
    its inertia comes back symmetrized.
    """
    obj = cfg.obj
    n = cfg.est.cloud_points
    if obj.shape == "cylinder":
        cloud = presense.sample_cylinder_cloud(obj.dims[0], obj.dims[2], n, rng)
    else:
        cloud = presense.sample_box_cloud(obj.dims, n, rng)
    box = presense.fit_obb(cloud)
    est = presense.estimate_inertia(box, obj.prior, pad_height=cfg.est.suction_pad)
    rot = np.array(box.rotation)
    body = InertialParams(est.mass_tilde, (0.0, 0.0, 0.0), rot @ est.moi_tilde @ rot.T)
    return body.mass, [v for row in body.inertia_about_com for v in row], est.grasp_offset


def _wind_at(wind: list, t: float) -> tuple:
    """World force (N) of the piecewise-constant ``wind`` table at ``t``, as three floats."""
    out = (0.0, 0.0, 0.0)
    for t0, f in wind:
        if not t >= t0:
            break
        out = f
    return out


def _body_cols(tot: TotalInertia) -> list:
    """The logged mass, CoM and inertia diagonal of a composite body."""
    return [tot.m_t_hat, *tot.c_t, *tot.j_t_hat[::4]]


class _Run:
    """The state a run carries between ticks, with one method per rate; each stage keeps
    current the log-row columns it changes, and recomputes a derived value (servo
    command, estimated body, allocation) only when its inputs differ from the last."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg, self.g, self.dt = cfg, cfg.g, cfg.sim_dt
        rng = np.random.default_rng(cfg.seed)
        self.n_steps = int(round(cfg.duration / cfg.sim_dt))
        self.noise = rng.standard_normal((self.n_steps, 6))
        veh, obj = cfg.vehicle, cfg.obj
        self.rotor, self.geom = veh.rotor, cfg.arm.geom
        self.k_m, self.decay = veh.rotor.k_m, dynamics.motor_decay(veh.rotor.tau_m, cfg.sim_dt)
        self.k_att, self.k_theta = cfg.gains.k_att, cfg.arm.k_theta
        # the bare vehicle: mass, CoM and inertia, all checked when the config was built
        self.m_a, self.am_com, self.am_j = veh.mass, veh.p_b, [v for row in veh.j_a for v in row]
        self.am_j_inv = inverse3(self.am_j)  # what the scheduled gain divides by
        # sim steps per control, observer and servo tick
        self.every = [cfg.steps_per(hz) for hz in (cfg.control_hz, cfg.dob_hz, cfg.servo_hz)]
        self.ctrl_dt, self.dob_dt, self.servo_dt = (cfg.sim_dt * n for n in self.every)
        self.traj = Trajectory(cfg.trajectory)
        self.arm_traj = Trajectory(cfg.arm.waypoints or [(0.0, cfg.arm.home)])

        # the mode, decided once: which estimates make up the latched body
        self.use_prior = obj is not None and cfg.mode in ("iags", "pre-only")
        self.use_dob = obj is not None and cfg.mode in ("iags", "dob-only")
        # the pre-grasp estimate; with no vision prior, a point mass right below the pad
        self.m_tilde, self.j_tilde, self.offset_est = (
            _presense_object(cfg, rng) if self.use_prior
            else (None, [1e-8, 0.0, 0.0, 0.0, 1e-8, 0.0, 0.0, 0.0, 1e-8],
                  (0.0, 0.0, -cfg.est.suction_pad)))
        if obj is not None:  # the true payload: mass, inertia about its CoM, grasp offset
            self.payload = (obj.true_mass, [v for row in obj.inertia for v in row],
                            presense.top_grasp_offset(obj.dims[2], cfg.est.suction_pad))

        self.theta = delta.inverse_kin(self.geom, cfg.arm.home)  # the arm's joint angles
        # the vehicle state (p, v, q, omega), 13 floats: at rest, level, at the first waypoint
        self.y = (*self.traj.eval(0.0)[0], 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        self.thr = self.t_cmd = [self.m_a * cfg.g / 4.0] * 4  # hover trim
        self.rate_ctl = RateLoop(cfg.gains, self.ctrl_dt)
        # the filtered force residual (logged as fext_*), the detector's time above
        # threshold and the payload mass (logged); one filter, blending by det_alpha,
        # serves the detector, the observer and the log
        self.det_filt = None
        self.above = self.m_hat = 0.0
        self.det_alpha = adaptation.lowpass_alpha(cfg.est.force_lpf_hz, self.dob_dt)
        self.attached = self.latched = False

        # the estimated body and its gain, built on latched control ticks for each new
        # (m_hat, theta), and the allocation, for each new CoM x/y (torque_matrix reads
        # no more); tick 0 is a control, observer and servo tick: it sets the other columns
        self.bare = TotalInertia(self.m_a, self.am_com, self.am_j)
        self.est_tot, self.kk, self.est_key = self.bare, [1.0, 1.0, 1.0], None
        self.alloc_com, self.alloc = [0.0, 0.0], allocation(self.rotor, (0.0, 0.0, 0.0))
        self.est_cols = _body_cols(self.bare) + self.kk
        self.servo_key = self.theta_cols = None  # servo inputs; angles the truth was built for
        self.fk_theta = None  # the joint angles ``platform`` holds the position of
        self.set_truth()

        ctrl, dob, servo = (len(range(0, self.n_steps, n)) for n in self.every)
        self.events = {"attach_time": None, "latch_time": None, "control_ticks": ctrl,
                       "dob_ticks": dob, "servo_ticks": servo, "freefall_ticks": 0,
                       "infeasible_ticks": 0, "kin_fallbacks": 0, "m_tilde": self.m_tilde}

    def set_truth(self):
        """Build the true body and what the physics step derives from it; the
        payload joins it at the attach, and it changes again when the arm moves."""
        tot = self.bare
        if self.attached:
            tot = adaptation.update_total(self.m_a, self.am_j, self.am_com, *self.payload,
                                          self.platform())
        self.truth = tot
        tmap = torque_matrix(self.rotor, [c - b for c, b in zip(tot.c_t, self.am_com)])
        self.body = dynamics.rigid_body(tot.m_t_hat, tot.j_t_hat, inverse3(tot.j_t_hat), self.g,
                                        self.dt, tmap, self.k_m, self.decay)
        self.truth_cols = _body_cols(tot)

    def platform(self) -> tuple:
        """``forward_kin`` of the current joint angles, computed once per new pose."""
        if self.theta != self.fk_theta:
            self.fk_p, self.fk_theta = delta.forward_kin(self.geom, self.theta), self.theta
        return self.fk_p

    def sense(self, k: int, wind: tuple):
        """Attitude, total thrust, accelerometer and gyro, on control and observer ticks."""
        self.R = R = quat_to_rot(self.y[6:10])
        thr = self.thr
        self.thrust = thrust = thr[0] + thr[1] + thr[2] + thr[3]  # along body z
        m_t, g = self.truth.m_t_hat, self.g
        a_sig, w_sig = self.cfg.vehicle.accel_noise, self.cfg.vehicle.gyro_noise
        noise_k = self.noise[k].tolist()
        self.acc_meas = [R[2] * thrust / m_t + wind[0] / m_t + a_sig * noise_k[0],
                         R[5] * thrust / m_t + wind[1] / m_t + a_sig * noise_k[1],
                         -g + R[8] * thrust / m_t + wind[2] / m_t + a_sig * noise_k[2]]
        self.w_meas = [w + w_sig * e for w, e in zip(self.y[10:13], noise_k[3:6])]

    def observe(self, t: float):
        """Filtered force residual, grasp latch and mass observer, at the observer rate."""
        R, thrust, acc, m_a = self.R, self.thrust, self.acc_meas, self.m_a
        f_res = [R[2] * thrust - m_a * acc[0], R[5] * thrust - m_a * acc[1],
                 R[8] * thrust - m_a * acc[2] - m_a * self.g]
        if self.det_filt is None:
            self.det_filt = f_res
        else:
            alpha = self.det_alpha
            self.det_filt = [d + alpha * (f - d) for d, f in zip(self.det_filt, f_res)]
        est = self.cfg.est
        if not self.latched:
            self.above, self.latched = adaptation.detect_grasp(
                self.above, self.det_filt[2], est.grasp_threshold, est.grasp_persistence,
                self.dob_dt)
            if self.latched:
                self.events["latch_time"] = t
                self.m_hat = self.m_tilde if self.use_prior else 0.0
        if self.latched and self.use_dob:
            self.m_hat = adaptation.dob_step(self.m_hat, self.det_filt[2], m_a, est.dob_c,
                                             self.dob_dt, self.g)

    def servo(self, t: float):
        """Arm joint command and servo step, at the servo rate."""
        tgt_p, tgt_v, _, _ = self.arm_traj.eval(t)
        if (tgt_p, tgt_v, self.theta) != self.servo_key:
            self.servo_key = (tgt_p, tgt_v, self.theta)
            try:  # on a fallback, zero joint rate
                self.thd_des, self.kin_failed = delta.joint_command(
                    self.geom, tgt_p, tgt_v, self.theta, self.platform(), self.k_theta)[1], False
            except delta.KinematicsError:
                self.thd_des, self.kin_failed = (0.0, 0.0, 0.0), True
        self.events["kin_fallbacks"] += self.kin_failed
        self.theta = delta.servo_step(self.geom, self.theta, self.thd_des, self.servo_dt,
                                      self.cfg.arm.rate_limit)
        if self.theta != self.theta_cols:  # the arm moved
            self.theta_cols = self.theta
            if self.attached:
                self.set_truth()

    def control(self, t: float):
        """Estimate refresh, position/attitude/rate cascade and mixer, at the control rate."""
        key = (self.m_hat, self.theta)
        if key != self.est_key and self.latched and (self.use_prior or self.use_dob):
            self.est_key, m_o, j_o = key, key[0], self.j_tilde
            if self.use_prior:
                j_o = adaptation.rescale_moi(j_o, self.m_tilde, m_o)
            self.est_tot = est = adaptation.update_total(
                self.m_a, self.am_j, self.am_com, m_o, j_o, self.offset_est,
                None if m_o <= 0.0 else self.platform())
            self.kk = iags_gain(self.am_j, self.am_j_inv, est.j_t_hat)
            com = [c - b for c, b in zip(est.c_t, self.am_com)]
            if com[:2] != self.alloc_com:
                self.alloc_com = com[:2]
                self.alloc = allocation(self.rotor, com)
            self.est_cols = _body_cols(est) + self.kk
        y, R = self.y, self.R
        p_des, v_des, a_ff, yaw = self.traj.eval(t)
        thrust_des, q_des, freefall = position_loop(
            p_des, v_des, y[0:3], y[3:6], self.est_tot.m_t_hat, self.cfg.gains, a_ff, yaw, self.g,
            R)
        if freefall:
            self.events["freefall_ticks"] += 1
        w_des = attitude_loop(q_des, R, self.k_att)
        tau_des = self.rate_ctl.step(w_des, self.w_meas, self.kk)
        self.t_cmd, infeasible = mixer(thrust_des, tau_des, self.alloc, self.rotor.c_t)
        if infeasible:
            self.events["infeasible_ticks"] += 1
        self.ctrl_cols = [*p_des, *v_des, *q_des, *w_des, thrust_des, *tau_des]

    def physics(self, rows: np.ndarray, k0: int, k1: int, wind: tuple):
        """Motor lag, rotor wrench and one RK4 step for each step of ``[k0, k1)``, the steps up
        to the next event, logging the row of each step first."""
        dt, y, thr, cmd, body = self.dt, self.y, self.thr, self.t_cmd, self.body
        pack, size, ctrl = _ROW.pack_into, _ROW.size, self.ctrl_cols
        slow = (*self.theta_cols, self.m_hat, *self.est_cols, *self.truth_cols, *self.det_filt,
                float(self.attached), float(self.latched))  # the columns after the thrusts
        try:
            for k in range(k0, k1):
                pack(rows, k * size, k * dt, *y, *ctrl, *thr, *slow)
                y, thr = step_rk4(y, thr, cmd, wind, body)
        except NonFinite as exc:
            raise NonFinite(f"{exc} at t={k * dt:.4f} s") from exc
        self.y, self.thr = y, thr


def _first_step(t0: float, dt: float, n: int) -> int:
    """The first step ``k < n`` whose time ``k * dt`` reaches ``t0``, else ``n``."""
    return bisect.bisect_left(range(n), t0, key=lambda k: k * dt)


def run_scenario(cfg: ScenarioConfig) -> RunLog:
    """Run one scenario to completion and return the full-rate log.

    The run goes from event to event: a control, observer or servo tick, the
    payload's attach at its grasp time, or the start of a wind row. On an event
    step it runs the ``_Run`` stages due (``sense``, ``observe``, ``servo``,
    ``control``); ``physics`` then logs and integrates every step up to the next
    event. Raises NonFinite (annotated with the simulation time) if the state
    diverges.
    """
    run = _Run(cfg)
    dt, n = cfg.sim_dt, run.n_steps
    every_ctrl, every_dob, every_servo = run.every
    attach = n if cfg.obj is None else _first_step(cfg.obj.grasp_time - 1e-12, dt, n)
    starts = (_first_step(t0, dt, n) for t0, _ in cfg.wind)  # the wind rows', in order
    next_wind, wind = next(starts, n), (0.0, 0.0, 0.0)
    rows, k = np.empty((n, len(COLUMNS))), 0
    while k < n:
        t = k * dt
        if k == attach:
            run.attached = True
            run.events["attach_time"] = t
            run.set_truth()
        if k == next_wind:  # one or more wind rows begin
            wind = _wind_at(cfg.wind, t)
            while next_wind == k:
                next_wind = next(starts, n)
        ctrl_tick, dob_tick = k % every_ctrl == 0, k % every_dob == 0
        if ctrl_tick or dob_tick:  # the only ticks that read the sensors
            run.sense(k, wind)
        if dob_tick:
            run.observe(t)
        if k % every_servo == 0:
            run.servo(t)
        if ctrl_tick:
            run.control(t)
        k1 = min(n, next_wind, attach if attach > k else n, k - k % every_ctrl + every_ctrl,
                 k - k % every_dob + every_dob, k - k % every_servo + every_servo)
        run.physics(rows, k, k1, wind)
        k = k1
    return RunLog(names=list(COLUMNS), data=rows, events=run.events, config=cfg)
