"""The three benchmark workloads, their output checks and simulated results.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. The program is driven only through its public
functions, looked up as module attributes at call time so that the traced
run sees every call. Each operation builds its config the way ``amsim run``
does (``load_config``), with the workload seed put in place of the shipped one.
"""
from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

# hover_payload in baseline mode at its shipped seed (3); seeds 0-2 moved both
# by less than 0.01%, a wrong controller or plant moves them by far more
HOVER_REFERENCE = {"pos_rmse_mm": 1166.6185, "att_rmse_mrad": 281.3165}
HOVER_RMSE_TOL = 0.005

# workspace_kk_sweep(mass 0.4 kg, 0.2 m cube, grid_n 9): the `amsim sweep
# --workspace` defaults; deterministic, so only float reordering may move it
WORKSPACE_REFERENCE = (6.100651039002058, 5.469141862744659, 1.7909564266932554)
WORKSPACE_TOL = 1e-9
WORKSPACE_PAYLOAD = (0.4, (0.2, 0.2, 0.2))

MASS_ERR_LIMIT_PCT = 1.0      # acceptance criterion 1
CONVERGE_WINDOW_S = 2.0       # criterion 1: converged by latch + 2 s
MIN_PHASE_MARGIN_DEG = 45.0   # acceptance criterion 5


@dataclasses.dataclass
class Outcome:
    """What one operation produced; ``log``/``cfg`` describe the analysed run."""

    cfg: object
    log: object
    report: object
    converged: dict | None
    sim_s: float                     # simulated seconds run or analysed
    run_wall_s: float | None = None  # wall of run_scenario; None: whole op
    extra: dict = dataclasses.field(default_factory=dict)


def shipped_config(am, scenario: str, seed: int | None, **overrides):
    cfg = am.config.load_config(scenario)
    if seed is not None:
        overrides["seed"] = seed
    return dataclasses.replace(cfg, **overrides)


def _expected_ticks(cfg) -> dict:
    n = int(round(cfg.duration / cfg.sim_dt))
    ticks = {}
    for key, hz in (("control_ticks", cfg.control_hz), ("dob_ticks", cfg.dob_hz),
                    ("servo_ticks", cfg.servo_hz)):
        every = cfg.steps_per(hz)
        ticks[key] = (n + every - 1) // every
    # no shipped scenario reaches free-fall or mixer saturation
    ticks["freefall_ticks"] = 0
    ticks["infeasible_ticks"] = 0
    return ticks


def check_log(cfg, log, first) -> list:
    """Tick counts, finiteness, shape, and bitwise equality with the first run."""
    problems = []
    n = int(round(cfg.duration / cfg.sim_dt))
    if log.data.shape[0] != n:
        problems.append(f"log has {log.data.shape[0]} rows, expected {n}")
    if not np.all(np.isfinite(log.data)):
        problems.append("log has non-finite values")
    for key, want in _expected_ticks(cfg).items():
        got = log.events.get(key)
        if got != want:
            problems.append(f"events[{key}] = {got}, expected {want}")
    if first is not None and not np.array_equal(first.data, log.data):
        problems.append("log differs from the first run of the same seed")
    return problems


def mass_err_pct(cfg, log) -> float:
    """|m_obj_hat - true| / true at latch + 2 s, in percent (criterion 1)."""
    t = log.column("t")
    k = min(int(np.searchsorted(t, log_latch(log) + CONVERGE_WINDOW_S)), len(t) - 1)
    true = cfg.obj.true_mass
    return 100.0 * abs(float(log.column("m_obj_hat")[k]) - true) / true


def log_latch(log) -> float:
    """Latch time from the events, or from the logged flag for a CSV log."""
    latch = log.events.get("latch_time")
    if latch is not None:
        return latch
    flag = log.column("latched")
    if not flag.any():
        raise ValueError("grasp never latched")
    return float(log.column("t")[int(np.argmax(flag > 0.5))])


def converge_s(log, converged: dict) -> float:
    """Latest convergence time of mass, MoI and CoM minus the latch time.

    A channel that never converges counts as converging at the log's end.
    """
    t_end = float(log.column("t")[-1])
    latest = max(t_end if tc is None else tc for tc in converged.values())
    return latest - log_latch(log)


def check_criterion_1(cfg, log, converged) -> list:
    problems = []
    err = mass_err_pct(cfg, log)
    if not err < MASS_ERR_LIMIT_PCT:
        problems.append(f"mass error {err:.3f}% at latch + 2 s")
    deadline = log_latch(log) + CONVERGE_WINDOW_S + 1e-9
    late = {k: v for k, v in converged.items() if v is None or v > deadline}
    if late:
        problems.append(f"not converged by latch + 2 s: {late}")
    return problems


def final_loop_min_pm(am, cfg, log) -> float:
    """Worst per-axis phase margin of the rate loop the run ended with.

    Uses the last logged scheduled gain and the true total inertia, so a
    baseline run shows the margin the payload costs and an iags run the
    margin the schedule restores.
    """
    kk = log.columns("kk_x", "kk_y", "kk_z")[-1]
    j_true = log.columns("jtx_true", "jty_true", "jtz_true")[-1]
    return _min_pm(am, cfg, kk, j_true)


def _min_pm(am, cfg, kk, j_diag) -> float:
    g, rotor = cfg.gains, cfg.vehicle.rotor
    pms = []
    for axis in range(3):
        tf = am.freqdom.open_loop_tf(g.rate_kp[axis], g.rate_ki[axis], g.rate_kd[axis],
                                     k_k=float(kk[axis]), k_m=rotor.k_m,
                                     tau_m=rotor.tau_m, j=float(j_diag[axis]))
        pms.append(am.freqdom.margins(tf).phase_margin_deg)
    return min(pms)


def rmse_results(report) -> dict:
    return {"pos_rmse_mm": 1e3 * report.rmse("position"),
            "att_rmse_mrad": 1e3 * report.rmse("attitude")}


def simulated_results(out: Outcome, converged: dict, min_pm_deg: float) -> dict:
    return {**rmse_results(out.report),
            "mass_err_pct": mass_err_pct(out.cfg, out.log),
            "converge_s": converge_s(out.log, converged),
            "min_pm_deg": min_pm_deg}


class GraspIags:
    """`amsim run grasp_estimate` in iags mode, CSV log written.

    The run the Tier-1 criterion-1 gate times, and the only workload where
    presense and the 400 Hz update_total do real work.
    """

    name = "grasp_iags"
    scenario = "grasp_estimate"

    def __init__(self, am, seed, workdir):
        self.am, self.seed = am, seed
        self.csv_path = os.path.join(workdir, "grasp_estimate_iags.csv")
        self.first = None

    def op(self) -> Outcome:
        am = self.am
        cfg = shipped_config(am, self.scenario, self.seed)
        t0 = time.perf_counter()
        log = am.scenario.run_scenario(cfg)
        run_wall = time.perf_counter() - t0
        log.to_csv(self.csv_path)
        eval_start = cfg.eval_start if cfg.eval_start < cfg.duration else 0.0
        report = am.metrics.evaluate(log, eval_start=eval_start)
        converged = am.metrics.declare_convergence(log)
        return Outcome(cfg, log, report, converged, cfg.duration, run_wall)

    def check(self, out: Outcome) -> list:
        problems = check_log(out.cfg, out.log, self.first)
        problems += check_criterion_1(out.cfg, out.log, out.converged)
        with open(self.csv_path, "rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != out.log.data.shape[0] + 1:
            problems.append(f"CSV log has {lines} lines")
        if self.first is None:
            self.first = out.log
        return problems

    def results(self, out: Outcome) -> dict:
        return simulated_results(out, out.converged,
                                 final_loop_min_pm(self.am, out.cfg, out.log))


class HoverBaseline:
    """hover_payload in baseline mode, kept in memory like the test fixtures.

    The longest shipped run and the most dominated by dynamics. It bypasses
    presense, the observer, iags_gain, update_total at control rate and the
    CSV writer, so a speed-up of those should leave it unchanged.
    """

    name = "hover_baseline"
    scenario = "hover_payload"

    def __init__(self, am, seed, workdir):
        self.am, self.seed = am, seed
        self.first = None

    def op(self) -> Outcome:
        am = self.am
        cfg = shipped_config(am, self.scenario, self.seed, mode="baseline")
        t0 = time.perf_counter()
        log = am.scenario.run_scenario(cfg)
        run_wall = time.perf_counter() - t0
        report = am.metrics.evaluate(log, eval_start=cfg.eval_start)
        return Outcome(cfg, log, report, None, cfg.duration, run_wall)

    def check(self, out: Outcome) -> list:
        problems = check_log(out.cfg, out.log, self.first)
        for key, got in rmse_results(out.report).items():
            want = HOVER_REFERENCE[key]
            if not abs(got - want) <= HOVER_RMSE_TOL * want:
                problems.append(f"{key} = {got:.4f}, reference {want:.4f}")
        if self.first is None:
            self.first = out.log
        return problems

    def results(self, out: Outcome) -> dict:
        return simulated_results(out, self.am.metrics.declare_convergence(out.log),
                                 final_loop_min_pm(self.am, out.cfg, out.log))


class OfflineAnalysis:
    """Post-run analysis of an iags and a baseline CSV log of one scenario.

    Exercises freqdom and the CSV reader and bypasses dynamics and the
    controller, so an engine speed-up should leave its operation unchanged.
    """

    name = "offline_analysis"
    scenario = "grasp_estimate"

    def __init__(self, am, seed, workdir):
        """Set-up: simulate the iags and baseline runs and write their CSV logs."""
        self.am, self.seed = am, seed
        self.paths, self.logs = {}, {}
        for mode in ("iags", "baseline"):
            cfg = shipped_config(am, self.scenario, seed, mode=mode)
            log = am.scenario.run_scenario(cfg)
            path = os.path.join(workdir, f"{self.scenario}_{mode}.csv")
            log.to_csv(path)
            self.paths[mode], self.logs[mode] = path, log

    def op(self) -> Outcome:
        am = self.am
        cfg = shipped_config(am, self.scenario, self.seed)
        cand = am.scenario.RunLog.from_csv(self.paths["iags"])
        ref = am.scenario.RunLog.from_csv(self.paths["baseline"])
        report = am.metrics.evaluate(cand, eval_start=cfg.eval_start)
        converged = am.metrics.declare_convergence(cand)
        deltas = am.metrics.compare_runs(cand, ref, eval_start=cfg.eval_start)
        j_a = np.diag(cfg.vehicle.j_a)
        nominal_pm = _min_pm(am, cfg, np.ones(3), j_a)
        rotor = cfg.vehicle.rotor
        worst, _ = am.freqdom.robustness_sweep(cfg.gains, j_a, k_m=rotor.k_m,
                                               tau_m=rotor.tau_m, grid_n=7)
        veh = cfg.vehicle
        vehicle = am.spatial.InertialParams(veh.mass, veh.p_b, veh.j_a)
        mass, dims = WORKSPACE_PAYLOAD
        maxima, _ = am.freqdom.workspace_kk_sweep(cfg.arm.geom, mass, dims, vehicle,
                                                  grid_n=9,
                                                  pad_height=cfg.est.suction_pad)
        extra = {"logs": (cand, ref), "deltas": deltas, "nominal_pm": nominal_pm,
                 "sweep_pm": [worst[a][0].phase_margin_deg for a in range(3)],
                 "maxima": maxima}
        return Outcome(cfg, cand, report, converged, 2 * cfg.duration, extra=extra)

    def check(self, out: Outcome) -> list:
        x = out.extra
        problems = []
        for mode, log in zip(("iags", "baseline"), x["logs"]):
            if not np.array_equal(log.data, self.logs[mode].data):
                problems.append(f"{mode} log read back differs from the run written")
        problems += check_criterion_1(out.cfg, out.log, out.converged)
        if "position" not in x["deltas"]:
            problems.append("compare_runs returned no position channel")
        low = [pm for pm in x["sweep_pm"] + [x["nominal_pm"]] if not pm >= MIN_PHASE_MARGIN_DEG]
        if low:
            problems.append(f"phase margin below {MIN_PHASE_MARGIN_DEG} deg: {low}")
        if not np.allclose(x["maxima"], WORKSPACE_REFERENCE, rtol=WORKSPACE_TOL, atol=0.0):
            problems.append(f"workspace maxima {list(x['maxima'])}")
        return problems

    def results(self, out: Outcome) -> dict:
        return simulated_results(out, out.converged, min(out.extra["sweep_pm"]))


WORKLOADS = {w.name: w for w in (GraspIags, HoverBaseline, OfflineAnalysis)}
