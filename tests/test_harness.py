import math
import os

import numpy as np
import pytest

from amsim import cli, metrics
from amsim.adaptation import update_total
from amsim.config import ConfigError, load_config, parse_config, shipped_scenarios
from amsim.controller import iags_gain
from amsim.delta import KinematicsError, inverse_kin
from amsim.dynamics import NonFinite
from amsim.scenario import (COLUMNS, CSV_BLOCK_ROWS, MismatchedRuns, RunLog, Trajectory,
                            run_scenario)
from amsim.spatial import InertialParams

HOVER_QUIET = """
[run]
duration = {dur}
seed = 1
mode = baseline
eval_start = 0.0

[vehicle]
accel_noise = 0
gyro_noise = 0

[trajectory]
waypoints =
    0 0 0 1.0 0
"""


def make_log(t, **cols):
    """Synthetic log: given columns, everything else zeroed (qw forced to 1)."""
    n = len(t)
    data = np.zeros((n, len(COLUMNS)))
    data[:, 0] = t
    for name in ("qw", "qw_des"):
        data[:, COLUMNS.index(name)] = 1.0
    for name, vals in cols.items():
        data[:, COLUMNS.index(name)] = vals
    return RunLog(names=list(COLUMNS), data=data)


class TestConfig:
    def test_shipped_scenarios_present(self):
        names = shipped_scenarios()
        for expect in ("grasp_estimate", "hover_payload", "pick_place", "gate_wind"):
            assert expect in names

    def test_defaults_parse(self):
        cfg = parse_config("")
        assert cfg.control_hz == 400
        assert cfg.vehicle.mass == pytest.approx(1.379)
        assert np.allclose(np.diag(cfg.vehicle.j_a), [9.2e-3, 10.5e-3, 14.7e-3])

    def test_rates_must_divide(self):
        with pytest.raises(ConfigError):
            parse_config("[rates]\nsim_dt = 0.001\ncontrol_hz = 400\n")

    def test_duration_below_one_step_rejected(self):
        with pytest.raises(ConfigError, match="no physics step"):
            parse_config("[run]\nduration = 2e-4\n[rates]\nsim_dt = 5e-4\n")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nmode = warp\n")

    def test_mode_alias(self):
        cfg = parse_config("[run]\nmode = iags+dob\n")
        assert cfg.mode == "iags"

    def test_object_requires_mass(self):
        with pytest.raises(ConfigError):
            parse_config("[object]\nlabel = coffee can\n")

    def test_missing_source(self):
        with pytest.raises(ConfigError):
            load_config("no_such_scenario_anywhere")

    def test_bad_vector_length(self):
        with pytest.raises(ConfigError):
            parse_config("[gains]\nk_pos = 1 2\n")


class TestTrajectory:
    def test_holds_at_ends(self):
        tr = Trajectory([(0.0, np.array([0, 0, 1.0]), 0.0),
                         (2.0, np.array([1.0, 0, 1.0]), 0.0)])
        p, v, a, _ = tr.eval(-1.0)
        np.testing.assert_allclose(p, [0, 0, 1.0])
        np.testing.assert_allclose(v, 0)
        p, v, a, _ = tr.eval(5.0)
        np.testing.assert_allclose(p, [1.0, 0, 1.0])
        np.testing.assert_allclose(v, 0)

    def test_smooth_midpoint(self):
        tr = Trajectory([(0.0, np.zeros(3), 0.0), (2.0, np.array([1.0, 0, 0]), 0.0)])
        p, v, a, _ = tr.eval(1.0)
        assert p[0] == pytest.approx(0.5, rel=1e-12)
        # min-jerk peak velocity is 1.875 * displacement / duration
        assert v[0] == pytest.approx(1.875 * 1.0 / 2.0, rel=1e-12)
        assert a[0] == pytest.approx(0.0, abs=1e-12)
        _, v0, a0, _ = tr.eval(0.0)
        np.testing.assert_allclose(v0, 0, atol=1e-12)
        np.testing.assert_allclose(a0, 0, atol=1e-12)


class TestScheduler:
    def test_exact_tick_counts(self):
        cfg = parse_config(HOVER_QUIET.format(dur=0.1))
        log = run_scenario(cfg)
        assert log.events["control_ticks"] == 40
        assert log.events["dob_ticks"] == 10
        assert log.events["servo_ticks"] == 10
        assert log.events["kin_fallbacks"] == 0
        assert log.data.shape[0] == 200  # sim-rate rows

    def test_uniform_timestamps(self):
        cfg = parse_config(HOVER_QUIET.format(dur=0.05))
        log = run_scenario(cfg)
        t = log.column("t")
        np.testing.assert_allclose(np.diff(t), cfg.sim_dt, atol=1e-15)


ARM_OUT_OF_REACH = HOVER_QUIET + """
[arm]
waypoints =
    0.0   0 0 -0.16
    0.2   0 0 -0.50
"""


class TestKinematicFallback:
    def test_unreachable_waypoint_is_counted(self):
        """The arm is sent below its reach: failed IK ticks command zero joint rate."""
        cfg = parse_config(ARM_OUT_OF_REACH.format(dur=0.4))
        log = run_scenario(cfg)
        assert log.data.shape[0] == 800 and np.all(np.isfinite(log.data))
        arm = Trajectory(cfg.arm.waypoints)
        every = cfg.steps_per(cfg.servo_hz)
        failed = 0
        for k in range(0, log.data.shape[0], every):
            try:
                inverse_kin(cfg.arm.geom, arm.eval(k * cfg.sim_dt)[0])
            except KinematicsError:
                failed += 1
        assert 0 < failed < log.events["servo_ticks"]
        assert log.events["kin_fallbacks"] == failed


class TestEstimateRefresh:
    @pytest.mark.parametrize("dob_hz, servo_hz", [
        (100, 100),   # the shipped rates: observer and servos tick together
        (200, 100),   # observer ticks without a servo tick
        (100, 200),   # servo ticks without an observer tick
    ])
    def test_control_ticks_see_current_mass_and_pose(self, dob_hz, servo_hz):
        """The estimate is rebuilt only when the observer or the servos change
        its inputs, yet every latched control tick must see the estimate of
        the logged m_obj_hat and joint angles. dob-only mode assumes a
        point-mass payload right below the pad, so the whole estimate has an
        oracle."""
        cfg = load_config("hover_payload")
        cfg.mode, cfg.duration, cfg.dob_hz, cfg.servo_hz = "dob-only", 1.5, dob_hz, servo_hz
        cfg.validate()
        log = run_scenario(cfg)
        veh = cfg.vehicle
        am = InertialParams(veh.mass, veh.p_b, veh.j_a)
        offset = np.array([0.0, 0.0, -cfg.est.suction_pad])
        latch = int(round(log.events["latch_time"] / cfg.sim_dt))
        every = cfg.steps_per(cfg.control_hz)
        rows = range(latch + (-latch) % every, log.data.shape[0], every)
        assert len(rows) > 100
        theta = log.columns("theta1", "theta2", "theta3")
        assert np.ptp(theta[rows.start:], axis=0).max() > 0.01  # the arm moves
        m_obj = log.column("m_obj_hat")
        est = log.columns("m_t_hat", "ctx_hat", "cty_hat", "ctz_hat",
                          "jtx_hat", "jty_hat", "jtz_hat", "kk_x", "kk_y", "kk_z")
        for k in rows:
            tot = update_total(am.mass, am.inertia_about_com, am.com, m_obj[k],
                               np.eye(3) * 1e-8, offset, theta[k], cfg.arm.geom)
            kk = np.diag(iags_gain(veh.j_a, tot.j_t_hat))
            want = [tot.m_t_hat, *tot.c_t, *np.diag(tot.j_t_hat), *kk]
            assert est[k].tolist() == [float(v) for v in want]


class TestQuietHover:
    def test_noise_free_hover_stays_put(self):
        cfg = parse_config(HOVER_QUIET.format(dur=10.0))
        log = run_scenario(cfg)
        rep = metrics.evaluate(log, eval_start=0.0)
        assert rep.rmse("position") < 1e-6
        assert rep.max("position") < 1e-6

    def test_wind_step_steady_state_offset(self):
        """End-to-end oracle: a PD position loop holds a constant force
        disturbance at exactly F / (m * k_pos) steady-state error."""
        text = HOVER_QUIET.format(dur=5.0) + (
            "\n[disturbances]\nwind =\n    1.0   0 1.2 0\n")
        cfg = parse_config(text)
        log = run_scenario(cfg)
        t = log.column("t")
        ey = (log.column("py") - log.column("py_des"))[t > 4.0]
        expect = 1.2 / (cfg.vehicle.mass * cfg.gains.k_pos[1])
        assert np.mean(ey) == pytest.approx(expect, rel=0.02)


class TestDivergence:
    """A force no vehicle can hold makes the state overflow within one step."""
    DIVERGING = HOVER_QUIET.format(dur=0.5) + (
        "\n[disturbances]\nwind =\n    0.1   1e308 0 0\n")

    def test_nonfinite_names_the_time(self):
        with pytest.raises(NonFinite, match=r"at t=0\.1000 s$"):
            run_scenario(parse_config(self.DIVERGING))

    def test_cli_run_exit_2_writes_nothing(self, tmp_path, capsys):
        cfg_file = tmp_path / "diverge.cfg"
        cfg_file.write_text(self.DIVERGING)
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ")
        assert "at t=" in err
        assert "Traceback" not in err
        assert [f.name for f in tmp_path.iterdir()] == ["diverge.cfg"]


class TestDeterminism:
    def test_same_seed_bitwise_logs(self, tmp_path):
        cfg = load_config("grasp_estimate")
        cfg.duration = 0.8
        cfg.validate()
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(str(pa))
        b.to_csv(str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        cfg = load_config("grasp_estimate")
        cfg.duration = 0.5
        cfg.validate()
        a = run_scenario(cfg)
        cfg.seed = 99
        b = run_scenario(cfg)
        assert not np.array_equal(a.data, b.data)

    def test_cross_process_determinism(self, tmp_path):
        import subprocess
        import sys
        snippet = (
            "from amsim.config import load_config\n"
            "from amsim.scenario import run_scenario\n"
            "cfg = load_config('grasp_estimate')\n"
            "cfg.duration = 0.3\n"
            "cfg.validate()\n"
            "run_scenario(cfg).to_csv(r'{out}')\n")
        paths = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        for p in paths:
            subprocess.run([sys.executable, "-c", snippet.format(out=p)],
                           check=True)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestLatchTiming:
    def test_latch_follows_attach_by_persistence(self):
        cfg = load_config("grasp_estimate")
        cfg.duration = 2.5
        cfg.validate()
        log = run_scenario(cfg)
        attach = log.events["attach_time"]
        latch = log.events["latch_time"]
        assert attach == pytest.approx(1.5, abs=1e-9)
        assert latch - attach == pytest.approx(cfg.est.grasp_persistence, abs=0.05)


class TestMetrics:
    def test_constant_error_rmse_exact(self):
        t = np.arange(100) * 0.01
        log = make_log(t, px=np.full(100, 0.25))
        rep = metrics.evaluate(log)
        assert rep.rmse("position") == 0.25
        assert rep.max("position") == 0.25
        assert rep.rmse("position_x") == 0.25

    def test_window_excludes_early_samples(self):
        t = np.arange(100) * 0.01
        px = np.where(t < 0.5, 1.0, 0.0)
        log = make_log(t, px=px)
        rep = metrics.evaluate(log, eval_start=0.5)
        assert rep.rmse("position") == 0.0

    def test_convergence_from_start(self):
        t = np.arange(10) * 0.1
        log = make_log(t, m_t_hat=np.full(10, 1.0), m_t_true=np.full(10, 1.0),
                       jtx_hat=np.ones(10), jty_hat=np.ones(10), jtz_hat=np.ones(10),
                       jtx_true=np.ones(10), jty_true=np.ones(10), jtz_true=np.ones(10))
        times = metrics.declare_convergence(log)
        assert times["mass"] == 0.0
        assert times["com"] == 0.0

    def test_convergence_after_last_exit(self):
        t = np.arange(10) * 0.1
        m_true = np.ones(10)
        m_hat = np.ones(10)
        m_hat[3] = 1.5   # excursion: error re-enters afterwards
        m_hat[6] = 1.5   # last exit at sample 6
        log = make_log(t, m_t_hat=m_hat, m_t_true=m_true,
                       jtx_hat=np.ones(10), jty_hat=np.ones(10), jtz_hat=np.ones(10),
                       jtx_true=np.ones(10), jty_true=np.ones(10), jtz_true=np.ones(10))
        times = metrics.declare_convergence(log)
        assert times["mass"] == pytest.approx(0.7)

    def test_never_converged_is_none(self):
        t = np.arange(10) * 0.1
        log = make_log(t, m_t_hat=np.full(10, 2.0), m_t_true=np.ones(10),
                       jtx_hat=np.ones(10), jty_hat=np.ones(10), jtz_hat=np.ones(10),
                       jtx_true=np.ones(10), jty_true=np.ones(10), jtz_true=np.ones(10))
        assert metrics.declare_convergence(log)["mass"] is None
        with pytest.raises(metrics.NeverConverged):
            metrics.declare_convergence(log, strict=True)

    def test_compare_self_zero_deltas(self):
        t = np.arange(50) * 0.01
        log = make_log(t, px=np.sin(t))
        deltas = metrics.compare_runs(log, log)
        for stats in deltas.values():
            assert stats["rmse"][2] == 0.0

    def test_compare_mismatched_rejected(self):
        t = np.arange(50) * 0.01
        a = make_log(t, px_des=np.zeros(50))
        b = make_log(t, px_des=np.ones(50))
        with pytest.raises(MismatchedRuns):
            metrics.compare_runs(a, b)


class TestRunLogRoundtrip:
    def test_csv_roundtrip_exact(self, tmp_path):
        cfg = parse_config(HOVER_QUIET.format(dur=0.02))
        log = run_scenario(cfg)
        path = tmp_path / "log.csv"
        log.to_csv(str(path))
        back = RunLog.from_csv(str(path))
        assert back.names == log.names
        np.testing.assert_array_equal(back.data, log.data)


def per_value_csv(log, path):
    """Byte oracle for RunLog.to_csv: one repr(float(v)) per value, row by row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(log.names) + "\n")
        for row in log.data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def assert_same_csv_bytes(log, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    log.to_csv(str(got))
    per_value_csv(log, str(want))
    assert got.read_bytes() == want.read_bytes()
    return got


class TestCsvWriterOracle:
    SPECIALS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                1e308, 0.1, 1.0 / 3.0]

    @pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
    def test_synthetic_log_bytes(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        data = rng.standard_normal((n_rows, len(COLUMNS))) * 10.0 ** rng.integers(
            -300, 300, (n_rows, len(COLUMNS)))
        data[:, 1] = np.resize([-0.0, 0.0], n_rows)          # signed zeros, one column
        data[:, 2] = np.resize(self.SPECIALS, n_rows)
        data[:, 3] = np.resize(self.SPECIALS[::-1], n_rows)
        data[:, 4] = 7.25                                     # repeated in every block
        data[:, 5] = np.repeat(rng.standard_normal(n_rows // 4 + 1), 4)[:n_rows]
        assert_same_csv_bytes(RunLog(names=list(COLUMNS), data=data), tmp_path)

    def test_shipped_log_bytes_and_readback(self, tmp_path):
        log = run_scenario(load_config("grasp_estimate"))
        path = assert_same_csv_bytes(log, tmp_path)
        back = RunLog.from_csv(str(path))
        assert back.names == log.names
        assert back.data.tobytes() == log.data.tobytes()


class TestCli:
    def test_run_and_metrics_roundtrip(self, tmp_path):
        rc = cli.main(["run", "grasp_estimate", "--duration", "0.5",
                       "--out", str(tmp_path)])
        assert rc == 0
        log_path = tmp_path / "grasp_estimate_iags.csv"
        assert log_path.exists()
        assert cli.main(["metrics", str(log_path)]) == 0
        assert cli.main(["compare", str(log_path), str(log_path)]) == 0

    def test_missing_scenario_exit_1(self):
        assert cli.main(["run", "definitely_not_here"]) == 1

    def test_duration_below_one_step_exit_1_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "hover_payload", "--duration", "1e-4",
                         "--out", str(out)]) == 1
        assert not out.exists() or not any(out.iterdir())

    def test_run_from_config_path(self, tmp_path):
        cfg_file = tmp_path / "quiet.cfg"
        cfg_file.write_text(HOVER_QUIET.format(dur=0.05))
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "quiet_baseline.csv").exists()

    def test_margins_smoke(self, capsys):
        assert cli.main(["margins"]) == 0
        out = capsys.readouterr().out
        assert "PM (deg)" in out

    def test_margins_zero_gain_exit_2(self, capsys):
        assert cli.main(["margins", "--kk-scale", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--mass", "-1"], ["--grid-n", "0"]])
    def test_sweep_workspace_bad_input_exit_1(self, capsys, flags):
        assert cli.main(["sweep", "--workspace", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "max scheduled gain" not in captured.out

    @pytest.mark.parametrize("dims", ["-0.2 0.2 0.2", "0 0.2 0.2"])
    def test_sweep_workspace_bad_dims_exit_1(self, capsys, dims):
        assert cli.main(["sweep", "--workspace", "--dims", dims]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: payload dims")
        assert "max scheduled gain" not in captured.out

    @pytest.mark.filterwarnings("error")
    def test_sweep_workspace_inf_mass_exit_1_without_warning(self, capsys):
        assert cli.main(["sweep", "--workspace", "--mass", "inf"]) == 1
        assert capsys.readouterr().err.startswith("config error: payload mass")

    def test_sweep_uncertainty_smoke(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert cli.main(["sweep", "--uncertainty", "--grid-n", "5",
                         "--out", str(out)]) == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == "axis,j_scale,kk_scale,gm_db,pm_deg,w_gc,w_pc"

    def test_estimate_unknown_label_exit_1(self, tmp_path, rng):
        from amsim.presense import sample_box_cloud
        cloud = tmp_path / "c.xyz"
        np.savetxt(str(cloud), sample_box_cloud([0.1, 0.1, 0.1], 500, rng))
        assert cli.main(["estimate", "--cloud", str(cloud),
                         "--label", "warp core"]) == 1

    def test_estimate_known_label(self, tmp_path, rng, capsys):
        from amsim.presense import sample_cylinder_cloud
        cloud = tmp_path / "can.xyz"
        np.savetxt(str(cloud), sample_cylinder_cloud(0.08, 0.12, 5000, rng))
        assert cli.main(["estimate", "--cloud", str(cloud),
                         "--label", "coffee can"]) == 0
        assert "mass estimate" in capsys.readouterr().out
