import dataclasses
import hashlib
import io
import math
import os
import re
import signal
import sys
import threading
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amsim import cli, metrics, scenario
from amsim.adaptation import dob_step, update_total
from amsim.config import (MODES, ConfigError, ScenarioConfig, load_config, parse_config,
                          shipped_scenarios)
from amsim.controller import iags_gain
from amsim.delta import KinematicsError, inverse_kin
from amsim.dynamics import MAX_STEP, NonFinite, rigid_body
from amsim.presense import load_catalog, prior_for
from amsim.scenario import (COLUMNS, CSV_BLOCK_ROWS, CSV_CHUNK, MismatchedRuns, RunLog,
                            Trajectory, _csv_digest, _wind_at, run_scenario)
from amsim.spatial import InertialParams, box_inertia, inverse3

from conftest import random_rotation

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


def config_values(node, where="cfg"):
    """Every value a config holds, nested configs, tuples and rows included, by path."""
    yield where, node
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from config_values(getattr(node, f.name), f"{where}.{f.name}")
    elif isinstance(node, (tuple, list)):
        for i, item in enumerate(node):
            yield from config_values(item, f"{where}[{i}]")


def config_tuples(cfg):
    return ((where, value) for where, value in config_values(cfg) if isinstance(value, tuple))


def assert_same_config(a, b, where="cfg"):
    """Equal field by field, nested configs and waypoint tables included;
    arrays exactly, and every value of the same type."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_config(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_config(x, y, f"{where}[{i}]")
    else:
        np.testing.assert_array_equal(a, b, err_msg=where)


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

    @pytest.mark.parametrize("text", ["[run]\nduration = inf\n", "[run]\nduration = nan\n",
                                      "[rates]\nsim_dt = nan\n", "[rates]\nsim_dt = inf\n"])
    def test_non_finite_duration_or_step_rejected(self, text):
        with pytest.raises(ConfigError, match="positive and finite"):
            parse_config(text)

    def test_step_above_the_physics_limit_rejected(self, tmp_path, capsys):
        """A sim_dt the RK4 step would refuse fails at load, naming its key: from a
        file, through ``replace`` and through ``amsim run``, which writes nothing."""
        rates = dict(sim_dt=0.01, control_hz=100, dob_hz=100, servo_hz=100)
        text = "[rates]\n" + "".join(f"{key} = {value}\n" for key, value in rates.items())
        message = "[rates] sim_dt must be at most 0.005 s, got 0.01"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            replace(load_config("grasp_estimate"), **rates)
        cfg_file, out = tmp_path / "coarse.cfg", tmp_path / "out"
        cfg_file.write_text(text)
        assert cli.main(["run", str(cfg_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()
        # the limit itself loads, and the physics step's binder keeps its own check
        cfg = replace(load_config("grasp_estimate"), **{**rates, "sim_dt": MAX_STEP})
        assert cfg.sim_dt == MAX_STEP
        eye = np.eye(3).ravel().tolist()
        with pytest.raises(ValueError, match="dt must be in"):
            rigid_body(1.0, eye, eye, 9.81, 0.01)

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

    @pytest.mark.parametrize("line", ["k_theta = nan 20 20", "k_theta = -1 20 20",
                                      "servo_rate_limit = -2", "servo_rate_limit = nan"])
    def test_bad_arm_servo_rejected(self, line):
        with pytest.raises(ConfigError, match="arm"):
            parse_config(f"[arm]\n{line}\n")

    @pytest.mark.parametrize("line", ["k_theta = nan 20 20", "servo_rate_limit = -2"])
    def test_bad_arm_servo_cli_exit_1(self, tmp_path, capsys, line):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"[run]\nduration = 0.1\n[arm]\n{line}\n")
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert [f.name for f in tmp_path.iterdir()] == ["bad.cfg"]

    @pytest.mark.parametrize("text, message", [
        ("[estimation]\nforce_lpf_hz = -5\n",
         "[estimation] force_lpf_hz must be positive and finite, got -5.0"),
        ("[estimation]\ngrasp_threshold = 0\n",
         "[estimation] grasp_threshold must be positive and finite, got 0.0"),
        ("[estimation]\ngrasp_persistence = -1\n",
         "[estimation] grasp_persistence must be positive and finite, got -1.0"),
        ("[estimation]\ndob_c = inf\n", "[estimation] dob_c must be positive and finite, got inf"),
        ("[estimation]\nforce_lpf_hz = nan\n",
         "[estimation] force_lpf_hz must be positive and finite, got nan"),
        ("[estimation]\ncloud_points = 0\n", "[estimation] cloud_points must be >= 10, got 0"),
        ("[estimation]\nsuction_pad = -0.01\n",
         "[estimation] suction_pad must be finite and >= 0, got -0.01"),
        ("[object]\nlabel = coffee can\ntrue_mass = 0.2\ndims = -0.1 0.1 0.1\n",
         "[object] dims must be positive and finite, got [-0.1, 0.1, 0.1]"),
        ("[object]\nlabel = coffee can\ntrue_mass = 0.2\ndims = 0.1 0 inf\n",
         "[object] dims must be positive and finite, got [0.1, 0.0, inf]"),
        ("[run]\neval_start = -3\n", "[run] eval_start must be finite and >= 0, got -3.0"),
        ("[run]\neval_start = nan\n", "[run] eval_start must be finite and >= 0, got nan"),
    ])
    def test_bad_estimation_object_or_run_rejected(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text)

    @pytest.mark.parametrize("text", ["[estimation]\nforce_lpf_hz = -5\n",
                                      "[estimation]\ncloud_points = 0\n",
                                      "[object]\nlabel = coffee can\ntrue_mass = 0.2\n"
                                      "dims = -0.1 0.1 0.1\n",
                                      "[run]\neval_start = -3\n"])
    def test_bad_estimation_object_or_run_cli_exit_1(self, tmp_path, capsys, text):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text)
        assert cli.main(["run", str(cfg_file), "--duration", "0.1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert [f.name for f in tmp_path.iterdir()] == ["bad.cfg"]

    def test_wind_schedule(self):
        """Wind rows become (float, three floats) in start order, built directly or parsed."""
        cfg = ScenarioConfig(wind=[(2, [1, 0, 0]), (0.5, np.array([0, 1.0, 0]))])
        assert cfg.wind == ((0.5, (0.0, 1.0, 0.0)), (2.0, (1.0, 0.0, 0.0)))
        assert all(type(v) is float for t, f in cfg.wind for v in (t, *f))
        parsed = parse_config("[disturbances]\nwind =\n    2.0 1 0 0\n    0.5 0 1 0\n")
        assert parsed.wind == cfg.wind
        assert _wind_at(cfg.wind, 0.0) == (0.0, 0.0, 0.0)
        assert _wind_at(cfg.wind, 1.0) == (0.0, 1.0, 0.0)
        assert _wind_at(cfg.wind, 3.0) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("section, key, row", [
        ("trajectory", "waypoints", "0 0 0 1 0"),
        ("arm", "waypoints", "0 0 0 -0.16"),
        ("disturbances", "wind", "1 0 3 0"),
    ], ids=["trajectory", "arm", "wind"])
    @pytest.mark.parametrize("column", [0, -1], ids=["time", "value"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_table_row_rejected(self, section, key, row, column, value):
        """A NaN time would sort anywhere and a NaN wind start switches off every
        later row, so a table row must hold finite numbers only."""
        bad = row.split()
        bad[column] = value
        bad = " ".join(bad)
        parse_config(f"[{section}]\n{key} =\n    {row}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'[{section}] {key}: row')} "
                                              f"{re.escape(repr(bad))} has a non-finite number$"):
            parse_config(f"[{section}]\n{key} =\n    {row}\n    {bad}\n")

    @pytest.mark.parametrize("table", ["trajectory", "arm", "wind"])
    def test_non_finite_table_row_rejected_in_replace(self, table):
        """A config derived with ``replace`` goes through the same row check as a file."""
        cfg = load_config("gate_wind")
        message = {"trajectory": "[trajectory] waypoints: row 'nan 0 0 1 0'",
                   "arm": "[arm] waypoints: row 'nan 0 0 -0.16'",
                   "wind": "[disturbances] wind: row 'nan 5 0 0'"}[table]
        with pytest.raises(ConfigError, match=f"^{re.escape(message)} has a non-finite number$"):
            if table == "trajectory":
                replace(cfg, trajectory=[(0.0, np.array([0.0, 0.0, 1.0]), 0.0),
                                         (math.nan, np.array([0.0, 0.0, 1.0]), 0.0)])
            elif table == "arm":
                replace(cfg.arm, waypoints=[(math.nan, np.array([0.0, 0.0, -0.16]))])
            else:
                replace(cfg, wind=[(math.nan, (5, 0, 0)), (1.0, (0, 3, 0))])

    def test_duplicate_row_times_rejected(self):
        """Two rows at one time are an error in a file and through ``replace`` alike."""
        with pytest.raises(ConfigError, match=r"^\[disturbances\] wind: duplicate timestamps$"):
            parse_config("[disturbances]\nwind =\n    1 0 1 0\n    1 0 2 0\n")
        with pytest.raises(ConfigError, match=r"^\[disturbances\] wind: duplicate timestamps$"):
            replace(load_config("gate_wind"), wind=[(1.0, (0, 1, 0)), (1.0, (0, 2, 0))])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_grasp_time_rejected(self, value):
        """A NaN grasp time would never attach the payload, and the run would exit 0."""
        message = f"[object] grasp_time must be finite, got {value}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(f"[object]\nlabel = coffee can\ntrue_mass = 0.2\n"
                         f"grasp_time = {value}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            replace(load_config("grasp_estimate").obj, grasp_time=value)

    def test_g_validation(self):
        for g in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigError, match="^\\[vehicle\\] g must be positive and finite"):
                ScenarioConfig(g=g)
            with pytest.raises(ConfigError, match="^\\[vehicle\\] g must be positive and finite"):
                parse_config(f"[vehicle]\ng = {g}\n")

    def test_bad_vector_length(self):
        with pytest.raises(ConfigError):
            parse_config("[gains]\nk_pos = 1 2\n")

    def test_defaults_written_once(self):
        """The dataclass defaults and an empty file build the same config."""
        assert_same_config(ScenarioConfig(), parse_config(""))

    @pytest.mark.parametrize("text, message", [
        ("[gains]\nk_pso = 1 2 3\n", "[gains] unknown key 'k_pso'"),
        ("[rate]\nsim_dt = 5e-4\n", "unknown section [rate]"),
        ("[object]\nlabel = coffee can\ntrue_mass = 0.2\nprior = 1\n",
         "[object] unknown key 'prior'"),
        ("[trajectory]\nwind =\n    1 0 0 0\n", "[trajectory] unknown key 'wind'"),
        ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
    ])
    def test_unknown_section_or_key_rejected(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text)

    def test_unknown_key_cli_exit_1_writes_nothing(self, tmp_path, capsys):
        cfg_file = tmp_path / "typo.cfg"
        cfg_file.write_text("[run]\nduration = 0.1\n[gains]\nk_pso = 1 2 3\n")
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "config error: [gains] unknown key 'k_pso'\n"
        assert [f.name for f in tmp_path.iterdir()] == ["typo.cfg"]

    def test_percent_sign_is_literal(self, tmp_path):
        catalog = tmp_path / "priors.txt"
        catalog.write_text("50% box | 1.0 | 1 1 1 | 500\n", encoding="utf-8")
        cfg = parse_config(f"[estimation]\ncatalog = {catalog}\n"
                           "[object]\nlabel = 50% box\ntrue_mass = 0.2\n")
        assert cfg.obj.label == cfg.obj.prior.label == "50% box"

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
            parse_config("[run]\nseed = -1\n")

    def test_negative_seed_cli_exit_1_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "grasp_estimate", "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_replace_is_checked_like_a_file(self):
        with pytest.raises(ConfigError) as from_file:
            parse_config("[object]\nlabel = coffee can\ntrue_mass = 0\n")
        with pytest.raises(ConfigError) as from_replace:
            replace(load_config("grasp_estimate").obj, true_mass=0.0)
        assert str(from_replace.value) == str(from_file.value)
        assert str(from_file.value) == "[object] true_mass must be positive and finite, got 0.0"

    def test_configs_are_frozen(self):
        """No value of a built config can change: its attributes are frozen, and
        every vector, matrix and table is a tuple, down to its rows."""
        cfg = load_config("grasp_estimate")
        for part, name in ((cfg, "seed"), (cfg.vehicle, "mass"), (cfg.arm, "home"),
                           (cfg.obj, "true_mass"), (cfg.gains, "k_pos"), (cfg.est, "dob_c")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(part, name, getattr(part, name))
        vectors = ("vehicle.j_a", "vehicle.p_b", "vehicle.rotor.positions",
                   "vehicle.rotor.spin_dirs", "arm.k_theta", "arm.home", "arm.waypoints",
                   "gains.k_pos", "gains.k_vel", "gains.k_att", "gains.rate_kp",
                   "gains.rate_ki", "gains.rate_kd", "obj.dims", "obj.prior_alpha",
                   "trajectory", "wind")
        for name in shipped_scenarios():
            cfg = load_config(name)
            found = dict(config_tuples(cfg))
            assert {f"cfg.{v}" for v in vectors} <= set(found), name
            for where, value in found.items():
                if value:
                    with pytest.raises(TypeError):
                        value[0] = value[0]
            # the nested configs, matrices and table rows hold no mutable value either
            assert not [where for where, value in config_values(cfg)
                        if isinstance(value, (list, dict, set, np.ndarray))], name

    def test_configs_hash_and_compare_equal(self):
        """Two loads of a scenario are equal and hash equal, and their text holds
        no numpy array: a config can key a cache or a run manifest."""
        for name in shipped_scenarios():
            a, b = load_config(name), load_config(name)
            assert a == b and hash(a) == hash(b)
            assert repr(a) == repr(b) and "array(" not in repr(a)
            assert replace(a, seed=a.seed + 1) != a

    @pytest.mark.parametrize("table", ["trajectory", "arm", "wind"])
    def test_table_row_of_wrong_width_rejected(self, table):
        """A row of the wrong width fails when its table is built, from a file or
        through ``replace``, with an error naming the table."""
        where, row, text, columns = {
            "trajectory": ("[trajectory] waypoints", (0.0, (0.0, 1.0), 0.0), "0 0 1 0",
                           "t x y z yaw"),
            "arm": ("[arm] waypoints", (0.0, (0.0, -0.16)), "0 0 -0.16", "t x y z"),
            "wind": ("[disturbances] wind", (1.0, (2.0, 0.0)), "1 2 0", "t fx fy fz")}[table]
        message = f"^{re.escape(f'{where}: row {text!r} is not {columns}')}$"
        cfg = load_config("hover_payload")
        with pytest.raises(ConfigError, match=message):
            if table == "trajectory":
                replace(cfg, trajectory=[row])
            elif table == "arm":
                replace(cfg.arm, waypoints=[row])
            else:
                replace(cfg, wind=[row])
        section, key = where[1:].split("] ")
        with pytest.raises(ConfigError, match=message):
            parse_config(f"[{section}]\n{key} =\n    {text}\n")

    @pytest.mark.parametrize("text, message", [
        ("[vehicle]\ninertia = 1 2 -3\n",
         "[vehicle] inertia: inertia tensor is not positive definite"),
        ("[vehicle]\nmass = -1\n", "[vehicle] mass must be positive and finite, got -1.0"),
        ("[vehicle]\np_b = nan 0 0\n", "[vehicle] p_b must be finite, got [nan, 0.0, 0.0]"),
        ("[vehicle]\naccel_noise = -1\n",
         "[vehicle] accel_noise, gyro_noise must be non-negative and finite, got [-1.0, 0.002]"),
        ("[arm]\nhome = nan 0 -0.16\n", "[arm] home must be finite, got [nan, 0.0, -0.16]"),
        ("[arm]\nhome = 0 0 -1\n", "[arm] home [0.0, 0.0, -1.0] is out of reach: arm 0"),
        ("[object]\ntrue_mass = 0.3\nprior_alpha = 1 nan 1\nprior_rho = 1000\n",
         "[object] prior_alpha must be finite, got [1.0, nan, 1.0]"),
        ("[object]\ntrue_mass = 0.3\nprior_rho = nan\n",
         "[object] inline prior: rho must be positive and finite, got nan"),
        ("[object]\ntrue_mass = 0.3\nlabel = x\ntrue_inertia = 1 1 5\n",
         "[object] true_inertia: principal moments violate the triangle inequality"),
    ], ids=["inertia", "mass", "p_b", "noise", "nan-home", "far-home", "prior-alpha",
            "prior-rho", "true-inertia"])
    def test_bad_body_home_or_prior_rejected_at_load(self, text, message):
        """Each of these parsed before and failed only inside the run, or ran on."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_config(text)

    @pytest.mark.parametrize("lines, keys", [
        ("prior_alpha = 2 2 2\n", "prior_alpha"), ("prior_beta = 0.5\n", "prior_beta"),
        ("prior_alpha = 2 2 2\nprior_beta = 0.5\n", "prior_beta and prior_alpha")],
        ids=["alpha", "beta", "both"])
    def test_inline_prior_keys_without_rho_rejected(self, lines, keys):
        """Without prior_rho the label's catalog prior applies, so an inline
        prior_alpha or prior_beta would have no effect."""
        message = (f"[object] prior_rho is not set, so {keys} would be ignored for the "
                   "catalog prior of the label")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config("[object]\nlabel = coffee can\ntrue_mass = 0.2\n" + lines)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            replace(load_config("grasp_estimate").obj,
                    **{key: 0.5 if key == "prior_beta" else (2.0, 2.0, 2.0)
                       for key in keys.split(" and ")})

    @pytest.mark.parametrize("lines, keys", [
        ("prior_alpha = 1 1 1\n", "prior_alpha"), ("prior_beta = 1.0\n", "prior_beta"),
        ("prior_alpha = 1 1 1\nprior_beta = 1\n", "prior_beta and prior_alpha")],
        ids=["alpha", "beta", "both"])
    def test_inline_prior_keys_at_defaults_without_rho_rejected(self, lines, keys):
        """A file that writes them is refused even at the dataclass defaults."""
        message = (f"[object] prior_rho is not set, so {keys} would be ignored for the "
                   "catalog prior of the label")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config("[object]\nlabel = coffee can\ntrue_mass = 0.2\n" + lines)

    def test_dropping_rho_of_an_inline_prior_rejected(self):
        obj = load_config("hover_payload").obj
        with pytest.raises(ConfigError, match="prior_beta and prior_alpha would be ignored"):
            replace(obj, prior_rho=None)
        assert replace(obj, prior_rho=None, prior_beta=1.0, prior_alpha=(1.0, 1.0, 1.0)).prior \
            is None

    @pytest.mark.parametrize("home", [(math.nan, 0.0, -0.16), (0.0, 0.0, -1.0)])
    def test_bad_home_rejected_in_replace(self, home):
        with pytest.raises(ConfigError, match=r"^\[arm\] home "):
            replace(load_config("pick_place").arm, home=home)

    def test_bodies_stored_checked_and_symmetrized(self):
        """The vehicle inertia is stored symmetrized, and the payload's inertia
        and inline prior are built once, at load."""
        cfg = parse_config("[vehicle]\ninertia = 1 1e-12 0  0 1 0  0 0 1\n")
        assert cfg.vehicle.j_a[0][1] == cfg.vehicle.j_a[1][0] == 5e-13
        obj = load_config("hover_payload").obj
        assert obj.prior.rho == 1150.0 and obj.prior.alpha == obj.prior_alpha
        assert load_config("grasp_estimate").obj.prior == prior_for("coffee can", load_catalog())
        box = replace(obj, shape="box", dims=(0.1, 0.2, 0.3))
        assert box.inertia == tuple(map(tuple, box_inertia(obj.true_mass, box.dims).tolist()))

    @pytest.mark.parametrize("text", [
        "[trajectory]\nwaypoints =\n    0 0 1 0\n", "[arm]\nwaypoints =\n    0 0 -0.16\n",
        "[disturbances]\nwind =\n    1 2 0\n", "[vehicle]\ninertia = 1 2 -3\n",
        "[vehicle]\nmass = -1\n", "[vehicle]\np_b = nan 0 0\n", "[vehicle]\naccel_noise = -1\n",
        "[arm]\nhome = nan 0 -0.16\n", "[arm]\nhome = 0 0 -1\n",
        "[object]\ntrue_mass = 0.3\nprior_alpha = 1 nan 1\nprior_rho = 1000\n",
        "[object]\ntrue_mass = 0.3\nprior_rho = nan\n",
        "[estimation]\ncatalog = {catalog}\n[object]\nlabel = x\ntrue_mass = 0.3\n",
        "[object]\nlabel = coffee can\ntrue_mass = 0.3\nprior_alpha = 2 2 2\n",
        "[object]\nlabel = coffee can\ntrue_mass = 0.3\nprior_alpha = 1 1 1\n",
        "[vehicle]\nk_m = -1\n", "[vehicle]\nk_m = 0\n",
    ], ids=["trajectory-row", "arm-row", "wind-row", "inertia", "mass", "p_b", "noise",
            "nan-home", "far-home", "prior-alpha", "prior-rho", "catalog-nan",
            "prior-without-rho", "default-prior-without-rho", "k_m-negative", "k_m-zero"])
    def test_bad_input_cli_exit_1_writes_nothing(self, tmp_path, capsys, text):
        catalog = tmp_path / "priors.txt"
        catalog.write_text("x | 1.0 | 1 nan 1 | nan\n", encoding="utf-8")
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[run]\nduration = 0.1\n" + text.format(catalog=catalog))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("k_m = -1", "[vehicle] k_m must be positive and finite, got -1.0"),
        ("c_t = 0", "[vehicle] c_t must be positive and finite, got 0.0"),
        ("tau_m = nan", "[vehicle] tau_m must be positive and finite, got nan"),
        ("k_tau = inf", "[vehicle] k_tau must be finite, got inf"),
        ("rotor_arm = nan", "[vehicle] rotor positions (rotor_arm, rotor_height) must be "
                            "finite, got [nan, nan, 0.0]"),
    ])
    def test_bad_rotor_cli_exit_1_names_the_key(self, tmp_path, capsys, line, message):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"[run]\nduration = 0.1\n[vehicle]\n{line}\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", MODES)  # every mode the config accepts
    @pytest.mark.parametrize("estimation, label, message", [
        ("", "cofee can", "[object] label 'cofee can' is not in the shipped catalog"),
        ("catalog = {dir}/priors.txt", "cofee can",
         "[object] label 'cofee can' is not in catalog '{dir}/priors.txt'"),
        ("catalog = {dir}/none.txt", "coffee can",
         "[estimation] catalog '{dir}/none.txt', read for [object] label 'coffee can': "),
        ("catalog = {dir}/short.txt", "coffee can",
         "[estimation] catalog '{dir}/short.txt', read for [object] label 'coffee can': "
         "line 1: alpha needs 3 numbers"),
    ], ids=["unknown-label", "unknown-in-file", "missing-catalog", "bad-catalog"])
    def test_bad_label_or_catalog_exit_1_in_every_mode(self, tmp_path, capsys, mode,
                                                      estimation, label, message):
        """The prior is looked up at load, so a mode that never reads it refuses
        the label as the modes that do."""
        (tmp_path / "priors.txt").write_text("coffee can | 1 | 1 1 1 | 300\n", encoding="utf-8")
        (tmp_path / "short.txt").write_text("coffee can | 1 | 1 1 | 300\n", encoding="utf-8")
        text = (resources.files("amsim").joinpath("data/scenarios/grasp_estimate.cfg")
                .read_text().replace("coffee can", label).replace("mode = iags", f"mode = {mode}"))
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text + f"[estimation]\n{estimation.format(dir=tmp_path)}\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--mode", mode, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message.format(dir=tmp_path))
        assert not out.exists()

    def test_label_and_catalog_checked_in_replace(self, tmp_path):
        cfg = load_config("grasp_estimate")
        with pytest.raises(ConfigError, match="label 'cofee can' is not in the shipped"):
            replace(cfg, mode="baseline", obj=replace(cfg.obj, label="cofee can"))
        with pytest.raises(ConfigError, match="none.txt', read for"):
            replace(cfg, mode="baseline", est=replace(cfg.est, catalog=str(tmp_path / "none.txt")))
        catalog = tmp_path / "priors.txt"
        catalog.write_text("coffee can | 0.5 | 1 1 1 | 300\n", encoding="utf-8")
        other = replace(cfg, est=replace(cfg.est, catalog=str(catalog)))
        assert other.obj.prior.rho == 300.0 and other.obj == cfg.obj
        assert cfg.obj.prior == prior_for("coffee can", load_catalog())  # not changed by other


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


class TestUnreachedPaths:
    """A fast drop and a fast yaw step drive the free-fall clamp and the
    infeasible mixer, which no shipped scenario reaches."""
    TEXT = """
[run]
duration = 2.0
seed = 1
mode = baseline
eval_start = 0.0

[trajectory]
waypoints =
    0.0   0 0 2.0   0
    0.3   0 0 2.0   0
    0.6   0 0 1.0   0
    1.2   0 0 1.0   0
    1.25  0 0 1.0   1.6
"""

    def test_freefall_and_infeasible_ticks(self):
        cfg = parse_config(self.TEXT)
        log = run_scenario(cfg)
        assert log.events["freefall_ticks"] > 0
        assert log.events["infeasible_ticks"] > 0
        assert np.all(np.isfinite(log.data))
        rotors = log.columns("rotor1", "rotor2", "rotor3", "rotor4")
        assert rotors.min() >= 0.0 and rotors.max() <= cfg.vehicle.rotor.c_t


class TestRunInvariants:
    """grasp_estimate under payloads, grasp times and wind steps that no shipped
    scenario uses, so that the float kernels see inputs outside the shipped runs."""

    @settings(max_examples=8, deadline=None)
    @given(true_mass=st.floats(0.1, 0.6), grasp_time=st.floats(0.2, 0.6),
           wind_time=st.floats(0.0, 1.5),
           wind=st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    def test_log_invariants(self, true_mass, grasp_time, wind_time, wind):
        base = load_config("grasp_estimate")
        cfg = replace(base, mode="iags", duration=1.5, wind=[(wind_time, wind)],
                      obj=replace(base.obj, true_mass=true_mass, grasp_time=grasp_time))
        log = run_scenario(cfg)
        assert np.all(np.isfinite(log.data))
        q = log.columns("qw", "qx", "qy", "qz")
        assert np.abs(np.linalg.norm(q, axis=1) - 1.0).max() <= 1e-12
        rotors = log.columns("rotor1", "rotor2", "rotor3", "rotor4")
        assert rotors.min() >= 0.0 and rotors.max() <= cfg.vehicle.rotor.c_t
        assert np.all(np.diff(log.column("latched")) >= 0.0)  # the latch never clears
        assert log.column("m_obj_hat").min() >= 0.0


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
        cfg = replace(load_config("hover_payload"), mode="dob-only", duration=1.5,
                      dob_hz=dob_hz, servo_hz=servo_hz)
        log = run_scenario(cfg)
        veh = cfg.vehicle
        am = InertialParams(veh.mass, veh.p_b, veh.j_a)
        offset = (0.0, 0.0, -cfg.est.suction_pad)
        am_j = np.asarray(am.inertia_about_com).ravel().tolist()
        am_com = np.asarray(am.com).tolist()
        j_tilde = (np.eye(3) * 1e-8).ravel().tolist()
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
            tot = update_total(am.mass, am_j, am_com, float(m_obj[k]), j_tilde, offset,
                               theta[k].tolist(), cfg.arm.geom)
            kk = iags_gain(am_j, inverse3(am_j), tot.j_t_hat)
            want = [tot.m_t_hat, *tot.c_t, *tot.j_t_hat[::4], *kk]
            assert est[k].tolist() == [float(v) for v in want]


    def test_zero_mass_estimate_keeps_running(self):
        """An observer estimate clamped to zero makes the estimate the bare
        vehicle again. Here the payload never attaches and a near-zero
        threshold latches on sensor noise, so m_obj_hat sits at 0 on many
        ticks; each of them must still build a 3x3 estimate and its gain."""
        cfg = load_config("hover_payload")
        cfg = replace(cfg, mode="dob-only", duration=1.0,
                      obj=replace(cfg.obj, grasp_time=5.0),
                      est=replace(cfg.est, grasp_threshold=1e-9))
        log = run_scenario(cfg)
        assert log.events["attach_time"] is None and log.events["latch_time"] is not None
        latched = log.column("t") >= log.events["latch_time"]
        zero = latched & (log.column("m_obj_hat") == 0.0)
        assert zero.sum() > 10
        veh = cfg.vehicle
        bare = [veh.mass, *veh.p_b, *np.diag(veh.j_a), 1.0, 1.0, 1.0]
        est = log.columns("m_t_hat", "ctx_hat", "cty_hat", "ctz_hat",
                          "jtx_hat", "jty_hat", "jtz_hat", "kk_x", "kk_y", "kk_z")
        np.testing.assert_array_equal(est[zero], np.tile(bare, (zero.sum(), 1)))


class TestInputReuse:
    def test_unchanged_inputs_are_not_solved_again(self, monkeypatch):
        """grasp_estimate holds its arm at home and its CoM estimate on the
        rotor axis: one joint command serves all 500 servo ticks, and the
        allocation built at the start (once more at most) every refresh."""
        calls = {"joint_command": 0, "allocation": 0}

        def count(owner, name):
            inner = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        count(scenario.delta, "joint_command")
        count(scenario, "allocation")
        log = run_scenario(load_config("grasp_estimate"))
        assert log.config.mode == "iags" and log.events["latch_time"] is not None
        assert log.events["servo_ticks"] == 500 and log.events["kin_fallbacks"] == 0
        assert calls["joint_command"] == 1
        assert 1 <= calls["allocation"] <= 2


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
        cfg = replace(load_config("grasp_estimate"), duration=0.8)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(str(pa))
        b.to_csv(str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        cfg = replace(load_config("grasp_estimate"), duration=0.5)
        a = run_scenario(cfg)
        b = run_scenario(replace(cfg, seed=99))
        assert not np.array_equal(a.data, b.data)

    def test_cross_process_determinism(self, tmp_path):
        """Each child imports the amsim this test imported, whatever the caller's
        PYTHONPATH or an installed copy."""
        import subprocess
        src = os.path.dirname(os.path.dirname(os.path.abspath(scenario.__file__)))
        snippet = (
            "from dataclasses import replace\n"
            "from amsim.config import load_config\n"
            "from amsim.scenario import __file__, run_scenario\n"
            "cfg = replace(load_config('grasp_estimate'), duration=0.3)\n"
            "run_scenario(cfg).to_csv(r'{out}')\n"
            "print(__file__)\n")
        paths = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        for p in paths:
            child = subprocess.run([sys.executable, "-c", snippet.format(out=p)], check=True,
                                   env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                                   capture_output=True, text=True)
            assert child.stdout.strip() == os.path.abspath(scenario.__file__)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def replay_observer(log):
    """``m_obj_hat`` at every observer tick from the latch on, replayed from the
    logged ``fext_z`` through ``dob_step``, and the logged values; both as arrays."""
    cfg = log.config
    every = cfg.steps_per(cfg.dob_hz)
    latch = int(round(log.events["latch_time"] / cfg.sim_dt))
    assert latch % every == 0  # the latch is an observer tick
    ticks = np.arange(latch, log.data.shape[0], every)
    m_hat = log.events["m_tilde"] if cfg.mode == "iags" else 0.0
    replayed = []
    for f_z in log.column("fext_z")[ticks].tolist():
        m_hat = dob_step(m_hat, f_z, cfg.vehicle.mass, cfg.est.dob_c,
                         cfg.sim_dt * every, cfg.g)
        replayed.append(m_hat)
    return np.array(replayed), log.column("m_obj_hat")[ticks]


class TestModeEstimate:
    """What each mode logs as the payload mass estimate, on a noise-free
    grasp_estimate run past its latch; where the observer runs, its every
    tick is replayed from the logged filtered residual."""
    MODES = ["baseline", "pre-only", "dob-only", "iags"]

    @pytest.fixture(scope="class")
    def runs(self):
        cfg = load_config("grasp_estimate")
        cfg = replace(cfg, duration=2.5,
                      vehicle=replace(cfg.vehicle, accel_noise=0.0, gyro_noise=0.0))
        return {mode: run_scenario(replace(cfg, mode=mode)) for mode in self.MODES}

    @pytest.mark.parametrize("mode", MODES)
    def test_payload_estimate_per_mode(self, runs, mode):
        log = runs[mode]
        cfg, m_tilde = log.config, log.events["m_tilde"]
        latch = int(round(log.events["latch_time"] / cfg.sim_dt))
        assert 0 < latch < log.data.shape[0] - 100
        m_obj = log.column("m_obj_hat")
        assert np.all(m_obj[:latch] == 0.0)
        if mode == "baseline":
            assert m_tilde is None and np.all(m_obj == 0.0)
            assert np.all(log.columns("kk_x", "kk_y", "kk_z") == 1.0)
        elif mode == "pre-only":
            assert m_tilde > 0.0 and np.all(m_obj[latch:] == m_tilde)
        else:
            replayed, logged = replay_observer(log)
            assert replayed.tobytes() == logged.tobytes()
            assert (m_tilde is None) == (mode == "dob-only")

    @pytest.mark.parametrize("mode", ["iags", "dob-only"])
    @pytest.mark.parametrize("name", shipped_scenarios())
    def test_observer_replays_from_log(self, name, mode):
        """On every shipped scenario, with its sensor noise: the observer reads
        nothing but the logged filtered residual."""
        log = run_scenario(replace(load_config(name), mode=mode))
        replayed, logged = replay_observer(log)
        assert len(logged) > 100 and replayed.tobytes() == logged.tobytes()


class TestLatchTiming:
    def test_latch_follows_attach_by_persistence(self):
        cfg = replace(load_config("grasp_estimate"), duration=2.5)
        log = run_scenario(cfg)
        attach = log.events["attach_time"]
        latch = log.events["latch_time"]
        assert attach == pytest.approx(1.5, abs=1e-9)
        assert latch - attach == pytest.approx(cfg.est.grasp_persistence, abs=0.05)

    def test_no_detect_grasp_call_after_latch(self, monkeypatch):
        """The detector runs on each observer tick up to the latch and on none
        after it, and the latch never clears."""
        calls = []
        inner = scenario.adaptation.detect_grasp
        monkeypatch.setattr(scenario.adaptation, "detect_grasp",
                            lambda *args: calls.append(args) or inner(*args))
        log = run_scenario(load_config("grasp_estimate"))
        cfg, latch_time = log.config, log.events["latch_time"]
        dob_dt = cfg.sim_dt * cfg.steps_per(cfg.dob_hz)
        assert 0.0 < latch_time < cfg.duration - 1.0
        assert len(calls) == round(latch_time / dob_dt) + 1  # tick 0 up to the latch tick
        latched = log.column("latched")
        first = int(np.argmax(latched))
        assert first == round(latch_time / cfg.sim_dt) and np.all(latched[first:] == 1.0)


def ref_evaluate(log, eval_start=0.0):
    """The former ``metrics.evaluate``: a boolean mask over ``t`` and one np.ix_
    gather, kept as the oracle of the time slice."""
    t = log.column("t")
    mask = t >= eval_start
    if not np.any(mask):
        raise ValueError("evaluation window contains no samples")
    names = ("px", "py", "pz", "px_des", "py_des", "pz_des",
             "qw", "qx", "qy", "qz", "qw_des", "qx_des", "qy_des", "qz_des",
             "wx", "wy", "wz", "wx_des", "wy_des", "wz_des")
    window = log.data[np.ix_(mask, [log.names.index(n) for n in names])]
    pos, pos_des = window[:, 0:3], window[:, 3:6]
    q, q_des = window[:, 6:10], window[:, 10:14]
    w, w_des = window[:, 14:17], window[:, 17:20]

    def rms(x):
        return float(np.sqrt(np.mean(np.square(x))))

    pe = pos - pos_des
    pe_norm = np.linalg.norm(pe, axis=1)
    ang = metrics._attitude_angle(q, q_des)
    we_norm = np.linalg.norm(w - w_des, axis=1)
    channels = {
        "position": (rms(pe_norm), float(pe_norm.max())),
        "position_x": (rms(pe[:, 0]), float(np.abs(pe[:, 0]).max())),
        "position_y": (rms(pe[:, 1]), float(np.abs(pe[:, 1]).max())),
        "position_z": (rms(pe[:, 2]), float(np.abs(pe[:, 2]).max())),
        "attitude": (rms(ang), float(ang.max())),
        "rate": (rms(we_norm), float(we_norm.max())),
    }
    return metrics.MetricReport(channels=channels, window=(float(eval_start), float(t[-1])))


def ref_declare_convergence(log, bounds=metrics.CONVERGENCE_BOUNDS):
    """The former ``declare_convergence``: per-axis errors of (rows, 3) copies."""
    t = log.column("t")
    m_true = log.column("m_t_true")
    mass_err = np.abs(log.column("m_t_hat") - m_true) / np.maximum(np.abs(m_true), 1e-12)
    c_err = np.abs(log.columns("ctx_hat", "cty_hat", "ctz_hat")
                   - log.columns("ctx_true", "cty_true", "ctz_true")).max(axis=1)
    j_true = log.columns("jtx_true", "jty_true", "jtz_true")
    j_err = (np.abs(log.columns("jtx_hat", "jty_hat", "jtz_hat") - j_true)
             / np.maximum(np.abs(j_true), 1e-18)).max(axis=1)
    return {name: metrics._first_stay_within(t, err, bound) for name, err, bound in
            zip(("mass", "moi", "com"), (mass_err, j_err, c_err), bounds)}


def report_bits(rep):
    """A report's channel names and the bytes of its values and window."""
    values = [v for pair in rep.channels.values() for v in pair] + list(rep.window)
    return list(rep.channels), np.array(values).tobytes()


def noisy_log(t, rng):
    """``make_log`` with every tracked and estimated channel drawn at random."""
    log = make_log(t)
    log.data[:, 1:] = rng.standard_normal((len(t), len(COLUMNS) - 1))
    return log


class TestMetrics:
    @pytest.fixture(scope="class")
    def shipped_runs(self):
        """Every shipped scenario in each engine mode, cut to 1 s past eval_start."""
        runs = {}
        for name in shipped_scenarios():
            cfg = load_config(name)
            for mode in ("baseline", "iags", "pre-only", "dob-only"):
                runs[name, mode] = run_scenario(replace(cfg, mode=mode,
                                                        duration=cfg.eval_start + 1.0))
        return runs

    def test_slice_equals_mask_oracle_on_shipped_runs(self, shipped_runs):
        assert len(shipped_runs) == 4 * len(shipped_scenarios())
        for log in shipped_runs.values():
            for start in (log.config.eval_start, 0.0):
                assert (report_bits(metrics.evaluate(log, start))
                        == report_bits(ref_evaluate(log, start)))
            assert metrics.declare_convergence(log) == ref_declare_convergence(log)

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct_t", "repeated_t"])
    def test_slice_equals_mask_oracle_at_each_start(self, rng, ties):
        """eval_start before, on, between and after the samples (on a repeated
        time, every row of it is in the window)."""
        t = np.repeat(np.arange(30) * 0.01, 2) if ties else np.arange(60) * 0.01
        log = noisy_log(t, rng)
        for start in (-math.inf, -1.0, t[0], t[20], 0.5 * (t[20] + t[22]),
                      np.nextafter(t[20], -1.0), np.nextafter(t[20], 1.0), t[-1]):
            got, want = metrics.evaluate(log, start), ref_evaluate(log, start)
            assert report_bits(got) == report_bits(want)
        for start in (t[-1] + 0.01, math.inf, math.nan):
            for fn in (metrics.evaluate, ref_evaluate):
                with pytest.raises(ValueError, match="^evaluation window contains no samples$"):
                    fn(log, start)

    def test_empty_log_window_message(self):
        with pytest.raises(ValueError, match="^evaluation window contains no samples$"):
            metrics.evaluate(make_log(np.zeros(0)))

    @pytest.mark.parametrize("t", [[0.0, 0.02, 0.01, 0.03], [0.0, math.nan, 0.02, 0.03],
                                   [math.nan, 0.01, 0.02, 0.03], [math.nan],
                                   (np.arange(10) * 0.1)[::-1].tolist()],
                             ids=["unsorted", "nan_inside", "nan_first", "lone_nan", "reversed"])
    def test_t_not_non_decreasing_refused(self, t, rng):
        """Every analysis checks ``t`` first, so a NaN time is not reported as a
        grid mismatch, whichever side of a comparison it is on."""
        log = noisy_log(np.array(t), rng)
        good = noisy_log(np.arange(len(t)) * 0.01, rng)
        for call in (lambda: metrics.evaluate(log), lambda: metrics.declare_convergence(log),
                     lambda: metrics.compare_runs(log, log),
                     lambda: metrics.compare_runs(log, good),
                     lambda: metrics.compare_runs(good, log)):
            with pytest.raises(ValueError, match="^log time column t is not non-decreasing$"):
                call()

    def test_convergence_equals_column_copy_oracle(self, rng):
        """Random estimates with NaNs, zeros and -0.0 in the truth."""
        log = noisy_log(np.arange(400) * 0.01, rng)
        log.data[rng.random(log.data.shape) < 0.01] = math.nan
        log.data[:, 0] = np.arange(400) * 0.01
        for name in ("jtx_true", "ctz_true", "m_t_true"):
            log.data[::7, COLUMNS.index(name)] = rng.choice([0.0, -0.0], 58)
        for bounds in (metrics.CONVERGENCE_BOUNDS, (10.0, 10.0, 10.0), (1e3, 1e9, 1e3)):
            assert metrics.declare_convergence(log, bounds) == ref_declare_convergence(log, bounds)

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

    @pytest.mark.parametrize("tail", [[math.nan] * 5, [1.0, 1.0, math.nan, math.nan, math.nan]])
    def test_nan_estimate_never_converges(self, tail):
        t = np.arange(10) * 0.1
        ones = np.ones(10)
        m_hat = np.concatenate([np.full(5, 2.0), tail])
        cx_hat = np.concatenate([np.zeros(5), tail])
        log = make_log(t, m_t_hat=m_hat, m_t_true=ones, ctx_hat=cx_hat,
                       jtx_hat=m_hat, jty_hat=ones, jtz_hat=ones,
                       jtx_true=ones, jty_true=ones, jtz_true=ones)
        assert metrics.declare_convergence(log) == {"mass": None, "moi": None, "com": None}

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

    def test_compare_tolerances_are_absolute(self):
        """Timestamps 8e-6 relative and setpoints 15 µm apart are within numpy's
        default rtol but not within the grid's 1e-12 s or the setpoints' 1e-9 m."""
        t = np.arange(10000) * 0.0005
        ref = make_log(t, px_des=np.full(10000, 2.0))
        for cand, message in ((make_log(t * (1 + 8e-6), px_des=np.full(10000, 2.000015)),
                               "timestamp grids differ"),
                              (make_log(t * (1 + 8e-6), px_des=np.full(10000, 2.0)),
                               "timestamp grids differ"),
                              (make_log(t, px_des=np.full(10000, 2.000015)),
                               "position setpoints differ")):
            with pytest.raises(MismatchedRuns, match=f"^{message}"):
                metrics.compare_runs(cand, ref)
        metrics.compare_runs(make_log(t + 5e-13, px_des=np.full(10000, 2.0 + 5e-10)), ref)


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
    """The CSV against ``per_value_csv``, and its sidecar against the rows (each NaN
    stored as np.nan) in a standard .npy, followed by the CSV's ``ref_digest``."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    log.to_csv(str(got))
    per_value_csv(log, str(want))
    assert got.read_bytes() == want.read_bytes()
    npy = io.BytesIO()
    np.lib.format.write_array(npy, np.where(np.isnan(log.data), np.nan, log.data))
    assert sidecar_of(got).read_bytes() == npy.getvalue() + ref_digest(want.read_bytes())
    return got


CSV_SPECIALS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                1e308, 0.1, 1.0 / 3.0]
# no block, one, one full, two, and four blocks: enough for three workers
SYNTHETIC_ROWS = [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 1]


def synthetic_log(n_rows):
    """Values over 600 decades plus signed zeros, NaN, infinities and subnormals."""
    rng = np.random.default_rng(n_rows)
    data = rng.standard_normal((n_rows, len(COLUMNS))) * 10.0 ** rng.integers(
        -300, 300, (n_rows, len(COLUMNS)))
    data[:, 1] = np.resize([-0.0, 0.0], n_rows)          # signed zeros, one column
    data[:, 2] = np.resize(CSV_SPECIALS, n_rows)
    data[:, 3] = np.resize(CSV_SPECIALS[::-1], n_rows)
    data[:, 4] = 7.25                                     # repeated in every block
    data[:, 5] = np.repeat(rng.standard_normal(n_rows // 4 + 1), 4)[:n_rows]
    return RunLog(names=list(COLUMNS), data=data)


def forks(monkeypatch):
    """Count the ``os.fork`` calls made in this process; returns the list of child pids."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


class TestCsvWriterOracle:
    """to_csv formats blocks of rows on one worker per core: forked children format
    all shares but the first, and the bytes are those of one worker."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        """Fail rather than hang if a write never returns; leave no worker behind."""
        def hung(signum, frame):
            raise TimeoutError("RunLog.to_csv did not return within 60 s")
        handler = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        with pytest.raises(ChildProcessError):  # every forked worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n_rows", SYNTHETIC_ROWS)
    def test_synthetic_log_bytes(self, tmp_path, monkeypatch, n_rows):
        log = synthetic_log(n_rows)
        for n_cores in (1, 2, 3):
            with monkeypatch.context() as mp:
                cores(mp, n_cores)
                pids = forks(mp)
                assert_same_csv_bytes(log, tmp_path)
            # at most one worker a block: a header-only or one-block log forks nothing
            assert len(pids) == max(1, min(n_cores, -(-n_rows // CSV_BLOCK_ROWS))) - 1

    def test_shipped_log_bytes_and_readback(self, tmp_path, monkeypatch):
        log = run_scenario(load_config("grasp_estimate"))
        for n_cores in (1, 2, 3):
            with monkeypatch.context() as mp:
                cores(mp, n_cores)
                pids = forks(mp)
                path = assert_same_csv_bytes(log, tmp_path)
            assert len(pids) == n_cores - 1
            back = RunLog.from_csv(str(path))
            assert back.names == log.names and back.events["csv_sidecar"] == "hit"
            assert back.data.tobytes() == log.data.tobytes()

    def test_no_fork_while_another_thread_runs(self, tmp_path, monkeypatch):
        cores(monkeypatch, 3)
        pids = forks(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            assert_same_csv_bytes(synthetic_log(3 * CSV_BLOCK_ROWS + 1), tmp_path)
        finally:
            release.set()
            other.join(30)
        assert pids == [] and not other.is_alive()

    @pytest.mark.parametrize("previous", [True, False], ids=["previous", "none"])
    @pytest.mark.parametrize("fault, target", [
        ("child", (np, "unique")), ("parent", (np, "unique")), ("copy", (os, "read")),
        ("rename", (os, "replace")),
    ], ids=["child", "parent", "copy", "rename"])
    def test_failed_write_leaves_the_previous_log(self, tmp_path, monkeypatch, previous,
                                                  fault, target):
        """A failure in a worker's share, in this process's share, while copying a
        child's text or at the rename raises here and leaves the directory as it was."""
        path = tmp_path / "log.csv"
        if previous:
            synthetic_log(1).to_csv(path)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        cores(monkeypatch, 3)
        pids = forks(monkeypatch)
        caller, call = os.getpid(), getattr(*target)

        def failing(*args, **kwargs):  # np.unique fails in the process the fault names
            if fault in ("copy", "rename") or (os.getpid() != caller) == (fault == "child"):
                raise OSError(28, "injected fault")
            return call(*args, **kwargs)
        monkeypatch.setattr(*target, failing)
        message = "CSV worker [0-9]+ failed" if fault == "child" else "injected fault"
        with pytest.raises(OSError, match=message):
            synthetic_log(3 * CSV_BLOCK_ROWS + 1).to_csv(path)
        monkeypatch.undo()
        assert len(pids) == 2
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
        if previous:
            assert RunLog.from_csv(path).events["csv_sidecar"] == "hit"


def sidecar_of(path):
    return path.with_name(path.name + ".npy")


def snapshot(directory):
    return {f.name: f.stat().st_mtime_ns for f in directory.iterdir()}


def sized_log(n_bytes):
    """A log of ones in 64 columns whose CSV is exactly ``n_bytes`` long: a header of
    at least 128 bytes, the first name padded, and rows of 256 bytes."""
    rows, pad = divmod(n_bytes - 128, 256)
    return RunLog(names=["a" * (1 + pad)] + ["a"] * 63, data=np.ones((rows, 64)))


def ref_digest(raw: bytes) -> bytes:
    """The sidecar digest written out in one thread: the byte length, then each chunk's."""
    chunks = [raw[i:i + CSV_CHUNK] for i in range(0, len(raw), CSV_CHUNK)]
    return hashlib.sha256(len(raw).to_bytes(8, "little")
                          + b"".join(hashlib.sha256(c).digest() for c in chunks)).digest()


def cores(monkeypatch, n):
    """Make ``_csv_digest`` see ``n`` usable cores; returns the list of threads it starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


class TestCsvSidecar:
    """RunLog.to_csv writes ``<log>.csv.npy``; from_csv uses it only when it matches."""

    @pytest.fixture
    def written(self, tmp_path):
        log = run_scenario(parse_config(HOVER_QUIET.format(dur=0.02)))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        return log, path

    def test_hit_skips_the_parse(self, written, monkeypatch):
        log, path = written

        def no_parse(*args, **kwargs):
            raise AssertionError("np.loadtxt called")
        monkeypatch.setattr(np, "loadtxt", no_parse)
        back = RunLog.from_csv(path)
        assert back.events == {"csv_sidecar": "hit"}
        assert back.names == log.names
        assert back.data.tobytes() == log.data.tobytes()

    def test_sidecar_is_a_standard_npy(self, written):
        log, path = written
        np.testing.assert_array_equal(np.load(sidecar_of(path)), log.data)

    def test_absent(self, written):
        log, path = written
        sidecar_of(path).unlink()
        back = RunLog.from_csv(path)
        assert back.events["csv_sidecar"] == "absent"
        assert back.data.tobytes() == log.data.tobytes()

    def test_stale_after_one_digit_changes(self, written):
        _, path = written
        text = path.read_text()
        at = text.index("0.0", text.index("\n"))
        path.write_text(text[:at] + "1" + text[at + 1:])
        back = RunLog.from_csv(path)
        assert back.events["csv_sidecar"] == "stale"
        want = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert back.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("damage", ["truncated", "columns", "tail31", "tail33",
                                        "big_endian", "garbage"])
    def test_unreadable_falls_back(self, written, damage):
        log, path = written
        side = sidecar_of(path)
        raw = side.read_bytes()
        digest = raw[-32:]
        if damage == "truncated":
            side.write_bytes(raw[:len(raw) // 2])
        elif damage == "columns":
            with open(side, "wb") as fh:
                np.lib.format.write_array(fh, log.data[:, :-1].copy())
                fh.write(digest)
        elif damage == "tail31":
            side.write_bytes(raw[:-1])
        elif damage == "tail33":
            side.write_bytes(raw + b"\0")
        elif damage == "big_endian":
            with open(side, "wb") as fh:
                np.lib.format.write_array(fh, log.data.astype(">f8"))
                fh.write(digest)
        else:
            side.write_bytes(b"not an npy file")
        back = RunLog.from_csv(path)
        assert back.events["csv_sidecar"] == "unreadable"
        assert back.data.tobytes() == log.data.tobytes()

    @pytest.mark.parametrize("n_rows", SYNTHETIC_ROWS)
    def test_hit_has_the_bits_of_a_parse(self, tmp_path, n_rows):
        path = tmp_path / "log.csv"
        log = synthetic_log(n_rows)
        # NaNs with the sign bit set (x86's default NaN) and a payload print as "nan"
        log.data[:, 6] = np.resize([-math.nan, np.inf - np.inf,
                                    np.int64(0x7FF0000000000001).view(np.float64)], n_rows)
        log.to_csv(path)
        hit = RunLog.from_csv(path)
        sidecar_of(path).unlink()
        parsed = RunLog.from_csv(path)
        assert (hit.events["csv_sidecar"], parsed.events["csv_sidecar"]) == ("hit", "absent")
        assert hit.data.shape == parsed.data.shape == (n_rows, len(COLUMNS))
        assert hit.data.tobytes() == parsed.data.tobytes()
        if n_rows:
            want = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert hit.data.tobytes() == want.tobytes()

    def test_header_only_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        RunLog(names=list(COLUMNS), data=np.empty((0, len(COLUMNS)))).to_csv(path)
        assert path.read_text() == ",".join(COLUMNS) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hit = RunLog.from_csv(path)
            sidecar_of(path).unlink()
            parsed = RunLog.from_csv(path)
        assert hit.events["csv_sidecar"] == "hit"
        assert hit.data.shape == parsed.data.shape == (0, len(COLUMNS))

    def test_row_width_must_match_header(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("a,b,c\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="2 values a row, 3 names"):
            RunLog.from_csv(path)
        # a sidecar with the CSV's digest but 2 columns is refused as well
        RunLog(names=["a", "b", "c"], data=np.ones((2, 2))).to_csv(path)
        with pytest.raises(ValueError, match="2 values a row, 3 names"):
            RunLog.from_csv(path)

    def test_cli_narrow_csv_config_error(self, tmp_path, capsys):
        path = tmp_path / "narrow.csv"
        path.write_text("t,px,py\n0.0,1.0\n")
        assert cli.main(["metrics", str(path)]) == 1
        assert cli.main(["compare", str(path), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("config error: ") == 2 and "Traceback" not in err

    def test_reads_write_nothing(self, written):
        _, path = written
        before = snapshot(path.parent)
        assert RunLog.from_csv(path).events["csv_sidecar"] == "hit"
        assert snapshot(path.parent) == before
        path.write_text(path.read_text().replace("1.0", "2.0", 1))
        before = snapshot(path.parent)
        assert RunLog.from_csv(path).events["csv_sidecar"] == "stale"
        assert snapshot(path.parent) == before
        sidecar_of(path).unlink()
        before = snapshot(path.parent)
        assert RunLog.from_csv(path).events["csv_sidecar"] == "absent"
        assert snapshot(path.parent) == before

    @pytest.mark.parametrize("n_bytes", [CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1])
    def test_stored_digest_at_chunk_edges(self, tmp_path, n_bytes):
        path = tmp_path / "log.csv"
        sized_log(n_bytes).to_csv(path)
        raw = path.read_bytes()
        assert len(raw) == n_bytes
        stored = sidecar_of(path).read_bytes()[-32:]
        assert stored == _csv_digest(str(path))[0] == ref_digest(raw)
        assert RunLog.from_csv(path).events["csv_sidecar"] == "hit"

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_digest_same_for_any_worker_count(self, tmp_path, monkeypatch, n_cores):
        path = tmp_path / "blob"
        raw = np.random.default_rng(5).bytes(3 * CSV_CHUNK + 12345)
        path.write_bytes(raw)
        started = cores(monkeypatch, n_cores)
        assert _csv_digest(str(path)) == (ref_digest(raw), None)
        assert len(started) == n_cores - 1

    def test_digest_of_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        assert _csv_digest(str(path))[0] == ref_digest(b"")

    def test_stress_more_workers_than_cores(self, tmp_path, monkeypatch):
        """Eight workers share out 10 chunks under a tiny switch interval: a chunk
        skipped or hashed into the wrong slot would change the digest."""
        path = tmp_path / "blob"
        raw = np.random.default_rng(6).bytes(9 * CSV_CHUNK + 7)
        path.write_bytes(raw)
        started = cores(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert _csv_digest(str(path))[0] == ref_digest(raw)
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 5 * 7 and not any(t.is_alive() for t in started)

    def test_stale_after_one_digit_changes_in_last_chunk(self, tmp_path):
        path = tmp_path / "log.csv"
        sized_log(2 * CSV_CHUNK + 1000).to_csv(path)
        raw = path.read_bytes()
        at = raw.rindex(b"1.0")
        path.write_bytes(raw[:at] + b"2" + raw[at + 1:])
        back = RunLog.from_csv(path)
        assert back.events["csv_sidecar"] == "stale"
        assert back.data[-1, -1] == 2.0 and back.data.sum() == back.data.size + 1

    def test_old_plain_sha256_sidecar_reads_stale(self, written):
        """A sidecar written before the chunked digest ends in the SHA-256 of the CSV."""
        log, path = written
        side = sidecar_of(path)
        side.write_bytes(side.read_bytes()[:-32] + hashlib.sha256(path.read_bytes()).digest())
        back = RunLog.from_csv(path)
        assert back.events["csv_sidecar"] == "stale"
        assert back.data.tobytes() == log.data.tobytes()

    @pytest.mark.parametrize("outcome", ["hit", "unreadable"])
    def test_no_thread_outlives_a_read(self, tmp_path, monkeypatch, outcome):
        path = tmp_path / "log.csv"
        sized_log(3 * CSV_CHUNK + 1).to_csv(path)  # four chunks
        if outcome == "unreadable":
            sidecar_of(path).write_bytes(b"not an npy file")
        started = cores(monkeypatch, 4)
        before = threading.active_count()
        assert RunLog.from_csv(path).events["csv_sidecar"] == outcome
        assert threading.active_count() == before and len(started) == 3

    def test_helper_error_raised_in_caller(self, tmp_path, monkeypatch):
        path = tmp_path / "log.csv"
        sized_log(3 * CSV_CHUNK).to_csv(path)
        preadv = os.preadv

        def failing(fd, buffers, offset):
            if threading.current_thread() is not threading.main_thread():
                raise OSError(5, "injected read error")
            return preadv(fd, buffers, offset)
        monkeypatch.setattr(os, "preadv", failing)
        started = cores(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(OSError, match="injected read error"):
            RunLog.from_csv(path)
        assert threading.active_count() == before and len(started) == 1

    def test_cli_output_same_with_and_without_sidecar(self, tmp_path, capsys):
        assert cli.main(["run", "grasp_estimate", "--duration", "0.5",
                         "--out", str(tmp_path)]) == 0
        path = tmp_path / "grasp_estimate_iags.csv"
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "grasp_estimate_iags.csv", "grasp_estimate_iags.csv.npy"]
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert cli.main(["metrics", str(path)]) == 0
            assert cli.main(["compare", str(path), str(path)]) == 0
            outputs.append(capsys.readouterr().out)
            sidecar_of(path).unlink(missing_ok=True)
        assert outputs[0] == outputs[1] and "position" in outputs[0]


class TestCli:
    def test_run_and_metrics_roundtrip(self, tmp_path):
        rc = cli.main(["run", "grasp_estimate", "--duration", "0.5",
                       "--out", str(tmp_path)])
        assert rc == 0
        log_path = tmp_path / "grasp_estimate_iags.csv"
        assert log_path.exists()
        assert cli.main(["metrics", str(log_path)]) == 0
        assert cli.main(["compare", str(log_path), str(log_path)]) == 0

    def test_unwritable_out_exit_4(self, tmp_path, capsys):
        """An output that cannot be written is one `io error:` line, exit 4."""
        (tmp_path / "file").write_text("")
        assert cli.main(["run", "grasp_estimate", "--out", str(tmp_path / "file" / "sub")]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("io error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("kind", ["--workspace", "--uncertainty"])
    def test_sweep_out_in_missing_directory_exit_4(self, tmp_path, capsys, kind):
        """An output in a missing directory is an I/O error, not a missing input."""
        out = tmp_path / "no" / "grid.csv"
        assert cli.main(["sweep", kind, "--grid-n", "5", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (f"io error: cannot write {out}: "
                                           "No such file or directory\n")

    def test_metrics_of_unsorted_log_exit_1(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        make_log(np.array([0.0, 0.02, 0.01])).to_csv(str(path))
        assert cli.main(["metrics", str(path)]) == 1
        assert capsys.readouterr().err == ("config error: log time column t is not "
                                           "non-decreasing\n")
        assert cli.main(["compare", str(path), str(path)]) == 1

    def test_missing_scenario_exit_1(self):
        assert cli.main(["run", "definitely_not_here"]) == 1

    @pytest.mark.parametrize("mode_arg, mode", [("iags+dob", "iags"), ("baseline", "baseline")])
    def test_run_overrides_are_one_replace(self, tmp_path, mode_arg, mode):
        """--mode, --seed and --duration give the log of the config they replace."""
        assert cli.main(["run", "grasp_estimate", "--mode", mode_arg, "--seed", "3",
                         "--duration", "0.2", "--out", str(tmp_path)]) == 0
        cfg = replace(load_config("grasp_estimate"), mode=mode, seed=3, duration=0.2)
        run_scenario(cfg).to_csv(str(tmp_path / "ref.csv"))
        assert ((tmp_path / f"grasp_estimate_{mode}.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_duration_below_one_step_exit_1_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "hover_payload", "--duration", "1e-4",
                         "--out", str(out)]) == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_duration_exit_1(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert cli.main(["run", "hover_payload", "--duration", value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: duration and sim_dt must be positive and finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("line", ["duration = inf", "duration = nan"])
    def test_non_finite_duration_in_file_exit_1(self, tmp_path, capsys, line):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"[run]\n{line}\n")
        assert cli.main(["run", str(cfg_file), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: duration and sim_dt")
        assert [f.name for f in tmp_path.iterdir()] == ["bad.cfg"]

    def test_eval_start_past_the_end_is_noted(self, tmp_path, capsys):
        """grasp_estimate evaluates from 0.5 s: a shorter run says that its
        metrics cover the whole run, and they do."""
        assert cli.main(["run", "grasp_estimate", "--duration", "0.3",
                         "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("note: eval_start 0.5 s is not before the end of the "
                                "0.3 s run; the metrics cover the whole run\n")
        log = RunLog.from_csv(str(tmp_path / "grasp_estimate_iags.csv"))
        rmse = metrics.evaluate(log, eval_start=0.0).rmse("position")
        assert f"position   rmse={rmse:.6f}" in captured.out
        assert cli.main(["run", "grasp_estimate", "--duration", "0.6",
                         "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

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
        captured = capsys.readouterr()
        assert captured.err.startswith("runtime error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [["--j-scale", "0"], ["--kk-scale", "nan"],
                                       ["--kk-scale", "-1"]])
    def test_margins_bad_scale_prints_no_table(self, capsys, flags):
        assert cli.main(["margins", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert captured.out == ""

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

    def test_sweep_workspace_csv_holds_plain_floats(self, tmp_path):
        out = tmp_path / "ws.csv"
        assert cli.main(["sweep", "--workspace", "--grid-n", "3", "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "axis,kk_max,theta1,theta2,theta3"
        assert [r.split(",")[0] for r in rows] == ["x", "y", "z"]
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row.split(",")[1:])

    def test_sweep_workspace_zero_mass_writes_nan_angles(self, tmp_path):
        out = tmp_path / "f.csv"
        assert cli.main(["sweep", "--workspace", "--mass", "0", "--out", str(out)]) == 0
        _, *rows = out.read_text().splitlines()
        assert [r.split(",")[:2] for r in rows] == [["x", "1.0"], ["y", "1.0"], ["z", "1.0"]]
        assert all(math.isnan(float(v)) for r in rows for v in r.split(",")[2:])

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
        """The whole output on a seeded can cloud: box, mass, MoI and grasp offset."""
        from amsim.presense import sample_cylinder_cloud
        cloud = tmp_path / "can.xyz"
        np.savetxt(str(cloud), sample_cylinder_cloud(0.08, 0.12, 5000, rng))
        assert cli.main(["estimate", "--cloud", str(cloud),
                         "--label", "coffee can"]) == 0
        assert capsys.readouterr().out == (
            "box dims: 0.1200 x 0.0797 x 0.0793 m, center (0.0001, -0.0001, -0.0000)\n"
            "mass estimate: 0.2216 kg (volume 5.957851e-04 m^3)\n"
            "MoI estimate (box axes): 1.750964e-04 3.515859e-04 3.527663e-04 kg m^2\n"
            "grasp offset: (0.0000, 0.0000, -0.0700) m\n")

    def test_estimate_rotated_box(self, tmp_path, rng, capsys):
        """The whole output on a seeded box cloud turned and moved off the origin."""
        from amsim.presense import sample_box_cloud
        cloud = tmp_path / "box.xyz"
        rotation = random_rotation(rng)
        np.savetxt(str(cloud), sample_box_cloud([0.15, 0.12, 0.07], 3000, rng) @ rotation.T
                   + [1.0, -2.0, 0.5])
        assert cli.main(["estimate", "--cloud", str(cloud),
                         "--label", "solid cardboard box"]) == 0
        assert capsys.readouterr().out == (
            "box dims: 0.1499 x 0.1200 x 0.0700 m, center (1.0001, -2.0000, 0.5000)\n"
            "mass estimate: 0.2265 kg (volume 1.258509e-03 m^3)\n"
            "MoI estimate (box axes): 3.641387e-04 5.168063e-04 6.961938e-04 kg m^2\n"
            "grasp offset: (0.0000, 0.0000, -0.0850) m\n")
